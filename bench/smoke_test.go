package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the harness's
// own catalog of workloads and metrics in step.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(body, &onDisk); err != nil {
		t.Fatal(err)
	}
	generated, err := json.Marshal(benchmarkManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(generated, &inCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Fatal("BENCHMARK.json differs from the harness's catalog; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}
	seen := make(map[string]bool)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !metricName.MatchString(d.Name) {
				t.Errorf("metric name %q is not of the allowed form", d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestSmokeWorkloads runs every workload at about 1/50 scale, timed and
// traced, and checks that every metric BENCHMARK.json names is emitted and
// finite, that outputs verify, and that the traced run's span tree is well
// formed (runWorkload checks the tree and counts a malformed one as a failed
// operation).
func TestSmokeWorkloads(t *testing.T) {
	outDir := t.TempDir()
	for _, w := range workloadDefs {
		w := w
		t.Run(w.name, func(t *testing.T) {
			timed, err := runWorkload(w, runParams{seed: 7, seconds: 0.4, scale: 0.02, outDir: outDir})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, timed, endToEnd, true)

			traced, err := runWorkload(w, runParams{seed: 7, seconds: 0.8, traced: true, scale: 0.02, outDir: outDir})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, perLayer, false)
			if traced.Metrics["ops_attempted"].Value < 1 {
				t.Error("traced run attempted no operation")
			}
			body, err := os.ReadFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []traceEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(body, &trace); err != nil {
				t.Fatalf("trace file does not load: %v", err)
			}
			roots := 0
			for _, ev := range trace.TraceEvents {
				if ev.Name == spanJob {
					roots++
				}
			}
			if roots == 0 {
				t.Error("trace file holds no job span")
			}
		})
	}
}

func checkRun(t *testing.T, r runResult, want []metricDef, nonZero bool) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Notes)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", r.Workload, len(r.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", r.Workload, d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", r.Workload, d.Name, m.Value)
		}
		if nonZero && m.Value == 0 {
			t.Errorf("%s: end-to-end metric %s is 0", r.Workload, d.Name)
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
		}
	}
	if _, err := json.Marshal(r.wire()); err != nil {
		t.Errorf("%s: result does not encode: %v", r.Workload, err)
	}
}

// TestSpanTreeChecks pins what checkSpanTree accepts and rejects.
func TestSpanTreeChecks(t *testing.T) {
	rec := newSpanRecorder(4)
	epoch := time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)
	msDur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	at := func(ms int) time.Time { return epoch.Add(msDur(ms)) }
	root := rec.begin("j", spanJob, at(0))
	sub := rec.begin("j", spanSubmit, at(0))
	rec.addSim("j", "cos.client.put", "", at(1), at(3), false)
	rec.end(sub, at(5))
	col := rec.begin("j", spanCollect, at(5))
	rec.end(col, at(9))
	rec.end(root, at(10))
	rec.addSim("j", "faas.exec", "", at(2), at(8), false)
	rec.addSim("j", "faas.exec", "late", at(8), at(12), false) // outlives the job: dropped
	rec.link()
	if err := checkSpanTree(rec.spans); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	if rec.orphans != 1 {
		t.Errorf("orphans = %d, want 1", rec.orphans)
	}
	self := selfTimes(rec.spans)
	if got := self[root]; got != msDur(1) { // 10 ms minus submit 5, collect 4; exec is covered by them
		t.Errorf("root self time = %v, want 1ms", got)
	}
	bad := append([]span(nil), rec.spans...)
	bad[len(bad)-1].SimEnd = at(20)
	if err := checkSpanTree(bad); err == nil {
		t.Error("child outside its parent was accepted")
	}
}

// TestCompareVerdicts pins the agreement rule and the quartile method it
// shares with the acceptance check (Python's statistics.quantiles, n=4).
func TestCompareVerdicts(t *testing.T) {
	q1, q2, q3 := quartilesExclusive([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.05}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.05}
	hostTimed := metricDef{Name: "h", Better: "lower", Bound: 0.05, host: true}
	tight := func(m float64) side { return side{median: m, q1: m * 0.995, q3: m * 1.005, n: 10} }
	wide := side{median: 100, q1: 90, q3: 110, n: 10}
	for _, c := range []struct {
		d     metricDef
		a, b  side
		noisy bool
		want  string
	}{
		{lower, tight(100), tight(104), false, "ok"},
		{lower, tight(100), tight(106), false, "regressed"},
		{lower, tight(100), tight(80), false, "ok"},
		{higher, tight(100), tight(94), false, "regressed"},
		{higher, tight(100), tight(120), false, "ok"},
		{lower, wide, tight(120), false, "unresolved"},
		{lower, tight(100), tight(106), true, "regressed"}, // a noisy file blurs only host-timed metrics
		{hostTimed, tight(100), tight(106), true, "unresolved"},
		{metricDef{Name: "z"}, tight(1), tight(2), false, "layer"},
	} {
		if got := verdict(c.d, c.a, c.b, c.noisy); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.a.median, c.b.median, got, c.want)
		}
	}
}
