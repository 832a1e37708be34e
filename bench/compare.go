package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// side is one result file's view of a (workload, metric): the median and
// quartiles over its runs — or, with a single run, over that run's
// repetitions.
type side struct {
	median, q1, q3 float64
	n              int
}

func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs((s.q3 - s.q1) / s.median)
}

func sides(f resultFile) map[metricKey]side {
	out := make(map[metricKey]side)
	for key, vals := range perRunValues(f) { //gowren:allow mapiter — one entry written per key; order-independent
		q1, q2, q3 := quartilesExclusive(vals)
		out[key] = side{median: q2, q1: q1, q3: q3, n: len(vals)}
	}
	for _, r := range f.Runs {
		for name, m := range r.Metrics { //gowren:allow mapiter — one entry written per key; order-independent
			key := metricKey{r.Workload, name}
			if out[key].n == 1 {
				out[key] = side{median: m.Value, q1: m.Q1, q3: m.Q3, n: 1}
			}
		}
	}
	return out
}

// verdict applies the benchmark's own rule to a pair of medians: unresolved
// when either side's quartile spread is wider than the bound, or when the
// metric is host-timed and either file was flagged noisy; regressed when b
// is worse than a by more than the bound; ok otherwise.
func verdict(d metricDef, a, b side, noisy bool) string {
	if d.Bound == 0 {
		return "layer"
	}
	if a.spread() > d.Bound || b.spread() > d.Bound || (noisy && d.host) {
		return "unresolved"
	}
	if a.median == 0 {
		return "unresolved"
	}
	worse := (b.median - a.median) / math.Abs(a.median)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, metric) the two files share.
// It returns 1 if any end-to-end metric regressed, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(w, "bench:", err)
		return 2
	}
	for _, e := range []struct {
		path string
		env  envelope
	}{{pathA, fa.Envelope}, {pathB, fb.Envelope}} {
		flag := ""
		if e.env.Noisy {
			flag = "  NOISY (calibration moved more than a tenth)"
		}
		fmt.Fprintf(w, "%s: git %s, %s, %d cpu, calibration %.0f -> %.0f%s\n",
			e.path, e.env.GitSHA, e.env.GoVersion, e.env.NumCPU, e.env.CalibrationStart, e.env.CalibrationEnd, flag)
	}
	sa, sb := sides(fa), sides(fb)
	keys := make([]metricKey, 0, len(sa))
	for k := range sa { //gowren:allow mapiter — keys are sorted below
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-18s %-32s %12s %22s %12s %22s %6s %s\n",
		"workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "bound", "verdict")
	regressed := 0
	for _, k := range keys {
		d, ok := findMetric(k.metric)
		if !ok {
			continue
		}
		if w, ok := findWorkload(k.workload); ok && slices.Contains(w.notApplicable, k.metric) {
			continue // the constant a workload reports for a metric it does not have
		}
		a, b := sa[k], sb[k]
		v := verdict(d, a, b, fa.Envelope.Noisy || fb.Envelope.Noisy)
		if v == "regressed" {
			regressed++
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-18s %-32s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %6s %s\n",
			k.workload, k.metric, a.median, a.q1, a.q3, b.median, b.q1, b.q3, bound, v)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d end-to-end metric(s) regressed\n", regressed)
		return 1
	}
	return 0
}
