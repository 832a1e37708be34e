// Command bench is GoWren's one benchmark: the paper's two headline jobs at
// paper scale, the shuffle under every exchange tier, an open-loop
// multi-tenant serving mix, and gowren-server across a socket — each with
// end-to-end metrics on both clocks and per-layer attribution measured from
// outside, through the layers' public counters and records. See README.md.
//
//	go run ./bench -seed 1                       every workload, timed run
//	go run ./bench -seed 1 -trace 1              … then a traced run each
//	go run ./bench -workload fig2_invoke -seed 7 -seconds 16 -trace 0
//	go run ./bench -compare a.json b.json        agreement of two result files
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}; the exit code is
// non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	name string
	why  string
	rep  func(rc *repCtx) error
	// reps is how many repetitions every timed run makes, whatever the host:
	// simulated times and counts are medians over exactly these, so they do
	// not depend on the machine or on --seconds. Sized to take about three
	// quarters of runSeconds on the 2-core box; a run then repeats further
	// until its seconds are spent, for the host-timed metrics only.
	reps int
	// warmScale shrinks the untimed warm-up repetition of workloads whose
	// repetitions are long.
	warmScale float64
	// notApplicable names the end-to-end metrics that do not exist on this
	// workload; README.md has the same table.
	notApplicable []string
}

var workloadDefs = []workloadDef{
	{name: "table3_mapreduce", rep: repTable3, reps: 20, warmScale: 0.1,
		notApplicable: []string{"job_sim_s.memory", "invoke_phase_sim_s", "latency_p50_sim_ms", "latency_p99_sim_ms", "max_rate_within_limit", "req_per_s", "latency_p50_ms", "latency_p95_ms"},
		why:           "data-dominated paper job (1.9 GB, 468 map executors): large range GETs, the partitioner and ~500 cold starts do the work; exchange and admission do none"},
	{name: "fig2_invoke", rep: repFig2, reps: 200, warmScale: 1,
		notApplicable: []string{"job_sim_s.memory", "latency_p50_sim_ms", "latency_p99_sim_ms", "max_rate_within_limit", "req_per_s", "latency_p50_ms", "latency_p95_ms"},
		why:           "invocation-dominated paper job (1,000 x 50 s calls from a WAN client): invoker, WAN retries and the serialized admission pipeline do the work; bytes moved are negligible"},
	{name: "shuffle_tiers", rep: repShuffle, reps: 13, warmScale: 0.25,
		notApplicable: []string{"job_sim_s", "invoke_phase_sim_s", "latency_p50_sim_ms", "latency_p99_sim_ms", "max_rate_within_limit", "req_per_s", "latency_p50_ms", "latency_p95_ms"},
		why:           "keyed shuffle under COS, memory, direct and a half-size cache: many small writes and LIST polls, the only workload where exchange works and its spill path runs"},
	{name: "openloop_tenants", rep: repOpenLoop, reps: 6, warmScale: 0.05,
		notApplicable: []string{"job_sim_s", "job_sim_s.memory", "invoke_phase_sim_s", "req_per_s", "latency_p50_ms", "latency_p95_ms"},
		why:           "open-loop 8-tenant traffic at 0.5x-4x a base rate with admission armed: queueing, fair-share dispatch, warm-container reuse and per-job journal writes dominate"},
	{name: "server_http", rep: repServerHTTP, reps: 3, warmScale: 0.1,
		notApplicable: []string{"job_sim_s", "job_sim_s.memory", "invoke_phase_sim_s", "latency_p50_sim_ms", "latency_p99_sim_ms", "max_rate_within_limit"},
		why:           "real-time mode across a socket: 2 closed-loop clients PUT/GET 64 KiB through cos.HTTPClient and POST /v1/map to gowren-server; the only wall-clock workload"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	outFile  string
	record   bool
	compare  bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "seconds of host time one run measures")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, spans, probes); 0: timed run (end-to-end metrics)")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...")
	fs.StringVar(&o.outFile, "out", "", "result file (default bench/out/result-<seed>.json)")
	fs.BoolVar(&o.record, "record", false, "append the envelope and medians to bench/history.jsonl")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the harness defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		body, err := json.MarshalIndent(benchmarkManifest(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(body))
		return 0
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if o.seconds <= 0 || o.runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0 and -runs >= 1")
		return 2
	}

	defs := workloadDefs
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []workloadDef{w}
	}

	// A result file is written for a whole-suite run, or when asked for;
	// only then is the machine scored (the envelope's calibration loop).
	writes := o.workload == "" || o.outFile != "" || o.record
	var file resultFile
	if writes {
		file.Envelope = newEnvelope(o)
	}
	allCorrect := true
	for _, w := range defs {
		for i := 0; i < o.runs; i++ {
			// All-workload mode makes the timed run and then, with
			// -trace 1, the traced run; single-workload mode makes the one
			// the flag names.
			modes := []bool{o.trace == 1}
			if o.workload == "" && o.trace == 1 {
				modes = []bool{false, true}
			}
			for _, traced := range modes {
				res, err := runWorkload(w, runParams{
					seed: o.seed + int64(i), seconds: o.seconds, traced: traced, scale: 1, outDir: outDir,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				printRun(os.Stdout, res)
				allCorrect = allCorrect && res.Correct
				file.Runs = append(file.Runs, res)
			}
		}
	}
	if writes {
		file.Envelope.finish()
		path := o.outFile
		if path == "" {
			path = filepath.Join(outDir, fmt.Sprintf("result-%d.json", o.seed))
		}
		if err := writeResultFile(path, file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	}
	if o.record {
		if err := appendHistory(filepath.Join("bench", "history.jsonl"), file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver's contract: the last line of standard output is the JSON
	// result of the (single) run.
	if len(file.Runs) > 0 {
		last := file.Runs[len(file.Runs)-1]
		line, err := json.Marshal(last.wire())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// outDir is where a run leaves its result file, its trace and the server
// binary; bench/.gitignore names it.
const outDir = "bench/out"

// warmUpPasses is the least number of untimed warm-up repetitions that open
// a run.
const warmUpPasses = 3

// tracedReps is how many repetitions of a traced run get a traced twin: a
// few are enough for the span tree and the overhead, and every span is kept
// in memory until the run ends.
const tracedReps = 3

type runParams struct {
	seed    int64
	seconds float64
	traced  bool
	scale   float64
	outDir  string
}

// metricValue is one reported metric: the median over the run's
// repetitions, with quartiles and the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Scale     float64                `json:"scale"`
	Seconds   float64                `json:"seconds"`
	Reps      int                    `json:"repetitions"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	TraceFile string                 `json:"traceFile,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// wire is the driver-facing form: exactly correct, attempted, failed and
// metrics, each metric as value and unit.
func (r runResult) wire() map[string]any {
	metrics := make(map[string]map[string]any, len(r.Metrics))
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// runWorkload makes one run: untimed warm-up repetitions, then w.reps
// repetitions on fresh clouds (scaled down with a smoke run), then further
// ones until the seconds are spent. A traced run gathers the layer counters
// on every repetition, pairs the first few with a traced twin on the same
// seed, then runs the layer probes.
func runWorkload(w workloadDef, p runParams) (runResult, error) {
	started := hostNow()
	res := runResult{Workload: w.name, Seed: p.seed, Traced: p.traced, Scale: p.scale, Seconds: p.seconds}
	out := newCollector()
	tracedOut := newCollector()
	var rec *spanRecorder
	var proc *processSampler
	budget := time.Duration(p.seconds * float64(time.Second))
	fixed := int(float64(w.reps)*p.scale + 0.5)
	if p.traced {
		rec = newSpanRecorder(128)
		proc = startProcessSampler()
		budget = budget * 6 / 10 // the rest goes to the probes
		fixed = 1                // layer metrics have no bound to hold: the seconds decide
	}
	if fixed < 1 {
		fixed = 1
	}

	// Warm-up: whole repetitions at reduced scale, untimed, so that heap,
	// caches and lazy set-up are in place before anything is measured. They
	// are nearly all of setup_s (building a cloud is lazy and costs under a
	// millisecond), so they repeat for a tenth of the run's seconds, and at
	// least warmUpPasses times, and setup_s takes their median: the first
	// passes of a cold process run up to twice as slow as the rest.
	for pass := 0; pass < warmUpPasses || hostSince(started) < budget/10; pass++ {
		passStart := hostNow()
		warm := &repCtx{seed: repSeed(p.seed, -1-pass), scale: p.scale * w.warmScale, out: newCollector(), outDir: p.outDir}
		if err := w.rep(warm); err != nil {
			return res, fmt.Errorf("warm-up repetition: %w", err)
		}
		out.add(warmUpS, hostSince(passStart).Seconds())
		out.attempted += warm.out.attempted
		out.failed += warm.out.failed
		out.notes = append(out.notes, warm.out.notes...)
	}

	var lastRep time.Duration
	for rep := 0; ; rep++ {
		// Past the fixed repetitions, stop when the next one would overshoot
		// the seconds by more than it undershoots.
		if rep >= fixed && hostSince(started)+lastRep/2 > budget {
			break
		}
		repStart := hostNow()
		seed := repSeed(p.seed, rep)
		rc := &repCtx{seed: seed, scale: p.scale, out: out, layers: p.traced, outDir: p.outDir}
		if err := w.rep(rc); err != nil {
			return res, fmt.Errorf("repetition %d: %w", rep, err)
		}
		if p.traced && rep < tracedReps {
			trc := &repCtx{seed: seed, scale: p.scale, out: tracedOut, layers: true, spans: rec, outDir: p.outDir}
			if err := w.rep(trc); err != nil {
				return res, fmt.Errorf("traced repetition %d: %w", rep, err)
			}
		}
		lastRep = hostSince(repStart)
		res.Reps++
	}

	if p.traced {
		traceLayers(out, tracedOut, rec)
		rec.link()
		if err := checkSpanTree(rec.spans); err != nil {
			out.op(fmt.Errorf("span tree: %w", err))
		}
		res.TraceFile = filepath.Join(p.outDir, fmt.Sprintf("trace-%s-%d.json", w.name, p.seed))
		if err := writeChromeTrace(res.TraceFile, rec.spans); err != nil {
			return res, err
		}
		probeBudget := time.Duration(p.seconds*float64(time.Second)) - hostSince(started)
		runProbes(out, probeBudget, p.scale)
		proc.stop(out)
	}

	// setup_s: what a run spends before its first timed region (the median
	// warm-up pass) plus what every repetition spends before its own (the
	// median per-repetition set-up).
	out.add("setup_s", out.median(warmUpS)+out.median(repSetupS))

	res.Attempted, res.Failed, res.Notes = out.attempted+tracedOut.attempted, out.failed+tracedOut.failed, append(out.notes, tracedOut.notes...)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	out.add("ops_attempted", float64(res.Attempted))
	out.add("ops_failed", float64(res.Failed))
	if res.Attempted > 0 {
		out.add("failed_share", float64(res.Failed)/float64(res.Attempted))
	}

	res.Metrics = make(map[string]metricValue)
	if p.traced {
		for _, d := range perLayer {
			// No samples: a layer that did no work on this workload.
			s := summarize(out.vals[d.Name])
			res.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
		}
		return res, nil
	}
	for _, d := range endToEnd {
		vals := out.vals[d.Name]
		switch na := slices.Contains(w.notApplicable, d.Name); {
		case na && len(vals) > 0:
			return res, fmt.Errorf("end-to-end metric %s was measured on a workload that lists it as not applicable", d.Name)
		case na:
			res.Metrics[d.Name] = metricValue{Value: notApplicable, Unit: d.Unit, Q1: notApplicable, Q3: notApplicable}
			continue
		case len(vals) == 0:
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		// One sample per repetition: the extra repetitions count only on
		// the wall clock.
		if !d.host && len(vals) > fixed {
			vals = vals[:fixed]
		}
		s := summarize(vals)
		res.Metrics[d.Name] = metricValue{Value: s.Median, Unit: d.Unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
	}
	return res, nil
}

// traceLayers records what only the traced twins can tell: per-request
// client spans, tracing overhead, and that the traced program is still the
// same program (its simulated job time must match the untraced one).
func traceLayers(out, traced *collector, rec *spanRecorder) {
	rec.mu.Lock()
	spans := append([]span(nil), rec.spans...)
	rec.mu.Unlock()
	clientOpLayers(out, spans)
	for _, name := range []string{"trace.events", "trace.dropped", "faas.throttled", "faas.shed", "faas.quota_rejected"} {
		if vals := traced.vals[name]; len(vals) > 0 {
			out.vals[name] = vals
		}
	}
	if u, t := out.median(jobHostMs), traced.median(jobHostMs); u > 0 && t > 0 {
		out.add("trace.overhead_share", t/u-1)
	}
	// Same seed, same program: the traced twins' simulated job time (the
	// open loop's median latency) must match their untraced partners'. Until
	// same-seed runs are exact on more than one core (ROADMAP item 1) a
	// single pair can differ by a percent, or by a whole retry back-off on a
	// short job, so the reported drift is the pairs' median and only a drift
	// every pair shows, beyond the metric's own bound, counts as the wrapper
	// having changed the program. server_http has no simulated time to compare.
	for _, name := range []string{"job_sim_s", "latency_p50_sim_ms"} {
		us, ts := out.vals[name], traced.vals[name]
		var drifts []float64
		for i := 0; i < len(us) && i < len(ts); i++ {
			if us[i] > 0 {
				drifts = append(drifts, math.Abs(ts[i]-us[i])/us[i])
			}
		}
		if len(drifts) == 0 {
			continue
		}
		out.add("trace.sim_drift_share", median(drifts))
		bound, _ := findMetric(name)
		if least := slices.Min(drifts); len(drifts) >= 2 && least > bound.Bound {
			out.op(fmt.Errorf("traced %s drifts at least %.2f%% from the untraced run on every pair: the timing wrapper changed the program", name, least*100))
		}
	}
}

// printRun prints every metric of the run by name, with its unit, median,
// quartiles and sample count.
func printRun(w *os.File, r runResult) {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed=%d %s run: %d repetitions, %d operations attempted, %d failed, correct=%v\n",
		r.Workload, r.Seed, mode, r.Reps, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   failure: %s\n", n)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-36s %-10s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, name := range names {
		m := r.Metrics[name]
		if !r.Traced && m.N == 0 {
			fmt.Fprintf(w, "   %-36s %-10s %14s\n", name, m.Unit, "n/a")
			continue
		}
		fmt.Fprintf(w, "   %-36s %-10s %14.6g %14.6g %14.6g %6d\n", name, m.Unit, m.Value, m.Q1, m.Q3, m.N)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   trace: %s (open in ui.perfetto.dev or chrome://tracing)\n", r.TraceFile)
	}
}

// moduleRoot finds the directory holding go.mod, so the harness works both
// from the repository root (go run ./bench) and from its own directory
// (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above the working directory")
		}
		dir = parent
	}
}
