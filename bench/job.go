package main

import (
	"fmt"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/netsim"
	"gowren/internal/workloads"
)

// jobSpec describes one job run through the public API in a cloud of its
// own: the closed-loop workloads (table3, fig2, shuffle) each run one per
// repetition.
type jobSpec struct {
	id       string // span job identifier
	cloud    *gowren.Cloud
	execOpts []gowren.ExecutorOption
	// storageLink is the client's storage path, needed only to rebuild the
	// same stack under the timing wrapper on traced repetitions.
	storageLink *netsim.Link
	// submit issues the job (Map / MapReduce / MapReduceShuffle); collect
	// waits for the results, decodes them and checks they are correct.
	submit  func(exec *gowren.Executor) error
	collect func(exec *gowren.Executor) error
	// calls is how many function calls the job should make; more runner
	// activations than this are respawns.
	calls int
}

// jobOutcome is one job measured from outside, on both clocks.
type jobOutcome struct {
	ws          windowStats
	submitSim   time.Duration
	submitHost  time.Duration
	collectHost time.Duration
	collectLag  time.Duration // last activation end → results in hand
	invokePhase time.Duration // submit → last function running
	clientOps   cos.OpCounts
	deadLetters int
	err         error
}

// runJob runs js inside cloud.Run's task and measures it. It never returns
// early on a job error: the outcome carries it, so the caller counts the
// job as a failed operation.
func (rc *repCtx) runJob(js jobSpec) jobOutcome {
	var jo jobOutcome
	cloud := js.cloud
	clk := cloud.Clock()
	opts := js.execOpts
	if rc.traced() {
		opts = append(opts[:len(opts):len(opts)], gowren.WithStorage(tracedStorage(cloud, js.storageLink, rc.spans, js.id)))
	}
	exec, err := cloud.Executor(opts...)
	if err != nil {
		jo.err = err
		return jo
	}
	if fabric := cloud.Platform().Exchange(); fabric != nil {
		fabric.ResetSpans()
	}

	w := openWindow(cloud)
	var root, sub, col int
	if rc.traced() {
		root = rc.spans.begin(js.id, spanJob, clk.Now())
		sub = rc.spans.begin(js.id, spanSubmit, clk.Now())
	}
	jo.err = js.submit(exec)
	jo.submitSim = clk.Now().Sub(w.simStart)
	jo.submitHost = hostSince(w.hostStart)
	if rc.traced() {
		rc.spans.end(sub, clk.Now())
		col = rc.spans.begin(js.id, spanCollect, clk.Now())
	}
	if jo.err == nil {
		collectStart := hostNow()
		jo.err = js.collect(exec)
		jo.collectHost = hostSince(collectStart)
	}
	if rc.traced() {
		rc.spans.end(col, clk.Now())
		rc.spans.end(root, clk.Now())
	}
	jo.ws = w.close()

	if end := lastEnd(jo.ws.acts); !end.IsZero() {
		jo.collectLag = clk.Now().Sub(end)
	}
	if ls := lastStart(jo.ws.acts); !ls.IsZero() {
		jo.invokePhase = ls.Sub(w.simStart)
	}
	jo.clientOps = exec.Core().StorageOps()
	jo.deadLetters = len(exec.DeadLetters())
	if jo.err == nil && len(jo.ws.acts) < js.calls {
		jo.err = fmt.Errorf("%s: %d function calls ran, want %d", js.id, len(jo.ws.acts), js.calls)
	}

	if rc.traced() {
		if jo.err == nil {
			jo.err = journaled(cloud, exec.JobID())
		}
		rc.spans.addActivations(js.id, jo.ws.acts)
		rc.spans.addActivations(js.id, jo.ws.helpers)
		if fabric := cloud.Platform().Exchange(); fabric != nil {
			xs := fabric.Spans()
			if !xs.WriteStart.IsZero() {
				rc.spans.addSim(js.id, "exchange.write", "", xs.WriteStart, xs.WriteEnd, false)
			}
			if !xs.ReadStart.IsZero() {
				rc.spans.addSim(js.id, "exchange.read", "", xs.ReadStart, xs.ReadEnd, false)
			}
		}
		for _, ev := range cloud.Trace().Events() {
			if !ev.At.Before(w.simStart) {
				rc.spans.addSim(js.id, "faas."+ev.Kind, ev.Actor+" "+ev.Detail, ev.At, ev.At, true)
			}
		}
	}
	return jo
}

// jobLayers records the per-layer metrics of one measured job.
func (rc *repCtx) jobLayers(js jobSpec, jo jobOutcome) {
	out := rc.out
	out.add("core.submit_sim_s", jo.submitSim.Seconds())
	out.add("core.submit_host_ms", jo.submitHost.Seconds()*1e3)
	out.add("core.collect_lag_sim_s", jo.collectLag.Seconds())
	out.add("core.collect_host_ms", jo.collectHost.Seconds()*1e3)
	respawns := len(jo.ws.acts) - js.calls
	if respawns < 0 {
		respawns = 0
	}
	out.add("core.respawns", float64(respawns))
	out.add("core.dead_letters", float64(jo.deadLetters))
	rc.clientLayers(jo.clientOps)
	rc.layersFromWindow(jo.ws)
	rc.flightRecorderLayers(js.cloud)
}

// journaled checks that a job run under the timing wrapper still wrote its
// manifest and took its driver lease. A wrapper that lost cos.Conditional
// would switch both off without any error, and the traced run would measure
// a different program.
func journaled(cloud *gowren.Cloud, jobID string) error {
	jobs, err := cloud.ListJobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if j.JobID == jobID {
			if j.LeaseEpoch == 0 {
				return fmt.Errorf("%s: traced job holds no driver lease: the timing wrapper switched the journal off", jobID)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: traced job left no manifest: the timing wrapper switched the journal off", jobID)
}

// checkAll verifies that a compute/busy map returned n results, each equal
// to want.
func checkAll(id string, got []float64, n int, want float64) error {
	if len(got) != n {
		return fmt.Errorf("%s: %d results, want %d", id, len(got), n)
	}
	for i, v := range got {
		if v != want {
			return fmt.Errorf("%s: result %d = %v, want %v", id, i, v, want)
		}
	}
	return nil
}

// smallJob is one job of a workload whose jobs share a cloud (the open
// loop): a compute/busy map of a few calls and its results, checked, as its
// client sees it.
type smallJob struct {
	id      string
	origin  time.Time // the instant latency counts from: when the job was due
	opts    []gowren.ExecutorOption
	spans   *spanRecorder // nil when the job's spans are not kept
	calls   int
	seconds float64 // each call's compute/busy argument, and its expected result
}

// smallJobOutcome is what the client of one small job saw.
type smallJobOutcome struct {
	latencyMs   float64 // origin → results in hand
	invokeS     float64 // origin → last call running
	submitS     float64 // the submit phase: Map (stage + invoke)
	collectLagS float64 // last call finished → results in hand
	ops         cos.OpCounts
}

func runSmallJob(cloud *gowren.Cloud, js smallJob) (smallJobOutcome, error) {
	var jo smallJobOutcome
	clk := cloud.Clock()
	exec, err := cloud.Executor(js.opts...)
	if err != nil {
		return jo, err
	}
	args := make([]any, js.calls)
	for i := range args {
		args[i] = js.seconds
	}
	submitStart := clk.Now()
	root := js.spans.begin(js.id, spanJob, js.origin)
	sub := js.spans.begin(js.id, spanSubmit, submitStart)
	futures, err := exec.Map(workloads.FuncComputeBound, args...)
	jo.submitS = clk.Now().Sub(submitStart).Seconds()
	js.spans.end(sub, clk.Now())
	col := js.spans.begin(js.id, spanCollect, clk.Now())
	var results []float64
	if err == nil {
		results, err = gowren.Results[float64](exec, gowren.GetResultOptions{Timeout: time.Hour})
	}
	done := clk.Now()
	js.spans.end(col, done)
	js.spans.end(root, done)
	if err == nil {
		err = checkAll(js.id, results, js.calls, js.seconds)
	}
	if err != nil {
		return jo, err
	}
	ctrl := cloud.Platform().Controller()
	acts := make([]faas.Activation, 0, len(futures))
	for _, f := range futures {
		a, err := ctrl.Activation(f.ActivationID())
		if err != nil {
			return jo, fmt.Errorf("%s: %w", js.id, err)
		}
		acts = append(acts, a)
	}
	if root != 0 {
		js.spans.addActivations(js.id, acts)
	}
	jo.latencyMs = float64(done.Sub(js.origin)) / 1e6
	jo.invokeS = lastStart(acts).Sub(js.origin).Seconds()
	jo.collectLagS = done.Sub(lastEnd(acts)).Seconds()
	jo.ops = exec.Core().StorageOps()
	return jo, nil
}

// smallJobStats accumulates the outcomes of the small jobs of one cloud.
type smallJobStats struct {
	latenciesMs []float64
	invokeS     []float64
	submitS     []float64
	collectLagS []float64
	ops         cos.OpCounts // summed over the jobs
}

func (s *smallJobStats) add(jo smallJobOutcome) {
	s.latenciesMs = append(s.latenciesMs, jo.latencyMs)
	s.invokeS = append(s.invokeS, jo.invokeS)
	s.submitS = append(s.submitS, jo.submitS)
	s.collectLagS = append(s.collectLagS, jo.collectLagS)
	s.ops.PutOps += jo.ops.PutOps
	s.ops.GetOps += jo.ops.GetOps
	s.ops.HeadOps += jo.ops.HeadOps
	s.ops.ListOps += jo.ops.ListOps
	s.ops.ObjectsListed += jo.ops.ObjectsListed
	s.ops.BytesOut += jo.ops.BytesOut
	s.ops.BytesIn += jo.ops.BytesIn
}

// coreLayers records the client-side layer metrics per job: medians of the
// phases, means of the request counters. Jobs overlap on the host, so there
// is no per-job host time.
func (s *smallJobStats) coreLayers(rc *repCtx) {
	n := int64(len(s.submitS))
	if n == 0 {
		return
	}
	rc.out.add("core.submit_sim_s", median(s.submitS))
	rc.out.add("core.collect_lag_sim_s", median(s.collectLagS))
	perJob := s.ops
	for _, f := range []*int64{&perJob.PutOps, &perJob.GetOps, &perJob.HeadOps, &perJob.ListOps, &perJob.ObjectsListed, &perJob.BytesOut, &perJob.BytesIn} {
		*f /= n
	}
	rc.clientLayers(perJob)
}
