package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gowren"
	"gowren/internal/billing"
	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/workloads"
)

// hostNow is the one place the harness reads the wall clock; every host
// timing derives from it.
func hostNow() time.Time {
	return time.Now() //gowren:allow clockcheck — host-time measurement
}

func hostSince(t time.Time) time.Duration { return hostNow().Sub(t) }

// collector gathers one value per repetition for each metric, plus the
// operation outcome counts. Workloads with concurrent jobs add from several
// tasks, hence the lock.
type collector struct {
	mu        sync.Mutex
	vals      map[string][]float64
	attempted int
	failed    int
	notes     []string // first few failure reasons, for the operator
}

func newCollector() *collector { return &collector{vals: make(map[string][]float64)} }

func (c *collector) add(name string, v float64) {
	c.mu.Lock()
	c.vals[name] = append(c.vals[name], v)
	c.mu.Unlock()
}

// op records the outcome of one operation (a call, a job, or a request).
// A nil err is a success; anything else — an error, a refusal, a wrong
// result — is a failure.
func (c *collector) op(err error) {
	c.mu.Lock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, err.Error())
		}
	}
	c.mu.Unlock()
}

func (c *collector) median(name string) float64 { return median(c.vals[name]) }

// repCtx is what one repetition of a workload gets: its seed, the scale
// (1 = paper scale), where to put values, and — on a traced repetition — the
// span recorder.
type repCtx struct {
	seed   int64
	scale  float64
	out    *collector
	spans  *spanRecorder // nil on untraced repetitions
	layers bool          // also gather the per-layer counters
	outDir string
}

// setupDone records one set-up that began at start: building a cloud,
// loading its dataset, generating its schedule, warming the platform,
// starting a server. Nothing in a set-up is in a timed region.
func (rc *repCtx) setupDone(start time.Time) {
	rc.out.add(repSetupS, hostSince(start).Seconds())
}

// repSetupS and warmUpS are collector-internal series, not reported
// metrics: setup_s is the median of each, added (see runWorkload).
const (
	repSetupS = "_rep_setup_s"
	warmUpS   = "_warm_up_s"
)

func (rc *repCtx) traced() bool { return rc.spans != nil }

// scaled shrinks a paper-scale quantity for smoke runs, never below min.
func (rc *repCtx) scaled(n, min int) int {
	v := int(float64(n)*rc.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// repSeed derives independent per-repetition seeds from the run seed, so
// runs with adjacent seeds do not share repetitions.
func repSeed(seed int64, rep int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(rep+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// workloadCloud builds a virtual-clock cloud with the paper's workload
// functions installed, the way internal/experiments does. extra registers
// a workload's own functions on the same stock image.
func workloadCloud(cfg gowren.SimConfig, extra ...func(*gowren.Image) error) (*gowren.Cloud, error) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	if err := workloads.Register(img); err != nil {
		return nil, fmt.Errorf("register workloads: %w", err)
	}
	for _, register := range extra {
		if err := register(img); err != nil {
			return nil, err
		}
	}
	cfg.Images = append(cfg.Images, img)
	return gowren.NewSimCloud(cfg)
}

// warmPlatform makes one throwaway call so the runtime image is pulled and
// cached before anything is measured. Call it inside cloud.Run.
func warmPlatform(cloud *gowren.Cloud) error {
	exec, err := cloud.Executor()
	if err != nil {
		return err
	}
	if _, err := exec.CallAsync(workloads.FuncComputeBound, 0.0); err != nil {
		return err
	}
	_, err = gowren.Results[float64](exec)
	return err
}

const runnerPrefix = "gowren-runner--"

// jobHostMs is a collector-internal value, not a reported metric: host
// milliseconds per simulated job, which is what tracing overhead compares
// between a repetition and its traced twin.
const jobHostMs = "_job_host_ms"

// window measures one timed region on both clocks, and the layers' public
// counters across it: cos.Store.Stats, runtime.MemStats, and — at close —
// the controller's activation records.
type window struct {
	cloud     *gowren.Cloud
	simStart  time.Time
	hostStart time.Time
	store0    cos.StatsSnapshot
	mallocs0  uint64
}

func openWindow(cloud *gowren.Cloud) *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &window{
		cloud:     cloud,
		store0:    cloud.Store().Stats(),
		mallocs0:  ms.Mallocs,
		simStart:  cloud.Clock().Now(),
		hostStart: hostNow(),
	}
}

// windowStats is what a closed window saw.
type windowStats struct {
	simStart    time.Time
	simElapsed  time.Duration
	hostElapsed time.Duration
	store       cos.StatsSnapshot // delta
	mallocs     uint64
	acts        []faas.Activation // runner activations submitted in the window
	helpers     []faas.Activation // invoker and other non-runner activations
}

func (w *window) close() windowStats {
	ws := windowStats{
		simStart:    w.simStart,
		simElapsed:  w.cloud.Clock().Now().Sub(w.simStart),
		hostElapsed: hostSince(w.hostStart),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ws.mallocs = ms.Mallocs - w.mallocs0
	s := w.cloud.Store().Stats()
	ws.store = cos.StatsSnapshot{
		PutOps: s.PutOps - w.store0.PutOps, GetOps: s.GetOps - w.store0.GetOps,
		HeadOps: s.HeadOps - w.store0.HeadOps, ListOps: s.ListOps - w.store0.ListOps,
		DeleteOps: s.DeleteOps - w.store0.DeleteOps,
		BytesIn:   s.BytesIn - w.store0.BytesIn, BytesOut: s.BytesOut - w.store0.BytesOut,
	}
	for _, a := range w.cloud.Platform().Controller().Activations() {
		if a.SubmitAt.Before(w.simStart) {
			continue
		}
		if strings.HasPrefix(a.Action, runnerPrefix) {
			ws.acts = append(ws.acts, a)
		} else {
			ws.helpers = append(ws.helpers, a)
		}
	}
	return ws
}

func (ws windowStats) storeRequests() int64 {
	return ws.store.PutOps + ws.store.GetOps + ws.store.HeadOps + ws.store.ListOps + ws.store.DeleteOps
}

// usage prices the window: function GB-seconds of every activation in it
// plus storage requests, at the paper-era IBM price table.
func (ws windowStats) usage() billing.Usage {
	u := billing.MeterActivations(ws.acts, 0)
	u.Add(billing.MeterActivations(ws.helpers, 0))
	u.StorageWrites = ws.store.PutOps
	u.StorageReads = ws.store.GetOps + ws.store.HeadOps + ws.store.ListOps
	return u
}

// lastStart returns the latest handler entry among acts: the end of the
// invocation phase.
func lastStart(acts []faas.Activation) time.Time {
	var t time.Time
	for _, a := range acts {
		if a.StartAt.After(t) {
			t = a.StartAt
		}
	}
	return t
}

func lastEnd(acts []faas.Activation) time.Time {
	var t time.Time
	for _, a := range acts {
		if a.EndAt.After(t) {
			t = a.EndAt
		}
	}
	return t
}

// countsFromWindow records the end-to-end counts every virtual-clock
// workload derives the same way from one closed window holding `jobs` jobs.
func (rc *repCtx) countsFromWindow(ws windowStats, jobs int) {
	if calls := float64(len(ws.acts)); calls > 0 && jobs > 0 {
		rc.out.add("cos_requests_per_call", float64(ws.storeRequests())/calls)
		rc.out.add("cost_usd_per_job", ws.usage().Cost(billing.IBMCloud2018())/float64(jobs))
	}
}

// hostFromWindow records what the simulator itself spent on a window.
func (rc *repCtx) hostFromWindow(ws windowStats, jobs int) {
	if calls := float64(len(ws.acts)); calls > 0 && jobs > 0 {
		rc.out.add("host_calls_per_s", calls/ws.hostElapsed.Seconds())
		rc.out.add("host_allocs_per_call", float64(ws.mallocs)/calls)
		rc.out.add(jobHostMs, ws.hostElapsed.Seconds()*1e3/float64(jobs))
	}
}

// layersFromWindow records the per-layer metrics that come from public
// counters: activation records (faas), store deltas (cos), billing.
func (rc *repCtx) layersFromWindow(ws windowStats) {
	out := rc.out
	acts := ws.acts
	out.add("faas.activations", float64(len(acts)+len(ws.helpers)))
	var cold, failed int
	var waits, execs []float64
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, a := range acts {
		if a.ColdStart {
			cold++
		}
		if a.Done() && !a.OK {
			failed++
		}
		if a.StartAt.IsZero() || !a.Done() {
			continue
		}
		waits = append(waits, float64(a.StartAt.Sub(a.SubmitAt))/1e6)
		execs = append(execs, a.EndAt.Sub(a.StartAt).Seconds())
		edges = append(edges, edge{a.StartAt, +1}, edge{a.EndAt, -1})
	}
	out.add("faas.cold_starts", float64(cold))
	if len(acts) > 0 {
		out.add("faas.cold_start_share", float64(cold)/float64(len(acts)))
	}
	out.add("faas.failed_activations", float64(failed))
	if len(waits) > 0 {
		out.add("faas.queue_wait_sim_ms_p50", median(waits))
		out.add("faas.exec_sim_s_p50", median(execs))
		if p, ok := tailPercentile(waits, 0.99); ok {
			out.add("faas.queue_wait_sim_ms_p99", p)
		}
		if p, ok := tailPercentile(execs, 0.99); ok {
			out.add("faas.exec_sim_s_p99", p)
		}
	}
	// Peak concurrency and when it was first reached: a sweep over handler
	// entries and exits, exits first at equal instants.
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	var cur, peak int
	var peakAt time.Time
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak, peakAt = cur, e.at
		}
	}
	out.add("faas.peak_concurrency", float64(peak))
	if peak > 0 {
		out.add("faas.time_to_full_sim_s", peakAt.Sub(ws.simStart).Seconds())
	}
	u := ws.usage()
	out.add("faas.gb_seconds", u.GBSeconds)
	prices := billing.IBMCloud2018()
	out.add("billing.function_usd", u.GBSeconds*prices.GBSecondUSD)
	out.add("billing.storage_usd", float64(u.StorageWrites)*prices.StorageWriteUSD+float64(u.StorageReads)*prices.StorageReadUSD)

	out.add("cos.put_ops", float64(ws.store.PutOps))
	out.add("cos.get_ops", float64(ws.store.GetOps))
	out.add("cos.head_ops", float64(ws.store.HeadOps))
	out.add("cos.list_ops", float64(ws.store.ListOps))
	out.add("cos.delete_ops", float64(ws.store.DeleteOps))
	out.add("cos.bytes_in", float64(ws.store.BytesIn))
	out.add("cos.bytes_out", float64(ws.store.BytesOut))
	if h := ws.hostElapsed.Seconds(); h > 0 {
		out.add("vclock.sim_s_per_host_s", ws.simElapsed.Seconds()/h)
	}
}

// clientLayers records the client-side storage counters of one executor.
func (rc *repCtx) clientLayers(ops cos.OpCounts) {
	out := rc.out
	out.add("core.client_put_ops", float64(ops.PutOps))
	out.add("core.client_get_ops", float64(ops.GetOps))
	out.add("core.client_head_ops", float64(ops.HeadOps))
	out.add("core.client_list_ops", float64(ops.ListOps))
	out.add("core.client_objects_listed", float64(ops.ObjectsListed))
	out.add("core.client_bytes_out", float64(ops.BytesOut))
	out.add("core.client_bytes_in", float64(ops.BytesIn))
}

// flightRecorderLayers records what the platform flight recorder saw
// (SimConfig.TraceCapacity): admission rejections by reason, event volume.
func (rc *repCtx) flightRecorderLayers(cloud *gowren.Cloud) {
	rec := cloud.Trace()
	if rec == nil {
		return
	}
	events := rec.Events()
	var throttled, shed, quota int
	for _, ev := range events {
		switch {
		case ev.Kind == "shed" || strings.Contains(ev.Detail, "reason=shed"):
			shed++
		case ev.Kind == "throttle" && strings.Contains(ev.Detail, "reason=quota"):
			quota++
		case ev.Kind == "throttle":
			throttled++
		}
	}
	rc.out.add("faas.throttled", float64(throttled))
	rc.out.add("faas.shed", float64(shed))
	rc.out.add("faas.quota_rejected", float64(quota))
	rc.out.add("trace.events", float64(len(events)))
	rc.out.add("trace.dropped", float64(rec.Dropped()))
}

// traceCapacity sizes the flight recorder on traced repetitions and leaves
// it off otherwise, so untraced runs pay nothing for it.
func (rc *repCtx) traceCapacity() int {
	if rc.traced() {
		return 1 << 16
	}
	return 0
}
