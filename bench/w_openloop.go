package main

import (
	"fmt"
	"sync"
	"time"

	"gowren"
	"gowren/internal/traffic"
)

// The open-loop scenario, frozen here once: changing any of these changes
// what the latency numbers mean, so they are constants, not flags. On the
// commit that added the benchmark the p99 limit holds at 0.5×, 1× and 2× the
// base rate and fails at 4×, where the bursting tenant pushes demand past
// MaxConcurrent for a third of the horizon.
const (
	openTenants       = 8
	openHorizon       = 120 * time.Second
	openBaseRate      = 4.5 // jobs per simulated second at 1×
	openNominal       = 2.0 // the multiplier the end-to-end metrics are read at
	openCallsPerJob   = 4
	openTaskSeconds   = 0.5
	openMaxConcurrent = 48
	openZipf          = 0.3
	openDiurnal       = 0.2
	openBurstFactor   = 5.0
	openBurstTenant   = "tenant-2"
	openP99LimitMs    = 4000.0
	// Per-tenant quota in calls/s: clear of an in-quota tenant's load at
	// every rate, well under the bursting tenant's at 4× and 8×.
	openQuotaRate  = 60.0
	openQuotaBurst = 120.0
)

// openMultipliers are the fixed offered rates, as multiples of the base
// rate. The nominal rate offers ~1,080 jobs, the fewest whose p99 has ten
// samples beyond it.
var openMultipliers = []float64{0.5, 1, 2, 4}

// failedLatencyMs stands in for the latency of a job that failed: it misses
// any limit.
const failedLatencyMs = 1e12

// openRate is one offered rate, run to completion on a cloud of its own.
type openRate struct {
	mult float64
	jobs int
	// smallJobStats.latenciesMs also holds failedLatencyMs for each failed
	// job; the other series hold completed jobs only.
	smallJobStats
	lastDone   time.Time
	perTenant  map[string][]float64
	lateMaxMs  float64 // how late the generator fired, at worst
	backlogMid int     // in flight + queued at half the horizon
	backlogEnd int     // … and at its end
	ws         windowStats
	genHost    time.Duration
}

func (r *openRate) p99() float64 { return highPercentile(r.latenciesMs, 0.99) }

// withinLimit is the serving criterion: the p99 (failures count as
// infinitely slow) meets the frozen limit and the backlog at the end of the
// horizon has not grown past what it was at half time.
func (r *openRate) withinLimit() bool {
	return r.p99() <= openP99LimitMs && r.backlogEnd <= 2*r.backlogMid+2*openCallsPerJob
}

// repOpenLoop offers the seeded 8-tenant schedule at each fixed rate. Every
// arrival is one small job through the public API, fired at its due instant
// whether or not earlier ones have finished.
func repOpenLoop(rc *repCtx) error {
	horizon := time.Duration(float64(openHorizon) * rc.scale)
	if horizon < 6*time.Second {
		horizon = 6 * time.Second
	}
	rates := make([]*openRate, len(openMultipliers))
	for i, mult := range openMultipliers {
		r, err := rc.openLoopRate(mult, horizon)
		if err != nil {
			return err
		}
		rates[i] = r
	}
	var nominal *openRate
	all := rates[0].ws
	jobs := 0
	// The highest rate that meets the limit with every lower rate meeting
	// it too.
	maxRate, held := 0.0, true
	for i, r := range rates {
		if i > 0 {
			all = mergeWindows(all, r.ws)
		}
		jobs += r.jobs
		if r.mult == openNominal {
			nominal = r
		}
		if held = held && r.withinLimit(); held {
			maxRate = openBaseRate * r.mult
		}
	}
	if nominal == nil || len(nominal.latenciesMs) == 0 {
		return fmt.Errorf("openloop: nominal rate produced no jobs")
	}

	out := rc.out
	out.add("latency_p50_sim_ms", median(nominal.latenciesMs))
	out.add("latency_p99_sim_ms", nominal.p99())
	out.add("max_rate_within_limit", maxRate)
	rc.countsFromWindow(nominal.ws, nominal.jobs)
	rc.hostFromWindow(all, jobs)
	if !rc.layers {
		return nil
	}

	var genHost time.Duration
	var late float64
	for _, r := range rates {
		out.add(fmt.Sprintf("openloop.p99_sim_ms.x%g", r.mult), r.p99())
		genHost += r.genHost
		if r.lateMaxMs > late {
			late = r.lateMaxMs
		}
	}
	out.add("traffic.generate_host_ms", genHost.Seconds()*1e3)
	out.add("traffic.generator_late_sim_ms_max", late)
	out.add("faas.backlog_end", float64(nominal.backlogEnd))
	// Fairness of service at the nominal rate: Jain's index over each
	// tenant's service speed (1 / mean latency).
	var speeds []float64
	for t := 0; t < openTenants; t++ {
		lats := nominal.perTenant[fmt.Sprintf("tenant-%d", t)]
		var sum float64
		for _, l := range lats {
			sum += l
		}
		if sum > 0 {
			speeds = append(speeds, float64(len(lats))/sum)
		}
	}
	out.add("faas.jain_index", jain(speeds))
	nominal.coreLayers(rc)
	rc.layersFromWindow(nominal.ws)
	return nil
}

func (rc *repCtx) openLoopRate(mult float64, horizon time.Duration) (*openRate, error) {
	tenants := make([]string, openTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	genStart := hostNow()
	schedule, err := traffic.Generate(traffic.Config{
		Seed:             rc.seed + int64(mult*2),
		Tenants:          tenants,
		Horizon:          horizon,
		BaseRate:         openBaseRate * mult,
		ZipfS:            openZipf,
		DiurnalAmplitude: openDiurnal,
		Bursts:           []traffic.Burst{{Tenant: openBurstTenant, Start: horizon / 3, End: 2 * horizon / 3, Factor: openBurstFactor}},
	})
	if err != nil {
		return nil, err
	}
	r := &openRate{mult: mult, jobs: len(schedule), perTenant: make(map[string][]float64), genHost: hostSince(genStart)}

	cloud, err := workloadCloud(gowren.SimConfig{
		Seed:          rc.seed,
		MaxConcurrent: openMaxConcurrent,
		TraceCapacity: rc.traceCapacity(),
		Admission: &gowren.AdmissionConfig{
			Default: gowren.TenantQuota{Rate: openQuotaRate, Burst: openQuotaBurst},
			// Overload shows as queueing delay, not refusals: no operation
			// of this workload may fail.
			QueueLimit:    1 << 20,
			MaxQueueDelay: time.Hour,
		},
	})
	if err != nil {
		return nil, err
	}
	ctrl := cloud.Platform().Controller()
	clk := cloud.Clock()
	var mu sync.Mutex
	var w *window
	var warmErr error
	cloud.Run(func() {
		if warmErr = warmPlatform(cloud); warmErr != nil {
			return
		}
		rc.setupDone(genStart)
		w = openWindow(cloud)
		start := w.simStart
		for i, a := range schedule {
			i, arrival := i, a
			cloud.Go(func() {
				due := start.Add(arrival.At)
				if d := due.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				late := float64(clk.Now().Sub(due)) / 1e6
				js := smallJob{
					id:     fmt.Sprintf("openloop-x%g-%d-%04d", mult, rc.seed, i),
					origin: due, calls: openCallsPerJob, seconds: openTaskSeconds,
					opts: []gowren.ExecutorOption{gowren.WithTenant(arrival.Tenant)},
				}
				if mult == openNominal {
					js.spans = rc.spans // spans are kept for the nominal rate only
				}
				if rc.traced() {
					js.opts = append(js.opts, gowren.WithStorage(tracedStorage(cloud, nil, js.spans, js.id)))
				}
				job, err := runSmallJob(cloud, js)
				rc.out.op(err)
				mu.Lock()
				defer mu.Unlock()
				if late > r.lateMaxMs {
					r.lateMaxMs = late
				}
				if now := clk.Now(); now.After(r.lastDone) {
					r.lastDone = now
				}
				if err != nil {
					r.latenciesMs = append(r.latenciesMs, failedLatencyMs)
					return
				}
				r.add(job)
				r.perTenant[arrival.Tenant] = append(r.perTenant[arrival.Tenant], job.latencyMs)
			})
		}
		cloud.Go(func() {
			clk.Sleep(horizon / 2)
			r.backlogMid = ctrl.InFlight() + ctrl.AdmissionQueued()
			clk.Sleep(horizon - horizon/2)
			r.backlogEnd = ctrl.InFlight() + ctrl.AdmissionQueued()
		})
	})
	if warmErr != nil {
		return nil, warmErr
	}
	r.ws = w.close()
	// Admission deadlines leave timers far in the future; the run ended
	// when its last job did.
	r.ws.simElapsed = r.lastDone.Sub(w.simStart)
	if rc.layers {
		rc.flightRecorderLayers(cloud)
	}
	return r, nil
}
