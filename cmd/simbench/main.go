// Command simbench profiles the simulator's own hot paths — the vclock
// scheduler, the admission layer's queued-waiter machinery, and the COS
// listing index — by pushing a full open-loop day of traffic through the
// platform: one million seeded arrivals from internal/traffic, admitted
// through per-tenant token buckets and the deficit-weighted round-robin,
// executed, and drained. It reports sims per wall second — scheduled
// arrivals divided by host seconds spent simulating them — and is what
// `make profile` runs under the Go profiler.
//
//	simbench [-arrivals 1000000] [-seed 1] [-out BENCH_simcore.json]
//	         [-cpuprofile f] [-memprofile f]
//
// The run is executed twice with the same seed and the per-tenant outcome
// digests must match bit for bit; that is the command's only gate. Host
// speed is reported, never gated: it is a property of the machine.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/runtime"
	"gowren/internal/traffic"
	"gowren/internal/vclock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// Scenario shape: sixteen tenants with mildly skewed shares offer an
// aggregate kilohertz of arrivals; one turns into a 5× noisy neighbor for
// the middle third, so the queued-waiter and shedding paths — the expensive
// ones for the simulator — stay exercised throughout.
const (
	numTenants    = 16
	aggregateRate = 1000.0 // arrivals/s across all tenants
	taskMillis    = 200    // per-activation compute
	maxConcurrent = 400
	quotaRate     = 120.0 // per-tenant sustained admissions/s
	quotaBurst    = 240.0
	burstFactor   = 5.0
	noisyTenant   = "tenant-03"
)

// tenantOutcome is one tenant's deterministic counters.
type tenantOutcome struct {
	Offered      int `json:"offered"`
	Admitted     int `json:"admitted"`
	Completed    int `json:"completed"`
	QuotaRejects int `json:"quotaRejects"`
	Sheds        int `json:"sheds"`
	Throttles    int `json:"throttles"`
}

// runReport is one simulation run's measurements.
type runReport struct {
	Arrivals          int                      `json:"arrivals"`
	SimSeconds        float64                  `json:"simSeconds"`
	RealSeconds       float64                  `json:"realSeconds"`
	SimsPerWallSecond float64                  `json:"simsPerWallSecond"`
	Tenants           map[string]tenantOutcome `json:"tenants"`
	Digest            string                   `json:"digest"`
}

type report struct {
	Seed          int64     `json:"seed"`
	Run           runReport `json:"run"`
	Deterministic bool      `json:"deterministic"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	arrivals := fs.Int("arrivals", 1_000_000, "scheduled arrivals")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("out", "BENCH_simcore.json", "output JSON path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of both runs to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file after both runs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The simulation's live heap is small and flat (bounded activation
	// retention, reused task coroutines); a relaxed GC target trades idle memory
	// for fewer collection cycles over the run's huge allocation volume.
	debug.SetGCPercent(300)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	first, err := runScenario(*seed, *arrivals)
	if err != nil {
		return err
	}
	fmt.Printf("arrivals=%d sim=%.0fs real=%.2fs sims/wall-s=%.0f\n",
		first.Arrivals, first.SimSeconds, first.RealSeconds, first.SimsPerWallSecond)

	// Same-seed rerun: the per-tenant outcome digest must be bit-identical.
	again, err := runScenario(*seed, *arrivals)
	if err != nil {
		return fmt.Errorf("determinism rerun: %w", err)
	}
	rep := report{Seed: *seed, Run: first, Deterministic: first.Digest == again.Digest}
	fmt.Printf("deterministic=%v\n", rep.Deterministic)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}

	body, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if !rep.Deterministic {
		return fmt.Errorf("same-seed reruns diverged: %s vs %s", first.Digest, again.Digest)
	}
	return nil
}

// runScenario pushes one full schedule through a fresh platform and returns
// the measurements.
func runScenario(seed int64, arrivals int) (runReport, error) {
	// Horizon follows from the aggregate rate so the offered load shape is
	// the same at every scale.
	horizon := time.Duration(float64(arrivals) / aggregateRate * float64(time.Second))
	tenants := make([]string, numTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%02d", i)
	}
	schedule, err := traffic.Generate(traffic.Config{
		Seed:             seed,
		Tenants:          tenants,
		Horizon:          horizon,
		BaseRate:         aggregateRate,
		ZipfS:            0.3,
		DiurnalAmplitude: 0.2,
		Bursts: []traffic.Burst{{
			Tenant: noisyTenant,
			Start:  horizon / 3,
			End:    2 * horizon / 3,
			Factor: burstFactor,
		}},
	})
	if err != nil {
		return runReport{}, err
	}

	clk := vclock.NewVirtual()
	reg := runtime.NewRegistry()
	img := runtime.NewImage(runtime.DefaultImage, 100)
	if err := reg.Publish(img); err != nil {
		return runReport{}, err
	}
	ctrl, err := faas.New(faas.Config{
		Clock:    clk,
		Registry: reg,
		Storage:  cos.NewStore(),
		Seed:     seed,
		// The gateway must sustain the offered kilohertz; the default 5 ms
		// serialized overhead models a WAN client, not a load generator.
		AdmitOverhead: 100 * time.Microsecond,
		MaxConcurrent: maxConcurrent,
		Admission: &faas.AdmissionConfig{
			Default: faas.TenantQuota{Rate: quotaRate, Burst: quotaBurst},
		},
		// Nothing consults finished records here; cap the activation log so
		// a million-arrival run's heap stays flat instead of accumulating a
		// million records for the GC to walk.
		RetainActivations: 4096,
	})
	if err != nil {
		return runReport{}, err
	}
	if err := ctrl.CreateAction(faas.ActionSpec{
		Name:  "busy",
		Image: runtime.DefaultImage,
		Handler: func(ctx *runtime.Ctx, params []byte) ([]byte, error) {
			if err := ctx.ChargeCompute(taskMillis * time.Millisecond); err != nil {
				return nil, err
			}
			return []byte(`"done"`), nil
		},
	}); err != nil {
		return runReport{}, err
	}

	counters := make(map[string]*tenantOutcome, numTenants)
	for _, name := range tenants {
		counters[name] = &tenantOutcome{}
	}
	var mu sync.Mutex
	issued := 0

	realStart := time.Now() //gowren:allow clockcheck — host CPU-time measurement of the simulation itself
	var simElapsed time.Duration
	var runErr error
	clk.Run(func() {
		start := clk.Now()
		// Open-loop injection. One injector task walks the schedule and
		// spawns each invocation at its arrival time; spawning all million
		// tasks up front would hold a million goroutine stacks for the
		// whole run, where this holds only the in-flight ones.
		for _, a := range schedule {
			if d := a.At - clk.Now().Sub(start); d > 0 {
				clk.Sleep(d)
			}
			arrival := a
			clk.Go(func() {
				_, err := ctrl.InvokeTenant(arrival.Tenant, "busy", []byte(`{}`))
				mu.Lock()
				defer mu.Unlock()
				tr := counters[arrival.Tenant]
				tr.Offered++
				switch {
				case err == nil:
					tr.Admitted++
				case errors.Is(err, faas.ErrQuotaExceeded):
					tr.QuotaRejects++
				case errors.Is(err, faas.ErrShed):
					tr.Sheds++
				default:
					tr.Throttles++
				}
				issued++
			})
		}
		done := func() bool {
			mu.Lock()
			n := issued
			mu.Unlock()
			return n == len(schedule) && ctrl.InFlight() == 0 && ctrl.AdmissionQueued() == 0
		}
		if !vclock.Poll(clk, done, 500*time.Millisecond, start.Add(horizon+time.Hour)) {
			runErr = fmt.Errorf("run did not drain: inflight=%d queued=%d", ctrl.InFlight(), ctrl.AdmissionQueued())
			return
		}
		simElapsed = clk.Now().Sub(start)
	})
	realSeconds := time.Since(realStart).Seconds() //gowren:allow clockcheck — host CPU-time measurement of the simulation itself
	if runErr != nil {
		return runReport{}, runErr
	}

	completedBy := ctrl.CompletedByTenant()
	for _, name := range tenants {
		counters[name].Completed = completedBy[name]
	}

	out := runReport{
		Arrivals:    len(schedule),
		SimSeconds:  simElapsed.Seconds(),
		RealSeconds: realSeconds,
		Tenants:     make(map[string]tenantOutcome, numTenants),
	}
	if realSeconds > 0 {
		out.SimsPerWallSecond = float64(len(schedule)) / realSeconds
	}
	for _, name := range tenants {
		out.Tenants[name] = *counters[name]
	}
	digest, err := digestOf(&out)
	if err != nil {
		return runReport{}, err
	}
	out.Digest = digest
	return out, nil
}

// digestOf hashes the deterministic slice of a run: arrivals, per-tenant
// counters and the simulated elapsed time — everything except wall-clock.
func digestOf(r *runReport) (string, error) {
	names := make([]string, 0, len(r.Tenants))
	for name := range r.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	type kv struct {
		Name string        `json:"name"`
		T    tenantOutcome `json:"t"`
	}
	ordered := make([]kv, 0, len(names))
	for _, name := range names {
		ordered = append(ordered, kv{name, r.Tenants[name]})
	}
	body, err := json.Marshal(struct {
		Arrivals   int     `json:"arrivals"`
		SimSeconds float64 `json:"simSeconds"`
		Tenants    []kv    `json:"tenants"`
	}{r.Arrivals, r.SimSeconds, ordered})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}
