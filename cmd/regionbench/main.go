// Command regionbench profiles the multi-region storage plane on the
// virtual clock, A/B-ing the two decisions this layer makes:
//
//   - replication: how long a PUT takes to ack when replica fan-out is
//     synchronous (write to every region on the critical path) versus
//     asynchronous (ack after the preferred region, catch up off-path) —
//     measured per-put across regions separated by scripted WAN latency;
//
//   - placement: how much cross-region traffic a map job generates when
//     every in-cloud function reads through region 0 (the legacy policy)
//     versus through its own region's view (region-aware placement).
//
//     regionbench [-puts 200] [-calls 500] [-regions 3] [-seed 1]
//     [-out BENCH_regions.json] [-minackspeedup 0] [-minreadreduction 0]
//
// With -minackspeedup s the command exits non-zero unless async replication
// cut the p50 PUT ack latency by at least s×; with -minreadreduction r it
// exits non-zero unless region-aware placement cut cross-region reads by at
// least r×. CI runs s=2, r=5.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "regionbench:", err)
		os.Exit(1)
	}
}

// payloadBytes is the object size both halves of the benchmark move around
// — small enough that latency, not bandwidth, dominates (the regime where
// fan-out on the critical path hurts most).
const payloadBytes = 8 * 1024

// interRegionLatency separates the simulated regions: every request on a
// region's path pays this on top of the in-datacenter base costs.
const interRegionLatency = 40 * time.Millisecond

// replicationReport measures one replication mode's PUT ack latencies.
type replicationReport struct {
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	// Facade counters after the run (catch-up queue activity is zero in
	// sync mode by construction).
	AsyncQueued     int64 `json:"asyncQueued"`
	AsyncReplicated int64 `json:"asyncReplicated"`
	AsyncDropped    int64 `json:"asyncDropped"`
}

// placementReport measures one placement policy's cross-region traffic over
// a map job whose every call reads a shared dataset object.
type placementReport struct {
	CrossRegionReads      int64   `json:"crossRegionReads"`
	CrossRegionReadBytes  int64   `json:"crossRegionReadBytes"`
	CrossRegionWrites     int64   `json:"crossRegionWrites"`
	CrossRegionWriteBytes int64   `json:"crossRegionWriteBytes"`
	SimElapsedSeconds     float64 `json:"simElapsedSeconds"`
	RealSeconds           float64 `json:"realSeconds"`
}

type report struct {
	Puts         int                          `json:"puts"`
	Calls        int                          `json:"calls"`
	Regions      int                          `json:"regions"`
	PayloadBytes int                          `json:"payloadBytes"`
	Seed         int64                        `json:"seed"`
	Replication  map[string]replicationReport `json:"replication"`
	Placement    map[string]placementReport   `json:"placement"`
	// AckSpeedup is sync ÷ async p50 PUT ack latency (higher is better).
	AckSpeedup float64 `json:"ackSpeedup"`
	// CrossReadReduction is legacy ÷ aware cross-region reads.
	CrossReadReduction float64 `json:"crossReadReduction"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("regionbench", flag.ContinueOnError)
	puts := fs.Int("puts", 200, "PUTs per replication run")
	calls := fs.Int("calls", 500, "map calls per placement run")
	regions := fs.Int("regions", 3, "number of regions")
	seed := fs.Int64("seed", 1, "simulation seed")
	out := fs.String("out", "BENCH_regions.json", "output JSON path")
	minAckSpeedup := fs.Float64("minackspeedup", 0,
		"fail unless async cut p50 PUT ack latency at least this factor (0 disables the gate)")
	minReadReduction := fs.Float64("minreadreduction", 0,
		"fail unless region-aware placement cut cross-region reads at least this factor (0 disables the gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *regions < 2 {
		return fmt.Errorf("need at least 2 regions, got %d", *regions)
	}

	rep := report{
		Puts:         *puts,
		Calls:        *calls,
		Regions:      *regions,
		PayloadBytes: payloadBytes,
		Seed:         *seed,
		Replication:  make(map[string]replicationReport),
		Placement:    make(map[string]placementReport),
	}

	for _, mode := range []struct {
		name  string
		async bool
	}{
		{"sync", false},
		{"async", true},
	} {
		r, err := runReplication(*puts, *regions, *seed, mode.async)
		if err != nil {
			return fmt.Errorf("replication %s run: %w", mode.name, err)
		}
		rep.Replication[mode.name] = r
		fmt.Printf("replication %-6s p50=%7.2fms p95=%7.2fms queued=%-5d replicated=%-5d dropped=%d\n",
			mode.name, r.P50Ms, r.P95Ms, r.AsyncQueued, r.AsyncReplicated, r.AsyncDropped)
	}
	rep.AckSpeedup = ratio(rep.Replication["sync"].P50Ms, rep.Replication["async"].P50Ms)
	fmt.Printf("put ack speedup: %.1f×\n", rep.AckSpeedup)

	for _, mode := range []struct {
		name       string
		regionZero bool
	}{
		{"regionZero", true},
		{"regionAware", false},
	} {
		r, err := runPlacement(*calls, *regions, *seed, mode.regionZero)
		if err != nil {
			return fmt.Errorf("placement %s run: %w", mode.name, err)
		}
		rep.Placement[mode.name] = r
		fmt.Printf("placement %-12s crossReads=%-6d crossReadMB=%-8.2f crossWrites=%-6d sim=%.1fs real=%.2fs\n",
			mode.name, r.CrossRegionReads, float64(r.CrossRegionReadBytes)/(1<<20),
			r.CrossRegionWrites, r.SimElapsedSeconds, r.RealSeconds)
	}
	rep.CrossReadReduction = ratio(
		float64(rep.Placement["regionZero"].CrossRegionReads),
		float64(rep.Placement["regionAware"].CrossRegionReads))
	fmt.Printf("cross-region read reduction: %.1f×\n", rep.CrossReadReduction)

	body, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if *minAckSpeedup > 0 && rep.AckSpeedup < *minAckSpeedup {
		return fmt.Errorf("put ack speedup %.1f× below required %.1f×", rep.AckSpeedup, *minAckSpeedup)
	}
	if *minReadReduction > 0 && rep.CrossReadReduction < *minReadReduction {
		return fmt.Errorf("cross-region read reduction %.1f× below required %.1f×",
			rep.CrossReadReduction, *minReadReduction)
	}
	return nil
}

// ratio guards against a zero denominator: a mode that eliminated the
// metric entirely reports the numerator as the improvement factor.
func ratio(full, inc float64) float64 {
	if inc <= 0 {
		return full
	}
	return full / inc
}

// runReplication builds a bare facade over linked region stores separated
// by interRegionLatency and measures each PUT's virtual ack latency.
func runReplication(puts, regions int, seed int64, async bool) (replicationReport, error) {
	clk := vclock.NewVirtual()
	backends := make([]cos.RegionBackend, regions)
	for i := range backends {
		link := netsim.InCloud(seed + 10 + int64(i))
		sched, err := netsim.NewSchedule(clk, []netsim.Phase{
			{Start: 0, End: 1000 * time.Hour, ExtraLatency: interRegionLatency},
		})
		if err != nil {
			return replicationReport{}, err
		}
		link.SetSchedule(sched)
		backends[i] = cos.RegionBackend{
			Name:   fmt.Sprintf("region-%d", i),
			Client: cos.NewLinked(cos.NewStore(), clk, link),
		}
	}
	var opts []cos.MultiRegionOption
	if async {
		opts = append(opts, cos.WithAsyncReplication(clk))
	}
	m, err := cos.NewMultiRegion(backends, opts...)
	if err != nil {
		return replicationReport{}, err
	}

	data := make([]byte, payloadBytes)
	acks := make([]time.Duration, 0, puts)
	var runErr error
	clk.Run(func() {
		if err := m.CreateBucket("bench"); err != nil {
			runErr = err
			return
		}
		for i := 0; i < puts; i++ {
			start := clk.Now()
			if _, err := m.Put("bench", fmt.Sprintf("obj/%06d", i), data); err != nil {
				runErr = fmt.Errorf("put %d: %w", i, err)
				return
			}
			acks = append(acks, clk.Now().Sub(start))
		}
		if !m.Drain(clk.Now().Add(time.Hour)) {
			runErr = fmt.Errorf("catch-up queues did not drain")
		}
	})
	if runErr != nil {
		return replicationReport{}, runErr
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	st := m.Stats()
	return replicationReport{
		P50Ms:           acks[len(acks)/2].Seconds() * 1000,
		P95Ms:           acks[len(acks)*95/100].Seconds() * 1000,
		AsyncQueued:     st.AsyncQueued,
		AsyncReplicated: st.AsyncReplicated,
		AsyncDropped:    st.AsyncDropped,
	}, nil
}

// runPlacement runs a calls-wide map whose every call reads one shared
// dataset object through its runner's storage view, under the given
// placement policy, and reports the facade's cross-region counters.
func runPlacement(calls, regions int, seed int64, regionZero bool) (placementReport, error) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterFunc(img, "read", func(ctx *gowren.Ctx, x int) (int, error) {
		data, _, err := ctx.Storage().Get("benchdata", "shared")
		if err != nil {
			return 0, err
		}
		return x + len(data), nil
	})
	if err != nil {
		return placementReport{}, err
	}
	specs := make([]gowren.RegionSpec, regions)
	for i := range specs {
		specs[i] = gowren.RegionSpec{Name: fmt.Sprintf("region-%d", i)}
	}
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:              []*gowren.Image{img},
		Seed:                seed,
		Regions:             specs,
		RegionZeroPlacement: regionZero,
		MaxConcurrent:       calls,
	})
	if err != nil {
		return placementReport{}, err
	}

	var (
		simElapsed time.Duration
		runErr     error
	)
	realStart := time.Now() //gowren:allow clockcheck — host CPU-time measurement of the simulation itself
	cloud.Run(func() {
		m := cloud.MultiRegion()
		if err := m.CreateBucket("benchdata"); err != nil {
			runErr = err
			return
		}
		if _, err := m.Put("benchdata", "shared", make([]byte, payloadBytes)); err != nil {
			runErr = err
			return
		}
		exec, err := cloud.Executor()
		if err != nil {
			runErr = err
			return
		}
		args := make([]any, calls)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("read", args); err != nil {
			runErr = err
			return
		}
		results, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			runErr = err
			return
		}
		for i, r := range results {
			if r != i+payloadBytes {
				runErr = fmt.Errorf("result[%d] = %d, want %d", i, r, i+payloadBytes)
				return
			}
		}
		simElapsed = cloud.Clock().Now().Sub(start)
	})
	if runErr != nil {
		return placementReport{}, runErr
	}
	st := cloud.MultiRegion().Stats()
	return placementReport{
		CrossRegionReads:      st.CrossRegionReads,
		CrossRegionReadBytes:  st.CrossRegionReadBytes,
		CrossRegionWrites:     st.CrossRegionWrites,
		CrossRegionWriteBytes: st.CrossRegionWriteBytes,
		SimElapsedSeconds:     simElapsed.Seconds(),
		RealSeconds:           time.Since(realStart).Seconds(), //gowren:allow clockcheck — host CPU-time measurement of the simulation itself
	}, nil
}
