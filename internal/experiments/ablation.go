package experiments

import (
	"fmt"
	"time"

	"gowren"
	"gowren/internal/core"
	"gowren/internal/cos"
	"gowren/internal/metrics"
	"gowren/internal/netsim"
	"gowren/internal/workloads"
)

// Ablations for the design choices DESIGN.md calls out: the spawner group
// size (the paper tuned it to 100), warm-vs-cold container pools, and
// chunk-size vs per-object partitioning.

// SpawnGroupResult measures the invocation phase for one spawner group
// size.
type SpawnGroupResult struct {
	GroupSize int
	InvokeAll time.Duration
}

// RunSpawnGroupAblation invokes n short tasks with massive spawning at each
// group size and reports the time for all of them to be running. The paper
// §5.1 settled on groups of 100 after finding one big group too slow.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunSpawnGroupAblation(n int, groupSizes []int, seed int64) ([]SpawnGroupResult, error) {
	out := make([]SpawnGroupResult, 0, len(groupSizes))
	for _, g := range groupSizes {
		cloud, err := newWorkloadCloud(seed, n+100)
		if err != nil {
			return nil, err
		}
		var (
			runErr error
			origin time.Time
		)
		cloud.Run(func() {
			if err := warmPlatform(cloud); err != nil {
				runErr = err
				return
			}
			exec, err := wanExecutor(cloud, true, gowren.WithMassiveSpawning(g))
			if err != nil {
				runErr = err
				return
			}
			args := make([]any, n)
			for i := range args {
				args[i] = 30.0
			}
			origin = cloud.Clock().Now()
			if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
				runErr = err
				return
			}
			if _, err := gowren.Results[float64](exec); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("experiments: spawn ablation group=%d: %w", g, runErr)
		}
		spans := spansSince(spansOf(cloud.Platform().Controller().Activations(), "gowren-runner--"), origin)
		series := metrics.ConcurrencySeries(spans, origin, time.Second, 0)
		out = append(out, SpawnGroupResult{GroupSize: g, InvokeAll: series.TimeToReach(n)})
	}
	return out, nil
}

// WarmColdResult compares a job on a cold platform against an immediate
// re-run that reuses warm containers.
type WarmColdResult struct {
	Cold time.Duration
	Warm time.Duration
}

// RunWarmColdAblation measures container reuse: the §3.1 caching story.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunWarmColdAblation(n int, seed int64) (WarmColdResult, error) {
	cloud, err := newWorkloadCloud(seed, n+50)
	if err != nil {
		return WarmColdResult{}, err
	}
	var (
		out    WarmColdResult
		runErr error
	)
	cloud.Run(func() {
		runOnce := func() (time.Duration, error) {
			exec, err := cloud.Executor(gowren.WithPollInterval(ExperimentPollInterval))
			if err != nil {
				return 0, err
			}
			args := make([]any, n)
			for i := range args {
				args[i] = 5.0
			}
			start := cloud.Clock().Now()
			if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
				return 0, err
			}
			if _, err := gowren.Results[float64](exec); err != nil {
				return 0, err
			}
			return cloud.Clock().Now().Sub(start), nil
		}
		if out.Cold, runErr = runOnce(); runErr != nil {
			return
		}
		out.Warm, runErr = runOnce()
	})
	if runErr != nil {
		return WarmColdResult{}, fmt.Errorf("experiments: warm/cold ablation: %w", runErr)
	}
	return out, nil
}

// PartitionGranularityResult compares chunked partitioning against
// per-object granularity for the tone job.
type PartitionGranularityResult struct {
	ChunkedExecutors int
	ChunkedElapsed   time.Duration
	PerObjectCount   int
	PerObjectElapsed time.Duration
}

// RunPartitionGranularityAblation contrasts the two §4.3 partitioning
// modes on the same dataset: user-defined chunk size vs one executor per
// object. Per-object granularity leaves big cities as stragglers.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunPartitionGranularityAblation(datasetBytes int64, chunkMiB int, seed int64) (PartitionGranularityResult, error) {
	var out PartitionGranularityResult
	run := func(chunkBytes int64) (int, time.Duration, error) {
		cloud, err := newWorkloadCloud(seed, 1000)
		if err != nil {
			return 0, 0, err
		}
		if _, err := workloads.LoadDataset(cloud.Store(), "airbnb", datasetBytes, uint64(seed)); err != nil {
			return 0, 0, err
		}
		var (
			elapsed time.Duration
			runErr  error
		)
		cloud.Run(func() {
			if err := warmPlatform(cloud); err != nil {
				runErr = err
				return
			}
			exec, err := cloud.Executor(
				gowren.WithClientProfile(gowren.ClientInCloud),
				gowren.WithMassiveSpawning(0),
				gowren.WithPollInterval(ExperimentPollInterval),
			)
			if err != nil {
				runErr = err
				return
			}
			start := cloud.Clock().Now()
			_, err = exec.MapReduce(workloads.FuncToneMap, gowren.FromBuckets("airbnb"),
				workloads.FuncToneReduce, gowren.MapReduceOptions{ChunkBytes: chunkBytes, ReducerOnePerObject: true})
			if err != nil {
				runErr = err
				return
			}
			if _, err := gowren.Results[workloads.CityMap](exec); err != nil {
				runErr = err
				return
			}
			elapsed = cloud.Clock().Now().Sub(start)
		})
		if runErr != nil {
			return 0, 0, runErr
		}
		parts, err := gowren.PlanPartitions(cloud.Store(), gowren.FromBuckets("airbnb"), chunkBytes)
		if err != nil {
			return 0, 0, err
		}
		return len(parts), elapsed, nil
	}

	var err error
	if out.ChunkedExecutors, out.ChunkedElapsed, err = run(int64(chunkMiB) << 20); err != nil {
		return out, fmt.Errorf("experiments: granularity ablation chunked: %w", err)
	}
	if out.PerObjectCount, out.PerObjectElapsed, err = run(0); err != nil {
		return out, fmt.Errorf("experiments: granularity ablation per-object: %w", err)
	}
	return out, nil
}

// ShuffleAblationRow measures one reduce-side parallelism level of the
// keyed-shuffle extension.
type ShuffleAblationRow struct {
	NumReducers int
	Elapsed     time.Duration
	Keys        int
}

// RunShuffleAblation measures the keyed tone-count job across reduce-side
// parallelism levels. Beyond the paper: it quantifies the object-storage
// shuffle its related-work section identifies as the open challenge.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunShuffleAblation(datasetBytes int64, reducerCounts []int, seed int64) ([]ShuffleAblationRow, error) {
	out := make([]ShuffleAblationRow, 0, len(reducerCounts))
	for _, r := range reducerCounts {
		cloud, err := newWorkloadCloud(seed+int64(r), 1000)
		if err != nil {
			return nil, err
		}
		if _, err := workloads.LoadDataset(cloud.Store(), "airbnb", datasetBytes, uint64(seed)); err != nil {
			return nil, err
		}
		var (
			elapsed time.Duration
			keys    int
			runErr  error
		)
		cloud.Run(func() {
			if err := warmPlatform(cloud); err != nil {
				runErr = err
				return
			}
			exec, err := cloud.Executor(
				gowren.WithClientProfile(gowren.ClientInCloud),
				gowren.WithMassiveSpawning(0),
				gowren.WithPollInterval(ExperimentPollInterval),
			)
			if err != nil {
				runErr = err
				return
			}
			start := cloud.Clock().Now()
			_, err = exec.MapReduceShuffle(workloads.FuncKVToneMap, gowren.FromBuckets("airbnb"),
				workloads.FuncKVToneReduce, gowren.ShuffleOptions{ChunkBytes: 4 << 20, NumReducers: r})
			if err != nil {
				runErr = err
				return
			}
			results, err := gowren.ShuffleResults(exec)
			if err != nil {
				runErr = err
				return
			}
			keys = len(results)
			elapsed = cloud.Clock().Now().Sub(start)
		})
		if runErr != nil {
			return nil, fmt.Errorf("experiments: shuffle ablation R=%d: %w", r, runErr)
		}
		out = append(out, ShuffleAblationRow{NumReducers: r, Elapsed: elapsed, Keys: keys})
	}
	return out, nil
}

// WANSweepRow measures the local-invocation phase under one client network
// condition.
type WANSweepRow struct {
	RTTMillis   int
	FailureProb float64
	InvokeAll   time.Duration
}

// RunWANLatencySweep quantifies §5.1's premise — "a high network latency
// between the client and the data center can significantly impact the total
// invocation time" — by running the local-invocation arm under increasing
// client RTTs and failure rates.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunWANLatencySweep(n int, rows []WANSweepRow, seed int64) ([]WANSweepRow, error) {
	out := make([]WANSweepRow, 0, len(rows))
	for _, row := range rows {
		cloud, err := newWorkloadCloud(seed, n+100)
		if err != nil {
			return nil, err
		}
		link := netsim.NewLink(netsim.LinkConfig{
			RTT:         netsim.LogNormal{Median: time.Duration(row.RTTMillis) * time.Millisecond, Sigma: 0.35, Cap: 10 * time.Duration(row.RTTMillis) * time.Millisecond},
			PerRequest:  60 * time.Millisecond,
			FailureProb: row.FailureProb,
			Seed:        seed,
		})
		var (
			runErr error
			origin time.Time
		)
		cloud.Run(func() {
			if err := warmPlatform(cloud); err != nil {
				runErr = err
				return
			}
			exec, err := core.NewExecutor(core.Config{
				Platform:          cloud.Platform(),
				Storage:           cos.NewLinked(cloud.Store(), cloud.Clock(), netsim.WANStorage(seed)),
				ControlLink:       link,
				InvokeConcurrency: WANClientThreads,
				StageConcurrency:  WANStageConcurrency,
				ClientOverhead:    WANClientOverhead,
				PollInterval:      ExperimentPollInterval,
			})
			if err != nil {
				runErr = err
				return
			}
			args := make([]any, n)
			for i := range args {
				args[i] = 30.0
			}
			origin = cloud.Clock().Now()
			if _, err := exec.Map(workloads.FuncComputeBound, args); err != nil {
				runErr = err
				return
			}
			if _, err := exec.GetResult(core.GetResultOptions{}); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("experiments: wan sweep rtt=%dms: %w", row.RTTMillis, runErr)
		}
		spans := spansSince(spansOf(cloud.Platform().Controller().Activations(), "gowren-runner--"), origin)
		series := metrics.ConcurrencySeries(spans, origin, time.Second, 0)
		row.InvokeAll = series.TimeToReach(n)
		out = append(out, row)
	}
	return out, nil
}

// ChaosRecoveryResult compares one job on a clean platform against the
// same job (same seed) under a scripted fault plan that automatic
// recovery must absorb.
type ChaosRecoveryResult struct {
	Clean       time.Duration
	Faulted     time.Duration
	DeadLetters int
}

// RecoveryOverhead is the extra job time the fault windows cost.
//
//gowren:allow reach — an ablation harness: TestChaosRecoveryAblation and CI's chaos job run it
func (r ChaosRecoveryResult) RecoveryOverhead() time.Duration {
	return r.Faulted - r.Clean
}

// RunChaosRecoveryAblation runs an n-call compute job twice — once clean,
// once through a mid-job COS brownout plus container crashes — and
// reports both job times. The faulted arm must still return every result
// (recovery in the wait path re-executes lost calls); the delta is the
// price of riding out the incident rather than failing the job, the
// fault-tolerance story §5.1's WAN retry observations motivate.
//
//gowren:allow reach — an ablation harness: TestChaosRecoveryAblation and CI's chaos job run it
func RunChaosRecoveryAblation(n int, taskSeconds float64, seed int64) (ChaosRecoveryResult, error) {
	var out ChaosRecoveryResult
	run := func(faulted bool) (time.Duration, int, error) {
		img := gowren.NewImage(gowren.DefaultRuntime, 0)
		if err := workloads.Register(img); err != nil {
			return 0, 0, err
		}
		cfg := gowren.SimConfig{
			Images:        []*gowren.Image{img},
			Seed:          seed,
			MaxConcurrent: n + 50,
		}
		if faulted {
			cfg.CrashProb = 0.05
			cfg.Chaos = []gowren.ChaosFault{{
				Kind:        gowren.ChaosCOSBrownout,
				Start:       time.Duration(taskSeconds * float64(time.Second) / 2),
				End:         time.Duration(taskSeconds * 2 * float64(time.Second)),
				Probability: 0.9,
			}}
		}
		cloud, err := gowren.NewSimCloud(cfg)
		if err != nil {
			return 0, 0, err
		}
		var (
			elapsed time.Duration
			dead    int
			runErr  error
		)
		cloud.Run(func() {
			exec, err := cloud.Executor(gowren.WithPollInterval(ExperimentPollInterval))
			if err != nil {
				runErr = err
				return
			}
			args := make([]any, n)
			for i := range args {
				args[i] = taskSeconds
			}
			start := cloud.Clock().Now()
			if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
				runErr = err
				return
			}
			if _, err := gowren.Results[float64](exec); err != nil {
				runErr = err
				return
			}
			elapsed = cloud.Clock().Now().Sub(start)
			dead = len(exec.DeadLetters())
		})
		return elapsed, dead, runErr
	}
	var err error
	if out.Clean, _, err = run(false); err != nil {
		return out, fmt.Errorf("experiments: chaos ablation clean arm: %w", err)
	}
	if out.Faulted, out.DeadLetters, err = run(true); err != nil {
		return out, fmt.Errorf("experiments: chaos ablation faulted arm: %w", err)
	}
	return out, nil
}

// SpeculationResult compares plain and speculative result collection on a
// platform with heavy-tailed execution noise.
type SpeculationResult struct {
	Plain       time.Duration
	Speculative time.Duration
}

// RunSpeculationAblation runs the same straggler-prone job (same seed, so
// the first attempts draw identical jitter) with plain GetResult and with
// speculative re-execution, reporting both job times. It quantifies the
// straggler effect behind Fig. 3's runtime spread.
//
//gowren:allow reach — an ablation harness: go test -bench=BenchmarkAblation runs it (EXPERIMENTS.md "Ablations")
func RunSpeculationAblation(n int, taskSeconds float64, seed int64) (SpeculationResult, error) {
	run := func(speculate bool) (time.Duration, error) {
		img := gowren.NewImage(gowren.DefaultRuntime, 0)
		if err := workloads.Register(img); err != nil {
			return 0, err
		}
		cloud, err := gowren.NewSimCloud(gowren.SimConfig{
			Images:        []*gowren.Image{img},
			Seed:          seed,
			MaxConcurrent: n + 50,
			Jitter:        true,
			JitterSigma:   2.5, // heavy tail: occasional multi-minute stragglers
		})
		if err != nil {
			return 0, err
		}
		var (
			elapsed time.Duration
			runErr  error
		)
		cloud.Run(func() {
			exec, err := cloud.Executor(gowren.WithPollInterval(ExperimentPollInterval))
			if err != nil {
				runErr = err
				return
			}
			args := make([]any, n)
			for i := range args {
				args[i] = taskSeconds
			}
			start := cloud.Clock().Now()
			if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
				runErr = err
				return
			}
			if speculate {
				_, err = exec.GetResultSpeculative(gowren.GetResultOptions{})
			} else {
				_, err = exec.GetResult()
			}
			if err != nil {
				runErr = err
				return
			}
			elapsed = cloud.Clock().Now().Sub(start)
		})
		return elapsed, runErr
	}
	plain, err := run(false)
	if err != nil {
		return SpeculationResult{}, fmt.Errorf("experiments: speculation ablation plain: %w", err)
	}
	spec, err := run(true)
	if err != nil {
		return SpeculationResult{}, fmt.Errorf("experiments: speculation ablation speculative: %w", err)
	}
	return SpeculationResult{Plain: plain, Speculative: spec}, nil
}
