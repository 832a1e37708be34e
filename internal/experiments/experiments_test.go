package experiments

import (
	"strings"
	"testing"
	"time"
)

// The tests run the harnesses at reduced scale (the full paper scale runs
// in cmd/experiments and bench_test.go) and assert the *shapes* the paper
// reports, not absolute values.

func TestFig2ShapeReducedScale(t *testing.T) {
	res, err := RunFig2(200, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local.InvokeAll <= 0 {
		t.Fatal("local arm never reached full concurrency")
	}
	if res.Massive.InvokeAll <= 0 {
		t.Fatal("massive arm never reached full concurrency")
	}
	// The headline claim: massive spawning brings functions up much
	// faster than local invocation from a high-latency network.
	if res.InvocationSpeedup() < 1.5 {
		t.Fatalf("invocation speedup = %.2fx, want > 1.5x (paper: ~5x at full scale)", res.InvocationSpeedup())
	}
	if res.Massive.Total >= res.Local.Total {
		t.Fatalf("massive total %v should beat local total %v", res.Massive.Total, res.Local.Total)
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "Fig. 2") || !strings.Contains(sb.String(), "speedup") {
		t.Fatal("report missing sections")
	}
}

// TestFig2ResultsInHandPaperScale: Total stops at "last function finished",
// which hid a client that then spent 150 sim-s fetching 1,000 statuses one
// at a time. At paper scale the results must be in the client's hands within
// a poll tick and a parallel status fetch of the last function's end.
func TestFig2ResultsInHandPaperScale(t *testing.T) {
	res, err := RunFig2(Fig2Functions, Fig2TaskSeconds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []Fig2Arm{res.Local, res.Massive} {
		if lag := arm.InHand - arm.Total; lag < 0 || lag > 3*time.Second {
			t.Errorf("%s: results in hand at %v, last function ended at %v — lag %v, want within 3 s",
				arm.Name, arm.InHand, arm.Total, lag)
		}
	}
}

func TestFig3FullConcurrencyReducedScale(t *testing.T) {
	res, err := RunFig3([]int{100, 200}, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for _, run := range res.Runs {
		if !run.FullConcurrency() {
			t.Fatalf("workload %d reached only %d concurrent", run.Workload, run.PeakConcurrency)
		}
		// Elasticity: the platform absorbs the doubled workload without
		// the invocation phase blowing up.
		if run.TimeToFull > 30*time.Second {
			t.Fatalf("workload %d took %v to reach full concurrency", run.Workload, run.TimeToFull)
		}
		// Variability: functions do not all take exactly the task time.
		if run.Durations.Max == run.Durations.Min {
			t.Fatalf("workload %d shows no runtime variability", run.Workload)
		}
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "workload") {
		t.Fatal("report missing table")
	}
}

func TestFig4ShapeReducedScale(t *testing.T) {
	sizes := []int64{100_000, 2_000_000}
	depths := []int{0, 2, 3}
	res, err := RunFig4(sizes, depths, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// Linear-ish growth: 20x the data takes at least 5x the time at d=0.
	if res.Cells[0][1].Elapsed < 5*res.Cells[0][0].Elapsed {
		t.Fatalf("d=0 growth not linear-ish: %v vs %v", res.Cells[0][0].Elapsed, res.Cells[0][1].Elapsed)
	}
	// Depth helps at the large size...
	large := len(sizes) - 1
	if res.Cells[1][large].Elapsed >= res.Cells[0][large].Elapsed {
		t.Fatalf("d=2 (%v) should beat d=0 (%v) at %d elements",
			res.Cells[1][large].Elapsed, res.Cells[0][large].Elapsed, sizes[large])
	}
	// ...much more than at the small size (relative gain comparison).
	gainSmall := res.Cells[0][0].Elapsed.Seconds() - res.Cells[1][0].Elapsed.Seconds()
	gainLarge := res.Cells[0][large].Elapsed.Seconds() - res.Cells[1][large].Elapsed.Seconds()
	if gainLarge <= gainSmall {
		t.Fatalf("depth gain at large size (%.1fs) should exceed small size (%.1fs)", gainLarge, gainSmall)
	}
	for d := range depths {
		for s := range sizes {
			if !res.Cells[d][s].Verified {
				t.Fatalf("cell d=%d s=%d not verified sorted", depths[d], sizes[s])
			}
		}
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "Fig. 4") {
		t.Fatal("report missing title")
	}
}

func TestTable3ShapeReducedScale(t *testing.T) {
	// 1/20 of the paper's dataset keeps the simulated COS request volume
	// small while preserving the qualitative rows.
	res, err := RunTable3([]int{8, 2}, Table3DatasetBytes/20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cities != 33 {
		t.Fatalf("cities = %d", res.Cities)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Smaller chunks → more executors → bigger speedup.
	if res.Rows[1].Concurrency <= res.Rows[0].Concurrency {
		t.Fatalf("concurrency not increasing: %d then %d", res.Rows[0].Concurrency, res.Rows[1].Concurrency)
	}
	if res.Rows[1].Speedup <= res.Rows[0].Speedup {
		t.Fatalf("speedup not increasing: %.1f then %.1f", res.Rows[0].Speedup, res.Rows[1].Speedup)
	}
	if res.Rows[0].Speedup < 2 {
		t.Fatalf("parallel run barely beats sequential: %.2fx", res.Rows[0].Speedup)
	}
	// Speedup is sublinear in executors (the paper's efficiency remark).
	if res.Rows[1].Speedup >= float64(res.Rows[1].Concurrency) {
		t.Fatalf("speedup %.1fx super-linear for %d executors", res.Rows[1].Speedup, res.Rows[1].Concurrency)
	}
	if len(res.Maps) != 33 {
		t.Fatalf("city maps = %d", len(res.Maps))
	}
	render := res.RenderCityMap("new-york", 40, 12)
	if !strings.Contains(render, "new-york") {
		t.Fatalf("render = %q", render)
	}
	var sb strings.Builder
	res.Report(&sb)
	if !strings.Contains(sb.String(), "Table 3") || !strings.Contains(sb.String(), "sequential") {
		t.Fatal("report missing rows")
	}
}

func TestTable1FeatureMatrix(t *testing.T) {
	res, err := RunTable1(5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MapReduceOK {
		t.Error("map_reduce feature check failed")
	}
	if !res.CompositionOK {
		t.Error("composability feature check failed")
	}
	if !res.CustomRuntimeOK {
		t.Error("custom runtime feature check failed")
	}
	if res.Partitions <= 33 {
		t.Errorf("partitioner produced %d partitions, want > one per city", res.Partitions)
	}
	if res.InvokeSpeedup() < 1.5 {
		t.Errorf("massive spawning speedup = %.1fx in Table 1 demo", res.InvokeSpeedup())
	}
	var sb strings.Builder
	res.Report(&sb)
	out := sb.String()
	for _, want := range []string{"MapReduce", "Composability", "Runtime", "Remote function spawning"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing row %q", want)
		}
	}
}

func TestSpawnGroupAblation(t *testing.T) {
	rows, err := RunSpawnGroupAblation(60, []int{10, 60}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.InvokeAll <= 0 {
			t.Fatalf("group %d never reached full concurrency", row.GroupSize)
		}
	}
}

func TestWarmColdAblation(t *testing.T) {
	res, err := RunWarmColdAblation(40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm >= res.Cold {
		t.Fatalf("warm run (%v) not faster than cold (%v)", res.Warm, res.Cold)
	}
}

func TestPartitionGranularityAblation(t *testing.T) {
	res, err := RunPartitionGranularityAblation(Table3DatasetBytes/50, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkedExecutors <= res.PerObjectCount {
		t.Fatalf("chunked executors (%d) should exceed per-object (%d)", res.ChunkedExecutors, res.PerObjectCount)
	}
	if res.ChunkedElapsed >= res.PerObjectElapsed {
		t.Fatalf("chunking (%v) should beat per-object stragglers (%v)", res.ChunkedElapsed, res.PerObjectElapsed)
	}
}

func TestShuffleAblation(t *testing.T) {
	rows, err := RunShuffleAblation(Table3DatasetBytes/50, []int{1, 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Keys != 3 {
			t.Fatalf("R=%d produced %d keys, want 3 tones", row.NumReducers, row.Keys)
		}
		if row.Elapsed <= 0 {
			t.Fatalf("R=%d elapsed = %v", row.NumReducers, row.Elapsed)
		}
	}
}

func TestWANLatencySweep(t *testing.T) {
	rows, err := RunWANLatencySweep(150, []WANSweepRow{
		{RTTMillis: 60},
		{RTTMillis: 240, FailureProb: 0.08},
		{RTTMillis: 600, FailureProb: 0.15},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].InvokeAll <= rows[i-1].InvokeAll {
			t.Fatalf("invocation phase not increasing with RTT/failures: %v then %v (rtt %d→%d)",
				rows[i-1].InvokeAll, rows[i].InvokeAll, rows[i-1].RTTMillis, rows[i].RTTMillis)
		}
	}
}

func TestSpeculationAblation(t *testing.T) {
	res, err := RunSpeculationAblation(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 1's heavy-tailed jitter puts a multi-minute straggler in the
	// plain run; speculation re-executes it and caps the tail.
	if res.Plain < time.Minute {
		t.Fatalf("plain run = %v; expected a straggler-dominated job", res.Plain)
	}
	if res.Speculative >= res.Plain/2 {
		t.Fatalf("speculation (%v) should at least halve the straggler tail (plain %v)", res.Speculative, res.Plain)
	}
}

func TestChaosRecoveryAblation(t *testing.T) {
	res, err := RunChaosRecoveryAblation(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The faulted arm rides out a 90% COS brownout plus 5% crashes: it
	// must still finish (zero dead letters) and must pay for it in time.
	if res.DeadLetters != 0 {
		t.Fatalf("faulted arm lost %d calls; recovery should absorb the incident", res.DeadLetters)
	}
	if res.RecoveryOverhead() <= 0 {
		t.Fatalf("fault windows cost nothing (clean %v, faulted %v); chaos did not engage", res.Clean, res.Faulted)
	}
}
