package gowren_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/trace"
)

// cleanLeavesNothing is the chaos acceptances' leak oracle. Once a case's
// run is over, and with it every activation the case started, it runs Clean
// on every executor the case drove and fails the test for any object of
// theirs still in the meta bucket: a key under jobs/{id}/, or the manifest
// manifests/{id}. On a multi-region cloud it reads the first region's
// engine. Call it last: it runs the cloud once more.
func cleanLeavesNothing(t *testing.T, cloud *gowren.Cloud, execs ...*gowren.Executor) {
	t.Helper()
	cloud.Run(func() {
		for _, e := range execs {
			if err := e.Clean(); err != nil {
				t.Errorf("clean %s: %v", e.ID(), err)
			}
		}
	})
	meta := cloud.Platform().MetaBucket()
	for _, e := range execs {
		left, err := cos.ListAll(cloud.Store(), meta, "jobs/"+e.ID()+"/")
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range left {
			t.Errorf("Clean left %s", obj.Key)
		}
		if _, err := cloud.Store().Head(meta, "manifests/"+e.ID()); !errors.Is(err, cos.ErrNoSuchKey) {
			t.Errorf("Clean left manifests/%s (head: %v)", e.ID(), err)
		}
	}
}

// watchJobShape is the chaos acceptances' shape oracle: from the moment it
// is called until the test ends it watches every write under jobs/ in the
// meta bucket of cloud's store (the first region's, on a multi-region
// cloud), and fails the test for any result object, jobs/{id}/result/…, or
// COS shuffle map object, jobs/{id}/shuffle/map/…, written beside a status:
// a call commits with its status object alone, whatever faults it ran into.
// A watch that saw no write at all fails too.
func watchJobShape(t *testing.T, cloud *gowren.Cloud) {
	t.Helper()
	var (
		mu     sync.Mutex
		writes int
		strays []string
	)
	cancel := cloud.Store().Watch(cloud.Platform().MetaBucket(), "jobs/", func(key string, _ []byte) {
		parts := strings.SplitN(key, "/", 4)
		stray := len(parts) == 4 && (parts[2] == "result" || parts[2] == "shuffle" && strings.HasPrefix(parts[3], "map/"))
		mu.Lock()
		writes++
		if stray {
			strays = append(strays, key)
		}
		mu.Unlock()
	})
	t.Cleanup(func() {
		cancel()
		mu.Lock()
		defer mu.Unlock()
		for _, key := range strays {
			t.Errorf("a call wrote %s beside its status", key)
		}
		if writes == 0 {
			t.Error("the shape oracle watched no write under jobs/")
		}
	})
}

// chaosImage registers the functions the fault-injection tests run.
func chaosImage(t *testing.T) *gowren.Image {
	t.Helper()
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(gowren.RegisterFunc(img, "work", func(ctx *gowren.Ctx, x int) (int, error) {
		if err := ctx.ChargeCompute(5 * time.Second); err != nil {
			return 0, err
		}
		return x * 2, nil
	}))
	must(gowren.RegisterFunc(img, "flaky", func(_ *gowren.Ctx, x int) (int, error) {
		if x < 0 {
			return 0, errors.New("deliberate permanent failure")
		}
		return x + 1, nil
	}))
	return img
}

// chaosRun executes one full 500-call map under a scripted COS brownout
// plus 5% container crashes and returns the results and elapsed virtual
// time. Recovery is left entirely to GetResult — no manual FailedFutures
// or Respawn.
func chaosRun(t *testing.T, seed int64) (results []int, elapsed time.Duration, crashes int, dead []gowren.DeadLetter) {
	t.Helper()
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:        []*gowren.Image{chaosImage(t)},
		Seed:          seed,
		CrashProb:     0.05,
		TraceCapacity: 1 << 16,
		Chaos: []gowren.ChaosFault{
			{
				Kind:        gowren.ChaosCOSBrownout,
				Start:       3 * time.Second,
				End:         12 * time.Second,
				Probability: 0.9,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		args := make([]any, 500)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("work", args); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		results, err = gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		dead = exec.DeadLetters()
	})
	for _, ev := range cloud.Trace().Events() {
		if ev.Kind == trace.KindCrash {
			crashes++
		}
	}
	cleanLeavesNothing(t, cloud, driven...)
	return results, elapsed, crashes, dead
}

func TestChaosMapRecoversAllCalls(t *testing.T) {
	// Acceptance: a 500-call map with a mid-job COS brownout and 5%
	// crash probability completes with zero lost calls, purely through
	// the automatic recovery in the wait path.
	results, _, crashes, dead := chaosRun(t, 42)
	if len(results) != 500 {
		t.Fatalf("got %d results, want 500", len(results))
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*2)
		}
	}
	if len(dead) != 0 {
		t.Fatalf("recovery gave up on %d calls: %+v", len(dead), dead[0])
	}
	// The run must actually have injected faults, or the test proves
	// nothing: with CrashProb 0.05 over 500+ activations crashes are
	// statistically guaranteed under any seed.
	if crashes == 0 {
		t.Fatal("no containers crashed; fault injection did not engage")
	}
}

func TestChaosRunDeterministicUnderSeed(t *testing.T) {
	r1, e1, c1, _ := chaosRun(t, 42)
	r2, e2, c2, _ := chaosRun(t, 42)
	if e1 != e2 {
		t.Fatalf("elapsed diverged under same seed: %v vs %v", e1, e2)
	}
	if c1 != c2 {
		t.Fatalf("crash count diverged under same seed: %d vs %d", c1, c2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("result counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("result %d diverged: %d vs %d", i, r1[i], r2[i])
		}
	}
}

func TestRecoveryBudgetExhaustionDeadLetters(t *testing.T) {
	// Deterministically failing calls exhaust their per-call recovery
	// budget, land on the dead-letter list, and — with PartialResults —
	// the successful subset still comes back alongside a PartialError.
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images: []*gowren.Image{chaosImage(t)},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		if _, err := exec.Map("flaky", 1, -1, 3, -2); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		raws, err := exec.GetResult(gowren.GetResultOptions{
			Timeout:        time.Hour,
			PartialResults: true,
			Recovery:       &gowren.RecoveryOptions{MaxAttempts: 1},
		})
		if err == nil {
			t.Error("want PartialError, got nil")
			return
		}
		var pe *gowren.PartialError
		if !errors.As(err, &pe) {
			t.Errorf("err = %v, want *PartialError", err)
			return
		}
		if !errors.Is(err, gowren.ErrCallFailed) {
			t.Errorf("err = %v, want to wrap ErrCallFailed", err)
		}
		if len(pe.Failed) != 2 || len(pe.Errs) != 2 {
			t.Errorf("partial error reports %d/%d failures, want 2/2", len(pe.Failed), len(pe.Errs))
		}
		if len(raws) != 4 {
			t.Errorf("got %d slots, want 4", len(raws))
			return
		}
		// Successes resolved, failures left nil, in call order.
		for i, wantNil := range []bool{false, true, false, true} {
			if gotNil := raws[i] == nil; gotNil != wantNil {
				t.Errorf("slot %d nil=%v, want %v", i, gotNil, wantNil)
			}
		}
		dead := exec.DeadLetters()
		if len(dead) != 2 {
			t.Errorf("dead letters = %d, want 2", len(dead))
			return
		}
		for _, d := range dead {
			if d.Attempts != 1 {
				t.Errorf("dead letter %s attempts = %d, want 1", d.CallID, d.Attempts)
			}
		}
	})
	cleanLeavesNothing(t, cloud, driven...)
}

func TestControllerOutageWindowRecovered(t *testing.T) {
	// Invocations issued into a controller outage window see 429s and
	// retry through the shared policy until the window lifts; the job
	// still completes exactly.
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images: []*gowren.Image{chaosImage(t)},
		Seed:   5,
		Chaos: []gowren.ChaosFault{
			{
				Kind:  gowren.ChaosControllerOutage,
				Start: 0,
				End:   4 * time.Second,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		start := cloud.Clock().Now()
		if _, err := exec.Map("work", 1, 2, 3); err != nil {
			t.Errorf("map during outage: %v", err)
			return
		}
		results, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		if len(results) != 3 || results[0] != 2 || results[1] != 4 || results[2] != 6 {
			t.Errorf("results = %v, want [2 4 6]", results)
		}
		// The outage must have cost the invocation phase real (virtual)
		// time: nothing could be admitted before t=4s.
		if done := cloud.Clock().Now().Sub(start); done < 4*time.Second {
			t.Errorf("job finished in %v, impossible during a 4s outage", done)
		}
	})
	cleanLeavesNothing(t, cloud, driven...)
}

// noisyNeighborRun executes the noisy-neighbor scenario: a victim tenant
// runs a modest job while a noisy tenant floods the platform with 10× its
// admitted share. The admission layer (per-tenant quotas + fair-share
// dispatch) must keep the victim whole. Returns the victim's results and
// elapsed virtual time plus the counts of quota rejections and sheds seen
// in the platform trace.
func noisyNeighborRun(t *testing.T, seed int64) (victim []int, elapsed time.Duration, quotaRejects, sheds int) {
	t.Helper()
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:        []*gowren.Image{chaosImage(t)},
		Seed:          seed,
		MaxConcurrent: 10,
		TraceCapacity: 1 << 16,
		Admission: &gowren.AdmissionConfig{
			// The victim keeps an unlimited rate but a larger dispatch
			// weight; the noisy tenant is quota-capped well below its
			// offered flood.
			Tenants: map[string]gowren.TenantQuota{
				"victim": {Weight: 4},
				"noisy":  {Rate: 5, Burst: 10, Weight: 1},
			},
			MaxQueueDelay: 10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	var driven []*gowren.Executor
	cloud.Run(func() {
		var noisyDone atomic.Bool
		cloud.Go(func() {
			defer noisyDone.Store(true)
			noisy, err := cloud.Executor(gowren.WithTenant("noisy"))
			if err != nil {
				t.Error(err)
				return
			}
			driven = append(driven, noisy)
			args := make([]any, 150)
			for i := range args {
				args[i] = i
			}
			// The flood mostly bounces off the quota; errors (including
			// a failed collection) are the expected outcome.
			if _, err := noisy.MapSlice("work", args); err != nil {
				return
			}
			_, _ = noisy.GetResult(gowren.GetResultOptions{
				Timeout:        5 * time.Minute,
				PartialResults: true,
			})
		})

		exec, err := cloud.Executor(gowren.WithTenant("victim"))
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		args := make([]any, 10)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("work", args); err != nil {
			t.Errorf("victim map: %v", err)
			return
		}
		victim, err = gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("victim get result: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		for !noisyDone.Load() {
			cloud.Clock().Sleep(100 * time.Millisecond)
		}
	})
	for _, ev := range cloud.Trace().Events() {
		switch {
		case ev.Kind == trace.KindShed:
			sheds++
		case ev.Kind == trace.KindThrottle && strings.Contains(ev.Detail, "reason=quota"):
			quotaRejects++
		}
	}
	cleanLeavesNothing(t, cloud, driven...)
	return victim, elapsed, quotaRejects, sheds
}

func TestChaosNoisyNeighborVictimUnharmed(t *testing.T) {
	// Acceptance: under a 10× noisy-neighbor flood the victim tenant's
	// 10-call job completes exactly, and the admission layer visibly
	// engaged (quota rejections or sheds in the trace).
	victim, _, quotaRejects, sheds := noisyNeighborRun(t, 11)
	if len(victim) != 10 {
		t.Fatalf("victim results = %d, want 10", len(victim))
	}
	for i, r := range victim {
		if r != i*2 {
			t.Fatalf("victim result[%d] = %d, want %d", i, r, i*2)
		}
	}
	if quotaRejects == 0 {
		t.Fatal("no quota rejections; the noisy flood never hit its rate limit")
	}
	if quotaRejects+sheds < 50 {
		t.Fatalf("admission barely engaged: quota=%d sheds=%d", quotaRejects, sheds)
	}
}

func TestChaosNoisyNeighborDeterministic(t *testing.T) {
	v1, e1, q1, s1 := noisyNeighborRun(t, 11)
	v2, e2, q2, s2 := noisyNeighborRun(t, 11)
	if e1 != e2 {
		t.Fatalf("victim elapsed diverged under same seed: %v vs %v", e1, e2)
	}
	if q1 != q2 || s1 != s2 {
		t.Fatalf("rejection counts diverged: quota %d vs %d, sheds %d vs %d", q1, q2, s1, s2)
	}
	if len(v1) != len(v2) {
		t.Fatalf("victim result counts diverged: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("victim result %d diverged: %d vs %d", i, v1[i], v2[i])
		}
	}
}
