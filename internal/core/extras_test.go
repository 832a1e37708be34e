package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/wire"
)

func TestCleanRemovesJobObjects(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{1, 2, 3}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		stats, err := exec.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		// A call's status is its only object: small outputs ride the
		// record line, and nothing else is written under the job but its
		// payload batch and journal.
		if stats.Payloads != 3 || stats.Statuses != 3 || stats.Shuffle != 0 {
			t.Errorf("pre-clean stats = %+v", stats)
		}
		listed, err := cos.ListAll(e.store, DefaultMetaBucket, "jobs/"+exec.ID()+"/")
		if err != nil {
			t.Error(err)
			return
		}
		for _, o := range listed {
			kind := strings.Split(strings.TrimPrefix(o.Key, "jobs/"+exec.ID()+"/"), "/")[0]
			if kind != payloadPrefix && kind != statusPrefix && kind != journalPrefix {
				t.Errorf("the job wrote %s", o.Key)
			}
		}
		if err := exec.Clean(); err != nil {
			t.Error(err)
			return
		}
		stats, err = exec.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		if stats.Payloads != 0 || stats.Statuses != 0 || stats.Shuffle != 0 {
			t.Errorf("post-clean stats = %+v", stats)
		}
	})
}

func TestCleanIsPerExecutor(t *testing.T) {
	e := newEnv(t, nil)
	a := e.executor(t, nil)
	b := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := a.Map("add7", []any{1}); err != nil {
			t.Error(err)
			return
		}
		if _, err := b.Map("add7", []any{2}); err != nil {
			t.Error(err)
			return
		}
		if _, err := a.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := b.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		if err := a.Clean(); err != nil {
			t.Error(err)
			return
		}
		stats, err := b.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		if stats.Payloads != 1 || stats.Statuses != 1 {
			t.Errorf("executor b lost objects to a's clean: %+v", stats)
		}
	})
}

// TestWaitThreshold: call i runs (i+1)*10 s, so a threshold of k calls is
// met shortly after k*10 s with exactly k done — at least frac of the calls,
// rounded up (0.5 of 3 is 2), and no more (0.3 of 10 is 3, not 4).
func TestWaitThreshold(t *testing.T) {
	for _, tc := range []struct {
		frac    float64
		n, want int
	}{
		{0.5, 10, 5},
		{0.5, 3, 2},
		{0.3, 10, 3},
	} {
		t.Run(fmt.Sprintf("%v_of_%d", tc.frac, tc.n), func(t *testing.T) {
			e := newEnv(t, nil)
			exec := e.executor(t, nil)
			e.clk.Run(func() {
				args := make([]any, tc.n)
				for i := range args {
					args[i] = (i + 1) * 10
				}
				start := e.clk.Now()
				if _, err := exec.Map("busy", args); err != nil {
					t.Error(err)
					return
				}
				done, _, err := exec.WaitThreshold(tc.frac, time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				if len(done) != tc.want {
					t.Errorf("threshold met with %d done, want %d", len(done), tc.want)
				}
				want := time.Duration(tc.want) * 10 * time.Second
				if elapsed := e.clk.Now().Sub(start); elapsed < want || elapsed > want+20*time.Second {
					t.Errorf("threshold met at %v, want shortly after %v", elapsed, want)
				}
			})
		})
	}
}

func TestWaitThresholdValidation(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	if _, _, err := exec.WaitThreshold(0, time.Time{}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, _, err := exec.WaitThreshold(1.5, time.Time{}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, _, err := exec.WaitThreshold(0.5, time.Time{}); !errors.Is(err, ErrNoFutures) {
		t.Fatalf("err = %v, want ErrNoFutures", err)
	}
}

func TestWaitThresholdDeadline(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{500}); err != nil {
			t.Error(err)
			return
		}
		_, _, err := exec.WaitThreshold(1.0, e.clk.Now().Add(5*time.Second))
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
		}
	})
}

func TestFailedFuturesAndRespawn(t *testing.T) {
	// Crash probability 1 means every first run dies; we then disable
	// crashes by... we can't mutate the controller, so instead verify the
	// bookkeeping: FailedFutures finds the victims and Respawn re-invokes
	// (which crashes again, observably as a fresh activation).
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CrashProb = 1.0 })
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		futures, err := exec.Map("add7", []any{1, 2})
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, err := exec.Wait(WaitAllCompleted, e.clk.Now().Add(5*time.Minute)); err != nil {
			t.Error(err)
			return
		}
		failed, err := exec.FailedFutures()
		if err != nil {
			t.Error(err)
			return
		}
		if len(failed) != 2 {
			t.Errorf("failed = %d, want 2", len(failed))
			return
		}
		oldActs := []string{futures[0].ActivationID(), futures[1].ActivationID()}
		if err := exec.Respawn(failed); err != nil {
			t.Error(err)
			return
		}
		if futures[0].ActivationID() == oldActs[0] || futures[1].ActivationID() == oldActs[1] {
			t.Error("respawn did not produce fresh activations")
		}
		if futures[0].knownDone() {
			t.Error("respawned future still marked done")
		}
	})
}

func TestRespawnRecoversTransientCrash(t *testing.T) {
	// With 60% crash probability, a few respawn rounds should drive all
	// calls to success (seeded, so deterministic enough to assert).
	e := newEnv(t, func(cfg *PlatformConfig) {
		cfg.CrashProb = 0.6
		cfg.Seed = 9
	})
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{5, 6, 7, 8}); err != nil {
			t.Error(err)
			return
		}
		for round := 0; round < 20; round++ {
			if _, _, err := exec.Wait(WaitAllCompleted, e.clk.Now().Add(10*time.Minute)); err != nil {
				t.Error(err)
				return
			}
			failed, err := exec.FailedFutures()
			if err != nil {
				t.Error(err)
				return
			}
			if len(failed) == 0 {
				results, err := exec.GetResult(GetResultOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				got := decodeInts(t, results)
				want := []int{12, 13, 14, 15}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("results = %v, want %v", got, want)
					}
				}
				return
			}
			if err := exec.Respawn(failed); err != nil {
				t.Error(err)
				return
			}
		}
		t.Error("calls never all succeeded after 20 respawn rounds")
	})
}

func TestRespawnRejectsForeignFutures(t *testing.T) {
	e := newEnv(t, nil)
	a := e.executor(t, nil)
	b := e.executor(t, nil)
	e.clk.Run(func() {
		fs, err := a.Map("add7", []any{1})
		if err != nil {
			t.Error(err)
			return
		}
		if err := b.Respawn(fs); err == nil {
			t.Error("respawn accepted futures from another executor")
		}
	})
}

func TestGetResultSpeculativeBeatsStraggler(t *testing.T) {
	// A platform whose jitter has a brutal tail: most activations finish
	// near the task time, an unlucky one runs minutes longer. Speculation
	// re-invokes the straggler once 75% of the job has finished, and the
	// rerun (a fresh jitter draw) almost surely completes far earlier.
	e := newEnv(t, func(cfg *PlatformConfig) {
		// Seed 1 is known to include a ~60s jitter draw among the 24
		// activations (see the probe history in the test comments).
		cfg.ExecJitter = netsim.LogNormal{Median: 500 * time.Millisecond, Sigma: 2.5, Cap: 8 * time.Minute}
		cfg.Seed = 1
	})
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		args := make([]any, 24)
		for i := range args {
			args[i] = 5 // 5s of work each
		}
		start := e.clk.Now()
		if _, err := exec.Map("busy", args); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResultSpeculative(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != 24 {
			t.Errorf("results = %d", len(results))
			return
		}
		for _, r := range results {
			var v int
			if err := wire.Unmarshal(r, &v); err != nil || v != 5 {
				t.Errorf("result = %s, %v", r, err)
				return
			}
		}
		elapsed := e.clk.Now().Sub(start)
		// Without speculation this seed's job lasts ~61s (the worst
		// jitter draw); with it, the tail is bounded by roughly
		// Factor × the 75% completion time plus one rerun.
		if elapsed > 50*time.Second {
			t.Errorf("speculative job took %v; straggler not mitigated", elapsed)
		}
		// Speculation must actually have fired: respawned calls create
		// extra runner activations.
		runnerActs := 0
		for _, a := range e.platform.Controller().Activations() {
			if len(a.Action) >= len("gowren-runner--") && a.Action[:len("gowren-runner--")] == "gowren-runner--" {
				runnerActs++
			}
		}
		if runnerActs <= 24 {
			t.Errorf("runner activations = %d; speculation never fired", runnerActs)
		}
	})
}

func TestGetResultSpeculativeDeadLettersFailingStraggler(t *testing.T) {
	// Speculation and recovery draw on one respawn budget per call. A
	// straggler whose every copy fails must still reach the recovery
	// attempt cap and end as a dead letter, not wait out the timeout on a
	// budget speculation spent.
	e := newEnvWith(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("slowFail", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
			var seconds int
			if err := wire.Unmarshal(arg, &seconds); err != nil {
				return nil, err
			}
			if err := ctx.ChargeCompute(time.Duration(seconds) * time.Second); err != nil {
				return nil, err
			}
			if seconds > 10 {
				return nil, errors.New("slow call failed")
			}
			return seconds, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("slowFail", []any{1, 1, 1, 20}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResultSpeculative(GetResultOptions{Timeout: 30 * time.Minute})
		if !errors.Is(err, ErrCallFailed) || errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrCallFailed for a dead-lettered straggler", err)
		}
		letters := exec.DeadLetters()
		if len(letters) != 1 || letters[0].Attempts != DefaultRecoveryAttempts ||
			!strings.Contains(letters[0].LastError, "slow call failed") {
			t.Errorf("dead letters = %+v, want the slow call after the full recovery cap", letters)
		}
	})
	// 4 originals, 1 speculative copy, MaxAttempts recovery respawns.
	runs := 0
	for _, a := range e.platform.Controller().Activations() {
		if strings.HasPrefix(a.Action, "gowren-runner--") {
			runs++
		}
	}
	if want := 5 + DefaultRecoveryAttempts; runs != want {
		t.Errorf("runner activations = %d, want %d", runs, want)
	}
}

func TestGetResultSpeculativeNoFutures(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	if _, err := exec.GetResultSpeculative(GetResultOptions{}); !errors.Is(err, ErrNoFutures) {
		t.Fatalf("err = %v, want ErrNoFutures", err)
	}
}

func TestGetResultSpeculativeFastJobNoSpeculation(t *testing.T) {
	// A uniform job finishes before the straggler deadline; speculation
	// must not fire (no extra activations beyond the originals + helper).
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{3, 3, 3, 3}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResultSpeculative(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
	})
	runnerActs := 0
	for _, a := range e.platform.Controller().Activations() {
		if len(a.Action) >= len("gowren-runner--") && a.Action[:len("gowren-runner--")] == "gowren-runner--" {
			runnerActs++
		}
	}
	if runnerActs != 4 {
		t.Fatalf("runner activations = %d, want 4 (no speculation on a uniform job)", runnerActs)
	}
}

func TestGetResultSpeculativeTimeout(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{500}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResultSpeculative(GetResultOptions{Timeout: 5 * time.Second})
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
		}
	})
}
