package core

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/runtime"
)

// newGateEnv registers "gated": a function that fails while gate is open
// and returns its argument once closed — the shape of a regional outage
// from user code's point of view.
func newGateEnv(t *testing.T) (*env, *atomic.Bool) {
	t.Helper()
	var gate atomic.Bool
	gate.Store(true)
	e := newEnvWith(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("gated", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			if gate.Load() {
				return nil, errors.New("dependency unavailable")
			}
			return arg, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	return e, &gate
}

func TestDeadLettersPersistedToMetaBucket(t *testing.T) {
	e, _ := newGateEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("gated", []any{1, 2}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Errorf("err = %v, want PartialError", err)
			return
		}
		letters := exec.DeadLetters()
		if len(letters) != 2 {
			t.Errorf("dead letters = %d, want 2", len(letters))
			return
		}
		persisted, err := exec.PersistedDeadLetters()
		if err != nil {
			t.Error(err)
			return
		}
		if len(persisted) != 2 {
			t.Errorf("persisted dead letters = %d, want 2", len(persisted))
			return
		}
		for i, d := range persisted {
			if d.ExecutorID != exec.ID() || d.Attempts != 1 || d.LastError == "" {
				t.Errorf("persisted[%d] = %+v", i, d)
			}
		}
	})
}

func TestReplayDeadLettersRestagesAsNewJob(t *testing.T) {
	e, gate := newGateEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("gated", []any{11, 22, 33}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		if err == nil {
			t.Error("outage produced no error")
			return
		}
		if len(exec.DeadLetters()) != 3 {
			t.Errorf("dead letters = %d, want 3", len(exec.DeadLetters()))
			return
		}
		// The dependency heals; replay the parked calls as a new job.
		gate.Store(false)
		replayed, err := exec.ReplayDeadLetters()
		if err != nil {
			t.Error(err)
			return
		}
		if len(replayed) != 3 {
			t.Errorf("replayed futures = %d, want 3", len(replayed))
			return
		}
		if len(exec.DeadLetters()) != 0 {
			t.Error("dead-letter list not cleared by replay")
		}
		// The dead originals are untracked, so a full GetResult collects
		// each replayed call exactly once.
		if n := len(exec.Futures()); n != 3 {
			t.Errorf("tracked futures after replay = %d, want 3", n)
		}
		results, err := collectResults(exec, replayed, GetResultOptions{}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Replay order follows dead-letter (give-up) order, not argument
		// order; the values themselves must all come back.
		got := decodeInts(t, results)
		seen := make(map[int]bool, len(got))
		for _, v := range got {
			seen[v] = true
		}
		for _, want := range []int{11, 22, 33} {
			if !seen[want] {
				t.Errorf("replayed results = %v, missing %d", got, want)
			}
		}
		// Replay consumed the durable records.
		persisted, err := exec.PersistedDeadLetters()
		if err != nil {
			t.Error(err)
			return
		}
		if len(persisted) != 0 {
			t.Errorf("persisted dead letters after replay = %d, want 0", len(persisted))
		}
	})
}

func TestReplayDeadLettersEmpty(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		fs, err := exec.ReplayDeadLetters()
		if err != nil || fs != nil {
			t.Errorf("empty replay = %v, %v, want nil, nil", fs, err)
		}
	})
}

func TestCleanRemovesDeadLetterRecords(t *testing.T) {
	e, _ := newGateEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("gated", []any{1}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		if err == nil {
			t.Error("outage produced no error")
			return
		}
		if err := exec.Clean(); err != nil {
			t.Error(err)
			return
		}
		persisted, err := exec.PersistedDeadLetters()
		if err != nil {
			t.Error(err)
			return
		}
		if len(persisted) != 0 {
			t.Errorf("persisted dead letters after clean = %d", len(persisted))
		}
		// Nothing of the job outlives Clean: no object under jobs/{id}/,
		// no manifest.
		left, err := cos.ListAll(e.store, DefaultMetaBucket, "jobs/"+exec.ID()+"/")
		if err != nil || len(left) != 0 {
			t.Errorf("objects left under jobs/%s/ after clean: %+v (err %v)", exec.ID(), left, err)
		}
		if _, _, err := e.store.Get(DefaultMetaBucket, manifestKey(exec.ID())); !errors.Is(err, cos.ErrNoSuchKey) {
			t.Errorf("manifest after clean: err = %v, want ErrNoSuchKey", err)
		}
	})
}

// failPutsUnder fails every PUT whose key contains part.
type failPutsUnder struct {
	cos.Client
	part string
}

func (f *failPutsUnder) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	if strings.Contains(key, f.part) {
		return cos.ObjectMeta{}, cos.ErrRequestFailed
	}
	return f.Client.Put(bucket, key, data)
}

// TestDeadLettersSurviveAttach: a dead letter is one durable record, the
// journal record that retires the call, so a driver that attaches later
// parks every letter even where a PUT beside the journal would have failed.
func TestDeadLettersSurviveAttach(t *testing.T) {
	e, _ := newGateEnv(t)
	exec := e.executor(t, func(c *Config) {
		c.Storage = &failPutsUnder{Client: c.Storage, part: "/deadletter/"}
	})
	e.clk.Run(func() {
		if _, err := exec.Map("gated", []any{1, 2}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		if len(exec.DeadLetters()) != 2 {
			t.Errorf("dead letters = %d (%v), want 2", len(exec.DeadLetters()), err)
			return
		}
		attached, err := AttachExecutor(e.attachConfig(), exec.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		// The attached driver parks the letters in call-ID order, the first
		// in give-up order.
		want := exec.DeadLetters()
		slices.SortFunc(want, func(a, b DeadLetter) int { return strings.Compare(a.CallID, b.CallID) })
		letters := attached.DeadLetters()
		if len(letters) != len(want) {
			t.Errorf("attached driver parks %d dead letters, want %d", len(letters), len(want))
			return
		}
		for i, d := range letters {
			if w := want[i]; d.ExecutorID != w.ExecutorID || d.CallID != w.CallID || d.Attempts != w.Attempts ||
				d.LastError != w.LastError || !d.GaveUpAt.Equal(w.GaveUpAt) {
				t.Errorf("letter[%d] = %+v, want %+v", i, d, w)
			}
		}
		if n := len(attached.Futures()); n != 0 {
			t.Errorf("attached driver tracks %d futures, want 0: both calls are retired", n)
		}
	})
}
