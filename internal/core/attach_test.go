package core

import (
	"errors"
	"testing"

	"gowren/internal/cos"
	"gowren/internal/netsim"
)

// attachConfig builds a fresh driver config against the same platform — the
// storage stack a second process would assemble before AttachExecutor.
func (e *env) attachConfig() Config {
	return Config{
		Platform: e.platform,
		Storage:  cos.NewLinked(e.store, e.clk, netsim.Loopback()),
	}
}

func TestAttachResumesInFlightJob(t *testing.T) {
	e := newEnv(t, nil)
	exec1 := e.executor(t, nil)
	var results []int
	e.clk.Run(func() {
		futs, err := exec1.Map("busy", []any{5, 5, 5})
		if err != nil {
			t.Error(err)
			return
		}
		// The driver dies right after launch: all in-memory state is
		// abandoned, the activations keep running in the cloud.
		exec2, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if exec2.ID() != exec1.ID() {
			t.Errorf("attached executor id = %s, want %s", exec2.ID(), exec1.ID())
		}
		raws, err := exec2.GetResult(GetResultOptions{})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		results = decodeInts(t, raws)
		// The dead driver is fenced: its next job-state mutation fails.
		if err := exec1.Respawn(futs[:1]); !errors.Is(err, ErrFenced) {
			t.Errorf("old driver respawn err = %v, want ErrFenced", err)
		}
	})
	want := []int{5, 5, 5}
	if len(results) != len(want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v, want %v", results, want)
		}
	}
}

func TestAttachUnknownJobFails(t *testing.T) {
	e := newEnv(t, nil)
	e.clk.Run(func() {
		if _, err := AttachExecutor(e.attachConfig(), "no-such-job"); err == nil {
			t.Error("attach to unknown job succeeded")
		}
	})
}
