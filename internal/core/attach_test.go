package core

import (
	"bytes"
	"errors"
	"slices"
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

// TestSameIDClaimFencesSecondDriver forces two executors onto one job ID
// over one store. The manifest's create-only PUT is the ID claim: the second
// driver is fenced before it stages anything, and the first job's manifest,
// namespace and results are untouched.
func TestSameIDClaimFencesSecondDriver(t *testing.T) {
	e := newEnv(t, nil)
	exec1 := e.executor(t, nil)
	exec2 := e.executor(t, nil)
	exec2.id = exec1.ID()
	meta := e.platform.MetaBucket()
	snapshot := func() (manifest []byte, etag string, keys []string) {
		body, m, err := e.store.Get(meta, manifestKey(exec1.ID()))
		if err != nil {
			t.Errorf("read manifest: %v", err)
		}
		listed, err := cos.ListAll(e.store, meta, "jobs/"+exec1.ID()+"/")
		if err != nil {
			t.Error(err)
		}
		for _, obj := range listed {
			keys = append(keys, obj.Key)
		}
		return body, m.ETag, keys
	}
	var results []int
	e.clk.Run(func() {
		if _, err := exec1.Map("busy", []any{5, 5, 5}); err != nil {
			t.Error(err)
			return
		}
		body1, etag1, keys1 := snapshot()
		if _, err := exec2.Map("busy", []any{7}); !errors.Is(err, ErrFenced) {
			t.Errorf("second driver's Map on a claimed ID: err = %v, want ErrFenced", err)
		}
		body2, etag2, keys2 := snapshot()
		if !bytes.Equal(body2, body1) || etag2 != etag1 {
			t.Errorf("first job's manifest changed under the second driver:\n%s (%s)\nwas\n%s (%s)", body2, etag2, body1, etag1)
		}
		if !slices.Equal(keys2, keys1) {
			t.Errorf("jobs/%s/ after the fenced Map = %v, want %v: the second driver staged something", exec1.ID(), keys2, keys1)
		}

		exec3, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach to the first job: %v", err)
			return
		}
		raws, err := exec3.GetResult(GetResultOptions{})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		results = decodeInts(t, raws)
	})
	if want := []int{5, 5, 5}; !slices.Equal(results, want) {
		t.Errorf("first job's results = %v, want %v", results, want)
	}
}
