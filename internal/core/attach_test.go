package core

import (
	"bytes"
	"errors"
	"testing"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/wire"
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

func TestPlaceCallAvoidingPicksAnotherRegion(t *testing.T) {
	sa, sb, sc := cos.NewStore(), cos.NewStore(), cos.NewStore()
	multi, err := cos.NewMultiRegion([]cos.RegionBackend{
		{Name: "us-south", Client: sa},
		{Name: "eu-gb", Client: sb},
		{Name: "ap-jp", Client: sc},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.Store, cfg.Backend = sa, multi })
	p := e.platform
	for _, id := range []string{"00000", "00007", "00042"} {
		home := p.PlaceCall(id)
		moved := p.PlaceCallAvoiding(id, home)
		if moved == home || moved == "" {
			t.Fatalf("avoid(%s, %s) = %q, want a different region", id, home, moved)
		}
		if again := p.PlaceCallAvoiding(id, home); again != moved {
			t.Fatalf("avoid(%s, %s) not deterministic: %q then %q", id, home, moved, again)
		}
		// No avoid constraint degenerates to the plain placement.
		if got := p.PlaceCallAvoiding(id, ""); got != home {
			t.Fatalf("avoid(%s, \"\") = %q, want PlaceCall's %q", id, got, home)
		}
	}
}

func TestAntiAffinityRespawnMovesHomeRegion(t *testing.T) {
	sa, sb := cos.NewStore(), cos.NewStore()
	multi, err := cos.NewMultiRegion([]cos.RegionBackend{
		{Name: "us-south", Client: sa},
		{Name: "eu-gb", Client: sb},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.Store, cfg.Backend = sa, multi })
	exec := e.executor(t, func(cfg *Config) {
		cfg.Storage = cos.NewLinked(multi, e.clk, netsim.Loopback())
		cfg.AntiAffinityRespawn = true
	})
	meta := e.platform.MetaBucket()
	// The region as a reader without a ref sees it: through the resolver.
	readRegion := func(callID string) string {
		t.Helper()
		staged, err := resolvePayloads(multi, exec.storageRetry, meta, exec.ID(), []string{callID})
		if err != nil {
			t.Errorf("resolve payload %s: %v", callID, err)
			return ""
		}
		p, err := wire.DecodePayload(staged[0].body)
		if err != nil {
			t.Error(err)
			return ""
		}
		return p.Region
	}
	e.clk.Run(func() {
		futs, err := exec.Map("add7", []any{1, 2, 3})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		moved := futs[1]
		callID := moved.callID
		launchBatch := moved.payload.Key
		if want := batchKey(exec.ID(), 0, 3); launchBatch != want {
			t.Errorf("launch staged call %s in %s, want %s", callID, launchBatch, want)
		}
		original, _, err := multi.Get(meta, launchBatch)
		if err != nil {
			t.Error(err)
			return
		}
		before := readRegion(callID)
		if before == "" {
			t.Error("placed call has no home region")
			return
		}
		if err := exec.Respawn(futs[1:2]); err != nil {
			t.Errorf("respawn: %v", err)
			return
		}
		// The re-placed copy is a batch of one beside the launch's batch, the
		// respawned activation was handed exactly that, and the launch's
		// batch — which the job's other calls still point into — is untouched.
		if want := batchKey(exec.ID(), 1, 1); moved.payload.Key != want || moved.payload.Offset != 0 {
			t.Errorf("respawn invoked with payload %+v, want the override %s", moved.payload, want)
		}
		if now, _, err := multi.Get(meta, launchBatch); err != nil || !bytes.Equal(now, original) {
			t.Errorf("launch batch %s changed under an anti-affinity respawn (err %v)", launchBatch, err)
		}
		if stats, err := exec.Stats(); err != nil || stats.Payloads != 3 {
			t.Errorf("staged calls = %d (err %v), want 3: the override is not a new call", stats.Payloads, err)
		}
		after := readRegion(callID)
		if after == before {
			t.Errorf("respawn kept home region %q with anti-affinity on", before)
		}
		if want := e.platform.PlaceCallAvoiding(callID, before); after != want {
			t.Errorf("respawn home = %q, want PlaceCallAvoiding's %q", after, want)
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Errorf("get result after moved respawn: %v", err)
		}
	})
}
