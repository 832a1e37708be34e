package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// Tests for payloads that ride the invocation (invokeParams). Everything is
// asserted in request counts, byte counts and simulated time.

// padArg is padAdd7's argument: x, and padding that only inflates the
// payload.
type padArg struct {
	X   int    `json:"x"`
	Pad string `json:"pad,omitempty"`
}

// newInlineEnv is an env whose function-side storage is counted over a
// failure-free 2 ms link, with padAdd7 registered: add7 on padArg.X.
func newInlineEnv(t *testing.T) (*env, *cos.Stack) {
	t.Helper()
	var fn *cos.Stack
	e := newEnvFull(t, func(cfg *PlatformConfig) {
		fn = cos.NewCounting(cos.NewLinked(cfg.Store, cfg.Clock, constantLink(2*time.Millisecond)))
		cfg.Backend = fn
	}, func(img *runtime.Image) {
		err := img.RegisterPlain("padAdd7", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			var a padArg
			if err := wire.Unmarshal(arg, &a); err != nil {
				return nil, err
			}
			return a.X + 7, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return e, fn
}

// TestInlinePayloadRequestBudget: a call whose staged line fits
// inlineThreshold costs its runner no GET, one that does not still costs
// one, and either runs on its own argument. The client's first launch PUTs
// two objects when every call rides inline — the manifest, then the batch
// carrying the launch record — and three otherwise.
func TestInlinePayloadRequestBudget(t *testing.T) {
	const n = 100
	var puts []int64
	run := func(pad int) (gets int64, results []int) {
		e, fn := newInlineEnv(t)
		exec := e.executor(t, nil)
		e.clk.Run(func() {
			args := make([]any, n)
			for i := range args {
				args[i] = padArg{X: i, Pad: strings.Repeat("p", pad)}
			}
			if _, err := exec.Map("padAdd7", args); err != nil {
				t.Error(err)
				return
			}
			puts = append(puts, exec.StorageOps().PutOps)
			raws, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
			if err != nil {
				t.Error(err)
				return
			}
			results = decodeInts(t, raws)
		})
		return fn.Counts().GetOps + exec.StorageOps().GetOps, results
	}
	inline, small := run(0)
	staged, padded := run(inlineThreshold)
	if t.Failed() {
		return
	}
	for i := range small {
		if small[i] != i+7 || padded[i] != i+7 {
			t.Fatalf("result[%d] = %d inline, %d staged; want %d", i, small[i], padded[i], i+7)
		}
	}
	if staged-inline != n {
		t.Errorf("store GETs = %d inline, %d with every payload over the threshold; want exactly %d fewer inline", inline, staged, n)
	}
	if want := []int64{2, 3}; !slices.Equal(puts, want) {
		t.Errorf("client PUTs of the launch = %v inline and over the threshold, want %v", puts, want)
	}
}

// TestRespawnReadsItsPayload: Respawn invokes with the ref alone, so the
// respawned runner range-GETs the staged line — and computes the result the
// inline run did.
func TestRespawnReadsItsPayload(t *testing.T) {
	e, fn := newInlineEnv(t)
	exec := e.executor(t, nil)
	var results []int
	e.clk.Run(func() {
		futures, err := exec.Map("padAdd7", []any{padArg{X: 1}, padArg{X: 2}, padArg{X: 3}})
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, err := exec.Wait(WaitAllCompleted, e.clk.Now().Add(time.Hour)); err != nil {
			t.Error(err)
			return
		}
		if got := fn.Counts().GetOps; got != 0 {
			t.Errorf("cloud-side GETs before the respawn = %d, want 0", got)
		}
		if err := exec.Respawn(futures[1:2]); err != nil {
			t.Error(err)
			return
		}
		raws, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		results = decodeInts(t, raws)
	})
	if t.Failed() {
		return
	}
	if want := []int{8, 9, 10}; !slices.Equal(results, want) {
		t.Errorf("results = %v, want %v", results, want)
	}
	if got := fn.Counts().GetOps; got != 1 {
		t.Errorf("cloud-side GETs = %d, want 1: the respawned runner's payload read", got)
	}
	if acts := len(e.platform.Controller().Activations()); acts != 4 {
		t.Errorf("activations = %d, want 3 calls and one respawn", acts)
	}
}

// TestInvokeChargesParamsLength: the control link charges an invocation its
// parameters' real length, so an inline payload pays for its bytes.
func TestInvokeChargesParamsLength(t *testing.T) {
	e := newEnv(t, nil)
	// 1,000 bytes/s and no latency: every byte costs a millisecond.
	exec := e.executor(t, func(cfg *Config) {
		cfg.ControlLink = netsim.NewLink(netsim.LinkConfig{RTT: netsim.Constant{}, BandwidthBps: 1000})
	})
	action, err := e.platform.EnsureRuntime(runtime.DefaultImage)
	if err != nil {
		t.Fatal(err)
	}
	ref := wire.ObjectRef{Bucket: e.platform.MetaBucket(), Key: "k", Length: 500}
	refOnly, inline := wire.InvokeParams(ref, nil), invokeParams(ref, make([]byte, 500))
	e.clk.Run(func() {
		var took [2]time.Duration
		for i, params := range [][]byte{refOnly, inline} {
			start := e.clk.Now()
			if _, err := exec.invokeOne(action, params, ""); err != nil {
				t.Error(err)
				return
			}
			took[i] = e.clk.Now().Sub(start)
		}
		// The gateway's admission costs both the same; the link the bytes.
		if extra, want := took[1]-took[0], time.Duration(len(inline)-len(refOnly))*time.Millisecond; extra != want {
			t.Errorf("inline invocation took %v longer than the ref alone, want %v for its %d extra bytes", extra, want, len(inline)-len(refOnly))
		}
	})
}
