package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// Tests for payload staging (payloads.go). Everything is asserted in request
// counts, byte counts and simulated time, over loss-free links.

// wanLossFree is netsim.WANStorage's shape — ~150 ms a request, 6 MiB/s —
// without its 2 % request loss, so request counts are exact.
func wanLossFree() *netsim.Link {
	return netsim.NewLink(netsim.LinkConfig{
		RTT:          netsim.LogNormal{Median: 120 * time.Millisecond, Sigma: 0.25, Cap: 1500 * time.Millisecond},
		PerRequest:   30 * time.Millisecond,
		BandwidthBps: 6 << 20,
		Seed:         7,
	})
}

// stagedBatches reads the payload batches of an executor straight from the
// store.
func stagedBatches(t *testing.T, store *cos.Store, meta, execID string) (keys []string, bodies [][]byte) {
	t.Helper()
	listed, err := cos.ListAll(store, meta, jobKey(payloadPrefix, execID, ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range listed {
		body, _, err := store.Get(meta, obj.Key)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, obj.Key)
		bodies = append(bodies, body)
	}
	return keys, bodies
}

// TestStagingRequestBudget is Fig. 2's job seen from both ends: 1,000 calls
// through massive spawning cost the WAN client exactly four PUTs — one batch
// of calls, one batch of invoker groups, the manifest (which is also the
// driver lease) and the launch record — where staging a call per object cost
// a thousand; and in the cloud each invoker reads its group's payloads in
// one range GET and hands every call its own line, so no call reads one.
// The local arm's 1,000 calls all ride their invocations, so its batch goes
// up after them carrying the launch record: two PUTs.
func TestStagingRequestBudget(t *testing.T) {
	const n = 1000
	fe := newFanInEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = 2 * n })
	exec := fe.executor(t, func(cfg *Config) {
		cfg.Storage = cos.NewLinked(fe.store, fe.clk, wanLossFree())
		cfg.MassiveSpawning = true
	})
	var (
		submit  time.Duration
		staging cos.OpCounts
		results []json.RawMessage
	)
	fe.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		start := fe.clk.Now()
		if _, err := exec.Map("add7", args); err != nil {
			t.Error(err)
			return
		}
		submit, staging = fe.clk.Now().Sub(start), exec.StorageOps()
		var err error
		if results, err = exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	for i, v := range decodeInts(t, results) {
		if v != i+7 {
			t.Fatalf("result[%d] = %d, want %d: a call ran on a neighbour's payload", i, v, i+7)
		}
	}
	if staging.PutOps != 4 || staging.GetOps != 0 || staging.ListOps != 0 {
		t.Errorf("client staging requests = %+v, want exactly 4 PUTs and nothing else", staging)
	}
	if submit > time.Second {
		t.Errorf("Map returned after %v over the WAN link, want <= 1s", submit)
	}

	keys, bodies := stagedBatches(t, fe.store, fe.platform.MetaBucket(), exec.ID())
	if want := []string{batchKey(exec.ID(), 0, n), batchKey(exec.ID(), n, n/100)}; fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Errorf("staged batches = %v, want %v", keys, want)
	}
	// The groups' spans cover the call batch but for the n/100-1 separators
	// between groups; the invoker batch rode the client's invocations.
	spanBytes := int64(len(bodies[0]) - (n/100 - 1))
	activations := int64(len(fe.platform.Controller().Activations()))
	fn := fe.fn.Counts()
	if activations != n+n/100 || fn.GetOps != n/100 {
		t.Errorf("cloud-side GETs = %d for %d activations, want %d for %d: one span read per invoker", fn.GetOps, activations, n/100, n+n/100)
	}
	if fn.BytesIn != spanBytes {
		t.Errorf("cloud-side bytes read = %d, want %d: the staged calls, each read once and nothing beside them", fn.BytesIn, spanBytes)
	}
	if fn.ListOps != 0 {
		t.Errorf("cloud-side LISTs = %d, want 0: the hot path never resolves a call ID", fn.ListOps)
	}

	le := newFanInEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = n })
	local := le.executor(t, func(cfg *Config) {
		cfg.Storage = cos.NewLinked(le.store, le.clk, wanLossFree())
	})
	le.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := local.Map("add7", args); err != nil {
			t.Error(err)
			return
		}
		if ops := local.StorageOps(); ops.PutOps != 2 || ops.GetOps != 0 || ops.ListOps != 0 {
			t.Errorf("local arm's staging requests = %+v, want exactly 2 PUTs and nothing else", ops)
		}
		raws, err := local.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		for i, v := range decodeInts(t, raws) {
			if v != i+7 {
				t.Errorf("local result[%d] = %d, want %d", i, v, i+7)
				return
			}
		}
	})
	if got := le.fn.Counts().GetOps; got != 0 {
		t.Errorf("local arm's cloud-side GETs = %d, want 0: every call rode its invocation", got)
	}
}

// TestPayloadBatchSplitsAtCallBoundary: a launch larger than
// payloadBatchBytes becomes several batches, cut between calls — a payload
// that alone exceeds the cap gets a batch to itself — and every call runs on
// its own argument. A fan-in spec over such a launch locates its targets one
// span per batch.
func TestPayloadBatchSplitsAtCallBoundary(t *testing.T) {
	e := newEnvWith(t, func(img *runtime.Image) {
		err := img.RegisterPlain("arglen", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			var s string
			if err := wire.Unmarshal(arg, &s); err != nil {
				return nil, err
			}
			return len(s), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	exec := e.executor(t, nil)
	sizes := []int{400 << 10, 400 << 10, 400 << 10, payloadBatchBytes + 1, 10}
	var (
		futures []*Future
		results []json.RawMessage
	)
	e.clk.Run(func() {
		args := make([]any, len(sizes))
		for i, size := range sizes {
			args[i] = strings.Repeat("x", size)
		}
		var err error
		if futures, err = exec.Map("arglen", args); err != nil {
			t.Error(err)
			return
		}
		if results, err = exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
			return
		}
		if stats, err := exec.Stats(); err != nil || stats.Payloads != len(sizes) {
			t.Errorf("staged calls = %d (err %v), want %d", stats.Payloads, err, len(sizes))
		}
	})
	if t.Failed() {
		return
	}
	for i, got := range decodeInts(t, results) {
		if got != sizes[i] {
			t.Errorf("call %d saw an argument of %d bytes, want %d", i, got, sizes[i])
		}
	}
	id := exec.ID()
	keys, bodies := stagedBatches(t, e.store, e.platform.MetaBucket(), id)
	want := []string{batchKey(id, 0, 2), batchKey(id, 2, 1), batchKey(id, 3, 1), batchKey(id, 4, 1)}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("staged batches = %v, want %v", keys, want)
	}
	for i, body := range bodies {
		if len(body) > payloadBatchBytes && bytes.IndexByte(body, '\n') >= 0 {
			t.Errorf("batch %s is %d bytes and holds more than one call", keys[i], len(body))
		}
	}

	refs := make([]wire.ObjectRef, len(futures))
	for i, f := range futures {
		refs[i] = f.payload
	}
	spec := wire.FanIn{Targets: len(refs), TargetSpans: payloadSpans(refs)}
	if len(spec.TargetSpans) != len(want) {
		t.Fatalf("spans = %+v, want one per batch", spec.TargetSpans)
	}
	for i, ref := range refs {
		if got := spec.Target(ref.Bucket, i); got != ref {
			t.Errorf("fan-in target %d = %+v, want %+v", i, got, ref)
		}
	}
}

// TestRunnerExecutesWholeObjectRef: invoke parameters naming a payload object
// without a byte range — what every client wrote before batches — still run:
// the runner reads the whole object.
func TestRunnerExecutesWholeObjectRef(t *testing.T) {
	e := newEnv(t, nil)
	meta := e.platform.MetaBucket()
	payload := wire.CallPayload{
		ExecutorID: "exec-by-hand", CallID: "00000", Runtime: runtime.DefaultImage, Function: "add7",
		Kind: wire.KindPlain, Arg: json.RawMessage(`35`), MetaBucket: meta,
	}
	ref := wire.ObjectRef{Bucket: meta, Key: "jobs/exec-by-hand/payload/00000"}
	if _, err := e.store.Put(meta, ref.Key, wire.MustMarshal(&payload)); err != nil {
		t.Fatal(err)
	}
	action, err := e.platform.EnsureRuntime(runtime.DefaultImage)
	if err != nil {
		t.Fatal(err)
	}
	e.clk.Run(func() {
		if _, err := e.platform.Controller().InvokeTenant("", action, wire.MustMarshal(ref)); err != nil {
			t.Error(err)
			return
		}
		e.clk.Sleep(10 * time.Second)
	})
	body, _, err := e.store.Get(meta, statusKey(payload.ExecutorID, payload.CallID))
	if err != nil {
		t.Fatalf("the call committed no status: %v", err)
	}
	var rec wire.StatusRecord
	if err := wire.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	var env wire.ResultEnvelope
	if err := wire.Unmarshal(rec.Inline, &env); err != nil || !rec.OK || string(env.Value) != "42" {
		t.Fatalf("status = %+v, inline value %s (err %v), want OK with 42", rec, env.Value, err)
	}
}

// TestResolverNarrowestBatchWins pins the cold path's override rule and its
// request budget: one LIST, one GET per distinct batch however many calls are
// asked for, and a call covered twice resolves to the narrower batch.
func TestResolverNarrowestBatchWins(t *testing.T) {
	e := newEnv(t, nil)
	meta := e.platform.MetaBucket()
	exec := e.executor(t, nil)
	counted := cos.NewCounting(e.store)
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{10, 11, 12, 13}); err != nil {
			t.Error(err)
			return
		}
		moved := wire.CallPayload{
			ExecutorID: exec.ID(), CallID: "00002", Runtime: runtime.DefaultImage, Function: "add7",
			Kind: wire.KindPlain, Arg: json.RawMessage(`99`), MetaBucket: meta,
		}
		if _, _, err := exec.stagePayloads([]*wire.CallPayload{&moved}); err != nil {
			t.Error(err)
			return
		}
		staged, err := resolvePayloads(counted, meta, exec.ID(), []string{"00003", "00002", "00000"})
		if err != nil {
			t.Error(err)
			return
		}
		wantArgs := []string{"13", "99", "10"}
		wantKeys := []string{batchKey(exec.ID(), 0, 4), batchKey(exec.ID(), 2, 1), batchKey(exec.ID(), 0, 4)}
		for i, s := range staged {
			p, err := wire.DecodePayload(s.body)
			if err != nil {
				t.Error(err)
				continue
			}
			if string(p.Arg) != wantArgs[i] || s.ref.Key != wantKeys[i] {
				t.Errorf("resolved[%d] = arg %s from %s, want %s from %s", i, p.Arg, s.ref.Key, wantArgs[i], wantKeys[i])
			}
			// The ref the resolver hands back addresses the same bytes.
			ranged, _, err := e.store.GetRange(meta, s.ref.Key, s.ref.Offset, s.ref.Length)
			if err != nil || !bytes.Equal(ranged, s.body) {
				t.Errorf("resolved[%d] ref %+v reads %q (err %v), want the resolved body", i, s.ref, ranged, err)
			}
		}
		if ops := counted.Counts(); ops.ListOps != 1 || ops.GetOps != 2 {
			t.Errorf("resolver requests = %+v, want 1 LIST and 2 GETs (one per distinct batch)", ops)
		}
		if _, err := resolvePayloads(counted, meta, exec.ID(), []string{"00004"}); !errors.Is(err, cos.ErrNoSuchKey) {
			t.Errorf("resolving an unstaged call: err = %v, want ErrNoSuchKey", err)
		}
	})
}

// TestReplayDeadLettersFetchesEachBatchOnce: replaying the dead letters of
// one job from a WAN client costs one payload GET — the batch they all sit in
// — not one round trip per letter, and the replacements go out as one batch
// under fresh call IDs with the journal's old→new mapping as before.
func TestReplayDeadLettersFetchesEachBatchOnce(t *testing.T) {
	const n = 24
	e, gate := newGateEnv(t)
	exec := e.executor(t, func(cfg *Config) {
		cfg.Storage = cos.NewLinked(e.store, e.clk, wanLossFree())
	})
	meta := e.platform.MetaBucket()
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.Map("gated", args); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		letters := exec.DeadLetters()
		if err == nil || len(letters) != n {
			t.Errorf("outage left %d dead letters (err %v), want %d", len(letters), err, n)
			return
		}
		gate.Store(false)
		before := exec.StorageOps()
		replayed, err := exec.ReplayDeadLetters()
		if err != nil {
			t.Error(err)
			return
		}
		after := exec.StorageOps()
		if gets, lists := after.GetOps-before.GetOps, after.ListOps-before.ListOps; gets != 1 || lists != 1 {
			t.Errorf("replay of %d letters issued %d GETs and %d LISTs, want 1 and 1: every letter sits in one batch", n, gets, lists)
		}

		keys, _ := stagedBatches(t, e.store, meta, exec.ID())
		if want := []string{batchKey(exec.ID(), 0, n), batchKey(exec.ID(), n, n)}; fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Errorf("staged batches after replay = %v, want %v", keys, want)
		}
		var replay *wire.JournalRecord
		listed, err := cos.ListAll(e.store, meta, journalListPrefix(exec.ID()))
		if err != nil {
			t.Error(err)
			return
		}
		for _, obj := range listed {
			body, _, err := e.store.Get(meta, obj.Key)
			if err != nil {
				t.Error(err)
				return
			}
			var rec wire.JournalRecord
			if err := wire.Unmarshal(body, &rec); err != nil {
				t.Error(err)
				return
			}
			if rec.Kind == wire.JournalReplay {
				replay = &rec
			}
		}
		if replay == nil || len(replay.OldCallIDs) != n || len(replay.Calls) != n {
			t.Errorf("journaled replay record = %+v, want %d old and %d new call IDs", replay, n, n)
			return
		}
		for i, d := range letters {
			if replay.OldCallIDs[i] != d.CallID || replay.Calls[i].CallID != callIDForSeq(n+i) || replayed[i].callID != callIDForSeq(n+i) {
				t.Errorf("replay[%d]: %s -> %s (future %s), want %s -> %s", i,
					replay.OldCallIDs[i], replay.Calls[i].CallID, replayed[i].callID, d.CallID, callIDForSeq(n+i))
			}
		}
		results, err := collectResults(exec, replayed, GetResultOptions{}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		seen := make(map[int]bool, n)
		for _, v := range decodeInts(t, results) {
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("replayed calls returned %d distinct arguments, want %d", len(seen), n)
		}
	})
}

// payloadDeleteSpy counts the DELETEs a client issues under payload prefixes.
type payloadDeleteSpy struct {
	cos.Client
	deletes atomic.Int64
}

func (s *payloadDeleteSpy) Delete(bucket, key string) error {
	if strings.Contains(key, "/"+payloadPrefix+"/") {
		s.deletes.Add(1)
	}
	return s.Client.Delete(bucket, key)
}

// TestCleanDeletesBatchesNotCalls: Stats keeps counting staged calls, and
// Clean after a 1,000-call job deletes a handful of payload objects.
func TestCleanDeletesBatchesNotCalls(t *testing.T) {
	const n = 1000
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = 2 * n })
	spy := &payloadDeleteSpy{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
	exec := e.executor(t, func(cfg *Config) {
		cfg.Storage = spy
		cfg.MassiveSpawning = true
	})
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.Map("add7", args); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
			return
		}
		// The invoker groups are staged calls too.
		if stats, err := exec.Stats(); err != nil || stats.Payloads != n+n/100 || stats.Statuses != n+n/100 {
			t.Errorf("pre-clean stats = %+v (err %v), want %d payloads and statuses", stats, err, n+n/100)
		}
		if err := exec.Clean(); err != nil {
			t.Error(err)
			return
		}
		if got := spy.deletes.Load(); got < 1 || got > 5 {
			t.Errorf("clean issued %d payload deletes for %d calls, want at most 5", got, n)
		}
		if stats, err := exec.Stats(); err != nil || stats != (JobStats{}) {
			t.Errorf("post-clean stats = %+v (err %v), want all zero", stats, err)
		}
	})
}
