package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Tests for the high-throughput wait path: incremental frontier-based
// status sweeps, the shared sweep coordinator, single-key Done probes,
// and inline small results.

func TestSweepCoordinatorFrontierAndForget(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	counting := cos.NewCounting(store)
	clk := vclock.NewVirtual()
	co := soloCoordinator(counting, clk)
	ns := nsKey{bucket: "meta", execID: "ex"}

	put := func(callID string) {
		t.Helper()
		if _, err := store.Put("meta", statusKey("ex", callID), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order completion: 00002 is still missing.
	put("00000")
	put("00001")
	put("00003")

	asOf := clk.Now()
	if out := co.sweep(&pendingSet{}, ns, asOf); out.err != nil || !out.listed {
		t.Fatalf("sweep outcome = %+v", out)
	}
	for id, want := range map[string]bool{"00000": true, "00001": true, "00002": false, "00003": true} {
		if got := co.committed(ns, id); got != want {
			t.Errorf("completed(%s) = %v, want %v", id, got, want)
		}
	}
	if n := counting.Counts().ObjectsListed; n != 3 {
		t.Fatalf("objects listed = %d, want 3", n)
	}

	// Same observation time: the cached sweep answers, no second LIST.
	if out := co.sweep(&pendingSet{}, ns, asOf); out.err != nil || !out.listed {
		t.Fatalf("cached sweep outcome = %+v", out)
	}
	if n := counting.Counts().ListOps; n != 1 {
		t.Fatalf("list ops after cached sweep = %d, want 1", n)
	}

	// A later sweep resumes at the frontier (after 00001): only the keys
	// past it are listed again, not the whole prefix.
	put("00002")
	if out := co.sweep(&pendingSet{}, ns, asOf.Add(time.Second)); out.err != nil {
		t.Fatal(out.err)
	}
	if !co.committed(ns, "00002") {
		t.Error("00002 not completed after gap filled")
	}
	if n := counting.Counts().ObjectsListed; n != 5 { // 3 + {00002, 00003}
		t.Fatalf("objects listed = %d, want 5 (frontier-resumed LIST)", n)
	}

	// Forgetting a call below the frontier rolls back to it but keeps the
	// completions in between cached.
	co.forget(ns, "00001")
	if co.committed(ns, "00001") {
		t.Error("00001 still completed after forget")
	}
	for _, id := range []string{"00000", "00002", "00003"} {
		if !co.committed(ns, id) {
			t.Errorf("%s lost by forget of 00001", id)
		}
	}
	// The re-sweep re-observes 00001 (still in storage here) and the
	// frontier re-advances past the cached completions.
	if out := co.sweep(&pendingSet{}, ns, asOf.Add(2*time.Second)); out.err != nil {
		t.Fatal(out.err)
	}
	if !co.committed(ns, "00001") {
		t.Error("00001 not re-observed after forget + sweep")
	}
}

// listHookClient runs a callback after the first List returns — the moment
// a LIST's snapshot is on the wire but not yet harvested, which is where a
// concurrent respawn can land.
type listHookClient struct {
	cos.Client
	afterList func()
}

func (h *listHookClient) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	res, err := h.Client.List(bucket, prefix, marker, maxKeys)
	if hook := h.afterList; hook != nil {
		h.afterList = nil
		hook()
	}
	return res, err
}

// TestSweepForgetRacesInflightSweep: a respawn that deletes a stale status
// object and forgets the call while a LIST is in flight must not have the
// call re-marked done by that LIST's (pre-delete) snapshot — the waiter
// would chase a status key that no longer exists. The raced harvest is
// discarded and the next sweep observes only real state.
func TestSweepForgetRacesInflightSweep(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	hooked := &listHookClient{Client: store}
	co := soloCoordinator(hooked, clk)
	ns := nsKey{bucket: "meta", execID: "ex"}

	for _, id := range []string{"00000", "00001", "00002"} {
		if _, err := store.Put("meta", statusKey("ex", id), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	// The respawn lands between the LIST response and its harvest: the
	// stale status is deleted from storage and withdrawn from the done-set,
	// but the in-flight snapshot still contains it.
	hooked.afterList = func() {
		if err := store.Delete("meta", statusKey("ex", "00001")); err != nil {
			t.Fatal(err)
		}
		co.forget(ns, "00001")
	}
	if out := co.sweep(&pendingSet{}, ns, clk.Now()); out.err != nil {
		t.Fatal(out.err)
	}
	if co.committed(ns, "00001") {
		t.Fatal("raced sweep re-marked a forgotten call as done from its stale snapshot")
	}
	// The follow-up sweep sees the post-respawn truth: everything but the
	// deleted status is done.
	if out := co.sweep(&pendingSet{}, ns, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("follow-up sweep outcome = %+v", out)
	}
	for id, want := range map[string]bool{"00000": true, "00001": false, "00002": true} {
		if got := co.committed(ns, id); got != want {
			t.Errorf("completed(%s) = %v, want %v", id, got, want)
		}
	}
}

// TestCollectionListingScalesWithCompletions is the O(newly finished)
// regression test: collecting a job must list each status object a bounded
// number of times and poll a bounded number of times, however many futures
// it has. A sweep that re-lists the whole prefix on every poll pays ~50n
// objects at 1,000 futures and 2,567,577 objects in 2,717 LISTs at 10,000
// (EXPERIMENTS.md, "Retired baselines"). It also checks that the client
// reads each small result out of its status with that one GET.
func TestCollectionListingScalesWithCompletions(t *testing.T) {
	// Polls follow the job's simulated duration, not its size: measured 312
	// and 308 LISTs.
	const maxLists = 400
	for _, tc := range []struct {
		n         int
		maxListed int64
		puts      int64
	}{
		// n statuses plus a re-list margin at the frontier for out-of-order
		// completions, which weighs most on a short job (measured 2,748).
		// One payload batch (1 MiB holds all 1,000 calls), PUT after the
		// invocations with the launch record as its last line.
		{n: 1000, maxListed: 4 * 1000, puts: 2},
		// Measured 10,082. Three payload batches.
		{n: 10000, maxListed: 2 * 10000, puts: 5},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			n := tc.n
			// Admit the whole job at once: this is the client's wait path,
			// not the platform's concurrency ceiling.
			e := newEnv(t, func(c *PlatformConfig) { c.MaxConcurrent = n })
			gets := &recordingClient{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
			exec := e.executor(t, func(c *Config) { c.Storage = gets })
			var ops cos.OpCounts
			var stats JobStats
			e.clk.Run(func() {
				// Uniform task duration: completions arrive in near-call
				// order (invocation order plus platform jitter), the regime
				// the done-frontier is designed for. Wildly skewed
				// completion orders degrade toward the full re-list cost but
				// never exceed it.
				args := make([]any, n)
				for i := range args {
					args[i] = 15 // busy seconds
				}
				if _, err := exec.Map("busy", args); err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.GetResult(GetResultOptions{}); err != nil {
					t.Error(err)
					return
				}
				// Counted before Stats, which LISTs every prefix of the job
				// itself.
				ops = exec.StorageOps()
				var err error
				stats, err = exec.Stats()
				if err != nil {
					t.Error(err)
				}
			})
			// However the completions are batched into parallel fetches,
			// the client reads each call's status exactly once.
			if got := gets.gets(statusPrefix); got != n {
				t.Errorf("status GETs = %d, want %d (one per call)", got, n)
			}
			if ops.ObjectsListed > tc.maxListed {
				t.Errorf("listed %d objects for %d futures, want <= %d — not O(new completions)", ops.ObjectsListed, n, tc.maxListed)
			}
			if ops.ListOps > maxLists {
				t.Errorf("issued %d LISTs for %d futures, want <= %d", ops.ListOps, n, maxLists)
			}
			// Beyond listing, the client's whole bill is one status GET per
			// future and a staging phase that does not grow with the job:
			// the manifest (which is also the driver lease), the launch
			// record and the payload batches — the record rides the batch
			// when there is one (a payload object per call made it n + 2).
			if ops.GetOps != int64(n) {
				t.Errorf("client issued %d GETs for %d futures, want %d", ops.GetOps, n, n)
			}
			if ops.PutOps != tc.puts {
				t.Errorf("client issued %d PUTs for %d futures, want %d", ops.PutOps, n, tc.puts)
			}
			// busy returns an int: every result rides its record line, and
			// a call's status is its only object.
			if stats.Statuses != n {
				t.Errorf("status objects = %d, want %d", stats.Statuses, n)
			}
		})
	}
}

// TestInlineAndSpilledResultsResolveIdentically pins the inline threshold
// semantics: a value under the threshold rides in the record line, and the
// status object is the line alone; one over it spills into the same status
// object, after the line; both resolve to the same bytes through GetResult.
func TestInlineAndSpilledResultsResolveIdentically(t *testing.T) {
	run := func(size int) (string, []byte) {
		e := newBlobEnv(t)
		exec := e.executor(t, nil)
		var got string
		var status []byte
		e.clk.Run(func() {
			fs, err := exec.Map("blob", []any{size})
			if err != nil {
				t.Error(err)
				return
			}
			results, err := exec.GetResult(GetResultOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := wire.Unmarshal(results[0], &got); err != nil {
				t.Error(err)
				return
			}
			if status, _, err = e.store.Get(e.platform.MetaBucket(), statusKey(exec.ID(), fs[0].CallID())); err != nil {
				t.Error(err)
				return
			}
			stats, err := exec.Stats()
			if err != nil || stats.Statuses != 1 || stats.Shuffle != 0 {
				t.Errorf("stats = %+v (err %v), want the one status", stats, err)
			}
		})
		return got, status
	}

	small, smallStatus := run(256)
	if small != strings.Repeat("x", 256) {
		t.Errorf("inlined result corrupted: %d bytes", len(small))
	}
	if bytes.IndexByte(smallStatus, '\n') >= 0 {
		t.Errorf("an inlined result's status object holds more than its record: %q", smallStatus)
	}

	bigSize := 4 * inlineThreshold
	big, bigStatus := run(bigSize)
	if big != strings.Repeat("x", bigSize) {
		t.Errorf("spilled result corrupted: %d bytes, want %d", len(big), bigSize)
	}
	line, env, _ := bytes.Cut(bigStatus, []byte{'\n'})
	if want := wire.MustMarshal(envelopeFor(big)); !bytes.Equal(env, want) || len(line) > 1024 {
		t.Errorf("spilled status object = %d-byte line + %d bytes, want a short line + the %d-byte envelope", len(line), len(env), len(want))
	}
}

// TestRunnerCommitAllocs pins what the runner spends committing a plain
// call: the user value's JSON and one buffer of exactly the status object's
// size, which holds the record line with the envelope encoded in its inline
// field. No envelope, record or object is allocated beside it.
func TestRunnerCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	at := wire.ObjectRef{Bucket: DefaultMetaBucket, Key: statusKey("exec-000001", "00042")}
	var line, object []byte
	n := testing.AllocsPerRun(100, func() {
		rec := wire.StatusRecord{ExecutorID: "exec-000001", CallID: "00042", ActivationID: "act-7",
			StartUnixNs: 1544400004553768697, EndUnixNs: 1544400005433058227, ResultRef: at}
		line, object = commitObject(&rec, 50.0, nil, nil)
	})
	if n > 2 {
		t.Errorf("committing a plain call allocates %v times, want <= 2: the value's JSON and the status", n)
	}
	if len(line) != len(object) || &line[0] != &object[0] || cap(object) != len(object) {
		t.Errorf("line %d bytes, object %d bytes in a %d-byte buffer; want the line as the whole object, one buffer", len(line), len(object), cap(object))
	}
	rec, rest, err := wire.DecodeStatus(object)
	if err != nil || rest != nil || !rec.OK || string(rec.Inline) != `{"kind":"value","value":50}` || rec.ResultRef != (wire.ObjectRef{}) {
		t.Errorf("committed %+v with rest %q (err %v), want the value inline", rec, rest, err)
	}
}

// registerBlob registers "blob", which returns a string of as many x as its
// argument.
func registerBlob(t *testing.T, img *runtime.Image) {
	t.Helper()
	if err := img.RegisterPlain("blob", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
		var size int
		if err := wire.Unmarshal(arg, &size); err != nil {
			return nil, err
		}
		return strings.Repeat("x", size), nil
	}); err != nil {
		t.Fatal(err)
	}
}

// newBlobEnv is an env with "blob" and a "lens" reducer that sums its
// partials' lengths.
func newBlobEnv(t *testing.T) *env {
	return newEnvWith(t, func(img *runtime.Image) {
		registerBlob(t, img)
		if err := img.RegisterReduce("lens", func(_ *runtime.Ctx, _ string, partials []json.RawMessage) (any, error) {
			total := 0
			for _, p := range partials {
				var s string
				if err := wire.Unmarshal(p, &s); err != nil {
					return nil, err
				}
				total += len(s)
			}
			return total, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSmallestSpillRoundTrips: a result whose envelope is inlineThreshold+1
// bytes, the smallest that spills, comes back whole through GetResult, a
// plain reducer and a driver that attached to the job; every one of them
// reads it out of the status object.
func TestSmallestSpillRoundTrips(t *testing.T) {
	size := inlineThreshold + 1 - len(wire.MustMarshal(envelopeFor("")))
	if n := len(wire.MustMarshal(envelopeFor(strings.Repeat("x", size)))); n != inlineThreshold+1 {
		t.Fatalf("envelope of %d x is %d bytes, want %d", size, n, inlineThreshold+1)
	}
	e := newBlobEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		fs, err := exec.Map("blob", []any{size, size})
		if err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		for i, raw := range results {
			var s string
			if err := wire.Unmarshal(raw, &s); err != nil || s != strings.Repeat("x", size) {
				t.Errorf("GetResult %d: %d bytes (err %v), want %d", i, len(s), err, size)
			}
		}
		body, _, err := e.store.Get(e.platform.MetaBucket(), statusKey(exec.ID(), fs[0].CallID()))
		if err != nil {
			t.Error(err)
			return
		}
		if rec, _, err := wire.DecodeStatus(body); err != nil || len(rec.Inline) != 0 || rec.ResultRef.Length != inlineThreshold+1 {
			t.Errorf("status record %+v (err %v), want a %d-byte spill", rec, err, inlineThreshold+1)
		}

		if _, err := exec.MapReduce("blob", InlineValues{size, size, size}, "lens", MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		var total int
		if err := wire.Unmarshal(results[len(results)-1], &total); err != nil || total != 3*size {
			t.Errorf("reducer summed %d (err %v), want %d", total, err, 3*size)
		}

		// A driver that dies right after launching leaves the spills to the
		// one that attaches.
		if _, err := exec.Map("blob", []any{size}); err != nil {
			t.Error(err)
			return
		}
		attached, err := AttachExecutor(e.attachConfig(), exec.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		results, err = attached.GetResult(GetResultOptions{})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		var s string
		if err := wire.Unmarshal(results[len(results)-1], &s); err != nil || s != strings.Repeat("x", size) {
			t.Errorf("attached driver's result: %d bytes (err %v), want %d", len(s), err, size)
		}
	})
}

// TestActivationResultIsRecordLine: whatever a call commits after its record
// line — a spilled result, a COS shuffle map's frames — stays in its status
// object: the activation's own result is the record line alone.
func TestActivationResultIsRecordLine(t *testing.T) {
	e := newEnvFull(t, nil, func(img *runtime.Image) {
		registerShuffleFunctions(t, img)
		registerBlob(t, img)
	})
	if err := e.store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	for i, doc := range []string{"apple banana", "cherry apple", "date"} {
		if _, err := e.store.Put("corpus", fmt.Sprintf("doc-%d", i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("blob", []any{4 * inlineThreshold}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: 2}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
		}
	})
	bulky := 0
	for _, a := range e.platform.Controller().Activations() {
		var rec wire.StatusRecord
		if err := wire.Unmarshal(a.Result, &rec); err != nil {
			t.Fatalf("activation %s result %q: %v", a.ID, a.Result, err)
		}
		status, _, err := e.store.Get(e.platform.MetaBucket(), statusKey(rec.ExecutorID, rec.CallID))
		if err != nil {
			t.Fatal(err)
		}
		line, rest, _ := bytes.Cut(status, []byte{'\n'})
		if !bytes.Equal(a.Result, line) {
			t.Errorf("call %s: activation result %q, want its record line %q", rec.CallID, a.Result, line)
		}
		if len(rest) > 0 {
			bulky++
		}
	}
	if bulky != 1+3 { // the spilled result and the three maps' frames
		t.Errorf("%d status objects carry bulk after the line, want 4", bulky)
	}
}

// TestCompositionWaitSurfacesDeadCalls: a composition wait whose ref
// carries activation IDs must surface a spawned call that died without
// committing a status as ErrCallFailed, instead of polling until its
// deadline.
func TestCompositionWaitSurfacesDeadCalls(t *testing.T) {
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CrashProb = 1.0 })
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		fs, err := exec.Map("add7", []any{1})
		if err != nil {
			t.Error(err)
			return
		}
		f := fs[0]
		if f.ActivationID() == "" {
			t.Error("direct invocation produced no activation id")
			return
		}
		ref := &wire.FuturesRef{
			MetaBucket:    e.platform.MetaBucket(),
			ExecutorID:    f.executorID,
			CallIDs:       []string{f.CallID()},
			ActivationIDs: []string{f.ActivationID()},
			Combine:       wire.CombineList,
		}
		r := &resolver{exec: exec, deadline: e.clk.Now().Add(time.Hour)}
		start := e.clk.Now()
		err = r.awaitCalls(ref)
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("awaitCalls err = %v, want ErrCallFailed via activation consult", err)
		}
		if waited := e.clk.Now().Sub(start); waited > 10*time.Minute {
			t.Errorf("dead composed call took %v of virtual time to surface", waited)
		}
	})
}

// recordingClient captures the executor's client-side request sequence for
// the determinism test.
type recordingClient struct {
	cos.Client
	mu  sync.Mutex
	ops []string
}

func (c *recordingClient) note(op, bucket, key string) {
	c.mu.Lock()
	c.ops = append(c.ops, op+" "+bucket+" "+key)
	c.mu.Unlock()
}

// gets counts the recorded GETs of one job-key kind (status, result, ...).
func (c *recordingClient) gets(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, op := range c.ops {
		if strings.HasPrefix(op, "GET ") && strings.Contains(op, "/"+kind+"/") {
			n++
		}
	}
	return n
}

func (c *recordingClient) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	c.note("PUT", bucket, key)
	return c.Client.Put(bucket, key, data)
}

func (c *recordingClient) Get(bucket, key string) ([]byte, cos.ObjectMeta, error) {
	c.note("GET", bucket, key)
	return c.Client.Get(bucket, key)
}

func (c *recordingClient) GetRange(bucket, key string, offset, length int64) ([]byte, cos.ObjectMeta, error) {
	c.note("GETRANGE", bucket, key)
	return c.Client.GetRange(bucket, key, offset, length)
}

func (c *recordingClient) Head(bucket, key string) (cos.ObjectMeta, error) {
	c.note("HEAD", bucket, key)
	return c.Client.Head(bucket, key)
}

func (c *recordingClient) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	c.note("LIST", bucket, prefix+" after="+marker)
	return c.Client.List(bucket, prefix, marker, maxKeys)
}

func (c *recordingClient) Delete(bucket, key string) error {
	c.note("DELETE", bucket, key)
	return c.Client.Delete(bucket, key)
}

// TestSameSeedIdenticalRequestSequences: with a fixed platform seed and
// serialized client pools, two fresh runs must put byte-identical request
// sequences on the wire — the incremental sweep state (frontier markers in
// LIST requests) must be as deterministic as the rest of the client.
func TestSameSeedIdenticalRequestSequences(t *testing.T) {
	run := func() string {
		e := newEnv(t, func(cfg *PlatformConfig) { cfg.Seed = 42 })
		rec := &recordingClient{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
		exec := e.executor(t, func(c *Config) {
			c.Storage = rec
			c.InvokeConcurrency = 1
			c.StageConcurrency = 1
		})
		e.clk.Run(func() {
			if _, err := exec.Map("busy", []any{3, 1, 2, 5, 4}); err != nil {
				t.Error(err)
				return
			}
			if _, err := exec.GetResult(GetResultOptions{}); err != nil {
				t.Error(err)
			}
		})
		// Executor IDs are process-unique, so normalize them out before
		// comparing runs.
		return strings.ReplaceAll(strings.Join(rec.ops, "\n"), exec.ID(), "EXEC")
	}
	first := run()
	second := run()
	if first != second {
		a := strings.Split(first, "\n")
		b := strings.Split(second, "\n")
		limit := len(a)
		if len(b) < limit {
			limit = len(b)
		}
		for i := 0; i < limit; i++ {
			if a[i] != b[i] {
				t.Fatalf("request sequences diverge at op %d:\n  run1: %s\n  run2: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("request sequences differ in length: %d vs %d ops", len(a), len(b))
	}
}

// BenchmarkWaitPathCollect benchmarks the full invoke→poll→collect loop at
// 10k futures. Run with -bench to profile the poll loop.
func BenchmarkWaitPathCollect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newEnv(b, nil)
		exec := e.executor(b, nil)
		e.clk.Run(func() {
			const n = 10000
			args := make([]any, n)
			for j := range args {
				args[j] = 15
			}
			if _, err := exec.Map("busy", args); err != nil {
				b.Error(err)
				return
			}
			if _, err := exec.GetResult(GetResultOptions{}); err != nil {
				b.Error(err)
			}
		})
		ops := exec.StorageOps()
		b.ReportMetric(float64(ops.ObjectsListed), "objectsListed/op")
		b.ReportMetric(float64(ops.ListOps), "lists/op")
	}
}
