package core

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
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

// Tests for completion push: on a wall-clock-driven clock over storage that
// reaches a watch, waits hold a commit watch and list only once.

// scaledEnv is a platform on a 20x scaled clock with gowren-server's
// real-time costs, plus the store behind it.
type scaledEnv struct {
	clk      *vclock.Scaled
	store    *cos.Store
	platform *Platform
}

func newScaledEnv(t *testing.T, mutateImage func(*runtime.Image)) *scaledEnv {
	t.Helper()
	clk := vclock.NewScaled(20)
	reg := runtime.NewRegistry()
	img := runtime.NewImage(runtime.DefaultImage, 100)
	registerTestFunctions(t, img)
	if mutateImage != nil {
		mutateImage(img)
	}
	if err := reg.Publish(img); err != nil {
		t.Fatal(err)
	}
	store := cos.NewStore()
	p, err := NewPlatform(PlatformConfig{
		Clock:         clk,
		Registry:      reg,
		Store:         store,
		CloudLink:     netsim.Loopback(),
		AdmitOverhead: 200 * time.Microsecond,
		ColdStartBoot: 5 * time.Millisecond,
		WarmStart:     500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &scaledEnv{clk: clk, store: store, platform: p}
}

// executor builds a driver over storage (nil: the store over a loopback
// link), polling every 2 ms of clock time as gowren-server's do.
func (e *scaledEnv) executor(t *testing.T, storage cos.Client) *Executor {
	t.Helper()
	if storage == nil {
		storage = cos.NewLinked(e.store, e.clk, netsim.Loopback())
	}
	exec, err := NewExecutor(Config{Platform: e.platform, Storage: storage, PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// mapPlus7 maps fn, add7 or a gated copy of it, over 0..7 and returns the
// decoded results.
func mapPlus7(t *testing.T, exec *Executor, fn string) []int {
	t.Helper()
	args := make([]any, 8)
	for i := range args {
		args[i] = i
	}
	if _, err := exec.Map(fn, args); err != nil {
		t.Fatal(err)
	}
	results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return decodeInts(t, results)
}

// watchHeld reports whether any wait still holds a watch on ns.
func (c *sweepCoordinator) watchHeld(ns nsKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	return ok && s.push != nil && (s.push.holds > 0 || s.push.cancel != nil)
}

// watching reports whether a watch is live on a status namespace of bucket:
// execID's own when own is set, another executor's otherwise.
func (c *sweepCoordinator) watching(bucket, execID string, own bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ns, s := range c.states {
		if ns.bucket == bucket && s.push != nil && s.push.cancel != nil && (ns.execID == execID) == own {
			return true
		}
	}
	return false
}

// pushes counts c's sweep states that point to a push.
func (c *sweepCoordinator) pushes() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.states {
		if s.push != nil {
			n++
		}
	}
	return n
}

// listProbe runs probe before every List it passes on.
type listProbe struct {
	cos.Client
	probe func()
}

func (c *listProbe) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	c.probe()
	return c.Client.List(bucket, prefix, marker, maxKeys)
}

// TestVirtualClockNeverPushes: a whole MapReduce job on the Virtual clock —
// its reducer launched by a fan-in, its wait driving the backstop — leaves
// every sweep state of its driver without a push, at each of its LISTs and
// after GetResult, though its storage reaches the in-process store: the
// polling path reads without one.
func TestVirtualClockNeverPushes(t *testing.T) {
	e := newEnv(t, nil)
	var exec *Executor
	lists := 0
	exec = e.executor(t, func(c *Config) {
		c.Storage = &listProbe{Client: c.Storage, probe: func() {
			lists++
			if n := exec.sweeps.pushes(); n != 0 {
				t.Errorf("LIST %d: %d sweep states point to a push on the Virtual clock", lists, n)
			}
		}}
	})
	if cos.WatcherOf(e.store) == nil {
		t.Fatal("the store offers no watch: the test shows nothing")
	}
	e.clk.Run(func() {
		if _, err := exec.MapReduce("add7", InlineValues{1, 2, 3}, "sum", MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
		}
	})
	if lists == 0 {
		t.Fatal("the job issued no LIST")
	}
	if len(exec.sweeps.states) == 0 {
		t.Fatal("the job left no sweep state to look at")
	}
	if n := exec.sweeps.pushes(); n != 0 {
		t.Errorf("%d sweep states point to a push after the job", n)
	}
}

// watchGate holds a function back until its driver waits under a watch, so
// the status the call commits is pushed whatever the host's timing. Without
// it a call that finishes before GetResult arms the watch is found by the
// wait's first LIST and read with a GET.
type watchGate struct {
	mu     sync.Mutex
	driver *Executor
}

func (g *watchGate) set(driver *Executor) {
	g.mu.Lock()
	g.driver = driver
	g.mu.Unlock()
}

// await sleeps on ctx's clock until the driver holds a watch on its own
// namespace (own: the collection's wait) or on another one (a composition's
// wait on spawned children).
func (g *watchGate) await(ctx *runtime.Ctx, own bool) error {
	g.mu.Lock()
	d := g.driver
	g.mu.Unlock()
	for range 100_000 { // 100 s on the clock
		if d.sweeps.watching(d.cfg.Platform.MetaBucket(), d.ID(), own) {
			return nil
		}
		ctx.Clock().Sleep(time.Millisecond)
	}
	return errors.New("no wait armed a watch")
}

// registerGated registers pushedAdd7 (add7 once the collection watches),
// pushedBlob (a string of as many x as its argument, once the collection
// watches) and pushedFanout (once the collection watches, spawn pushedChild
// over 0..n-1; each child is add7 once the composition's wait watches the
// children).
func registerGated(t *testing.T, img *runtime.Image, g *watchGate) {
	t.Helper()
	plus7 := func(own bool) runtime.PlainFunc {
		return func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
			var x int
			if err := wire.Unmarshal(arg, &x); err != nil {
				return nil, err
			}
			if err := g.await(ctx, own); err != nil {
				return nil, err
			}
			return x + 7, nil
		}
	}
	for name, fn := range map[string]runtime.PlainFunc{
		"pushedAdd7":  plus7(true),
		"pushedChild": plus7(false),
		"pushedBlob": func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
			var size int
			if err := wire.Unmarshal(arg, &size); err != nil {
				return nil, err
			}
			if err := g.await(ctx, true); err != nil {
				return nil, err
			}
			return strings.Repeat("x", size), nil
		},
		"pushedFanout": func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
			var n int
			if err := wire.Unmarshal(arg, &n); err != nil {
				return nil, err
			}
			if err := g.await(ctx, true); err != nil {
				return nil, err
			}
			sp, err := ctx.Spawner()
			if err != nil {
				return nil, err
			}
			args := make([]any, n)
			for i := range args {
				args[i] = i
			}
			return sp.Spawn("pushedChild", args)
		},
	} {
		if err := img.RegisterPlain(name, fn); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScaledClockCollectionListsOnce: over the in-process store, an 8-call
// map is collected with exactly one client LIST — the one that completes
// the push — and no GET: every status is committed under the watch, whose
// deliveries carry the bodies. The watch is let go when GetResult returns.
func TestScaledClockCollectionListsOnce(t *testing.T) {
	var gate watchGate
	e := newScaledEnv(t, func(img *runtime.Image) { registerGated(t, img, &gate) })
	exec := e.executor(t, nil)
	gate.set(exec)
	if exec.sweeps.watcher == nil {
		t.Fatal("an executor over the in-process store found no watch")
	}
	if got, want := mapPlus7(t, exec, "pushedAdd7"), []int{7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	ops := exec.StorageOps()
	if ops.ListOps != 1 {
		t.Errorf("client LISTs = %d, want exactly 1", ops.ListOps)
	}
	if ops.GetOps != 0 {
		t.Errorf("client GETs = %d, want 0: every status body was pushed", ops.GetOps)
	}
	if exec.sweeps.watchHeld(nsKey{bucket: e.platform.MetaBucket(), execID: exec.ID()}) {
		t.Error("the status watch outlived GetResult")
	}
	// Composition waits arm the same kind of watch: the fan-out's children
	// are awaited through the resolver's pending set, whose wait loop holds
	// it, and their bodies are pushed too.
	if _, err := exec.CallAsync("pushedFanout", 3); err != nil {
		t.Fatal(err)
	}
	results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	var children []int
	if err := wire.Unmarshal(results[len(results)-1], &children); err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 8, 9}; !slices.Equal(children, want) {
		t.Errorf("composed results = %v, want %v", children, want)
	}
	if n := exec.StorageOps().GetOps; n != 0 {
		t.Errorf("client GETs after the composition = %d, want 0", n)
	}
}

// TestScaledClockSpilledResultPushed: a result too large to inline rides its
// status object after the record line, so a spilled result committed after
// the watch armed arrives with the pushed body and costs no GET either.
func TestScaledClockSpilledResultPushed(t *testing.T) {
	var gate watchGate
	e := newScaledEnv(t, func(img *runtime.Image) { registerGated(t, img, &gate) })
	exec := e.executor(t, nil)
	gate.set(exec)
	sizes := []any{inlineThreshold + 1, 4 * inlineThreshold, 100}
	if _, err := exec.Map("pushedBlob", sizes); err != nil {
		t.Fatal(err)
	}
	results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range results {
		var s string
		if err := wire.Unmarshal(raw, &s); err != nil || s != strings.Repeat("x", sizes[i].(int)) {
			t.Errorf("result %d: %d bytes (err %v), want %d", i, len(s), err, sizes[i])
		}
	}
	if ops := exec.StorageOps(); ops.GetOps != 0 || ops.ListOps != 1 {
		t.Errorf("client GETs = %d, LISTs = %d; want 0 and 1: every status, spills included, was pushed", ops.GetOps, ops.ListOps)
	}
}

// TestScaledClockEarlyStatusesListedAndRead: statuses committed before
// GetResult arms its watch were pushed to nobody, so the wait's one LIST
// finds them and each costs one GET — the path every status took before
// bodies rode the push.
func TestScaledClockEarlyStatusesListedAndRead(t *testing.T) {
	e := newScaledEnv(t, nil)
	exec := e.executor(t, nil)
	args := make([]any, 8)
	for i := range args {
		args[i] = i
	}
	if _, err := exec.Map("add7", args); err != nil {
		t.Fatal(err)
	}
	// Wait on the clock, reading the store directly (no client request),
	// until every call has committed its status.
	prefix := statusListPrefix(exec.ID())
	for {
		listed, err := cos.ListAll(e.store, e.platform.MetaBucket(), prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) == len(args) {
			break
		}
		e.clk.Sleep(time.Millisecond)
	}
	before := exec.StorageOps()
	results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decodeInts(t, results), []int{7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	after := exec.StorageOps()
	if n := after.ListOps - before.ListOps; n != 1 {
		t.Errorf("client LISTs = %d, want 1", n)
	}
	if n := after.GetOps - before.GetOps; n != int64(len(args)) {
		t.Errorf("client GETs = %d, want %d: one per status committed before the watch", n, len(args))
	}
}

// TestScaledClockResultsDoNotAliasStore: a result handed to the caller is
// its own memory, although the status it came from was pushed as the
// store's copy. Writing into every returned result leaves each stored
// status as committed, still matching its ETag.
func TestScaledClockResultsDoNotAliasStore(t *testing.T) {
	var gate watchGate
	e := newScaledEnv(t, func(img *runtime.Image) { registerGated(t, img, &gate) })
	exec := e.executor(t, nil)
	gate.set(exec)
	args := []any{0, 1, 2, 3}
	futures, err := exec.Map("pushedAdd7", args)
	if err != nil {
		t.Fatal(err)
	}
	results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if n := exec.StorageOps().GetOps; n != 0 {
		t.Fatalf("client GETs = %d, want 0: the statuses were not pushed", n)
	}
	stored := make([][]byte, len(futures))
	for i, f := range futures {
		body, _, err := e.store.Get(e.platform.MetaBucket(), statusKey(exec.ID(), f.CallID()))
		if err != nil {
			t.Fatal(err)
		}
		stored[i] = body
	}
	for _, r := range results {
		for j := range r {
			r[j] = 'X'
		}
	}
	for i, f := range futures {
		body, meta, err := e.store.Get(e.platform.MetaBucket(), statusKey(exec.ID(), f.CallID()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, stored[i]) {
			t.Errorf("status %s changed under the caller's write: %q, was %q", f.CallID(), body, stored[i])
		}
		if sum := md5.Sum(body); hex.EncodeToString(sum[:]) != meta.ETag {
			t.Errorf("status %s no longer matches its ETag %s", f.CallID(), meta.ETag)
		}
	}
}

// TestScaledClockHTTPStoragePolls: the same job with the executor's storage
// behind cos.HTTPClient reaches no watch, arms none, and still polls its way
// to the same results.
func TestScaledClockHTTPStoragePolls(t *testing.T) {
	e := newScaledEnv(t, nil)
	srv := httptest.NewServer(cos.Handler(e.store))
	defer srv.Close()
	exec := e.executor(t, cos.NewHTTPClient(srv.URL, srv.Client()))
	if exec.sweeps.watcher != nil {
		t.Fatal("an executor over HTTP storage found a watch")
	}
	if got, want := mapPlus7(t, exec, "add7"), []int{7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	ops := exec.StorageOps()
	if ops.ListOps < 1 {
		t.Errorf("client LISTs = %d, want the polling client's >= 1", ops.ListOps)
	}
	if ops.GetOps != 8 {
		t.Errorf("client GETs = %d, want 8: without a watch every status is read", ops.GetOps)
	}
	if exec.sweeps.watchHeld(nsKey{bucket: e.platform.MetaBucket(), execID: exec.ID()}) {
		t.Error("a watch was armed over HTTP storage")
	}
}

// TestWatchedStatusForgottenOnRespawn: a status the watch delivered and a
// respawn then deleted is withdrawn from the done-set and re-observed only
// when the new run commits — the sweep that follows does not list, so a
// stale done-set would serve the deleted status as done.
func TestWatchedStatusForgottenOnRespawn(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	counting := cos.NewCounting(store)
	clk := vclock.NewScaled(20)
	co := soloCoordinator(counting, clk)
	ns := nsKey{bucket: "meta", execID: "ex"}
	put := func(callID string) {
		t.Helper()
		if _, err := store.Put("meta", statusKey("ex", callID), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}

	if co.watcher == nil {
		t.Fatal("no watch armed over the in-process store")
	}
	evt := vclock.NewEvent(clk)
	co.arm(ns, evt)
	release := co.watch(ns)
	if out := co.sweep(&pendingSet{}, ns, clk.Now()); out.err != nil || !out.listed {
		t.Fatalf("first sweep outcome = %+v", out)
	}
	gen := evt.Gen()
	put("00000")
	if !co.committed(ns, "00000") {
		t.Fatal("a watched commit did not reach the done-set")
	}
	if evt.Gen() == gen {
		t.Error("a watched commit did not signal the namespace's event")
	}

	// The respawn: delete the status, then forget the call.
	if err := store.Delete("meta", statusKey("ex", "00000")); err != nil {
		t.Fatal(err)
	}
	co.forget(ns, "00000")
	if out := co.sweep(&pendingSet{}, ns, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("pushed sweep outcome = %+v", out)
	}
	if co.committed(ns, "00000") {
		t.Fatal("a deleted status was served as done")
	}
	put("00000") // the respawned run commits
	if !co.committed(ns, "00000") {
		t.Fatal("the respawned run's status was not re-observed")
	}
	if n := counting.Counts().ListOps; n != 1 {
		t.Errorf("LISTs = %d, want 1: sweeps under a landed watch do not list", n)
	}

	release()
	put("00001")
	if co.committed(ns, "00001") {
		t.Error("a commit after the last release was delivered")
	}
	// The next wait arms afresh and must list once more: nothing watched
	// the commit made in between.
	release = co.watch(ns)
	defer release()
	if out := co.sweep(&pendingSet{}, ns, clk.Now().Add(2*time.Second)); out.err != nil || !out.listed {
		t.Fatalf("re-armed sweep outcome = %+v", out)
	}
	if !co.committed(ns, "00001") {
		t.Error("a commit between two watches was never observed")
	}
	if n := counting.Counts().ListOps; n != 2 {
		t.Errorf("LISTs = %d, want 2: a re-armed watch lists once", n)
	}
}

// TestPushedBodyTakenOnce pins the life of a pushed status body: a fetch
// takes a private copy of it once; it outlives the watch's release; forget
// drops the call's body and forgetNamespace every one; a second commit of a
// call already done pushes nothing, so the first status is the one kept.
func TestPushedBodyTakenOnce(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewScaled(20)
	co := soloCoordinator(store, clk)
	ns := nsKey{bucket: "meta", execID: "ex"}
	put := func(callID, body string) {
		t.Helper()
		if _, err := store.Put("meta", statusKey("ex", callID), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	// take fetches callIDs' pushed bodies; "" marks one not pushed.
	take := func(callIDs ...string) []string {
		t.Helper()
		calls := make([]callRef, len(callIDs))
		for i, id := range callIDs {
			calls[i] = callRef{execID: "ex", callID: id}
		}
		bodies := make([][]byte, len(calls))
		gets := co.takePushed("meta", calls, bodies)
		out := make([]string, len(calls))
		for i, b := range bodies {
			out[i] = string(b)
			if b == nil && !slices.Contains(gets, i) {
				t.Errorf("call %s has neither a body nor a GET", callIDs[i])
			}
		}
		return out
	}

	release := co.watch(ns)
	if out := co.sweep(&pendingSet{}, ns, clk.Now()); out.err != nil {
		t.Fatal(out.err)
	}
	for _, id := range []string{"00000", "00001", "00002", "00003"} {
		put(id, "first "+id)
	}
	put("00000", "second 00000") // a speculative copy's later commit
	release()

	bodies := make([][]byte, 1)
	co.takePushed("meta", []callRef{{execID: "ex", callID: "00000"}}, bodies)
	if string(bodies[0]) != "first 00000" {
		t.Fatalf("taken body = %q, want the first status", bodies[0])
	}
	clear(bodies[0])
	if stored, _, err := store.Get("meta", statusKey("ex", "00000")); err != nil || string(stored) != "second 00000" {
		t.Fatalf("stored status = %q (%v) after the taker wrote its copy", stored, err)
	}
	if got := take("00000", "00001"); !slices.Equal(got, []string{"", "first 00001"}) {
		t.Errorf("second take = %q, want the taken body gone and the untaken one kept", got)
	}
	co.forget(ns, "00002")
	if got := take("00002", "00003"); !slices.Equal(got, []string{"", "first 00003"}) {
		t.Errorf("take after forget = %q, want the forgotten call's body dropped", got)
	}

	release = co.watch(ns)
	put("00004", "first 00004")
	release()
	co.forgetNamespace(ns)
	if got := take("00004"); got[0] != "" {
		t.Errorf("take after forgetNamespace = %q, want nothing", got)
	}
}

// TestWatchArmedMidListKeepsListing: a LIST that was on the wire when the
// watch was armed does not complete the push — a status committed after
// its snapshot but before the arming is in neither — so the next sweep
// lists again and finds it.
func TestWatchArmedMidListKeepsListing(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewScaled(20)
	hooked := &listHookClient{Client: store}
	co := soloCoordinator(hooked, clk)
	co.watcher = store // the hook hides the store from WatcherOf
	ns := nsKey{bucket: "meta", execID: "ex"}
	var release func()
	hooked.afterList = func() {
		if _, err := store.Put("meta", statusKey("ex", "00000"), []byte("{}")); err != nil {
			t.Fatal(err)
		}
		release = co.watch(ns)
	}
	if out := co.sweep(&pendingSet{}, ns, clk.Now()); out.err != nil {
		t.Fatal(out.err)
	}
	defer release()
	if co.committed(ns, "00000") {
		t.Fatal("a status committed after the LIST's snapshot was harvested from it")
	}
	if out := co.sweep(&pendingSet{}, ns, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("follow-up sweep outcome = %+v", out)
	}
	if !co.committed(ns, "00000") {
		t.Fatal("the follow-up sweep did not list: the status committed before the arming is lost")
	}
}

// TestScaledClockRecoveryUnderWatch runs automatic recovery through the
// watch: every call's first run commits a failed status, the recoverer
// respawns it (deleting that status and dropping its pushed body), and only
// the second run's status may settle the call. Both runs commit under the
// watch, so the client reads no status with a GET.
func TestScaledClockRecoveryUnderWatch(t *testing.T) {
	var (
		mu   sync.Mutex
		gate watchGate
	)
	runs := map[int]int{}
	e := newScaledEnv(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("failOnce", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
			var x int
			if err := wire.Unmarshal(arg, &x); err != nil {
				return nil, err
			}
			if err := gate.await(ctx, true); err != nil {
				return nil, err
			}
			mu.Lock()
			runs[x]++
			first := runs[x] == 1
			mu.Unlock()
			if first {
				return nil, errors.New("first run fails")
			}
			return x * 10, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	exec := e.executor(t, nil)
	gate.set(exec)
	if _, err := exec.Map("failOnce", []any{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	results, err := exec.GetResult(GetResultOptions{
		Timeout:  time.Minute,
		Recovery: &RecoveryOptions{Backoff: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decodeInts(t, results), []int{10, 20, 30, 40}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	if n := exec.StorageOps().GetOps; n != 0 {
		t.Errorf("client GETs = %d, want 0: both runs' statuses were pushed", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for x := 1; x <= 4; x++ {
		if runs[x] != 2 {
			t.Errorf("call %d ran %d times, want 2", x, runs[x])
		}
	}
}
