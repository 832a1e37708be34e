package core

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
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

// mapAdd7 runs add7 over 0..7 and returns the decoded results.
func mapAdd7(t *testing.T, exec *Executor) []int {
	t.Helper()
	args := make([]any, 8)
	for i := range args {
		args[i] = i
	}
	if _, err := exec.Map("add7", args); err != nil {
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
	return ok && (s.holds > 0 || s.cancel != nil)
}

// TestScaledClockCollectionListsOnce: over the in-process store, an 8-call
// map is collected with exactly one client LIST — the one that completes
// the push — and the watch is let go when GetResult returns.
func TestScaledClockCollectionListsOnce(t *testing.T) {
	e := newScaledEnv(t, nil)
	exec := e.executor(t, nil)
	if exec.sweeps.watcher == nil {
		t.Fatal("an executor over the in-process store found no watch")
	}
	if got, want := mapAdd7(t, exec), []int{7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	ops := exec.StorageOps()
	if ops.ListOps != 1 {
		t.Errorf("client LISTs = %d, want exactly 1", ops.ListOps)
	}
	if ops.GetOps != 8 {
		t.Errorf("client GETs = %d, want 8 (one status per call)", ops.GetOps)
	}
	if exec.sweeps.watchHeld(nsKey{bucket: e.platform.MetaBucket(), execID: exec.ID()}) {
		t.Error("the status watch outlived GetResult")
	}
	// Composition waits arm the same kind of watch: fanout's children are
	// awaited through the resolver's pending set, whose wait loop holds it.
	if _, err := exec.CallAsync("fanout", 3); err != nil {
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
	if got, want := mapAdd7(t, exec), []int{7, 8, 9, 10, 11, 12, 13, 14}; !slices.Equal(got, want) {
		t.Fatalf("results = %v, want %v", got, want)
	}
	if ops := exec.StorageOps(); ops.ListOps < 1 {
		t.Errorf("client LISTs = %d, want the polling client's >= 1", ops.ListOps)
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
	co := newSweepCoordinator(counting, clk)
	ns := nsKey{bucket: "meta", execID: "ex"}
	put := func(callID string) {
		t.Helper()
		if _, err := store.Put("meta", statusKey("ex", callID), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}

	evt, release := co.watch(ns)
	if evt == nil {
		t.Fatal("no watch armed over the in-process store")
	}
	if out := co.sweep(ns, clk.Now()); out.err != nil || !out.listed {
		t.Fatalf("first sweep outcome = %+v", out)
	}
	gen := evt.Gen()
	put("00000")
	if !co.completed(ns, "00000") {
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
	if out := co.sweep(ns, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("pushed sweep outcome = %+v", out)
	}
	if co.completed(ns, "00000") {
		t.Fatal("a deleted status was served as done")
	}
	put("00000") // the respawned run commits
	if !co.completed(ns, "00000") {
		t.Fatal("the respawned run's status was not re-observed")
	}
	if n := counting.Counts().ListOps; n != 1 {
		t.Errorf("LISTs = %d, want 1: sweeps under a landed watch do not list", n)
	}

	release()
	put("00001")
	if co.completed(ns, "00001") {
		t.Error("a commit after the last release was delivered")
	}
	// The next wait arms afresh and must list once more: nothing watched
	// the commit made in between.
	_, release = co.watch(ns)
	defer release()
	if out := co.sweep(ns, clk.Now().Add(2*time.Second)); out.err != nil || !out.listed {
		t.Fatalf("re-armed sweep outcome = %+v", out)
	}
	if !co.completed(ns, "00001") {
		t.Error("a commit between two watches was never observed")
	}
	if n := counting.Counts().ListOps; n != 2 {
		t.Errorf("LISTs = %d, want 2: a re-armed watch lists once", n)
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
	co := newSweepCoordinator(hooked, clk)
	co.watcher = store // the hook hides the store from WatcherOf
	ns := nsKey{bucket: "meta", execID: "ex"}
	var release func()
	hooked.afterList = func() {
		if _, err := store.Put("meta", statusKey("ex", "00000"), []byte("{}")); err != nil {
			t.Fatal(err)
		}
		_, release = co.watch(ns)
	}
	if out := co.sweep(ns, clk.Now()); out.err != nil {
		t.Fatal(out.err)
	}
	defer release()
	if co.completed(ns, "00000") {
		t.Fatal("a status committed after the LIST's snapshot was harvested from it")
	}
	if out := co.sweep(ns, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("follow-up sweep outcome = %+v", out)
	}
	if !co.completed(ns, "00000") {
		t.Fatal("the follow-up sweep did not list: the status committed before the arming is lost")
	}
}

// TestScaledClockRecoveryUnderWatch runs automatic recovery through the
// watch: every call's first run commits a failed status, the recoverer
// respawns it (deleting that status), and only the second run's status may
// settle the call.
func TestScaledClockRecoveryUnderWatch(t *testing.T) {
	var mu sync.Mutex
	runs := map[int]int{}
	e := newScaledEnv(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("failOnce", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			var x int
			if err := wire.Unmarshal(arg, &x); err != nil {
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
	mu.Lock()
	defer mu.Unlock()
	for x := 1; x <= 4; x++ {
		if runs[x] != 2 {
			t.Errorf("call %d ran %d times, want 2", x, runs[x])
		}
	}
}
