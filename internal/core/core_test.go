package core

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/retry"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// env is a fully wired simulated cloud plus a client-side executor config.
type env struct {
	clk      *vclock.Virtual
	reg      *runtime.Registry
	store    *cos.Store
	platform *Platform
}

// newEnv builds a platform with a default image preloaded with test
// functions.
func newEnv(t testing.TB, mutate func(*PlatformConfig)) *env {
	t.Helper()
	return newEnvFull(t, mutate, nil)
}

// newEnvWith is newEnv plus an image hook for extra function registration.
func newEnvWith(t testing.TB, mutateImage func(*runtime.Image)) *env {
	t.Helper()
	return newEnvFull(t, nil, mutateImage)
}

func newEnvFull(t testing.TB, mutate func(*PlatformConfig), mutateImage func(*runtime.Image)) *env {
	t.Helper()
	clk := vclock.NewVirtual()
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
	cfg := PlatformConfig{Clock: clk, Registry: reg, Store: store}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{clk: clk, reg: reg, store: store, platform: p}
}

func registerTestFunctions(t testing.TB, img *runtime.Image) {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The paper's Fig. 1 example: my_function(x) = x + 7.
	must(img.RegisterPlain("add7", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
		var x int
		if err := wire.Unmarshal(arg, &x); err != nil {
			return nil, err
		}
		return x + 7, nil
	}))
	must(img.RegisterPlain("boom", func(_ *runtime.Ctx, _ json.RawMessage) (any, error) {
		return nil, errors.New("user code exploded")
	}))
	must(img.RegisterPlain("busy", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
		var seconds int
		if err := wire.Unmarshal(arg, &seconds); err != nil {
			return nil, err
		}
		if err := ctx.ChargeCompute(time.Duration(seconds) * time.Second); err != nil {
			return nil, err
		}
		return seconds, nil
	}))
	// Dynamic parallel composition: spawn add7 over a generated list and
	// return the continuation (paper §4.4 example).
	must(img.RegisterPlain("fanout", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
		var n int
		if err := wire.Unmarshal(arg, &n); err != nil {
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
		return sp.Spawn("add7", args)
	}))
	// Nested parallelism with in-function merge: spawn two add7 calls and
	// sum their results locally before returning.
	must(img.RegisterPlain("fanoutMerge", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
		sp, err := ctx.Spawner()
		if err != nil {
			return nil, err
		}
		ref, err := sp.Spawn("add7", []any{10, 20})
		if err != nil {
			return nil, err
		}
		values, err := sp.Await(ref)
		if err != nil {
			return nil, err
		}
		sum := 0
		for _, v := range values {
			var x int
			if err := wire.Unmarshal(v, &x); err != nil {
				return nil, err
			}
			sum += x
		}
		return sum, nil
	}))
	// A two-step sequence: step1 invokes step2 on its output and returns
	// the continuation, so the client transparently receives step2's value.
	must(img.RegisterPlain("seqStep1", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
		var x int
		if err := wire.Unmarshal(arg, &x); err != nil {
			return nil, err
		}
		sp, err := ctx.Spawner()
		if err != nil {
			return nil, err
		}
		ref, err := sp.Spawn("add7", []any{x * 2})
		if err != nil {
			return nil, err
		}
		ref.Combine = wire.CombineSingle
		return ref, nil
	}))
	must(img.RegisterMapPartition("partitionLen", func(_ *runtime.Ctx, part *runtime.PartitionReader) (any, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		return len(data), nil
	}))
	must(img.RegisterReduce("sum", func(_ *runtime.Ctx, group string, partials []json.RawMessage) (any, error) {
		total := 0
		for _, p := range partials {
			var x int
			if err := wire.Unmarshal(p, &x); err != nil {
				return nil, err
			}
			total += x
		}
		return map[string]any{"group": group, "total": total, "parts": len(partials)}, nil
	}))
}

// executor builds a client-side executor with the given overrides.
func (e *env) executor(t testing.TB, mutate func(*Config)) *Executor {
	t.Helper()
	cfg := Config{
		Platform: e.platform,
		Storage:  cos.NewLinked(e.store, e.clk, netsim.Loopback()),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	exec, err := NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestExecutorIDsArePerPlatform: a platform numbers its own executors, so
// a run's IDs do not depend on what else ran in the process.
func TestExecutorIDsArePerPlatform(t *testing.T) {
	first, second := newEnv(t, nil), newEnv(t, nil)
	for _, want := range []string{"exec-000001", "exec-000002", "exec-000003"} {
		if got := first.executor(t, nil).ID(); got != want {
			t.Errorf("first platform's executor ID = %s, want %s", got, want)
		}
	}
	if got := second.executor(t, nil).ID(); got != "exec-000001" {
		t.Errorf("second platform's first executor ID = %s, want exec-000001", got)
	}
}

func decodeInts(t *testing.T, raws []json.RawMessage) []int {
	t.Helper()
	out := make([]int, len(raws))
	for i, r := range raws {
		if err := wire.Unmarshal(r, &out[i]); err != nil {
			t.Fatalf("decode result %d (%s): %v", i, r, err)
		}
	}
	return out
}

func TestMapEndToEnd(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{3, 6, 9}); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	got := decodeInts(t, results)
	want := []int{10, 13, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("results = %v, want %v", got, want)
		}
	}
}

func TestCallAsyncNonBlockingThenResult(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		before := e.clk.Now()
		_, err := exec.CallAsync("busy", 50)
		if err != nil {
			t.Error(err)
			return
		}
		// call_async must not wait the 50s task out.
		if issued := e.clk.Now().Sub(before); issued > 20*time.Second {
			t.Errorf("call_async blocked for %v", issued)
		}
		done, _, err := exec.Wait(WaitAlways, time.Time{})
		if err != nil {
			t.Error(err)
		}
		if len(done) != 0 {
			t.Error("future done immediately after invocation of 50s task")
		}
		results, err := exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		if got := decodeInts(t, results); got[0] != 50 {
			t.Errorf("result = %d, want 50", got[0])
		}
		if total := e.clk.Now().Sub(before); total < 50*time.Second {
			t.Errorf("result arrived before the task could have finished: %v", total)
		}
	})
}

func TestUserErrorPropagates(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("boom", []any{1}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{})
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want ErrCallFailed", err)
		}
		if err == nil || !strings.Contains(err.Error(), "user code exploded") {
			t.Errorf("error %v should carry the user message", err)
		}
	})
}

func TestUnknownFunctionFails(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("no-such-fn", []any{1}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want ErrCallFailed", err)
		}
	})
}

func TestWaitStrategies(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		// Two tasks with very different durations.
		if _, err := exec.Map("busy", []any{5, 300}); err != nil {
			t.Error(err)
			return
		}
		done, pending, err := exec.Wait(WaitAlways, time.Time{})
		if err != nil {
			t.Error(err)
		}
		if len(done) != 0 || len(pending) != 2 {
			t.Errorf("always: done=%d pending=%d, want 0/2", len(done), len(pending))
		}
		done, pending, err = exec.Wait(WaitAnyCompleted, time.Time{})
		if err != nil {
			t.Error(err)
		}
		if len(done) != 1 || len(pending) != 1 {
			t.Errorf("any: done=%d pending=%d, want 1/1", len(done), len(pending))
		}
		if done[0].CallID() != "00000" {
			t.Errorf("the 5s task should finish first, got call %s", done[0].CallID())
		}
		done, pending, err = exec.Wait(WaitAllCompleted, time.Time{})
		if err != nil {
			t.Error(err)
		}
		if len(done) != 2 || len(pending) != 0 {
			t.Errorf("all: done=%d pending=%d, want 2/0", len(done), len(pending))
		}
	})
}

func TestWaitDeadline(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{500}); err != nil {
			t.Error(err)
			return
		}
		_, pending, err := exec.Wait(WaitAllCompleted, e.clk.Now().Add(10*time.Second))
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
		}
		if len(pending) != 1 {
			t.Errorf("pending = %d, want 1", len(pending))
		}
	})
}

func TestGetResultTimeout(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{500}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{Timeout: 30 * time.Second})
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
		}
	})
}

func TestGetResultWithoutCalls(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	if _, err := exec.GetResult(GetResultOptions{}); !errors.Is(err, ErrNoFutures) {
		t.Fatalf("err = %v, want ErrNoFutures", err)
	}
	if _, _, err := exec.Wait(WaitAllCompleted, time.Time{}); !errors.Is(err, ErrNoFutures) {
		t.Fatalf("wait err = %v, want ErrNoFutures", err)
	}
}

// TestWaitRejectsUnknownStrategy: a value outside the three strategies is an
// error, not a silent WaitAlways.
func TestWaitRejectsUnknownStrategy(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{1}); err != nil {
			t.Error(err)
			return
		}
		for _, s := range []WaitStrategy{0, WaitAllCompleted + 1} {
			if done, pending, err := exec.Wait(s, time.Time{}); err == nil || done != nil || pending != nil {
				t.Errorf("Wait(%d) = %d done, %d pending, err %v; want an error", s, len(done), len(pending), err)
			}
		}
	})
}

func TestProgressCallback(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var reports [][2]int
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{1, 2, 3, 4}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{
			Progress: func(done, total int) { reports = append(reports, [2]int{done, total}) },
		})
		if err != nil {
			t.Error(err)
		}
	})
	if len(reports) < 2 {
		t.Fatalf("progress reported %d times, want at least initial and final", len(reports))
	}
	last := reports[len(reports)-1]
	if last != [2]int{4, 4} {
		t.Fatalf("final progress = %v, want {4,4}", last)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i][0] < reports[i-1][0] {
			t.Fatalf("progress went backwards: %v", reports)
		}
	}
}

func TestMassiveSpawningEquivalentResults(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, func(c *Config) {
		c.MassiveSpawning = true
		c.SpawnGroupSize = 10
	})
	args := make([]any, 35) // 4 spawner groups
	for i := range args {
		args[i] = i
	}
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.Map("add7", args); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	got := decodeInts(t, results)
	for i, v := range got {
		if v != i+7 {
			t.Fatalf("result[%d] = %d, want %d", i, v, i+7)
		}
	}
}

func TestThrottledInvocationsRetry(t *testing.T) {
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = 4 })
	exec := e.executor(t, nil)
	policy := invokeRetryPolicy
	policy.MaxAttempts, policy.BaseBackoff = 21, 500*time.Millisecond
	exec.invokeRetry = retry.New(e.clk, policy, retryableCall, retry.WithSeed(1))
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.Map("busy", []any{2, 2, 2, 2, 2, 2, 2, 2, 2, 2}); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if len(results) != 10 {
		t.Fatalf("results = %d, want 10 (throttled calls must retry to completion)", len(results))
	}
}

func TestCrashedActivationSurfacesError(t *testing.T) {
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CrashProb = 1.0 })
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{1}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want ErrCallFailed from crashed activation", err)
		}
	})
}

func TestDynamicCompositionFanout(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.CallAsync("fanout", 5); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	var values []int
	if err := wire.Unmarshal(results[0], &values); err != nil {
		t.Fatalf("composed result %s: %v", results[0], err)
	}
	if len(values) != 5 {
		t.Fatalf("composed values = %v, want 5 entries", values)
	}
	for i, v := range values {
		if v != i+7 {
			t.Fatalf("composed value[%d] = %d, want %d", i, v, i+7)
		}
	}
}

func TestDynamicCompositionInFunctionMerge(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.CallAsync("fanoutMerge", nil); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	got := decodeInts(t, results)
	if got[0] != 44 { // (10+7)+(20+7)
		t.Fatalf("merged sum = %d, want 44", got[0])
	}
}

func TestSequenceComposition(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.CallAsync("seqStep1", 5); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	got := decodeInts(t, results)
	if got[0] != 17 { // (5*2)+7
		t.Fatalf("sequence result = %d, want 17", got[0])
	}
}

func TestMapReduceInlineValues(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.MapReduce("add7", InlineValues{1, 2, 3}, "sum", MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if len(results) != 1 {
		t.Fatalf("reduce results = %d, want 1", len(results))
	}
	var red struct {
		Total int `json:"total"`
		Parts int `json:"parts"`
	}
	if err := wire.Unmarshal(results[0], &red); err != nil {
		t.Fatal(err)
	}
	if red.Total != 8+9+10 || red.Parts != 3 {
		t.Fatalf("reduce = %+v, want total 27 over 3 parts", red)
	}
}

func TestMapReduceOverBucketWithChunking(t *testing.T) {
	e := newEnv(t, nil)
	// Dataset: two objects of 1000 and 2500 bytes; 1000-byte chunks give
	// 1 + 3 = 4 partitions.
	if err := e.store.CreateBucket("dataset"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Put("dataset", "a", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Put("dataset", "b", make([]byte, 2500)); err != nil {
		t.Fatal(err)
	}
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec.MapReduce("partitionLen", Buckets{"dataset"}, "sum", MapReduceOptions{ChunkBytes: 1000}); err != nil {
			t.Error(err)
			return
		}
		var err error
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if len(results) != 1 {
		t.Fatalf("reduce results = %d, want 1 global reducer", len(results))
	}
	var red struct {
		Total int `json:"total"`
		Parts int `json:"parts"`
	}
	if err := wire.Unmarshal(results[0], &red); err != nil {
		t.Fatal(err)
	}
	if red.Total != 3500 {
		t.Fatalf("total bytes = %d, want 3500 (every byte covered exactly once)", red.Total)
	}
	if red.Parts != 4 {
		t.Fatalf("partitions = %d, want 4", red.Parts)
	}
}

func TestMapReduceReducerPerObject(t *testing.T) {
	e := newEnv(t, nil)
	if err := e.store.CreateBucket("cities"); err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"amsterdam": 1200, "barcelona": 800, "chicago": 3000}
	for city, size := range sizes {
		if _, err := e.store.Put("cities", city, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		_, err := exec.MapReduce("partitionLen", Buckets{"cities"}, "sum", MapReduceOptions{
			ChunkBytes:          1000,
			ReducerOnePerObject: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		results, err = exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
		}
	})
	if len(results) != 3 {
		t.Fatalf("reducers = %d, want one per city", len(results))
	}
	totals := map[string]int{}
	for _, r := range results {
		var red struct {
			Group string `json:"group"`
			Total int    `json:"total"`
		}
		if err := wire.Unmarshal(r, &red); err != nil {
			t.Fatal(err)
		}
		city := strings.TrimPrefix(red.Group, "cities/")
		totals[city] = red.Total
	}
	for city, size := range sizes {
		if totals[city] != size {
			t.Fatalf("city %s total = %d, want %d (totals: %v)", city, totals[city], size, totals)
		}
	}
}

func TestMapEmptyInputRejected(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.Map("add7", nil); err == nil {
			t.Error("empty map accepted")
		}
	})
}

func TestExecutorIDsUnique(t *testing.T) {
	e := newEnv(t, nil)
	a := e.executor(t, nil)
	b := e.executor(t, nil)
	if a.ID() == b.ID() {
		t.Fatalf("executor IDs collide: %s", a.ID())
	}
}

func TestRuntimeSelectionPerExecutor(t *testing.T) {
	e := newEnv(t, nil)
	// Publish a custom image with an exclusive function, like the paper's
	// matplotlib example.
	custom := runtime.NewImage("matplotlib:1", 400)
	if err := custom.RegisterPlain("plot", func(_ *runtime.Ctx, _ json.RawMessage) (any, error) {
		return "plotted", nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.reg.Publish(custom); err != nil {
		t.Fatal(err)
	}
	def := e.executor(t, nil)
	cust := e.executor(t, func(c *Config) { c.RuntimeImage = "matplotlib:1" })
	e.clk.Run(func() {
		// plot is not in the default image...
		if _, err := def.Map("plot", []any{nil}); err != nil {
			t.Error(err)
			return
		}
		if _, err := def.GetResult(GetResultOptions{Timeout: time.Hour}); !errors.Is(err, ErrCallFailed) {
			t.Errorf("default-runtime err = %v, want ErrCallFailed", err)
		}
		// ...but the custom-runtime executor runs it.
		if _, err := cust.Map("plot", []any{nil}); err != nil {
			t.Error(err)
			return
		}
		res, err := cust.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		var s string
		if err := wire.Unmarshal(res[0], &s); err != nil || s != "plotted" {
			t.Errorf("custom runtime result = %q, %v", s, err)
		}
	})
}

func TestStatusRecordTimestampsConsistent(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		fut, err := exec.CallAsync("busy", 10)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		rec := fut.cachedStatus()
		if rec == nil {
			t.Error("GetResult left no status record in hand")
			return
		}
		if !rec.OK {
			t.Errorf("status = %+v", rec)
		}
		if span := time.Duration(rec.EndUnixNs - rec.StartUnixNs); span != 10*time.Second {
			t.Errorf("recorded span = %v, want 10s", span)
		}
		if rec.ActivationID == "" {
			t.Error("status missing activation id")
		}
		if !rec.ColdStart {
			t.Error("first call should be recorded as cold start")
		}
	})
}

func TestCallIDsUniquePerExecutorProperty(t *testing.T) {
	e := newEnv(t, nil)
	exec := e.executor(t, nil)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		for _, id := range exec.reserveCallIDs(i%7 + 1) {
			if seen[id] {
				t.Fatalf("duplicate call id %q", id)
			}
			seen[id] = true
		}
	}
	// IDs are zero-padded and therefore lexicographically ordered, which
	// the status-prefix LIST relies on for stable sweeps.
	prev := ""
	for i := 0; i < 10; i++ {
		id := exec.reserveCallIDs(1)[0]
		if id <= prev {
			t.Fatalf("ids not increasing: %q then %q", prev, id)
		}
		prev = id
	}
}

// TestCloudStorageRetrySchedule pins the storage retry schedules, one stage
// per request on every path, over a faulty backend on zero-latency links: a
// function's own ctx.Storage() request rides out 23 transient failures
// cloudStorageBackoff apart and gives up on the 24th; an executor's request
// does the same executorStorageBackoff apart, whether the executor is a
// driver or a helper a function built to spawn calls.
func TestCloudStorageRetrySchedule(t *testing.T) {
	const (
		viaFunction = "function" // a GET through the function's ctx.Storage()
		viaDriver   = "driver"   // a PUT through the driver executor's view
		viaHelper   = "helper"   // the payload PUT of a call a function spawns
	)
	for _, tc := range []struct {
		name     string
		via      string
		failures int64 // injected failures; -1 fails every try
		attempts int
		backoff  time.Duration
		wantErr  bool
	}{
		{"23 failures", viaFunction, 23, cloudStorageAttempts, cloudStorageBackoff, false},
		{"24 failures", viaFunction, 24, cloudStorageAttempts, cloudStorageBackoff, true},
		{"driver 23 failures", viaDriver, 23, executorStorageAttempts, executorStorageBackoff, false},
		{"driver 24 failures", viaDriver, 24, executorStorageAttempts, executorStorageBackoff, true},
		{"helper always failing", viaHelper, -1, executorStorageAttempts, executorStorageBackoff, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var armed atomic.Bool
			var left, tries atomic.Int64
			var (
				reqErr  error
				elapsed time.Duration
			)
			// measure issues one request with the failures armed, so that
			// nothing else the job does is failed or counted.
			measure := func(clk vclock.Clock, req func() error) {
				left.Store(tc.failures)
				armed.Store(true)
				start := clk.Now()
				reqErr = req()
				elapsed = clk.Now().Sub(start)
				armed.Store(false)
			}
			e := newEnvFull(t, func(cfg *PlatformConfig) {
				cfg.Backend = cos.NewFaulty(cfg.Store, func() bool {
					if !armed.Load() {
						return false
					}
					tries.Add(1)
					return tc.failures < 0 || left.Add(-1) >= 0
				})
			}, func(img *runtime.Image) {
				if err := img.RegisterPlain("probe", func(ctx *runtime.Ctx, _ json.RawMessage) (any, error) {
					measure(ctx.Clock(), func() error {
						if tc.via == viaFunction {
							_, _, err := ctx.Storage().Get(DefaultMetaBucket, "probe")
							return err
						}
						sp, err := ctx.Spawner()
						if err != nil {
							return err
						}
						_, err = sp.Spawn("add7", []any{1})
						return err
					})
					return nil, nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			if _, err := e.store.Put(DefaultMetaBucket, "probe", []byte("x")); err != nil {
				t.Fatal(err)
			}
			// Only the driver row routes the driver's own traffic through the
			// faulty backend; elsewhere its polls must not count as tries.
			exec := e.executor(t, func(c *Config) {
				if tc.via == viaDriver {
					c.Storage = cos.NewLinked(e.platform.Backend(), e.clk, netsim.Loopback())
				}
			})
			e.clk.Run(func() {
				if tc.via == viaDriver {
					measure(e.clk, func() error {
						_, err := exec.cfg.Storage.Put(DefaultMetaBucket, "probe", []byte("y"))
						return err
					})
					return
				}
				if _, err := exec.Map("probe", []any{0}); err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.GetResult(GetResultOptions{}); err != nil {
					t.Error(err)
				}
			})
			if got, want := tries.Load(), int64(tc.attempts); got != want {
				t.Fatalf("tries = %d, want %d", got, want)
			}
			if want := time.Duration(tc.attempts-1) * tc.backoff; elapsed != want {
				t.Fatalf("request took %v, want %v", elapsed, want)
			}
			switch {
			case tc.wantErr && !errors.Is(reqErr, cos.ErrRequestFailed):
				t.Fatalf("request error = %v, want one wrapping cos.ErrRequestFailed", reqErr)
			case !tc.wantErr && reqErr != nil:
				t.Fatalf("request failed: %v", reqErr)
			}
		})
	}
}
