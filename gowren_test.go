package gowren_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"gowren"
)

// testImage builds the default runtime preloaded with the functions the
// API tests exercise.
func testImage(t *testing.T) *gowren.Image {
	t.Helper()
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(gowren.RegisterFunc(img, "my_function", func(_ *gowren.Ctx, x int) (int, error) {
		return x + 7, nil
	}))
	must(gowren.RegisterFunc(img, "busy", func(ctx *gowren.Ctx, seconds int) (int, error) {
		if err := ctx.ChargeCompute(time.Duration(seconds) * time.Second); err != nil {
			return 0, err
		}
		return seconds, nil
	}))
	must(gowren.RegisterFunc(img, "fail", func(_ *gowren.Ctx, _ int) (int, error) {
		return 0, errors.New("deliberate failure")
	}))
	must(gowren.RegisterComposerFunc(img, "double_then_add7", func(ctx *gowren.Ctx, x int) (*gowren.FuturesRef, error) {
		return gowren.Chain(ctx, "my_function", x*2)
	}))
	must(gowren.RegisterFunc(img, "spawn_sum", func(ctx *gowren.Ctx, n int) (int, error) {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		vals, err := gowren.SpawnAwait[int](ctx, "my_function", args)
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range vals {
			sum += v
		}
		return sum, nil
	}))
	must(gowren.RegisterMapFunc(img, "count_bytes", func(_ *gowren.Ctx, part *gowren.PartitionReader) (int, error) {
		data, err := part.ReadAll()
		if err != nil {
			return 0, err
		}
		return len(data), nil
	}))
	must(gowren.RegisterReduceFunc(img, "total", func(_ *gowren.Ctx, group string, partials []int) (map[string]any, error) {
		sum := 0
		for _, p := range partials {
			sum += p
		}
		return map[string]any{"group": group, "sum": sum}, nil
	}))
	return img
}

func newCloud(t *testing.T, cfg gowren.SimConfig) *gowren.Cloud {
	t.Helper()
	cfg.Images = append(cfg.Images, testImage(t))
	cloud, err := gowren.NewSimCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cloud
}

// TestAPITable2MapAndGetResult covers the map() row of the paper's Table 2
// with the exact Fig. 1 example.
func TestAPITable2MapAndGetResult(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 3, 6, 9); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		want := []int{10, 13, 16}
		for i := range want {
			if results[i] != want[i] {
				t.Errorf("results = %v, want %v", results, want)
			}
		}
	})
}

// TestAPITable2CallAsync covers the call_async() row.
func TestAPITable2CallAsync(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.CallAsync("my_function", 35); err != nil {
			t.Error(err)
			return
		}
		got, err := gowren.Result[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if got != 42 {
			t.Errorf("result = %d, want 42", got)
		}
	})
}

// TestAPITable2Wait covers the wait() row with all three unlock modes.
func TestAPITable2Wait(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("busy", 2, 120); err != nil {
			t.Error(err)
			return
		}
		done, pending, err := exec.Wait(gowren.WaitAlways, 0)
		if err != nil || len(done) != 0 || len(pending) != 2 {
			t.Errorf("always: %d/%d err=%v", len(done), len(pending), err)
		}
		done, pending, err = exec.Wait(gowren.WaitAnyCompleted, 0)
		if err != nil || len(done) != 1 || len(pending) != 1 {
			t.Errorf("any: %d/%d err=%v", len(done), len(pending), err)
		}
		done, pending, err = exec.Wait(gowren.WaitAllCompleted, 0)
		if err != nil || len(done) != 2 || len(pending) != 0 {
			t.Errorf("all: %d/%d err=%v", len(done), len(pending), err)
		}
	})
}

// TestAPITable2MapReduce covers the map_reduce() row over a discovered
// bucket with chunk-size partitioning and a reducer per object.
func TestAPITable2MapReduce(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	store := cloud.Store()
	if err := store.CreateBucket("ds"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("ds", "obj1", make([]byte, 1500)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("ds", "obj2", make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		_, err = exec.MapReduce("count_bytes", gowren.FromBuckets("ds"), "total", gowren.MapReduceOptions{
			ChunkBytes:          1000,
			ReducerOnePerObject: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[map[string]any](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != 2 {
			t.Errorf("reducers = %d, want 2", len(results))
			return
		}
		sums := map[string]float64{}
		for _, r := range results {
			sums[r["group"].(string)] = r["sum"].(float64)
		}
		if sums["ds/obj1"] != 1500 || sums["ds/obj2"] != 700 {
			t.Errorf("sums = %v", sums)
		}
	})
}

// TestAPITable2GetResultTimeout covers get_result's timeout support.
func TestAPITable2GetResultTimeout(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("busy", 500); err != nil {
			t.Error(err)
			return
		}
		_, err = exec.GetResult(gowren.GetResultOptions{Timeout: 5 * time.Second})
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Errorf("err = %v, want wait deadline", err)
		}
	})
}

func TestSequenceCompositionPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		// f3 = f2 ∘ f1 : double_then_add7(5) = 5*2 + 7 = 17.
		if _, err := exec.CallAsync("double_then_add7", 5); err != nil {
			t.Error(err)
			return
		}
		got, err := gowren.Result[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if got != 17 {
			t.Errorf("sequence = %d, want 17", got)
		}
	})
}

func TestNestedParallelismPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.CallAsync("spawn_sum", 4); err != nil {
			t.Error(err)
			return
		}
		got, err := gowren.Result[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if got != 0+1+2+3+4*7 {
			t.Errorf("spawn_sum = %d, want 34", got)
		}
	})
}

func TestUserFailureSurfaces(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("fail", 1); err != nil {
			t.Error(err)
			return
		}
		if _, err := gowren.Results[int](exec); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
			t.Errorf("err = %v, want user failure", err)
		}
	})
}

func TestWANClientSlowerThanInCloud(t *testing.T) {
	measure := func(profile gowren.ClientProfile) time.Duration {
		cloud := newCloud(t, gowren.SimConfig{})
		var elapsed time.Duration
		cloud.Run(func() {
			exec, err := cloud.Executor(gowren.WithClientProfile(profile))
			if err != nil {
				t.Error(err)
				return
			}
			start := cloud.Clock().Now()
			args := make([]any, 50)
			for i := range args {
				args[i] = i
			}
			if _, err := exec.MapSlice("my_function", args); err != nil {
				t.Error(err)
				return
			}
			elapsed = cloud.Clock().Now().Sub(start)
		})
		return elapsed
	}
	wan := measure(gowren.ClientWAN)
	local := measure(gowren.ClientInCloud)
	if wan < 2*local {
		t.Fatalf("WAN invocation phase (%v) should be much slower than in-cloud (%v)", wan, local)
	}
}

func TestMassiveSpawningPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor(
			gowren.WithClientProfile(gowren.ClientWAN),
			gowren.WithMassiveSpawning(10),
		)
		if err != nil {
			t.Error(err)
			return
		}
		args := make([]any, 25)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.MapSlice("my_function", args); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		for i, v := range results {
			if v != i+7 {
				t.Errorf("result[%d] = %d, want %d", i, v, i+7)
			}
		}
	})
}

func TestRealTimeCloud(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{RealTime: true})
	cloud.Run(func() {
		exec, err := cloud.Executor(gowren.WithPollInterval(time.Millisecond))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 1, 2, 3); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != 3 || results[0] != 8 {
			t.Errorf("real-time results = %v", results)
		}
	})
}

func TestDuplicateImageRejected(t *testing.T) {
	img := testImage(t)
	if _, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img, img}}); err == nil {
		t.Fatal("duplicate image accepted")
	}
}

func TestNilFunctionRegistrationRejected(t *testing.T) {
	img := gowren.NewImage("x:1", 0)
	if err := gowren.RegisterFunc[int, int](img, "f", nil); err == nil {
		t.Fatal("nil plain fn accepted")
	}
	if err := gowren.RegisterMapFunc[int](img, "m", nil); err == nil {
		t.Fatal("nil map fn accepted")
	}
	if err := gowren.RegisterReduceFunc[int, int](img, "r", nil); err == nil {
		t.Fatal("nil reduce fn accepted")
	}
}

func TestCleanAndStatsPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 1, 2); err != nil {
			t.Error(err)
			return
		}
		if _, err := gowren.Results[int](exec); err != nil {
			t.Error(err)
			return
		}
		stats, err := exec.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		// A call's status is its only object: small outputs ride the record
		// line.
		if stats.Payloads != 2 || stats.Statuses != 2 || stats.Shuffle != 0 {
			t.Errorf("stats = %+v", stats)
		}
		if err := exec.Clean(); err != nil {
			t.Error(err)
			return
		}
		stats, err = exec.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		if stats.Payloads+stats.Statuses+stats.Shuffle != 0 {
			t.Errorf("post-clean stats = %+v", stats)
		}
	})
}

func TestWaitThresholdPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("busy", 5, 10, 200, 400); err != nil {
			t.Error(err)
			return
		}
		done, pending, err := exec.WaitThreshold(0.5, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(done) < 2 || len(pending) == 0 {
			t.Errorf("threshold: done=%d pending=%d", len(done), len(pending))
		}
	})
}

func TestRespawnPublicAPI(t *testing.T) {
	// A crash-free cloud: respawning an empty failure set is a no-op.
	cloud := newCloud(t, gowren.SimConfig{})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 1); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := exec.Wait(gowren.WaitAllCompleted, 0); err != nil {
			t.Error(err)
			return
		}
		failed, err := exec.FailedFutures()
		if err != nil {
			t.Error(err)
			return
		}
		if len(failed) != 0 {
			t.Errorf("failed = %d, want 0", len(failed))
		}
		if err := exec.Respawn(failed); err != nil {
			t.Error(err)
		}
	})
}

func TestShufflePublicAPI(t *testing.T) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterKVMapFunc(img, "kv/chars", func(_ *gowren.Ctx, part *gowren.PartitionReader) ([]gowren.KV, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		var out []gowren.KV
		for _, r := range string(data) {
			if r == '\n' {
				continue
			}
			kv, err := gowren.EmitKV(string(r), 1)
			if err != nil {
				return nil, err
			}
			out = append(out, kv)
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = gowren.RegisterKVReduceFunc(img, "kv/count", func(_ *gowren.Ctx, key string, values []int) (int, error) {
		sum := 0
		for _, v := range values {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}})
	if err != nil {
		t.Fatal(err)
	}
	store := cloud.Store()
	if err := store.CreateBucket("letters"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("letters", "x", []byte("aabbbc\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("letters", "y", []byte("acc\n")); err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.MapReduceShuffle("kv/chars", gowren.FromBuckets("letters"), "kv/count", gowren.ShuffleOptions{NumReducers: 3}); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.ShuffleResults(exec)
		if err != nil {
			t.Error(err)
			return
		}
		want := map[string]int{"a": 3, "b": 3, "c": 3}
		if len(results) != len(want) {
			t.Errorf("results = %v", results)
			return
		}
		prev := ""
		for _, kr := range results {
			if kr.Key <= prev {
				t.Errorf("merged results not sorted: %v", results)
			}
			prev = kr.Key
			var n int
			if err := json.Unmarshal(kr.Value, &n); err != nil {
				t.Error(err)
				return
			}
			if want[kr.Key] != n {
				t.Errorf("count[%s] = %d, want %d", kr.Key, n, want[kr.Key])
			}
		}
	})
}

func TestSpeculativeResultsPublicAPI(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{Jitter: true})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("busy", 2, 2, 2, 2, 2, 2); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResultSpeculative(gowren.GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != 6 {
			t.Errorf("results = %d", len(results))
		}
	})
}

func TestTraceRecordsPlatformEvents(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{TraceCapacity: 4096})
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 1, 2, 3); err != nil {
			t.Error(err)
			return
		}
		if _, err := gowren.Results[int](exec); err != nil {
			t.Error(err)
		}
	})
	rec := cloud.Trace()
	if rec == nil {
		t.Fatal("trace recorder not enabled")
	}
	counts := map[string]int{}
	for _, ev := range rec.Events() {
		counts[ev.Kind]++
	}
	if counts["invoke"] < 3 {
		t.Fatalf("invoke events = %d, want >= 3 (counts %v)", counts["invoke"], counts)
	}
	if counts["act-end"] < 3 {
		t.Fatalf("act-end events = %d (counts %v)", counts["act-end"], counts)
	}
	if counts["image-pull"] != 1 {
		t.Fatalf("image pulls = %d, want exactly 1 (counts %v)", counts["image-pull"], counts)
	}
	if counts["cold-start"] < 1 || counts["warm-start"]+counts["cold-start"] < 3 {
		t.Fatalf("container lifecycle events missing: %v", counts)
	}
	var sb strings.Builder
	if err := rec.Dump(&sb, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gowren-runner--") {
		t.Fatalf("dump missing action names:\n%s", sb.String())
	}
}
