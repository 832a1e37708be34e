package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gowren/internal/cos"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/wire"
)

// registerShuffleFunctions adds a word-count style KV pipeline to the test
// image: the map function emits one KV per word in its partition, the
// reducer sums counts per word.
func registerShuffleFunctions(t *testing.T, img *runtime.Image) {
	t.Helper()
	err := img.RegisterKVMap("kv/words", func(_ *runtime.Ctx, part *runtime.PartitionReader) ([]wire.KV, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		var out []wire.KV
		for _, w := range strings.Fields(string(data)) {
			out = append(out, wire.KV{Key: w, Value: json.RawMessage("1")})
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = img.RegisterKVReduce("kv/sum", func(_ *runtime.Ctx, key string, values []json.RawMessage) (any, error) {
		total := 0
		for _, v := range values {
			var n int
			if err := wire.Unmarshal(v, &n); err != nil {
				return nil, err
			}
			total += n
		}
		return total, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// fail always errors, so its calls end as dead letters.
	err = img.RegisterPlain("fail", func(*runtime.Ctx, json.RawMessage) (any, error) {
		return nil, errors.New("always fails")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newShuffleEnv builds an env whose default image also has the KV pipeline
// and a word corpus in storage.
func newShuffleEnv(t *testing.T) (*env, map[string]int) {
	t.Helper()
	return newShuffleEnvWith(t, nil)
}

// newShuffleEnvWith is newShuffleEnv plus a platform hook.
func newShuffleEnvWith(t *testing.T, mutate func(*PlatformConfig)) (*env, map[string]int) {
	t.Helper()
	clkEnvBuilt := false
	var e *env
	// newEnv publishes the image before we can add functions; rebuild the
	// registration inside the image constructor instead.
	e = newEnvFull(t, mutate, func(img *runtime.Image) {
		registerShuffleFunctions(t, img)
		clkEnvBuilt = true
	})
	if !clkEnvBuilt {
		t.Fatal("image mutation hook not invoked")
	}
	if err := e.store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"doc-a": "apple banana apple cherry\napple banana\n",
		"doc-b": "banana cherry cherry date\n",
		"doc-c": "egg apple date banana egg\n",
	}
	want := map[string]int{}
	for key, body := range docs {
		if _, err := e.store.Put("corpus", key, []byte(body)); err != nil {
			t.Fatal(err)
		}
		for _, w := range strings.Fields(body) {
			want[w]++
		}
	}
	return e, want
}

func TestMapReduceShuffleWordCount(t *testing.T) {
	for _, reducers := range []int{1, 2, 4, 7} {
		e, want := newShuffleEnv(t)
		exec := e.executor(t, nil)
		var results []json.RawMessage
		e.clk.Run(func() {
			fs, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{
				NumReducers: reducers,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if len(fs) != reducers {
				t.Errorf("reducer futures = %d, want %d", len(fs), reducers)
				return
			}
			results, err = exec.GetResult(GetResultOptions{})
			if err != nil {
				t.Error(err)
			}
		})
		got := map[string]int{}
		for _, raw := range results {
			var krs []wire.KeyResult
			if err := wire.Unmarshal(raw, &krs); err != nil {
				t.Fatal(err)
			}
			for i, kr := range krs {
				var n int
				if err := wire.Unmarshal(kr.Value, &n); err != nil {
					t.Fatal(err)
				}
				if _, dup := got[kr.Key]; dup {
					t.Fatalf("R=%d: key %q reduced twice", reducers, kr.Key)
				}
				got[kr.Key] = n
				if i > 0 && krs[i-1].Key >= kr.Key {
					t.Fatalf("R=%d: reducer output not key-sorted", reducers)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("R=%d: keys = %d, want %d (%v)", reducers, len(got), len(want), got)
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("R=%d: count[%q] = %d, want %d", reducers, k, got[k], n)
			}
		}
	}
}

func TestShuffleWithChunkedPartitions(t *testing.T) {
	e, want := newShuffleEnv(t)
	exec := e.executor(t, nil)
	// Per-object granularity over several objects: word counts must be
	// conserved end to end across the shuffle.
	var results []json.RawMessage
	e.clk.Run(func() {
		_, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{
			ChunkBytes:  0, // per object
			NumReducers: 3,
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
	total := 0
	for _, raw := range results {
		var krs []wire.KeyResult
		if err := wire.Unmarshal(raw, &krs); err != nil {
			t.Fatal(err)
		}
		for _, kr := range krs {
			var n int
			if err := wire.Unmarshal(kr.Value, &n); err != nil {
				t.Fatal(err)
			}
			total += n
		}
	}
	wantTotal := 0
	for _, n := range want {
		wantTotal += n
	}
	if total != wantTotal {
		t.Fatalf("total words = %d, want %d", total, wantTotal)
	}
}

// TestShuffleCleanRemovesShuffleFiles is the shuffle's leak check: what a
// shuffle leaves in the meta bucket besides its statuses — the COS
// transport's stage index, or an evicting cache's spills — sits under the
// job's shuffle prefix, and after Clean nothing is left under the job or the
// manifests.
func TestShuffleCleanRemovesShuffleFiles(t *testing.T) {
	for _, tc := range []struct {
		name       string
		exchange   string
		cacheBytes int64
	}{
		{name: "cos", exchange: wire.ExchangeCOS},
		// A few of the ~140 bytes of frames fit: the cache evicts and spills.
		{name: "memory-evicting", exchange: wire.ExchangeMemory, cacheBytes: 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := newShuffleEnvWith(t, func(cfg *PlatformConfig) { cfg.ExchangeCacheBytes = tc.cacheBytes })
			exec := e.executor(t, nil)
			e.clk.Run(func() {
				_, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: 2, Exchange: tc.exchange})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.GetResult(GetResultOptions{}); err != nil {
					t.Error(err)
					return
				}
				stats, err := exec.Stats()
				if err != nil {
					t.Error(err)
					return
				}
				// The stage index alone (the maps' frames ride their
				// statuses), or one spill per eviction.
				want := int64(1)
				if ops := e.platform.ExchangeOps(); tc.exchange == wire.ExchangeMemory {
					if ops.Evictions == 0 || ops.Spills != ops.Evictions {
						t.Errorf("evictions = %d, spills = %d: want the cache to evict and spill each", ops.Evictions, ops.Spills)
					}
					want = ops.Spills
				}
				if int64(stats.Shuffle) != want {
					t.Errorf("shuffle objects = %d, want %d", stats.Shuffle, want)
				}
				if err := exec.Clean(); err != nil {
					t.Error(err)
					return
				}
				// The stage's fan-in marker was created by a conditional put from
				// inside the cloud; it is a key like any other and goes too.
				marker := fanInKey(exec.ID(), callIDForSeq(3)) // first reducer, behind three maps
				if _, err := e.store.Head(DefaultMetaBucket, marker); !errors.Is(err, cos.ErrNoSuchKey) {
					t.Errorf("head %s after clean: err = %v, want ErrNoSuchKey", marker, err)
				}
				for _, prefix := range []string{"jobs/" + exec.ID() + "/", manifestListPrefix} {
					left, err := cos.ListAll(e.store, DefaultMetaBucket, prefix)
					if err != nil || len(left) != 0 {
						t.Errorf("objects left under %s after clean: %+v (err %v)", prefix, left, err)
					}
				}
			})
		})
	}
}

// TestCleanListsOnce: one LIST of jobs/{id}/ finds everything a job left —
// shuffle objects and stage index, the fan-in marker, journal records and a
// dead letter — and after Clean nothing is left under the job or its
// manifest, which holds the driver lease.
func TestCleanListsOnce(t *testing.T) {
	e, _ := newShuffleEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: 2}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("fail", []any{1}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: 1, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		}); err == nil {
			t.Error("failing call produced no error")
			return
		}
		if letters, err := exec.PersistedDeadLetters(); err != nil || len(letters) != 1 {
			t.Errorf("persisted dead letters = %d (err %v), want 1", len(letters), err)
			return
		}
		before := exec.StorageOps()
		if err := exec.Clean(); err != nil {
			t.Error(err)
			return
		}
		if lists := exec.StorageOps().ListOps - before.ListOps; lists != 1 {
			t.Errorf("Clean issued %d LISTs, want 1", lists)
		}
		for _, prefix := range []string{"jobs/" + exec.ID() + "/", manifestKey(exec.ID())} {
			left, err := cos.ListAll(e.store, DefaultMetaBucket, prefix)
			if err != nil || len(left) != 0 {
				t.Errorf("objects left under %s after clean: %+v (err %v)", prefix, left, err)
			}
		}
	})
}

// TestShuffleOneReducerWritesNoIndex: with R = 1 a reducer's partition is
// the one frame after its map's record line, so the COS transport writes
// nothing under shuffle/ — no stage index, no object beside the statuses —
// and the reducer reads each map's status with a plain GET.
func TestShuffleOneReducerWritesNoIndex(t *testing.T) {
	e, want := newShuffleEnv(t)
	got := decodeWordCounts(t, runShuffleJob(t, e, wire.ExchangeCOS, 1))
	checkWordCounts(t, "one reducer", got, want)
	listed, err := cos.ListAll(e.store, DefaultMetaBucket, "jobs/")
	if err != nil {
		t.Fatal(err)
	}
	var statuses int
	for _, o := range listed {
		switch {
		case strings.Contains(o.Key, "/"+statusPrefix+"/"):
			statuses++
		case strings.Contains(o.Key, "/shuffle/"):
			t.Errorf("R = 1 shuffle wrote %s", o.Key)
		}
	}
	if statuses != 3+1 {
		t.Errorf("statuses = %d, want 4: 3 maps and the reducer", statuses)
	}
}

func TestShuffleValidation(t *testing.T) {
	e, _ := newShuffleEnv(t)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		// Unknown source bucket surfaces at planning time.
		if _, err := exec.MapReduceShuffle("kv/words", Buckets{"ghost"}, "kv/sum", ShuffleOptions{}); err == nil {
			t.Error("unknown bucket accepted")
		}
		// Unknown functions surface as failed calls.
		if _, err := exec.MapReduceShuffle("kv/nope", Buckets{"corpus"}, "kv/sum", ShuffleOptions{}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{Timeout: time.Hour}); err == nil {
			t.Error("unknown map function should fail the job")
		}
	})
}

// TestReducerForKeyProperty also pins the in-place hash to hash/fnv's
// 32-bit FNV-1a, so keys land on the reducers they always have.
func TestReducerForKeyProperty(t *testing.T) {
	f := func(key string, rRaw uint8) bool {
		r := int(rRaw%16) + 1
		i := reducerForKey(key, r)
		j := reducerForKey(key, r)
		h := fnv.New32a()
		h.Write([]byte(key))
		return i == j && i >= 0 && i < r && i == int(h.Sum32()%uint32(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReducerKeySpreadAcrossPartitions(t *testing.T) {
	// With many keys and 4 reducers, no reducer should be empty — the
	// hash must actually spread.
	const r = 4
	counts := make([]int, r)
	for i := 0; i < 1000; i++ {
		counts[reducerForKey(fmt.Sprintf("key-%d", i), r)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("reducer %d received no keys: %v", i, counts)
		}
	}
}

// TestShuffleStaleIndexRebuilt: a map's status rewritten between the stage
// index write and the reducers' reads — the map ran again and its frames
// moved — no longer has the ETag the index pinned. Each reducer that reads
// it rebuilds the index in memory from the current statuses, writes nothing,
// and reads again, so the results are the rewritten map's.
func TestShuffleStaleIndexRebuilt(t *testing.T) {
	const reducers = 3
	fe := newFanInEnv(t, nil)
	if err := fe.store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	docs := []string{"apple banana apple", "cherry date", "banana egg egg"}
	for i, body := range docs {
		if _, err := fe.store.Put("corpus", fmt.Sprintf("doc-%d", i), []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	// Map 00000 is rewritten to have read these words instead of doc-0's.
	rewritten := []string{"zebra", "apple", "zebra", "fig", "quince", "zebra"}
	want := map[string]int{}
	for _, w := range append(strings.Fields(docs[1]+" "+docs[2]), rewritten...) {
		want[w]++
	}
	exec := fe.executor(t, nil)
	meta := fe.platform.MetaBucket()
	indexKey := wire.ShuffleIndexKey(exec.ID(), callIDForSeq(0))
	var results []json.RawMessage
	var index []byte
	fe.clk.Run(func() {
		if _, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Error(err)
			return
		}
		// Wait, reading the store directly, for the closer's index; the
		// reducers it launched are still starting.
		for {
			var err error
			if index, _, err = fe.store.Get(meta, indexKey); err == nil {
				break
			}
			fe.clk.Sleep(time.Millisecond)
		}
		key := statusKey(exec.ID(), callIDForSeq(0))
		body, _, err := fe.store.Get(meta, key)
		if err != nil {
			t.Error(err)
			return
		}
		rec, _, err := wire.DecodeStatus(body)
		if err != nil {
			t.Error(err)
			return
		}
		kvs := make([]wire.KV, len(rewritten))
		for i, w := range rewritten {
			kvs[i] = wire.KV{Key: w, Value: json.RawMessage("1")}
		}
		plan := planFrames(kvs, reducers)
		for r, size := range plan.sizes {
			rec.Exchange.Partitions[r] = wire.PartitionDescriptor{Reducer: r, Bytes: int64(size), Keys: plan.counts[r]}
		}
		line, object := wire.StatusObject(&rec, nil, 0, plan.size)
		plan.write(object[len(line)+1:][:plan.size])
		if _, err := fe.store.Put(meta, key, object); err != nil {
			t.Error(err)
			return
		}
		if results, err = exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	got := decodeWordCounts(t, results)
	checkWordCounts(t, "rewritten map", got, want)
	stale := 0
	for _, ev := range fe.tr.Events() {
		if ev.Kind == trace.KindExchange && strings.Contains(ev.Detail, "op=index map=00000 stale") {
			stale++
		}
	}
	if stale == 0 {
		t.Error("no reducer found the index stale: the rewrite landed after the reads")
	}
	after, _, err := fe.store.Get(meta, indexKey)
	if err != nil || !bytes.Equal(after, index) {
		t.Errorf("stored index changed (err %v): a rebuild for a stale read writes nothing", err)
	}
}
