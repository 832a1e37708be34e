package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/wire"
)

// allExchanges enumerates the selectable shuffle transports: the COS
// baseline plus both fast tiers.
var allExchanges = []string{wire.ExchangeCOS, wire.ExchangeMemory, wire.ExchangeDirect}

// newExchangeEnv is newShuffleEnv with a platform-config hook, so tests can
// shrink the memory-tier cache or attach a trace recorder.
func newExchangeEnv(t *testing.T, mutate func(*PlatformConfig)) (*env, map[string]int) {
	t.Helper()
	return newExchangeEnvWith(t, mutate, nil)
}

// newExchangeEnvWith is newExchangeEnv plus an image hook for extra
// functions.
func newExchangeEnvWith(t *testing.T, mutate func(*PlatformConfig), mutateImage func(*runtime.Image)) (*env, map[string]int) {
	t.Helper()
	e := newEnvFull(t, mutate, func(img *runtime.Image) {
		registerShuffleFunctions(t, img)
		if mutateImage != nil {
			mutateImage(img)
		}
	})
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

// runShuffleJob runs one word-count shuffle over the corpus bucket on the
// given transport and returns the raw per-reducer results, reducer order.
func runShuffleJob(t *testing.T, e *env, transport string, reducers int) []json.RawMessage {
	t.Helper()
	exec := e.executor(t, nil)
	var results []json.RawMessage
	e.clk.Run(func() {
		_, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{
			NumReducers: reducers,
			Exchange:    transport,
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
	if t.Failed() {
		t.FailNow()
	}
	return results
}

func decodeWordCounts(t *testing.T, results []json.RawMessage) map[string]int {
	t.Helper()
	got := map[string]int{}
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
			if _, dup := got[kr.Key]; dup {
				t.Fatalf("key %q reduced twice", kr.Key)
			}
			got[kr.Key] = n
		}
	}
	return got
}

func TestShuffleTransportsWordCount(t *testing.T) {
	for _, transport := range allExchanges {
		t.Run(transport, func(t *testing.T) {
			e, want := newExchangeEnv(t, nil)
			got := decodeWordCounts(t, runShuffleJob(t, e, transport, 3))
			if len(got) != len(want) {
				t.Fatalf("keys = %d, want %d (%v)", len(got), len(want), got)
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("count[%q] = %d, want %d", k, got[k], n)
				}
			}
			ops := e.platform.ExchangeOps()
			switch transport {
			case wire.ExchangeMemory:
				if ops.Memory.PutOps == 0 || ops.Memory.Hits == 0 {
					t.Fatalf("memory tier not engaged: %+v", ops.Memory)
				}
			case wire.ExchangeDirect:
				if ops.Direct.PutOps == 0 || ops.Direct.Hits == 0 {
					t.Fatalf("direct tier not engaged: %+v", ops.Direct)
				}
			default:
				if ops.Memory.PutOps != 0 || ops.Direct.PutOps != 0 {
					t.Fatalf("COS baseline touched fast tiers: %+v", ops)
				}
			}
		})
	}
}

func TestShuffleZeroEmitMappers(t *testing.T) {
	for _, transport := range allExchanges {
		t.Run(transport, func(t *testing.T) {
			e := newEnvFull(t, nil, func(img *runtime.Image) {
				registerShuffleFunctions(t, img)
				err := img.RegisterKVMap("kv/none", func(_ *runtime.Ctx, _ *runtime.PartitionReader) ([]wire.KV, error) {
					return nil, nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			if err := e.store.CreateBucket("corpus"); err != nil {
				t.Fatal(err)
			}
			if _, err := e.store.Put("corpus", "doc", []byte("ignored words here")); err != nil {
				t.Fatal(err)
			}
			exec := e.executor(t, nil)
			var results []json.RawMessage
			e.clk.Run(func() {
				_, err := exec.MapReduceShuffle("kv/none", Buckets{"corpus"}, "kv/sum", ShuffleOptions{
					NumReducers: 3,
					Exchange:    transport,
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
				t.Fatalf("reducer results = %d, want 3", len(results))
			}
			if got := decodeWordCounts(t, results); len(got) != 0 {
				t.Fatalf("zero-emit map produced keys: %v", got)
			}
		})
	}
}

func TestShuffleMoreReducersThanKeys(t *testing.T) {
	for _, transport := range allExchanges {
		t.Run(transport, func(t *testing.T) {
			e, want := newExchangeEnv(t, nil)
			// 5 distinct words across 8 reducers: several reducers see no
			// keys at all and must still complete cleanly.
			got := decodeWordCounts(t, runShuffleJob(t, e, transport, 8))
			if len(got) != len(want) {
				t.Fatalf("keys = %d, want %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("count[%q] = %d, want %d", k, got[k], n)
				}
			}
		})
	}
}

// TestShuffleTransportEquivalenceRandomized is the byte-identity check: on
// a randomized corpus, all three transports must produce identical raw
// reducer output — same keys, same values, same ordering, same encoding.
// The fast tiers are an optimization, never a semantic change.
func TestShuffleTransportEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 30)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%02d", i)
	}
	for round := 0; round < 3; round++ {
		docs := map[string]string{}
		for d := 0; d < 4; d++ {
			var sb strings.Builder
			for w := 0; w < 50+rng.Intn(100); w++ {
				sb.WriteString(vocab[rng.Intn(len(vocab))])
				sb.WriteByte(' ')
			}
			docs[fmt.Sprintf("doc-%d", d)] = sb.String()
		}
		reducers := 1 + rng.Intn(6)
		var baseline []json.RawMessage
		for _, transport := range allExchanges {
			e := newEnvFull(t, nil, func(img *runtime.Image) {
				registerShuffleFunctions(t, img)
			})
			if err := e.store.CreateBucket("corpus"); err != nil {
				t.Fatal(err)
			}
			for key, body := range docs {
				if _, err := e.store.Put("corpus", key, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			results := runShuffleJob(t, e, transport, reducers)
			if transport == wire.ExchangeCOS {
				baseline = results
				continue
			}
			if len(results) != len(baseline) {
				t.Fatalf("round %d %s: %d reducer results, COS had %d", round, transport, len(results), len(baseline))
			}
			for i := range results {
				if string(results[i]) != string(baseline[i]) {
					t.Fatalf("round %d %s: reducer %d output diverges from COS:\n fast: %s\n  cos: %s",
						round, transport, i, results[i], baseline[i])
				}
			}
		}
	}
}

// TestShuffleMemoryTierEvictionFallsBack shrinks the cache far below the
// working set: most partitions are evicted (spilled to COS asynchronously)
// before their reducer pulls, so reads must degrade through the COS
// poll/recompute chain — and still match the baseline exactly.
func TestShuffleMemoryTierEvictionFallsBack(t *testing.T) {
	rec := trace.New(4096)
	e, want := newExchangeEnv(t, func(cfg *PlatformConfig) {
		cfg.ExchangeCacheBytes = 64 // a few dozen bytes: every put evicts
		cfg.Trace = rec
	})
	got := decodeWordCounts(t, runShuffleJob(t, e, wire.ExchangeMemory, 4))
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("count[%q] = %d, want %d", k, got[k], n)
		}
	}
	ops := e.platform.ExchangeOps()
	if ops.Evictions == 0 {
		t.Fatalf("tiny cache evicted nothing: %+v", ops)
	}
	if ops.Memory.Misses == 0 {
		t.Fatalf("expected reducer misses against the tiny cache: %+v", ops.Memory)
	}
	var exchangeEvents, fallbackEvents int
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindExchange {
			continue
		}
		exchangeEvents++
		if strings.Contains(ev.Detail, "fallback") || strings.Contains(ev.Detail, "spill") {
			fallbackEvents++
		}
	}
	if exchangeEvents == 0 || fallbackEvents == 0 {
		t.Fatalf("exchange trace events = %d (fallback/spill %d), want both > 0", exchangeEvents, fallbackEvents)
	}
}

func TestShuffleRejectsUnknownExchange(t *testing.T) {
	e, _ := newExchangeEnv(t, nil)
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		_, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{
			NumReducers: 2,
			Exchange:    "carrier-pigeon",
		})
		if err == nil {
			t.Error("unknown exchange transport accepted")
		}
	})
}
