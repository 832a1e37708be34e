package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// TestKVGroupsAllocsPerValue: grouping a framed partition into groups that
// already exist allocates nothing — no key string, no value copy, no
// growth while a group is within its presized capacity.
func TestKVGroupsAllocsPerValue(t *testing.T) {
	kvs := make([]wire.KV, 64)
	for i := range kvs {
		kvs[i] = wire.KV{Key: fmt.Sprintf("key-%02d", i%16), Value: json.RawMessage(`"value"`)}
	}
	body := wire.AppendKVs(nil, kvs)
	const runs = 100
	// Each key appears 4 times per frame; room for the first pass, the
	// warm-up run and the measured runs.
	g := newKVGroups(4 * (runs + 2))
	if err := wire.EachKV(body, g.add); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := wire.EachKV(body, g.add); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("grouping a %d-pair frame into existing groups allocates %.1f times", len(kvs), allocs)
	}
	if len(g.values) != 16 || len(g.values[g.index["key-07"]]) != 4*(runs+2) {
		t.Fatalf("groups = %d, key-07 holds %d values", len(g.values), len(g.values[g.index["key-07"]]))
	}
}

// TestShuffleReduceCannotScribbleOnFastTiers: a raw reduce function that
// overwrites every value byte it receives, on the memory and direct tiers,
// must not reach the stored partitions. Afterwards an honest second reducer
// over the same partitions, the tier itself, an eviction spill of the cache
// and a recompute from the staged map payload all still see the producer's
// frames, byte for byte. This pins the per-partition clone of fast-tier
// bodies in fetchShufflePartition.
func TestShuffleReduceCannotScribbleOnFastTiers(t *testing.T) {
	const cacheBytes = 1 << 20
	for _, transport := range []string{wire.ExchangeMemory, wire.ExchangeDirect} {
		t.Run(transport, func(t *testing.T) {
			var img *runtime.Image
			e, want := newExchangeEnvWith(t, func(cfg *PlatformConfig) { cfg.ExchangeCacheBytes = cacheBytes },
				func(i *runtime.Image) {
					img = i
					err := i.RegisterKVReduce("kv/scribble", func(_ *runtime.Ctx, _ string, values []json.RawMessage) (any, error) {
						total := 0
						for _, v := range values {
							var n int
							if err := wire.Unmarshal(v, &n); err != nil {
								return nil, err
							}
							total += n
							for b := range v {
								v[b] = 'X'
							}
						}
						return total, nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			exec := e.executor(t, nil)
			meta := e.platform.MetaBucket()
			e.clk.Run(func() {
				fs, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/scribble", ShuffleOptions{
					NumReducers: 3, Exchange: transport,
				})
				if err != nil {
					t.Error(err)
					return
				}
				results, err := exec.GetResult(GetResultOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				checkWordCounts(t, "scribbling reducers", decodeWordCounts(t, results), want)

				ctx := runtime.NewCtx(runtime.CtxConfig{Clock: e.clk, Storage: e.store, Image: img})
				second := map[string]int{}
				frames := map[string][]byte{} // shuffle key → recomputed frame
				for _, f := range fs {
					staged, err := resolvePayloads(e.store, meta, exec.ID(), []string{f.CallID()})
					if err != nil {
						t.Error(err)
						return
					}
					payload, err := wire.DecodePayload(staged[0].body)
					if err != nil {
						t.Error(err)
						return
					}
					honest := *payload
					honest.Function = "kv/sum"
					out, err := e.platform.runShuffleReduce(ctx, &honest)
					if err != nil {
						t.Errorf("second reducer %d: %v", payload.Shuffle.Reducer, err)
						return
					}
					for _, kr := range out.([]wire.KeyResult) {
						var n int
						if err := wire.Unmarshal(kr.Value, &n); err != nil {
							t.Errorf("second reducer %d, key %q: %v", payload.Shuffle.Reducer, kr.Key, err)
							return
						}
						second[kr.Key] = n
					}
					for _, mapID := range payload.Shuffle.MapCallIDs {
						frame, err := e.platform.recomputeShufflePartition(ctx, payload, mapID)
						if err != nil {
							t.Error(err)
							return
						}
						r := payload.Shuffle.Reducer
						key := wire.ShuffleKey(exec.ID(), mapID, r)
						frames[key] = frame
						var stored []byte
						if transport == wire.ExchangeMemory {
							stored, err = e.platform.Exchange().Cache.Get(key)
						} else {
							stored, err = e.platform.Exchange().Peers.Pull(exec.ID(), mapID, r)
						}
						if err != nil || !bytes.Equal(stored, frame) {
							t.Errorf("%s on the tier = %q (err %v), recompute = %q", key, stored, err, frame)
						}
						if err := wire.EachKV(frame, func(_, v []byte) {
							if string(v) != "1" {
								t.Errorf("%s: recomputed value %q, want 1", key, v)
							}
						}); err != nil {
							t.Error(err)
						}
					}
				}
				checkWordCounts(t, "second reducers", second, want)

				if transport != wire.ExchangeMemory {
					return
				}
				// A filler as large as the cache evicts every partition; the
				// spills must write the producer's frames.
				if err := e.platform.Exchange().Cache.Put("filler", make([]byte, cacheBytes)); err != nil {
					t.Error(err)
					return
				}
				e.clk.Sleep(10 * time.Second)
				for key, frame := range frames {
					spilled, _, err := e.store.Get(meta, key)
					if err != nil || !bytes.Equal(spilled, frame) {
						t.Errorf("spilled %s = %q (err %v), want %q", key, spilled, err, frame)
					}
				}
			})
		})
	}
}

func checkWordCounts(t *testing.T, who string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d keys, want %d (%v)", who, len(got), len(want), got)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: count[%q] = %d, want %d", who, k, got[k], n)
		}
	}
}

// TestNormalizeShuffleValuesMatchesMarshal: every value reaches the frame
// as the bytes json.Marshal writes for it, which is what a JSON partition
// carried; invalid JSON fails the map as it did then.
func TestNormalizeShuffleValuesMatchesMarshal(t *testing.T) {
	valid := []string{
		`1`, `"plain"`, `{"a":[1,2]}`, `null`, `true`, `""`,
		`{ "a" : [1, 2] }`, "[\n1,\t2\r]", `"<b>&amp;</b>"`, "\"  \"",
		"\"\xe2\x82\xac euro\"", `"< already escaped"`, "\"\xff raw byte\"",
		`"space inside"`,
	}
	for _, v := range valid {
		want, err := json.Marshal(json.RawMessage(v))
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		kvs := []wire.KV{{Key: "k", Value: json.RawMessage(v)}}
		if err := normalizeShuffleValues(kvs, 3); err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		if !bytes.Equal(kvs[0].Value, want) {
			t.Errorf("%q normalized to %q, json.Marshal writes %q", v, kvs[0].Value, want)
		}
	}
	kvs := []wire.KV{{Key: "nil"}}
	if err := normalizeShuffleValues(kvs, 3); err != nil || string(kvs[0].Value) != "null" {
		t.Errorf("nil value normalized to %q, %v; want null", kvs[0].Value, err)
	}
	for _, v := range []string{`{bad`, `1 2`, `"open`, ``} {
		kvs := []wire.KV{{Key: "k", Value: json.RawMessage(v)}}
		err := normalizeShuffleValues(kvs, 3)
		if err == nil || !strings.Contains(err.Error(), "serialize partition") {
			t.Errorf("%q: err = %v, want a serialize-partition error", v, err)
		}
	}
}

// TestFramePartitionMatchesFramePartitions: the single-reducer framing
// recomputation uses builds the producer's body byte for byte, and the
// frames a map commits are the bodies joined as a payload batch, so the span
// its advertised sizes give cuts every body back out of them.
func TestFramePartitionMatchesFramePartitions(t *testing.T) {
	kvs := make([]wire.KV, 200)
	for i := range kvs {
		kvs[i] = wire.KV{Key: fmt.Sprintf("k%d", i%37), Value: json.RawMessage(fmt.Sprint(i))}
	}
	for _, r := range []int{1, 3, 8, 300} { // 300: most frames empty
		plan := planFrames(kvs, r)
		object := make([]byte, plan.size)
		bodies, counts := plan.write(object), plan.counts
		joined, bounds := wire.JoinPayloads(bodies)
		if !bytes.Equal(object, joined) {
			t.Errorf("R=%d: map frames = %q, joined bodies = %q", r, object, joined)
		}
		descs := make([]wire.PartitionDescriptor, r)
		for i, body := range bodies {
			descs[i] = wire.PartitionDescriptor{Reducer: i, Bytes: int64(len(body)), Keys: counts[i]}
			if len(body) != cap(body) {
				t.Errorf("R=%d reducer %d: body len %d cap %d, want capped", r, i, len(body), cap(body))
			}
		}
		span := wire.ShuffleSpan("k", "", 0, descs)
		if fmt.Sprint(span.Bounds) != fmt.Sprint(bounds) {
			t.Errorf("R=%d: span bounds %v, batch bounds %v", r, span.Bounds, bounds)
		}
		for i := range r {
			ref := span.Ref("b", i)
			if got := object[ref.Offset : ref.Offset+ref.Length]; !bytes.Equal(got, bodies[i]) {
				t.Errorf("R=%d reducer %d: slice %q, body %q", r, i, got, bodies[i])
			}
			if got := framePartition(kvs, r, i); !bytes.Equal(got, bodies[i]) {
				t.Errorf("R=%d reducer %d: framePartition = %q, framePlan.write = %q", r, i, got, bodies[i])
			}
		}
	}
}

// TestShuffleValuesReachReducerAsJSON: a map emitting a nil value, loose
// JSON and HTML characters hands the reducer null, compacted JSON and
// escaped strings, as the JSON partitions did. A map emitting invalid JSON
// fails (TestNormalizeShuffleValuesMatchesMarshal pins its error), so it
// commits no frames and no stage index can be built: its reducers fail
// naming the failed map instead of handing the reduce function a value it
// cannot decode.
func TestShuffleValuesReachReducerAsJSON(t *testing.T) {
	emitted := map[string]json.RawMessage{
		"nil":   nil,
		"loose": json.RawMessage(`{ "a" : [1, 2] }`),
		"html":  json.RawMessage(`"<&>"`),
	}
	want := map[string]string{"nil": `null`, "loose": `{"a":[1,2]}`, "html": `"\u003c\u0026\u003e"`}
	e, _ := newExchangeEnvWith(t, nil, func(img *runtime.Image) {
		err := img.RegisterKVMap("kv/values", func(_ *runtime.Ctx, _ *runtime.PartitionReader) ([]wire.KV, error) {
			var out []wire.KV
			for k, v := range emitted {
				out = append(out, wire.KV{Key: k, Value: v})
			}
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = img.RegisterKVMap("kv/invalid", func(_ *runtime.Ctx, _ *runtime.PartitionReader) ([]wire.KV, error) {
			return []wire.KV{{Key: "k", Value: json.RawMessage(`{bad`)}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = img.RegisterKVReduce("kv/first", func(_ *runtime.Ctx, _ string, values []json.RawMessage) (any, error) {
			for _, v := range values[1:] {
				if !bytes.Equal(v, values[0]) {
					return nil, fmt.Errorf("values differ: %q, %q", values[0], v)
				}
			}
			return string(values[0]), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	exec := e.executor(t, nil)
	e.clk.Run(func() {
		if _, err := exec.MapReduceShuffle("kv/values", Buckets{"corpus"}, "kv/first", ShuffleOptions{NumReducers: 2}); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		got := map[string]string{}
		for _, raw := range results {
			var krs []wire.KeyResult
			if err := wire.Unmarshal(raw, &krs); err != nil {
				t.Error(err)
				return
			}
			for _, kr := range krs {
				var s string
				if err := wire.Unmarshal(kr.Value, &s); err != nil {
					t.Error(err)
					return
				}
				got[kr.Key] = s
			}
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("reducer got %q for %q, want %q", got[k], k, w)
			}
		}

		if _, err := exec.MapReduceShuffle("kv/invalid", Buckets{"corpus"}, "kv/first", ShuffleOptions{NumReducers: 2}); err != nil {
			t.Error(err)
			return
		}
		_, err = exec.GetResult(GetResultOptions{})
		if err == nil || !errors.Is(err, ErrCallFailed) || !strings.Contains(err.Error(), "serialize partition") {
			t.Errorf("invalid map value: GetResult err = %v, want the reducers to fail on the failed map", err)
		}
	})
}
