package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gowren/internal/chaos"
	"gowren/internal/cos"
	"gowren/internal/retry"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/wire"
)

// Tests for completion-triggered fan-in (fanin.go). Everything is asserted
// in request counts, activation counts and simulated time.

// fanInEnv is an env whose function-side storage stack is counted, over a
// failure-free 2 ms link, with a trace recorder: the per-stage request
// budget is read off the counter, launches off the activation log.
type fanInEnv struct {
	*env
	fn    *cos.Stack // what runners and reducers asked of storage
	tr    *trace.Recorder
	epoch time.Time // the clock at construction
}

func newFanInEnv(t *testing.T, mutate func(*PlatformConfig)) *fanInEnv {
	t.Helper()
	fe := &fanInEnv{tr: trace.New(1 << 14)}
	fe.env = newEnvFull(t, func(cfg *PlatformConfig) {
		fe.fn = cos.NewCounting(cos.NewLinked(cfg.Store, cfg.Clock, constantLink(2*time.Millisecond)))
		cfg.Backend = fe.fn
		cfg.Trace = fe.tr
		if mutate != nil {
			mutate(cfg)
		}
	}, func(img *runtime.Image) {
		registerShuffleFunctions(t, img)
		// stagger finishes its partition (Index+1) × 50 ms after it starts,
		// so maps that start together do not commit together.
		err := img.RegisterMapPartition("stagger", func(ctx *runtime.Ctx, part *runtime.PartitionReader) (any, error) {
			if err := ctx.ChargeCompute(time.Duration(part.Partition().Index+1) * 50 * time.Millisecond); err != nil {
				return nil, err
			}
			return int(part.Size()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// kv/words-at-30s is kv/words held back until 30 s past the epoch, so
		// every map of a job emits — and, over the constant link, commits —
		// at the same simulated instant.
		words, err := img.KVMap("kv/words")
		if err != nil {
			t.Fatal(err)
		}
		err = img.RegisterKVMap("kv/words-at-30s", func(ctx *runtime.Ctx, part *runtime.PartitionReader) ([]wire.KV, error) {
			if err := ctx.ChargeCompute(fe.epoch.Add(30 * time.Second).Sub(ctx.Clock().Now())); err != nil {
				return nil, err
			}
			return words(ctx, part)
		})
		if err != nil {
			t.Fatal(err)
		}
		// bySize takes one second per byte of its partition.
		err = img.RegisterMapPartition("bySize", func(ctx *runtime.Ctx, part *runtime.PartitionReader) (any, error) {
			if err := ctx.ChargeCompute(time.Duration(part.Size()) * time.Second); err != nil {
				return nil, err
			}
			return int(part.Size()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	fe.epoch = fe.clk.Now()
	return fe
}

// seedObjects writes n objects of size bytes each into a fresh bucket.
func (fe *fanInEnv) seedObjects(t *testing.T, bucket string, n, size int) {
	t.Helper()
	if err := fe.store.CreateBucket(bucket); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := fe.store.Put(bucket, fmt.Sprintf("obj-%03d", i), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
}

// runnerActivations counts the activations of the default image's runner
// action: every map and reducer that ever started, copies included.
func (fe *fanInEnv) runnerActivations() int {
	n := 0
	for _, a := range fe.platform.Controller().Activations() {
		if a.Action == runnerActionName(runtime.DefaultImage) {
			n++
		}
	}
	return n
}

func (fe *fanInEnv) fanInEvents(containing string) int {
	n := 0
	for _, ev := range fe.tr.Events() {
		if ev.Kind == trace.KindFanIn && strings.Contains(ev.Detail, containing) {
			n++
		}
	}
	return n
}

// indexRebuilds counts the reducers that found no stage index and built
// one from the map statuses.
func (fe *fanInEnv) indexRebuilds() int {
	n := 0
	for _, ev := range fe.tr.Events() {
		if ev.Kind == trace.KindExchange && strings.Contains(ev.Detail, "op=index") && strings.Contains(ev.Detail, "rebuilt") {
			n++
		}
	}
	return n
}

func sumTotals(t *testing.T, raws []json.RawMessage) int {
	t.Helper()
	total := 0
	for _, r := range raws {
		var red struct {
			Total int `json:"total"`
		}
		if err := wire.Unmarshal(r, &red); err != nil {
			t.Fatal(err)
		}
		total += red.Total
	}
	return total
}

// TestFanInRequestBudgetPerObject is the 468/33-shaped job at small scale:
// 6 objects × 3 chunks, one reducer per object. Per stage the cloud side
// spends 1 LIST per map, 2 marker PUTs per group and nothing else on the
// barrier — and the client nothing at all.
func TestFanInRequestBudgetPerObject(t *testing.T) {
	const objects, chunks, chunk = 6, 3, 100
	fe := newFanInEnv(t, nil)
	fe.seedObjects(t, "cities", objects, chunks*chunk)
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		_, err := exec.MapReduce("stagger", Buckets{"cities"}, "sum", MapReduceOptions{ChunkBytes: chunk, ReducerOnePerObject: true})
		if err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		if got := sumTotals(t, results); len(results) != objects || got != objects*chunks*chunk {
			t.Errorf("%d reducers summed %d bytes, want %d reducers over %d", len(results), got, objects, objects*chunks*chunk)
		}
	})
	maps, reducers := objects*chunks, objects
	fn := fe.fn.Counts()
	if fn.ListOps != int64(maps) {
		t.Errorf("cloud-side LISTs = %d, want %d: one per map, none in a fan-in-launched reducer", fn.ListOps, maps)
	}
	// Every call commits one status; whatever else was PUT is marker traffic:
	// per group one won claim and one rewrite. A losing candidate would add a
	// refused conditional put, but stagger spaces a group's maps 50 ms apart
	// in compute, and the virtual clock runs one task at a time, so which
	// call draws which cold start is fixed by the seed on any core count: no
	// two of a group's statuses commit within one LIST round trip.
	groups := int64(reducers)
	if markers := fn.PutOps - int64(maps+reducers); markers != 2*groups {
		t.Errorf("marker PUTs = %d, want %d (claim + rewrite per group, no losing candidate)", markers, 2*groups)
	}
	if got := fe.fanInEvents("generation=1 launched="); got != reducers {
		t.Errorf("fan-in launches = %d, want %d: exactly one won claim per group", got, reducers)
	}
	// One status per input per reducer, and one target-span GET per group
	// at its launcher. Maps (stagger reads no data) and reducers read no
	// payload: it rode in their invocations.
	if want := int64(maps + reducers); fn.GetOps != want {
		t.Errorf("cloud-side GETs = %d, want %d", fn.GetOps, want)
	}
	if got := fe.runnerActivations(); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d (every reducer launched exactly once)", got, maps+reducers)
	}
	// The driver's backstop is free on the normal path: it fetched the
	// reducers' statuses and never looked at a marker.
	if client := exec.StorageOps(); client.GetOps != int64(reducers) {
		t.Errorf("client GETs = %d, want %d", client.GetOps, reducers)
	}
}

// TestFanInRequestBudgetShuffle is the 64×16-shaped job at small scale: one
// barrier over the whole map phase launches all R reducers, which read
// their slices of the M map statuses, whose frames follow the record line,
// through the stage index the launching map wrote.
func TestFanInRequestBudgetShuffle(t *testing.T) {
	const reducers = 4
	fe := newFanInEnv(t, nil)
	if err := fe.store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	docs := []string{"apple banana apple", "cherry date egg fig", "banana", "egg apple date banana egg", "fig fig", "grape"}
	for i, body := range docs {
		if _, err := fe.store.Put("corpus", fmt.Sprintf("doc-%d", i), []byte(strings.Repeat(body+" ", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		if _, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
		}
	})
	maps := len(docs)
	fn := fe.fn.Counts()
	if fn.ListOps != int64(maps) {
		t.Errorf("cloud-side LISTs = %d, want %d: one per map", fn.ListOps, maps)
	}
	// Per map and per reducer one status, one stage index; the rest is the
	// marker: one claim, one rewrite, one failed claim per losing candidate
	// (these maps do finish close together). A map writes no object beside
	// its status.
	markers := fn.PutOps - int64(maps+reducers+1)
	if markers < 2 || markers > 2+int64(maps-1) {
		t.Errorf("marker PUTs = %d, want 2 plus at most %d losing candidates", markers, maps-1)
	}
	// Per map its document; the launching map's head-range GETs of the
	// other statuses and its GET of its one target span; per reducer the
	// index and one ranged GET per map status. No call reads its payload:
	// each rode its invocation.
	if want := int64(maps + (maps - 1) + 1 + reducers*(1+maps)); fn.GetOps != want {
		t.Errorf("cloud-side GETs = %d, want %d", fn.GetOps, want)
	}
	listed, err := cos.ListAll(fe.store, fe.platform.MetaBucket(), "jobs/"+exec.ID()+"/shuffle/")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, o := range listed {
		keys = append(keys, strings.TrimPrefix(o.Key, "jobs/"+exec.ID()+"/shuffle/"))
	}
	if want := []string{"index/00000"}; !slices.Equal(keys, want) {
		t.Errorf("shuffle objects = %v, want %v: the index alone, no map or partition objects", keys, want)
	}
	if got := fe.runnerActivations(); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d", got, maps+reducers)
	}
	if got := fe.fanInEvents("generation=1 launched="); got != 1 {
		t.Errorf("fan-in launches = %d, want exactly 1", got)
	}
}

// TestFanInSameInstantFinish: 64 maps that commit at the same simulated
// instant all see the group complete; the marker lets exactly one of them
// launch, so exactly 16 reducers run. (make chaos runs it -race -count=20.)
func TestFanInSameInstantFinish(t *testing.T) {
	const maps, reducers = 64, 16
	fe := newFanInEnv(t, nil)
	if err := fe.store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maps; i++ {
		if _, err := fe.store.Put("corpus", fmt.Sprintf("doc-%02d", i), []byte("a b c d e f g h")); err != nil {
			t.Fatal(err)
		}
	}
	exec := fe.executor(t, nil)
	var results []json.RawMessage
	fe.clk.Run(func() {
		if _, err := exec.MapReduceShuffle("kv/words-at-30s", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Error(err)
			return
		}
		var err error
		if results, err = exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Error(err)
		}
	})
	words := 0
	for _, r := range results {
		var krs []wire.KeyResult
		if err := wire.Unmarshal(r, &krs); err != nil {
			t.Fatal(err)
		}
		for _, kr := range krs {
			if string(kr.Value) != fmt.Sprint(maps) {
				t.Errorf("word %s counted %s times, want %d", kr.Key, kr.Value, maps)
			}
			words++
		}
	}
	if words != 8 {
		t.Errorf("distinct words = %d, want 8", words)
	}
	if got := fe.runnerActivations(); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d: exactly %d reducers", got, maps+reducers, reducers)
	}
	if got := fe.fanInEvents("generation=1 launched="); got != 1 {
		t.Errorf("fan-in launches = %d, want exactly 1", got)
	}
	// The race was real: every map listed once, and more than one of them
	// saw the group complete and went for the marker.
	fn := fe.fn.Counts()
	if fn.ListOps != maps {
		t.Errorf("cloud-side LISTs = %d, want %d", fn.ListOps, maps)
	}
	// Per map and per reducer a status (a map writes no object beside it),
	// the stage index and the winner's claim and rewrite: the rest are
	// losing claims.
	if losers := fn.PutOps - int64(maps+reducers+1) - 2; losers < 1 || losers > maps-1 {
		t.Errorf("losing claims = %d, want between 1 and %d", losers, maps-1)
	}
}

// TestReducerStartedEarlyWaitsForInputs: a reducer invoked while its maps
// are still running (here by a manual respawn; the backstop, recovery and
// speculation start reducers the same way) finds a status missing, falls
// into the §4.3 poll-and-wait, and returns the right answer.
func TestReducerStartedEarlyWaitsForInputs(t *testing.T) {
	t.Run("reduce", func(t *testing.T) {
		fe := newFanInEnv(t, nil)
		exec := fe.executor(t, nil)
		fe.clk.Run(func() {
			futures, err := exec.MapReduce("busy", InlineValues{20, 30, 40}, "sum", MapReduceOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if err := exec.Respawn(futures); err != nil {
				t.Error(err)
				return
			}
			results, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
			if err != nil {
				t.Error(err)
				return
			}
			if got := sumTotals(t, results); got != 90 {
				t.Errorf("reduced total = %d, want 90", got)
			}
		})
		if lists := fe.fn.Counts().ListOps; lists <= 3 {
			t.Errorf("cloud-side LISTs = %d: the early reducer never polled for its inputs", lists)
		}
	})
	for _, transport := range []string{wire.ExchangeCOS, wire.ExchangeMemory, wire.ExchangeDirect} {
		t.Run("shuffle-"+transport, func(t *testing.T) {
			fe := newFanInEnv(t, func(cfg *PlatformConfig) {
				cfg.ColdStartBoot = 5 * time.Second // the maps are still booting when the early reducers run
			})
			if err := fe.store.CreateBucket("corpus"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := fe.store.Put("corpus", fmt.Sprintf("doc-%d", i), []byte("x y z x")); err != nil {
					t.Fatal(err)
				}
			}
			exec := fe.executor(t, nil)
			fe.clk.Run(func() {
				// Warm two containers so the respawned reducers start at once.
				if _, err := exec.Map("add7", []any{1, 2}); err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
					t.Error(err)
					return
				}
				futures, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: 2, Exchange: transport})
				if err != nil {
					t.Error(err)
					return
				}
				if err := exec.Respawn(futures); err != nil {
					t.Error(err)
					return
				}
				got := map[string]string{}
				for _, f := range futures {
					values, err := collectResults(exec, []*Future{f}, GetResultOptions{Timeout: time.Hour}, nil)
					if err != nil {
						t.Error(err)
						return
					}
					var krs []wire.KeyResult
					if err := wire.Unmarshal(values[0], &krs); err != nil {
						t.Error(err)
						return
					}
					for _, kr := range krs {
						got[kr.Key] = string(kr.Value)
					}
				}
				if want := map[string]string{"x": "6", "y": "3", "z": "3"}; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("counts = %v, want %v", got, want)
				}
			})
			if fallbacks := fe.platform.ExchangeOps(); transport != wire.ExchangeCOS && fallbacks.Memory.Fallbacks+fallbacks.Direct.Fallbacks != 0 {
				t.Errorf("early reducers fell back to COS/recompute (%+v) instead of waiting for their inputs", fallbacks)
			}
			if transport != wire.ExchangeCOS {
				return
			}
			// On COS the early reducers miss the stage index, wait for the
			// stage, and then read the index the launching map wrote.
			if lists := fe.fn.Counts().ListOps; lists <= 3 {
				t.Errorf("cloud-side LISTs = %d: the early reducers never polled for their inputs", lists)
			}
			if n := fe.indexRebuilds(); n != 0 {
				t.Errorf("%d reducers rebuilt the stage index instead of reading the launching map's", n)
			}
		})
	}
}

// TestFanInBackstopAfterLauncherKilled: the map that claims the marker dies
// before invoking anything. One grace period after the driver saw the group
// complete it reads the marker, finds a stale claim without activations,
// takes it over one generation up and launches the reducers itself — once.
func TestFanInBackstopAfterLauncherKilled(t *testing.T) {
	const objects = 3
	var fe *fanInEnv
	fe = newFanInEnv(t, func(cfg *PlatformConfig) {
		plan, err := chaos.NewPlan(cfg.Clock, 1, []chaos.Fault{{Kind: chaos.LauncherKill, Start: 0, End: time.Hour}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = plan
	})
	fe.seedObjects(t, "cities", objects, 100)
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		start := fe.clk.Now()
		futures, err := exec.MapReduce("stagger", Buckets{"cities"}, "sum", MapReduceOptions{ReducerOnePerObject: true})
		if err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		if got := sumTotals(t, results); got != objects*100 {
			t.Errorf("reduced total = %d, want %d", got, objects*100)
		}
		if took := fe.clk.Now().Sub(start); took < fanInGrace || took > 3*fanInGrace {
			t.Errorf("job took %v, want one to two grace periods (%v)", took, fanInGrace)
		}
		for _, f := range futures {
			body, _, err := fe.store.Get(fe.platform.MetaBucket(), fanInKey(exec.ID(), f.CallID()))
			if err != nil {
				t.Error(err)
				continue
			}
			var m wire.FanInMarker
			if err := wire.Unmarshal(body, &m); err != nil {
				t.Error(err)
				continue
			}
			if m.By != fanInDriver || m.Generation != 2 || len(m.ActivationIDs) != 1 || m.ActivationIDs[0] != f.ActivationID() {
				t.Errorf("marker of %s = %+v, want the driver's generation 2 holding %s", f.CallID(), m, f.ActivationID())
			}
		}
		if dead := exec.DeadLetters(); len(dead) != 0 {
			t.Errorf("dead letters: %+v", dead)
		}
	})
	if got := fe.runnerActivations(); got != 2*objects {
		t.Errorf("runner activations = %d, want %d: each reducer launched once, by the driver", got, 2*objects)
	}
	if got := fe.fanInEvents("launcher killed"); got != objects {
		t.Errorf("killed launchers = %d, want %d", got, objects)
	}
	// The backstop invokes with the ref alone: each reducer reads its
	// payload, then its one input's status. The killed launchers read no
	// target span.
	if got := fe.fn.Counts().GetOps; got != 2*objects {
		t.Errorf("cloud-side GETs = %d, want %d: a payload and a status per rescued reducer", got, 2*objects)
	}
}

// TestGetResultTimeoutNamesUncommittedInputs: when a wait gives up on a
// reducer nobody launched, the error says which map calls never committed.
func TestGetResultTimeoutNamesUncommittedInputs(t *testing.T) {
	fe := newFanInEnv(t, nil)
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		if _, err := exec.MapReduce("busy", InlineValues{1, 500, 2, 500}, "sum", MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
			return
		}
		for _, want := range []string{"never launched", "00001, 00003", "never committed a status"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})
}

// TestSpeculationLeavesGatedCallsAlone: three of four groups finish early,
// which arms speculation; the fourth reducer is pending only because its map
// is still running, so a speculative copy of it could do nothing but wait.
func TestSpeculationLeavesGatedCallsAlone(t *testing.T) {
	fe := newFanInEnv(t, nil)
	if err := fe.store.CreateBucket("cities"); err != nil {
		t.Fatal(err)
	}
	for key, size := range map[string]int{"a": 1, "b": 1, "c": 1, "d": 60} {
		if _, err := fe.store.Put("cities", key, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		if _, err := exec.MapReduce("bySize", Buckets{"cities"}, "sum", MapReduceOptions{ReducerOnePerObject: true}); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResultSpeculative(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		if got := sumTotals(t, results); got != 63 {
			t.Errorf("reduced total = %d, want 63", got)
		}
	})
	if got := fe.runnerActivations(); got != 8 {
		t.Errorf("runner activations = %d, want 8: no speculative copy of a reducer whose inputs were not in", got)
	}
}

// TestFanInNoSlotHoggingDeadlock: under massive spawning the reducers' small
// spawner group used to fire before the maps', so with fewer slots than
// reducers they held every slot waiting for maps that could never start.
// Reducers now start after their maps and the job completes. Remote invokers
// once held every slot of a small cloud too, retrying launches until they
// gave up and left their groups unlaunched; now a launcher retries briefly
// and the driver launches the rest without holding a slot — in Wait as in
// GetResult, since both wait through the loop that runs the backstop.
func TestFanInNoSlotHoggingDeadlock(t *testing.T) {
	const slots = 6
	// collect gathers the results of exec's tracked calls, either straight
	// through GetResult or after a Wait for all of them.
	type collect func(exec *Executor, timeout time.Duration) ([]json.RawMessage, error)
	collects := []struct {
		name    string
		collect collect
	}{
		{"get-result", func(exec *Executor, timeout time.Duration) ([]json.RawMessage, error) {
			return exec.GetResult(GetResultOptions{Timeout: timeout})
		}},
		{"wait", func(exec *Executor, timeout time.Duration) ([]json.RawMessage, error) {
			if _, _, err := exec.Wait(WaitAllCompleted, exec.clock.Now().Add(timeout)); err != nil {
				return nil, err
			}
			return exec.GetResult(GetResultOptions{Timeout: timeout})
		}},
	}
	t.Run("massive-spawning", func(t *testing.T) {
		for _, c := range collects {
			t.Run(c.name, func(t *testing.T) {
				const calls = 30
				fe := newFanInEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = 3 })
				exec := fe.executor(t, func(c *Config) {
					c.MassiveSpawning = true
					c.SpawnGroupSize = 10
					c.ControlLink = fe.platform.CloudLink()
				})
				fe.clk.Run(func() {
					start := fe.clk.Now()
					args := make([]any, calls)
					for i := range args {
						args[i] = i
					}
					if _, err := exec.Map("add7", args); err != nil {
						t.Error(err)
						return
					}
					results, err := c.collect(exec, 30*time.Minute)
					if err != nil {
						t.Error(err)
						return
					}
					for i, r := range results {
						if string(r) != fmt.Sprint(i+7) {
							t.Errorf("result[%d] = %s, want %d", i, r, i+7)
						}
					}
					if took := fe.clk.Now().Sub(start); took > time.Minute {
						t.Errorf("job took %v: it stalled on slots", took)
					}
				})
			})
		}
	})
	t.Run("reducer-per-object", func(t *testing.T) {
		for _, c := range collects {
			t.Run(c.name, func(t *testing.T) {
				const objects = 8 // > slots
				fe := newFanInEnv(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = slots })
				fe.seedObjects(t, "cities", objects, 100)
				exec := fe.executor(t, func(c *Config) {
					c.MassiveSpawning = true
					c.ControlLink = fe.platform.CloudLink()
				})
				fe.clk.Run(func() {
					start := fe.clk.Now()
					if _, err := exec.MapReduce("partitionLen", Buckets{"cities"}, "sum", MapReduceOptions{ReducerOnePerObject: true}); err != nil {
						t.Error(err)
						return
					}
					results, err := c.collect(exec, 10*time.Minute)
					if err != nil {
						t.Error(err)
						return
					}
					if got := sumTotals(t, results); len(results) != objects || got != objects*100 {
						t.Errorf("%d reducers summed %d, want %d over %d", len(results), got, objects, objects*100)
					}
					if took := fe.clk.Now().Sub(start); took > time.Minute {
						t.Errorf("job took %v: it stalled on slots", took)
					}
				})
			})
		}
	})
	t.Run("shuffle", func(t *testing.T) {
		e, want := newShuffleEnvWith(t, func(cfg *PlatformConfig) { cfg.MaxConcurrent = slots })
		exec := e.executor(t, func(c *Config) {
			c.MassiveSpawning = true
			c.ControlLink = e.platform.CloudLink()
		})
		e.clk.Run(func() {
			start := e.clk.Now()
			if _, err := exec.MapReduceShuffle("kv/words", Buckets{"corpus"}, "kv/sum", ShuffleOptions{NumReducers: slots + 2}); err != nil {
				t.Error(err)
				return
			}
			results, err := exec.GetResult(GetResultOptions{Timeout: 10 * time.Minute})
			if err != nil {
				t.Error(err)
				return
			}
			got := map[string]int{}
			for _, r := range results {
				var krs []wire.KeyResult
				if err := wire.Unmarshal(r, &krs); err != nil {
					t.Error(err)
					return
				}
				for _, kr := range krs {
					var n int
					if err := wire.Unmarshal(kr.Value, &n); err != nil {
						t.Error(err)
						return
					}
					got[kr.Key] = n
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("counts = %v, want %v", got, want)
			}
			if took := e.clk.Now().Sub(start); took > time.Minute {
				t.Errorf("job took %v: it stalled on slots", took)
			}
		})
	})
}

// TestFanInRangesStayContiguous: naming an object twice still gives every
// reducer group one contiguous call-ID range (what a barrier lists), and the
// job reduces each object once over all of its partitions.
func TestFanInRangesStayContiguous(t *testing.T) {
	fe := newFanInEnv(t, nil)
	fe.seedObjects(t, "cities", 2, 100)
	exec := fe.executor(t, nil)
	fe.clk.Run(func() {
		src := ObjectKeys{Bucket: "cities", Keys: []string{"obj-000", "obj-001", "obj-000"}}
		if _, err := exec.MapReduce("partitionLen", src, "sum", MapReduceOptions{ReducerOnePerObject: true}); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		var totals []int
		for _, r := range results {
			totals = append(totals, sumTotals(t, []json.RawMessage{r}))
		}
		if !slices.Equal(totals, []int{200, 100}) {
			t.Errorf("per-object totals = %v, want [200 100]", totals)
		}
	})
}

// TestMapPhaseFailureLeavesNothingTracked: when the maps cannot be launched
// the reducers staged behind them will never start; they must not be
// tracked (or journaled) and keep the executor's next GetResult waiting.
func TestMapPhaseFailureLeavesNothingTracked(t *testing.T) {
	fe := newFanInEnv(t, func(cfg *PlatformConfig) {
		plan, err := chaos.NewPlan(cfg.Clock, 1, []chaos.Fault{{Kind: chaos.ControllerOutage, Start: 0, End: time.Minute}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = plan
	})
	exec := fe.executor(t, nil)
	policy := invokeRetryPolicy
	policy.MaxAttempts = 2
	exec.invokeRetry = retry.New(fe.clk, policy, retryableCall, retry.WithSeed(1))
	fe.clk.Run(func() {
		if _, err := exec.MapReduce("add7", InlineValues{1, 2}, "sum", MapReduceOptions{}); err == nil {
			t.Error("map_reduce through a controller outage succeeded")
			return
		}
		if n := len(exec.Futures()); n != 0 {
			t.Errorf("%d futures still tracked after the failed launch", n)
		}
		fe.clk.Sleep(time.Minute) // the outage lifts
		if _, err := exec.Map("add7", []any{5}); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{Timeout: time.Minute})
		if err != nil || len(results) != 1 || string(results[0]) != "12" {
			t.Errorf("results = %s, %v; want [12]", results, err)
		}
	})
}
