package gowren_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"gowren"
	"gowren/internal/trace"
)

// exchangeChaosImage registers the KV pipeline the exchange fault tests
// run: a word-count map whose compute charge varies with partition size, so
// map completions stagger deterministically across the fault window — some
// partitions reach the fast tier before the kill, the rest land inside it.
func exchangeChaosImage(t *testing.T) *gowren.Image {
	t.Helper()
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterKVMapFunc(img, "xc/words", func(ctx *gowren.Ctx, part *gowren.PartitionReader) ([]gowren.KV, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		charge := time.Duration(1+len(data)%20) * 500 * time.Millisecond
		if err := ctx.ChargeCompute(charge); err != nil {
			return nil, err
		}
		var out []gowren.KV
		for _, w := range strings.Fields(string(data)) {
			kv, err := gowren.EmitKV(w, 1)
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
	err = gowren.RegisterKVReduceFunc(img, "xc/sum", func(_ *gowren.Ctx, _ string, values []int) (int, error) {
		sum := 0
		for _, v := range values {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// exchangeCorpus builds n deterministic documents of varying length (so the
// map compute charges spread) and the expected word counts.
func exchangeCorpus(n int) (map[string]string, map[string]int) {
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel"}
	docs := map[string]string{}
	want := map[string]int{}
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for w := 0; w < 5+(i*7)%23; w++ {
			word := vocab[(i+w)%len(vocab)]
			sb.WriteString(word)
			sb.WriteByte(' ')
			want[word]++
		}
		docs[fmt.Sprintf("doc-%03d", i)] = sb.String()
	}
	return docs, want
}

// exchangeChaosRun executes one shuffle on the given transport under the
// given fault window and returns the merged results, elapsed virtual time,
// the number of exchange fallback events traced, the dead-letter count, and
// the fabric accounting snapshot.
func exchangeChaosRun(t *testing.T, seed int64, transport string, maps, reducers int,
	fault gowren.ChaosFault) ([]gowren.KeyResult, time.Duration, int, int, gowren.ExchangeOpCounts) {
	t.Helper()
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:        []*gowren.Image{exchangeChaosImage(t)},
		Seed:          seed,
		TraceCapacity: 1 << 17,
		Chaos:         []gowren.ChaosFault{fault},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	docs, _ := exchangeCorpus(maps)
	store := cloud.Store()
	if err := store.CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	for key, body := range docs {
		if _, err := store.Put("corpus", key, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	var results []gowren.KeyResult
	var elapsed time.Duration
	var dead int
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		start := cloud.Clock().Now()
		_, err = exec.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum", gowren.ShuffleOptions{
			NumReducers: reducers,
			Exchange:    transport,
		})
		if err != nil {
			t.Errorf("shuffle: %v", err)
			return
		}
		results, err = gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: 24 * time.Hour})
		if err != nil {
			t.Errorf("shuffle results: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		dead = len(exec.DeadLetters())
	})
	fallbacks := 0
	for _, ev := range cloud.Trace().Events() {
		if ev.Kind == trace.KindExchange && strings.Contains(ev.Detail, "fallback=") {
			fallbacks++
		}
	}
	ops := cloud.ExchangeOps()
	cleanLeavesNothing(t, cloud, driven...)
	return results, elapsed, fallbacks, dead, ops
}

func checkExchangeCounts(t *testing.T, results []gowren.KeyResult, want map[string]int) {
	t.Helper()
	if len(results) != len(want) {
		t.Fatalf("distinct keys = %d, want %d", len(results), len(want))
	}
	for _, kr := range results {
		var n int
		if err := json.Unmarshal(kr.Value, &n); err != nil {
			t.Fatal(err)
		}
		if want[kr.Key] != n {
			t.Fatalf("count[%q] = %d, want %d", kr.Key, n, want[kr.Key])
		}
	}
}

// cacheDownFault kills the memory-tier cache from t=3s for the rest of the
// job: the first wave of map outputs reaches the cache and is flushed by
// the kill; everything after fails fast and degrades to synchronous COS
// writes. Reducers recompute the flushed partitions.
func cacheDownFault() gowren.ChaosFault {
	return gowren.ChaosFault{
		Kind:  gowren.ChaosExchangeCacheDown,
		Start: 3 * time.Second,
		End:   12 * time.Hour,
	}
}

// peerLossFault kills lingering direct-exchange producers from t=4s: early
// maps publish advertisements that are dropped before any reducer pulls,
// later maps fail publication outright and fall back to COS at write time.
func peerLossFault() gowren.ChaosFault {
	return gowren.ChaosFault{
		Kind:  gowren.ChaosExchangePeerLoss,
		Start: 4 * time.Second,
		End:   12 * time.Hour,
	}
}

func TestChaosExchangeCacheDownDegradesToCOS(t *testing.T) {
	// Acceptance: a 300-call memory-tier shuffle with the cache node
	// killed mid-job completes exactly — the kill costs the fast path,
	// never the answer — with zero dead letters.
	const maps, reducers = 280, 20
	_, want := exchangeCorpus(maps)
	results, _, fallbacks, dead, ops := exchangeChaosRun(t, 42, gowren.ExchangeMemory, maps, reducers, cacheDownFault())
	checkExchangeCounts(t, results, want)
	if dead != 0 {
		t.Fatalf("dead letters = %d, want 0", dead)
	}
	// The fault must actually have engaged the degradation path, or the
	// test proves nothing.
	if ops.Memory.PutOps == 0 {
		t.Fatal("no map output reached the cache before the kill")
	}
	if ops.Flushed == 0 {
		t.Fatal("cache kill flushed nothing; the fault window missed the job")
	}
	if ops.Memory.Fallbacks == 0 || fallbacks == 0 {
		t.Fatalf("no fallbacks recorded (counter=%d traced=%d)", ops.Memory.Fallbacks, fallbacks)
	}
}

func TestChaosExchangePeerLossDegradesToCOS(t *testing.T) {
	// Acceptance: a 200-call direct-transfer shuffle whose lingering
	// producers are killed before any reducer pulls completes exactly via
	// the COS/recompute fallback, with zero dead letters.
	const maps, reducers = 180, 20
	_, want := exchangeCorpus(maps)
	results, _, fallbacks, dead, ops := exchangeChaosRun(t, 42, gowren.ExchangeDirect, maps, reducers, peerLossFault())
	checkExchangeCounts(t, results, want)
	if dead != 0 {
		t.Fatalf("dead letters = %d, want 0", dead)
	}
	if ops.Direct.PutOps == 0 {
		t.Fatal("no advertisements published before the kill")
	}
	if ops.Expired == 0 {
		t.Fatal("peer loss dropped no advertisements; the fault window missed the job")
	}
	if ops.Direct.Fallbacks == 0 || fallbacks == 0 {
		t.Fatalf("no fallbacks recorded (counter=%d traced=%d)", ops.Direct.Fallbacks, fallbacks)
	}
}

func TestChaosExchangeDeterministicUnderSeed(t *testing.T) {
	// The degraded runs must stay same-seed bit-identical: identical
	// merged results, identical virtual elapsed, identical fallback
	// counts. Fault recovery is part of the simulation, not noise.
	scenarios := []struct {
		name      string
		transport string
		maps      int
		reducers  int
		fault     gowren.ChaosFault
	}{
		{"cache-down", gowren.ExchangeMemory, 120, 10, cacheDownFault()},
		{"peer-loss", gowren.ExchangeDirect, 120, 10, peerLossFault()},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			r1, e1, f1, d1, _ := exchangeChaosRun(t, 7, sc.transport, sc.maps, sc.reducers, sc.fault)
			r2, e2, f2, d2, _ := exchangeChaosRun(t, 7, sc.transport, sc.maps, sc.reducers, sc.fault)
			if e1 != e2 {
				t.Fatalf("elapsed diverged under same seed: %v vs %v", e1, e2)
			}
			if f1 != f2 || d1 != d2 {
				t.Fatalf("fallbacks/dead diverged: %d/%d vs %d/%d", f1, d1, f2, d2)
			}
			if len(r1) != len(r2) {
				t.Fatalf("result counts diverged: %d vs %d", len(r1), len(r2))
			}
			for i := range r1 {
				if r1[i].Key != r2[i].Key || string(r1[i].Value) != string(r2[i].Value) {
					t.Fatalf("result %d diverged: %s=%s vs %s=%s",
						i, r1[i].Key, r1[i].Value, r2[i].Key, r2[i].Value)
				}
			}
		})
	}
}
