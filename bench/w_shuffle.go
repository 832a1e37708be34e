package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"gowren"
)

// The shuffle at full scale: 64 maps × 16 reducers, every map emitting 256
// keys of ~1 KiB, so partitions average 16 KiB, there are 1,024 of them, and
// 16 MiB crosses the exchange.
const (
	shuffleMaps       = 64
	shuffleReducers   = 16
	shuffleKeys       = 256
	shuffleValueBytes = 1024
)

// shuffleArm is one exchange configuration the same shuffle runs under.
type shuffleArm struct {
	name      string // metric suffix
	transport string
	smallHalf bool // cache sized to half the shuffled volume, so it evicts and spills
}

var shuffleArms = []shuffleArm{
	{name: "cos", transport: gowren.ExchangeCOS},
	{name: "memory", transport: gowren.ExchangeMemory},
	{name: "direct", transport: gowren.ExchangeDirect},
	{name: "smallcache", transport: gowren.ExchangeMemory, smallHalf: true},
}

// shuffleValueLen is the length of the value map `doc` emits for key `key`:
// seeded, uneven, averaging shuffleValueBytes. The harness and the map
// function both compute it, which is how the per-key sums are checked.
func shuffleValueLen(seed int64, doc, key int) int {
	h := uint64(repSeed(seed, doc*100003+key))
	return shuffleValueBytes/2 + int(h%uint64(shuffleValueBytes+1))
}

func shuffleKey(i int) string { return fmt.Sprintf("k-%05d", i) }

func registerShuffle(img *gowren.Image) error {
	err := gowren.RegisterKVMapFunc(img, "bench/shuffle-gen", func(_ *gowren.Ctx, part *gowren.PartitionReader) ([]gowren.KV, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		var seed int64
		var doc, keys int
		if _, err := fmt.Sscanf(string(data), "%d %d %d", &seed, &doc, &keys); err != nil {
			return nil, fmt.Errorf("bad shuffle input %q: %w", data, err)
		}
		out := make([]gowren.KV, 0, keys)
		for i := 0; i < keys; i++ {
			kv, err := gowren.EmitKV(shuffleKey(i), strings.Repeat("x", shuffleValueLen(seed, doc, i)))
			if err != nil {
				return nil, err
			}
			out = append(out, kv)
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	return gowren.RegisterKVReduceFunc(img, "bench/shuffle-len", func(_ *gowren.Ctx, _ string, values []string) (int, error) {
		total := 0
		for _, v := range values {
			total += len(v)
		}
		return total, nil
	})
}

// repShuffle runs the same seeded shuffle once under each exchange
// configuration, each in a fresh cloud, and checks that all four return the
// same bytes.
func repShuffle(rc *repCtx) error {
	maps := rc.scaled(shuffleMaps, 4)
	reducers := rc.scaled(shuffleReducers, 2)
	keys := rc.scaled(shuffleKeys, 8)
	want := make([]int, keys)
	var volume int
	for k := range want {
		for d := 0; d < maps; d++ {
			want[k] += shuffleValueLen(rc.seed, d, k)
		}
		volume += want[k]
	}

	type armRun struct {
		js  jobSpec
		jo  jobOutcome
		sha string
		xo  gowren.ExchangeOpCounts
		wr  time.Duration
		rd  time.Duration
	}
	runs := make([]armRun, len(shuffleArms))
	for i, arm := range shuffleArms {
		setupStart := hostNow()
		cfg := gowren.SimConfig{Seed: rc.seed, TraceCapacity: rc.traceCapacity()}
		if arm.smallHalf {
			cfg.ExchangeCacheMB = volume >> 21 // half the volume, in MiB
			if cfg.ExchangeCacheMB < 1 {
				cfg.ExchangeCacheMB = 1
			}
		}
		cloud, err := workloadCloud(cfg, registerShuffle)
		if err != nil {
			return err
		}
		if err := cloud.Store().CreateBucket("input"); err != nil {
			return err
		}
		for d := 0; d < maps; d++ {
			doc := fmt.Sprintf("%d %d %d", rc.seed, d, keys)
			if _, err := cloud.Store().Put("input", fmt.Sprintf("doc-%03d", d), []byte(doc)); err != nil {
				return err
			}
		}
		run := &runs[i]
		run.js = jobSpec{
			id:    fmt.Sprintf("shuffle-%s-%d", arm.name, rc.seed),
			cloud: cloud,
			calls: maps + reducers,
			submit: func(exec *gowren.Executor) error {
				_, err := exec.MapReduceShuffle("bench/shuffle-gen", gowren.FromBuckets("input"), "bench/shuffle-len",
					gowren.ShuffleOptions{NumReducers: reducers, Exchange: arm.transport})
				return err
			},
			collect: func(exec *gowren.Executor) error {
				results, err := gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: time.Hour})
				if err != nil {
					return err
				}
				if len(results) != keys {
					return fmt.Errorf("shuffle %s: %d distinct keys, want %d", arm.name, len(results), keys)
				}
				for k, kr := range results {
					var n int
					if err := json.Unmarshal(kr.Value, &n); err != nil {
						return err
					}
					if kr.Key != shuffleKey(k) || n != want[k] {
						return fmt.Errorf("shuffle %s: key %s summed to %d, want %s = %d", arm.name, kr.Key, n, shuffleKey(k), want[k])
					}
				}
				blob, err := json.Marshal(results)
				if err != nil {
					return err
				}
				sum := sha256.Sum256(blob)
				run.sha = hex.EncodeToString(sum[:])
				return nil
			},
		}
		var warmErr error
		cloud.Run(func() {
			if warmErr = warmPlatform(cloud); warmErr != nil {
				return
			}
			rc.setupDone(setupStart)
			run.jo = rc.runJob(run.js)
			xs := cloud.Platform().Exchange().Spans()
			run.wr, run.rd = xs.Write(), xs.Read()
		})
		if warmErr != nil {
			return warmErr
		}
		run.xo = cloud.ExchangeOps()
		if run.jo.err == nil && run.sha != runs[0].sha {
			run.jo.err = fmt.Errorf("shuffle %s: result hash %s differs from the COS run's %s", arm.name, run.sha, runs[0].sha)
		}
		rc.out.op(run.jo.err)
	}
	for _, run := range runs {
		if run.jo.err != nil {
			return nil
		}
	}

	// End to end, the memory tier's job time is gated under its own name and
	// the COS arm gives the request count and the cost. The COS arm's job time
	// is a layer metric: the client sees its results at a 50 ms poll, the
	// repetitions fall 21/31/17 % into the 1.19/1.24/1.29 s ticks, and their
	// median sits on the edge between two (ten-seed spread 1.1 %, 1.2 %,
	// 3.7 % in three sets, against a 3 % bound). About one job in twelve also
	// loses an invocation on the in-cloud link and waits out a 1 s retry,
	// which is why every arm's time is a median over the run's repetitions.
	// Host time and allocations cover the repetition's four jobs.
	rc.out.add("job_sim_s.memory", runs[1].jo.ws.simElapsed.Seconds())
	rc.countsFromWindow(runs[0].jo.ws, 1)
	suite := runs[0].jo
	for _, run := range runs[1:] {
		suite.ws = mergeWindows(suite.ws, run.jo.ws)
	}
	rc.hostFromWindow(suite.ws, 1)
	if !rc.layers {
		return nil
	}

	suiteSpec := runs[0].js
	suiteSpec.calls = len(runs) * (maps + reducers)
	rc.jobLayers(suiteSpec, suite)
	out := rc.out
	for i, arm := range shuffleArms {
		run := runs[i]
		if arm.name != "memory" { // the memory arm's is job_sim_s.memory
			out.add("exchange."+arm.name+".job_sim_s", run.jo.ws.simElapsed.Seconds())
		}
		out.add("exchange.write_sim_ms."+arm.name, float64(run.wr)/1e6)
		out.add("exchange.read_sim_ms."+arm.name, float64(run.rd)/1e6)
	}
	for i, tier := range []string{"memory", "direct"} {
		tc := runs[1].xo.Memory
		if i == 1 {
			tc = runs[2].xo.Direct
		}
		out.add("exchange."+tier+".put_ops", float64(tc.PutOps))
		out.add("exchange."+tier+".get_ops", float64(tc.GetOps))
		out.add("exchange."+tier+".fallbacks", float64(tc.Fallbacks))
		if reads := tc.Hits + tc.Misses; reads > 0 {
			out.add("exchange."+tier+".hit_share", float64(tc.Hits)/float64(reads))
		}
	}
	out.add("exchange.evictions", float64(runs[3].xo.Evictions))
	out.add("exchange.spills", float64(runs[3].xo.Spills))
	return nil
}

// mergeWindows adds two closed windows of separate clouds.
func mergeWindows(a, b windowStats) windowStats {
	a.simElapsed += b.simElapsed
	a.hostElapsed += b.hostElapsed
	a.mallocs += b.mallocs
	a.store.PutOps += b.store.PutOps
	a.store.GetOps += b.store.GetOps
	a.store.HeadOps += b.store.HeadOps
	a.store.ListOps += b.store.ListOps
	a.store.DeleteOps += b.store.DeleteOps
	a.store.BytesIn += b.store.BytesIn
	a.store.BytesOut += b.store.BytesOut
	a.acts = append(a.acts[:len(a.acts):len(a.acts)], b.acts...)
	a.helpers = append(a.helpers[:len(a.helpers):len(a.helpers)], b.helpers...)
	return a
}
