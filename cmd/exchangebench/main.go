// Command exchangebench profiles the shuffle data plane on the virtual
// clock, A/B-ing the three exchange transports (COS baseline, memory-tier
// cache, direct peer transfer) over two scenarios:
//
//   - latency: few maps, sizeable partitions — the bandwidth-and-RTT regime
//     where the fast tiers' in-datacenter links pay off in shuffle
//     makespan (the envelope of partition writes plus partition reads on
//     the simulation clock, excluding the status-sweep gap that is
//     identical across transports);
//
//   - ops: many maps × many reducers, tiny partitions — the op-count
//     regime where the COS baseline pays M×R PUTs and M×R GETs against
//     the object store and the fast tiers pay none.
//
//     exchangebench [-runs 3] [-seed 1] [-out BENCH_exchange.json]
//     [-minspeedup 0] [-minops 0]
//
// With -minspeedup s the command exits non-zero unless BOTH fast tiers cut
// the latency scenario's p50 shuffle makespan by at least s×; with -minops
// r it exits non-zero unless both tiers cut the ops scenario's COS PUT+GET
// count by at least r×. LIST/HEAD coordination traffic is reported
// separately — it is the same sweep machinery under every transport. Every
// mode set runs twice and the run digests must be bit-identical, so the
// published numbers are reproducible by construction. CI runs s=1.5, r=5.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"gowren"
	"gowren/internal/billing"
	"gowren/internal/faas"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exchangebench:", err)
		os.Exit(1)
	}
}

// scenario is one shuffle shape: maps × reducers, each map emitting keys
// shared values of valueBytes each, so every reducer partition holds
// keys/reducers entries and each reduced key sums to maps×valueBytes.
type scenario struct {
	Name       string `json:"name"`
	Maps       int    `json:"maps"`
	Reducers   int    `json:"reducers"`
	Keys       int    `json:"keys"`
	ValueBytes int    `json:"valueBytes"`
}

var scenarios = []scenario{
	// ~800 KB out of every map, ~200 KB per partition: transfer-dominated.
	{Name: "latency", Maps: 12, Reducers: 4, Keys: 800, ValueBytes: 1024},
	// 720 partitions of a few hundred bytes: request-count-dominated.
	{Name: "ops", Maps: 60, Reducers: 12, Keys: 24, ValueBytes: 32},
}

var transports = []string{gowren.ExchangeCOS, gowren.ExchangeMemory, gowren.ExchangeDirect}

// runRecord is one measured job under one (scenario, transport, seed).
type runRecord struct {
	Seed       int64 `json:"seed"`
	MakespanNs int64 `json:"makespanNs"`
	WriteNs    int64 `json:"writeNs"`
	ReadNs     int64 `json:"readNs"`
	CosPutOps  int64 `json:"cosPutOps"`
	CosGetOps  int64 `json:"cosGetOps"`
	CosListOps int64 `json:"cosListOps"`
	TierPutOps int64 `json:"tierPutOps"`
	TierGetOps int64 `json:"tierGetOps"`
	Fallbacks  int64 `json:"fallbacks"`
	Spills     int64 `json:"spills"`
	// RequestsPerCall is every COS request of the job (PUT, GET, HEAD, LIST,
	// DELETE; client and functions) per map or reduce call; CostUSD bills the
	// job's GB-seconds and storage requests at the paper-era price table.
	RequestsPerCall float64 `json:"requestsPerCall"`
	CostUSD         float64 `json:"costUsd"`
	ResultsSHA      string  `json:"resultsSha"`
}

// modeReport aggregates one transport's runs within a scenario.
type modeReport struct {
	Runs          []runRecord `json:"runs"`
	P50MakespanMs float64     `json:"p50MakespanMs"`
	P50CosPutGet  int64       `json:"p50CosPutGet"`
	Digest        string      `json:"digest"`
}

type scenarioReport struct {
	scenario
	Modes map[string]modeReport `json:"modes"`
	// MakespanSpeedup and CosOpReduction are COS ÷ fast-tier p50s.
	MakespanSpeedup map[string]float64 `json:"makespanSpeedup"`
	CosOpReduction  map[string]float64 `json:"cosOpReduction"`
}

type report struct {
	Seed            int64                     `json:"seed"`
	RunsPerMode     int                       `json:"runsPerMode"`
	Scenarios       map[string]scenarioReport `json:"scenarios"`
	MinSpeedup      float64                   `json:"minSpeedup"`
	MinOpsReduction float64                   `json:"minOpsReduction"`
	Deterministic   bool                      `json:"deterministic"`
	RealSeconds     float64                   `json:"realSeconds"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("exchangebench", flag.ContinueOnError)
	runs := fs.Int("runs", 3, "measured runs per (scenario, transport)")
	seed := fs.Int64("seed", 1, "base simulation seed; run i uses seed+i")
	out := fs.String("out", "BENCH_exchange.json", "output JSON path")
	minSpeedup := fs.Float64("minspeedup", 0,
		"fail unless both fast tiers cut the latency-scenario p50 shuffle makespan at least this factor (0 disables)")
	minOps := fs.Float64("minops", 0,
		"fail unless both fast tiers cut the ops-scenario COS PUT+GET count at least this factor (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 1 {
		return fmt.Errorf("need at least 1 run per mode, got %d", *runs)
	}

	realStart := time.Now() //gowren:allow clockcheck — host CPU-time measurement of the simulation itself
	rep := report{
		Seed:            *seed,
		RunsPerMode:     *runs,
		Scenarios:       make(map[string]scenarioReport),
		MinSpeedup:      *minSpeedup,
		MinOpsReduction: *minOps,
		Deterministic:   true,
	}

	for _, sc := range scenarios {
		sr := scenarioReport{
			scenario:        sc,
			Modes:           make(map[string]modeReport),
			MakespanSpeedup: make(map[string]float64),
			CosOpReduction:  make(map[string]float64),
		}
		for _, transport := range transports {
			first, err := runMode(sc, transport, *seed, *runs)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", sc.Name, transport, err)
			}
			// Same seeds again: the simulation must reproduce every byte
			// of the measurement, or the published numbers are noise.
			second, err := runMode(sc, transport, *seed, *runs)
			if err != nil {
				return fmt.Errorf("%s/%s rerun: %w", sc.Name, transport, err)
			}
			if first.Digest != second.Digest {
				rep.Deterministic = false
			}
			sr.Modes[transport] = first
			fmt.Printf("%-8s %-7s p50 makespan=%9.3fms cos put+get=%-5d lists=%-5d req/call=%-5.1f usd=%.6f tier put/get=%d/%d digest=%s\n",
				sc.Name, transport, first.P50MakespanMs, first.P50CosPutGet,
				first.Runs[0].CosListOps, first.Runs[0].RequestsPerCall, first.Runs[0].CostUSD,
				first.Runs[0].TierPutOps, first.Runs[0].TierGetOps, first.Digest[:12])
		}
		base := sr.Modes[gowren.ExchangeCOS]
		for _, tier := range []string{gowren.ExchangeMemory, gowren.ExchangeDirect} {
			m := sr.Modes[tier]
			sr.MakespanSpeedup[tier] = ratio(base.P50MakespanMs, m.P50MakespanMs)
			sr.CosOpReduction[tier] = ratio(float64(base.P50CosPutGet), float64(m.P50CosPutGet))
			fmt.Printf("%-8s %-7s makespan speedup=%.1f× cos op reduction=%.1f×\n",
				sc.Name, tier, sr.MakespanSpeedup[tier], sr.CosOpReduction[tier])
		}
		rep.Scenarios[sc.Name] = sr
	}
	rep.RealSeconds = time.Since(realStart).Seconds() //gowren:allow clockcheck — host CPU-time measurement of the simulation itself

	body, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if !rep.Deterministic {
		return fmt.Errorf("same-seed reruns were not bit-identical")
	}
	lat, ops := rep.Scenarios["latency"], rep.Scenarios["ops"]
	for _, tier := range []string{gowren.ExchangeMemory, gowren.ExchangeDirect} {
		if *minSpeedup > 0 && lat.MakespanSpeedup[tier] < *minSpeedup {
			return fmt.Errorf("%s makespan speedup %.1f× below required %.1f×",
				tier, lat.MakespanSpeedup[tier], *minSpeedup)
		}
		if *minOps > 0 && ops.CosOpReduction[tier] < *minOps {
			return fmt.Errorf("%s cos op reduction %.1f× below required %.1f×",
				tier, ops.CosOpReduction[tier], *minOps)
		}
	}
	return nil
}

// ratio guards against a zero denominator: a mode that eliminated the
// metric entirely reports the numerator as the improvement factor.
func ratio(full, inc float64) float64 {
	if inc <= 0 {
		return full
	}
	return full / inc
}

// runMode executes runs measured jobs of one (scenario, transport) pair,
// each in a fresh cloud under seed+i, and folds them into a modeReport
// whose digest covers every measured byte.
func runMode(sc scenario, transport string, seed int64, runs int) (modeReport, error) {
	var m modeReport
	for i := 0; i < runs; i++ {
		rec, err := runOnce(sc, transport, seed+int64(i))
		if err != nil {
			return modeReport{}, fmt.Errorf("run %d: %w", i, err)
		}
		m.Runs = append(m.Runs, rec)
	}
	makespans := make([]int64, 0, runs)
	cosOps := make([]int64, 0, runs)
	for _, r := range m.Runs {
		makespans = append(makespans, r.MakespanNs)
		cosOps = append(cosOps, r.CosPutOps+r.CosGetOps)
	}
	sort.Slice(makespans, func(i, j int) bool { return makespans[i] < makespans[j] })
	sort.Slice(cosOps, func(i, j int) bool { return cosOps[i] < cosOps[j] })
	m.P50MakespanMs = float64(makespans[len(makespans)/2]) / 1e6
	m.P50CosPutGet = cosOps[len(cosOps)/2]
	blob, err := json.Marshal(m.Runs)
	if err != nil {
		return modeReport{}, err
	}
	sum := sha256.Sum256(blob)
	m.Digest = hex.EncodeToString(sum[:])
	return m, nil
}

// benchImage registers the synthetic shuffle pipeline: the map emits Keys
// shared keys carrying ValueBytes-sized string values (partition sizes are
// set exactly, compute cost is negligible), the reducer sums value lengths
// so every key must total maps×ValueBytes.
func benchImage() (*gowren.Image, error) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterKVMapFunc(img, "xb/gen", func(_ *gowren.Ctx, part *gowren.PartitionReader) ([]gowren.KV, error) {
		data, err := part.ReadAll()
		if err != nil {
			return nil, err
		}
		var keys, valBytes int
		if _, err := fmt.Sscanf(string(data), "%d %d", &keys, &valBytes); err != nil {
			return nil, fmt.Errorf("bad spec doc %q: %w", data, err)
		}
		value := make([]byte, valBytes)
		for i := range value {
			value[i] = 'x'
		}
		out := make([]gowren.KV, 0, keys)
		for i := 0; i < keys; i++ {
			kv, err := gowren.EmitKV(fmt.Sprintf("k-%05d", i), string(value))
			if err != nil {
				return nil, err
			}
			out = append(out, kv)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	err = gowren.RegisterFunc(img, "xb/warm", func(ctx *gowren.Ctx, i int) (int, error) {
		return i, ctx.ChargeCompute(time.Second + time.Duration(i)*50*time.Millisecond)
	})
	if err != nil {
		return nil, err
	}
	err = gowren.RegisterKVReduceFunc(img, "xb/len", func(_ *gowren.Ctx, _ string, values []string) (int, error) {
		total := 0
		for _, v := range values {
			total += len(v)
		}
		return total, nil
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

// warmUp leaves n warm containers behind: n overlapping calls, so each needs
// a container of its own, finishing 50 ms apart so that no two commit at the
// same instant. Every call of the measured job — on every transport — then
// starts warm; before reducers were launched by their stage's last map a
// two-map warm-up shuffle happened to leave four containers, enough for the
// fast tiers' short maps to reuse but not for the COS arm's longer ones,
// and the "makespan speedup" was mostly that arm's cold starts.
func warmUp(cloud *gowren.Cloud, n int) error {
	exec, err := cloud.Executor()
	if err != nil {
		return err
	}
	args := make([]any, n)
	for i := range args {
		args[i] = i
	}
	if _, err := exec.MapSlice("xb/warm", args); err != nil {
		return err
	}
	_, err = exec.GetResult(gowren.GetResultOptions{Timeout: time.Hour})
	return err
}

// runOnce measures one job: fresh cloud, a warm-up that takes container cold
// starts off the measured path, then the scenario job with the store
// counters and fabric spans snapshotted around it.
func runOnce(sc scenario, transport string, seed int64) (runRecord, error) {
	img, err := benchImage()
	if err != nil {
		return runRecord{}, err
	}
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images: []*gowren.Image{img},
		Seed:   seed,
	})
	if err != nil {
		return runRecord{}, err
	}
	store := cloud.Store()
	seedBucket := func(bucket string, docs, keys, valBytes int) error {
		if err := store.CreateBucket(bucket); err != nil {
			return err
		}
		spec := fmt.Sprintf("%d %d", keys, valBytes)
		for i := 0; i < docs; i++ {
			if _, err := store.Put(bucket, fmt.Sprintf("doc-%03d", i), []byte(spec)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := seedBucket("input", sc.Maps, sc.Keys, sc.ValueBytes); err != nil {
		return runRecord{}, err
	}

	var resultsSHA string
	job := func(bucket string, reducers int) error {
		exec, err := cloud.Executor()
		if err != nil {
			return err
		}
		if _, err := exec.MapReduceShuffle("xb/gen", gowren.FromBuckets(bucket), "xb/len", gowren.ShuffleOptions{
			NumReducers: reducers,
			Exchange:    transport,
		}); err != nil {
			return err
		}
		results, err := gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			return err
		}
		if len(results) != sc.Keys {
			return fmt.Errorf("distinct keys = %d, want %d", len(results), sc.Keys)
		}
		want := sc.Maps * sc.ValueBytes
		for _, kr := range results {
			var n int
			if err := json.Unmarshal(kr.Value, &n); err != nil {
				return err
			}
			if n != want {
				return fmt.Errorf("key %s summed to %d, want %d", kr.Key, n, want)
			}
		}
		blob, err := json.Marshal(results)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(blob)
		resultsSHA = hex.EncodeToString(sum[:])
		return nil
	}

	var rec runRecord
	var runErr error
	cloud.Run(func() {
		if err := warmUp(cloud, sc.Maps+sc.Reducers); err != nil {
			runErr = fmt.Errorf("warm-up: %w", err)
			return
		}
		fabric := cloud.Platform().Exchange()
		fabric.ResetSpans()
		jobStart := cloud.Clock().Now()
		preStore := store.Stats()
		preX := cloud.ExchangeOps()
		if err := job("input", sc.Reducers); err != nil {
			runErr = err
			return
		}
		spans := fabric.Spans()
		postStore := store.Stats()
		postX := cloud.ExchangeOps()
		var acts []faas.Activation
		for _, a := range cloud.Platform().Controller().Activations() {
			if !a.SubmitAt.Before(jobStart) {
				acts = append(acts, a)
			}
		}
		usage := billing.MeterActivations(acts, 0)
		usage.StorageWrites = postStore.PutOps - preStore.PutOps
		usage.StorageReads = postStore.GetOps + postStore.HeadOps + postStore.ListOps -
			(preStore.GetOps + preStore.HeadOps + preStore.ListOps)
		requests := usage.StorageWrites + usage.StorageReads + postStore.DeleteOps - preStore.DeleteOps
		rec = runRecord{
			Seed:       seed,
			MakespanNs: spans.DataPlane().Nanoseconds(),
			WriteNs:    spans.Write().Nanoseconds(),
			ReadNs:     spans.Read().Nanoseconds(),
			CosPutOps:  postStore.PutOps - preStore.PutOps,
			CosGetOps:  postStore.GetOps - preStore.GetOps,
			CosListOps: postStore.ListOps - preStore.ListOps,
			TierPutOps: postX.Memory.PutOps + postX.Direct.PutOps - preX.Memory.PutOps - preX.Direct.PutOps,
			TierGetOps: postX.Memory.GetOps + postX.Direct.GetOps - preX.Memory.GetOps - preX.Direct.GetOps,
			Fallbacks:  postX.Memory.Fallbacks + postX.Direct.Fallbacks - preX.Memory.Fallbacks - preX.Direct.Fallbacks,
			Spills:     postX.Spills - preX.Spills,

			RequestsPerCall: float64(requests) / float64(sc.Maps+sc.Reducers),
			CostUSD:         usage.Cost(billing.IBMCloud2018()),

			ResultsSHA: resultsSHA,
		}
	})
	if runErr != nil {
		return runRecord{}, runErr
	}
	return rec, nil
}
