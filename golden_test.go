package gowren_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gowren"
	"gowren/internal/billing"
	"gowren/internal/cos"
	"gowren/internal/experiments"
	"gowren/internal/traffic"
	"gowren/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.txt from this run")

// goldenCase is one whole simulated run pinned by a digest file.
type goldenCase struct {
	name string
	cfg  gowren.SimConfig
	// load seeds input buckets on the raw store before the run.
	load func(*gowren.Cloud) error
	// run drives the job inside cloud.Run. It returns what the job
	// computed and the executors whose client-side requests to count.
	run func(*gowren.Cloud) (any, []*gowren.Executor, error)
}

// TestGoldenRuns runs paper-shaped jobs on the virtual clock and compares
// each against testdata/golden/<case>.txt: the results hash, the end time,
// storage requests per layer and per op, billed usage, activations and
// cold starts, and hashes of the ordered write log and flight-recorder
// trace. A change that claims identical behaviour must leave every file
// byte-identical, at any GOMAXPROCS; `go test -run GoldenRuns -update .`
// rewrites them when behaviour is meant to change.
func TestGoldenRuns(t *testing.T) {
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			got := goldenDigest(t, c)
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("run differs from %s:\n%s", path, lineDiff(string(want), got))
			}
		})
	}
}

func goldenCases(t *testing.T) []goldenCase {
	paperImage := func() *gowren.Image {
		img := gowren.NewImage(gowren.DefaultRuntime, 0)
		if err := workloads.Register(img); err != nil {
			t.Fatal(err)
		}
		return img
	}
	fig2 := func(massive bool) func(*gowren.Cloud) (any, []*gowren.Executor, error) {
		return func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
			if err := goldenWarm(cloud); err != nil {
				return nil, nil, err
			}
			opts := []gowren.ExecutorOption{
				gowren.WithClientProfile(gowren.ClientWAN),
				gowren.WithInvokeConcurrency(experiments.WANClientThreads),
				gowren.WithStageConcurrency(experiments.WANStageConcurrency),
				gowren.WithClientOverhead(experiments.WANClientOverhead),
				gowren.WithPollInterval(experiments.ExperimentPollInterval),
			}
			if massive {
				opts = append(opts, gowren.WithMassiveSpawning(0))
			}
			exec, err := cloud.Executor(opts...)
			if err != nil {
				return nil, nil, err
			}
			args := make([]any, 100)
			for i := range args {
				args[i] = experiments.Fig2TaskSeconds
			}
			if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
				return nil, nil, err
			}
			res, err := gowren.Results[float64](exec, gowren.GetResultOptions{Timeout: time.Hour})
			return res, []*gowren.Executor{exec}, err
		}
	}
	shuffle := func(transport string) goldenCase {
		return goldenCase{
			name: "shuffle-" + transport + "-16x4",
			cfg:  gowren.SimConfig{Seed: 1, Images: []*gowren.Image{exchangeChaosImage(t)}},
			load: func(cloud *gowren.Cloud) error { return loadCorpus(cloud, 16) },
			run: func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
				exec, err := cloud.Executor()
				if err != nil {
					return nil, nil, err
				}
				if _, err := exec.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum",
					gowren.ShuffleOptions{NumReducers: 4, Exchange: transport}); err != nil {
					return nil, nil, err
				}
				res, err := gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: time.Hour})
				return res, []*gowren.Executor{exec}, err
			},
		}
	}
	return []goldenCase{
		{name: "fig2-local-100", cfg: gowren.SimConfig{Seed: 1, MaxConcurrent: 200, Jitter: true, Images: []*gowren.Image{paperImage()}}, run: fig2(false)},
		{name: "fig2-massive-100", cfg: gowren.SimConfig{Seed: 1, MaxConcurrent: 200, Jitter: true, Images: []*gowren.Image{paperImage()}}, run: fig2(true)},
		{
			name: "table3-4mib-sixteenth",
			cfg:  gowren.SimConfig{Seed: 1, MaxConcurrent: 1000, Jitter: true, Images: []*gowren.Image{paperImage()}},
			load: func(cloud *gowren.Cloud) error {
				_, err := workloads.LoadDataset(cloud.Store(), "airbnb", experiments.Table3DatasetBytes/16, 1)
				return err
			},
			run: func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
				if err := goldenWarm(cloud); err != nil {
					return nil, nil, err
				}
				exec, err := cloud.Executor(
					gowren.WithMassiveSpawning(0),
					gowren.WithClientOverhead(experiments.WANClientOverhead),
					gowren.WithPollInterval(experiments.ExperimentPollInterval),
					gowren.WithStageConcurrency(experiments.WANStageConcurrency),
				)
				if err != nil {
					return nil, nil, err
				}
				if _, err := exec.MapReduce(workloads.FuncToneMap, gowren.FromBuckets("airbnb"), workloads.FuncToneReduce,
					gowren.MapReduceOptions{ChunkBytes: 4 << 20, ReducerOnePerObject: true}); err != nil {
					return nil, nil, err
				}
				res, err := gowren.Results[workloads.CityMap](exec)
				return res, []*gowren.Executor{exec}, err
			},
		},
		shuffle(gowren.ExchangeCOS),
		shuffle(gowren.ExchangeMemory),
		shuffle(gowren.ExchangeDirect),
		{
			name: "openloop-8tenants-5s",
			cfg: gowren.SimConfig{
				Seed: 1, MaxConcurrent: 48, Images: []*gowren.Image{paperImage()},
				Admission: &gowren.AdmissionConfig{
					Default:    gowren.TenantQuota{Rate: 60, Burst: 120},
					QueueLimit: 1 << 20, MaxQueueDelay: time.Hour,
				},
			},
			run: goldenOpenLoop,
		},
		{
			name: "fig4-mergesort-depth2",
			cfg:  gowren.SimConfig{Seed: 1, MaxConcurrent: 4096, Jitter: true, Images: []*gowren.Image{paperImage()}},
			load: func(cloud *gowren.Cloud) error {
				if err := workloads.LoadArray(cloud.Store(), "arrays", "input", 200_000, 1); err != nil {
					return err
				}
				return cloud.Store().CreateBucket("sortout")
			},
			run: func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
				if err := goldenWarm(cloud); err != nil {
					return nil, nil, err
				}
				exec, err := cloud.Executor(gowren.WithClientProfile(gowren.ClientWAN))
				if err != nil {
					return nil, nil, err
				}
				task := workloads.SortTask{Bucket: "arrays", Key: "input", Count: 200_000, Depth: 2, OutBucket: "sortout"}
				if _, err := exec.CallAsync(workloads.FuncMergesort, task); err != nil {
					return nil, nil, err
				}
				seg, err := gowren.Result[workloads.Segment](exec)
				return seg, []*gowren.Executor{exec}, err
			},
		},
		{
			name: "chaos-launcher-kill",
			cfg: gowren.SimConfig{
				Seed: 9, Images: []*gowren.Image{exchangeChaosImage(t)},
				Chaos: []gowren.ChaosFault{{Kind: gowren.ChaosLauncherKill, Start: 0, End: time.Minute}},
			},
			load: func(cloud *gowren.Cloud) error { return loadCorpus(cloud, 12) },
			run: func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
				exec, err := cloud.Executor()
				if err != nil {
					return nil, nil, err
				}
				if _, err := exec.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum",
					gowren.ShuffleOptions{NumReducers: 4}); err != nil {
					return nil, nil, err
				}
				res, err := gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: time.Hour})
				return res, []*gowren.Executor{exec}, err
			},
		},
		{
			name: "chaos-cos-brownout",
			cfg: gowren.SimConfig{
				Seed: 42, CrashProb: 0.05, Images: []*gowren.Image{chaosImage(t)},
				Chaos: []gowren.ChaosFault{{Kind: gowren.ChaosCOSBrownout, Start: 3 * time.Second, End: 12 * time.Second, Probability: 0.9}},
			},
			run: func(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
				exec, err := cloud.Executor()
				if err != nil {
					return nil, nil, err
				}
				args := make([]any, 100)
				for i := range args {
					args[i] = i
				}
				if _, err := exec.MapSlice("work", args); err != nil {
					return nil, nil, err
				}
				res, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
				return res, []*gowren.Executor{exec}, err
			},
		},
	}
}

// goldenWarm makes one throwaway call so the runtime image is cached
// before the job, as the paper experiments do.
func goldenWarm(cloud *gowren.Cloud) error {
	exec, err := cloud.Executor()
	if err != nil {
		return err
	}
	if _, err := exec.CallAsync(workloads.FuncComputeBound, 0.0); err != nil {
		return err
	}
	_, err = gowren.Results[float64](exec, gowren.GetResultOptions{Timeout: time.Hour})
	return err
}

func loadCorpus(cloud *gowren.Cloud, docs int) error {
	corpus, _ := exchangeCorpus(docs)
	if err := cloud.Store().CreateBucket("corpus"); err != nil {
		return err
	}
	for key, body := range corpus {
		if _, err := cloud.Store().Put("corpus", key, []byte(body)); err != nil {
			return err
		}
	}
	return nil
}

// goldenOpenLoop offers 5 simulated seconds of seeded 8-tenant traffic,
// each arrival a 4-call job fired at its due instant, and returns every
// job's latency in arrival order.
func goldenOpenLoop(cloud *gowren.Cloud) (any, []*gowren.Executor, error) {
	if err := goldenWarm(cloud); err != nil {
		return nil, nil, err
	}
	tenants := make([]string, 8)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	const horizon = 5 * time.Second
	schedule, err := traffic.Generate(traffic.Config{
		Seed: 1, Tenants: tenants, Horizon: horizon, BaseRate: 9, ZipfS: 0.3, DiurnalAmplitude: 0.2,
		Bursts: []traffic.Burst{{Tenant: "tenant-2", Start: horizon / 3, End: 2 * horizon / 3, Factor: 5}},
	})
	if err != nil {
		return nil, nil, err
	}
	clk := cloud.Clock()
	start := clk.Now()
	latencies := make([]time.Duration, len(schedule))
	execs := make([]*gowren.Executor, len(schedule))
	errs := make([]error, len(schedule))
	for i, a := range schedule {
		cloud.Go(func() {
			clk.Sleep(start.Add(a.At).Sub(clk.Now()))
			exec, err := cloud.Executor(gowren.WithTenant(a.Tenant))
			if err != nil {
				errs[i] = err
				return
			}
			execs[i] = exec
			if _, err := exec.Map(workloads.FuncComputeBound, 0.5, 0.5, 0.5, 0.5); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = gowren.Results[float64](exec, gowren.GetResultOptions{Timeout: time.Hour})
			latencies[i] = clk.Now().Sub(start.Add(a.At))
		})
	}
	return latencies, execs, errors.Join(errs...)
}

// goldenDigest runs c on a fresh cloud and renders what it did.
func goldenDigest(t *testing.T, c goldenCase) string {
	cfg := c.cfg
	cfg.TraceCapacity = 1 << 18
	cloud, err := gowren.NewSimCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.load != nil {
		if err := c.load(cloud); err != nil {
			t.Fatal(err)
		}
	}
	clk := cloud.Clock()
	epoch := clk.Now()
	// Every committed write, in commit order, is the request log: reads
	// leave no trace in the store, but any reordering of the simulation
	// moves a write.
	var writes []string
	buckets, err := cloud.Store().ListBuckets()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		cancel := cloud.Store().Watch(b, "", func(key string, _ []byte) {
			writes = append(writes, fmt.Sprintf("%d PUT %s/%s", clk.Now().Sub(epoch), b, key))
		})
		defer cancel()
	}
	checkBodies := guardBodies(cloud.Store(), cloud.Platform().MetaBucket())
	var (
		result any
		execs  []*gowren.Executor
		runErr error
	)
	cloud.Run(func() { result, execs, runErr = c.run(cloud) })
	if runErr != nil {
		t.Fatal(runErr)
	}
	if err := checkBodies(); err != nil {
		t.Fatal(err)
	}
	end := clk.Now().Sub(epoch)

	var client struct{ put, get, head, list, del, bucket, listed, bytesOut, bytesIn int64 }
	for _, e := range execs {
		ops := e.Core().StorageOps()
		client.put += ops.PutOps
		client.get += ops.GetOps
		client.head += ops.HeadOps
		client.list += ops.ListOps
		client.del += ops.DeleteOps
		client.bucket += ops.BucketOps
		client.listed += ops.ObjectsListed
		client.bytesOut += ops.BytesOut
		client.bytesIn += ops.BytesIn
	}
	store := cloud.Store().Stats()
	acts := cloud.Platform().Controller().Activations()
	cold, failed := 0, 0
	for _, a := range acts {
		if a.ColdStart {
			cold++
		}
		if !a.OK {
			failed++
		}
	}
	usage := billing.MeterActivations(acts, 0)
	blob, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	ids := newIDNormalizer()
	events := cloud.Trace().Events()
	trace := make([]string, len(events))
	for i, ev := range events {
		trace[i] = ids.apply(fmt.Sprintf("%d %s %s %s", ev.At.Sub(epoch), ev.Kind, ev.Actor, ev.Detail))
	}
	for i := range writes {
		writes[i] = ids.apply(writes[i])
	}
	if d := cloud.Trace().Dropped(); d != 0 {
		t.Fatalf("flight recorder dropped %d events; raise its capacity", d)
	}

	var sb strings.Builder
	line := func(k string, v any) { fmt.Fprintf(&sb, "%s %v\n", k, v) }
	line("results_sha256", sha(string(blob)))
	line("end_sim_ns", int64(end))
	line("store_ops", fmt.Sprintf("put=%d get=%d head=%d list=%d delete=%d", store.PutOps, store.GetOps, store.HeadOps, store.ListOps, store.DeleteOps))
	line("store_bytes", fmt.Sprintf("in=%d out=%d", store.BytesIn, store.BytesOut))
	line("client_ops", fmt.Sprintf("put=%d get=%d head=%d list=%d delete=%d bucket=%d listed=%d", client.put, client.get, client.head, client.list, client.del, client.bucket, client.listed))
	line("client_bytes", fmt.Sprintf("out=%d in=%d", client.bytesOut, client.bytesIn))
	line("exchange_ops", fmt.Sprintf("%+v", cloud.ExchangeOps()))
	line("activations", fmt.Sprintf("total=%d cold=%d failed=%d", len(acts), cold, failed))
	line("billed", fmt.Sprintf("invocations=%d gb_s=%s compute_s=%s", usage.Invocations,
		strconv.FormatFloat(usage.GBSeconds, 'g', -1, 64), strconv.FormatFloat(usage.ComputeSeconds, 'g', -1, 64)))
	line("write_log", fmt.Sprintf("n=%d sha256=%s", len(writes), sha(strings.Join(writes, "\n"))))
	line("trace_log", fmt.Sprintf("n=%d sha256=%s", len(trace), sha(strings.Join(trace, "\n"))))
	return sb.String()
}

// guardBodies is the alias guard of a run: the platform's decoded records
// alias the bodies they were read from, so nothing may write into a body a
// GET handed out. Every body of bucket the store hands out from now on is
// hashed; check stops the guard and fails, naming the key, if a body no
// longer has its hash.
func guardBodies(store *cos.Store, bucket string) (check func() error) {
	type lent struct {
		key  string
		body []byte
		sum  [sha256.Size]byte
	}
	var (
		mu    sync.Mutex
		lents []lent
	)
	stop := store.WatchGets(bucket, "", func(key string, body []byte) {
		sum := sha256.Sum256(body)
		mu.Lock()
		lents = append(lents, lent{key, body, sum})
		mu.Unlock()
	})
	return func() error {
		stop()
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lents {
			if sha256.Sum256(l.body) != l.sum {
				return fmt.Errorf("the body a GET of %s/%s handed out was written after: a path wrote into a body it decoded", bucket, l.key)
			}
		}
		if len(lents) == 0 {
			return fmt.Errorf("the alias guard saw no GET of bucket %s", bucket)
		}
		return nil
	}
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// idNormalizer renames executor IDs to their order of first appearance in
// the run, and blanks ETags, which hash bodies that carry those IDs. Each
// platform numbers its own executors, so a run's IDs are the same whatever
// ran before it in the process; the renaming is kept only because dropping
// it rewrites every golden digest, which is a change of its own.
type idNormalizer struct {
	re, etag *regexp.Regexp
	names    map[string]string
}

func newIDNormalizer() *idNormalizer {
	return &idNormalizer{
		re:    regexp.MustCompile(`exec-\d{6}`),
		etag:  regexp.MustCompile(`"[0-9a-f]{32}"`),
		names: map[string]string{},
	}
}

func (n *idNormalizer) apply(s string) string {
	s = n.etag.ReplaceAllString(s, `"etag"`)
	return n.re.ReplaceAllStringFunc(s, func(id string) string {
		name, ok := n.names[id]
		if !ok {
			name = fmt.Sprintf("exec-#%d", len(n.names)+1)
			n.names[id] = name
		}
		return name
	})
}

// lineDiff lists the digest lines that differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			fmt.Fprintf(&sb, "  want %s\n  got  %s\n", a, b)
		}
	}
	return sb.String()
}
