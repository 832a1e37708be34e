package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"gowren/internal/cos"
	"gowren/internal/experiments"
	"gowren/internal/faas"
	gwruntime "gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
	"gowren/internal/workloads"
)

// Layer probes: micro-timings of each layer's public functions, in host
// time, run once per traced invocation. They are the per-layer numbers a
// simulator-speed change should move — and the ones a change to the modelled
// cloud should not.

// probe is one micro-timing: fn performs n operations.
type probe struct {
	metric string  // ns (or other unit, see scale) per operation
	allocs string  // optional: allocations per operation
	scale  float64 // multiplies ns/op into the metric's unit (0 = ns)
	batch  int
	fn     func(n int)
	// report, when set, replaces the mean with the probe's own statistic.
	report func() float64
}

// measure runs p in batches until budget is spent, after one warm batch,
// and returns time and allocations per operation.
func (p probe) measure(budget time.Duration) (nsPerOp, allocsPerOp float64) {
	p.fn(p.batch)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := hostNow()
	ops := 0
	for {
		p.fn(p.batch)
		ops += p.batch
		if hostSince(start) >= budget {
			break
		}
	}
	elapsed := hostSince(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(ms.Mallocs-mallocs0) / float64(ops)
}

// runProbes spends budget across the probes and records their metrics.
func runProbes(out *collector, budget time.Duration, scale float64) {
	probes, cleanup := buildProbes(scale)
	defer cleanup()
	each := budget / time.Duration(len(probes)+1)
	if each < 20*time.Millisecond {
		each = 20 * time.Millisecond
	}
	for _, p := range probes {
		// Smoke runs shrink the batches with everything else.
		if p.batch = int(float64(p.batch) * scale); p.batch < 1 {
			p.batch = 1
		}
		ns, allocs := p.measure(each)
		switch {
		case p.report != nil:
			out.add(p.metric, p.report())
		case p.scale != 0:
			out.add(p.metric, ns*p.scale)
		default:
			out.add(p.metric, ns)
		}
		if p.allocs != "" {
			out.add(p.allocs, allocs)
		}
	}
}

func buildProbes(scale float64) (probes []probe, cleanup func()) {

	// vclock: 1,000 tasks each sleeping — the scheduler's park/advance/wake
	// loop under fan-out — and a two-task event ping-pong.
	probes = append(probes, probe{metric: "vclock.sleep_host_ns", allocs: "vclock.sleep_allocs", batch: 100_000, fn: func(n int) {
		const tasks = 1000
		clk := vclock.NewVirtual()
		clk.Run(func() {
			for t := 0; t < tasks; t++ {
				d := time.Duration(t+1) * 10 * time.Microsecond
				clk.Go(func() {
					for i := 0; i <= n/tasks; i++ {
						clk.Sleep(d)
					}
				})
			}
		})
	}})
	probes = append(probes, probe{metric: "vclock.event_roundtrip_host_ns", batch: 20_000, fn: func(n int) {
		clk := vclock.NewVirtual()
		evt := vclock.NewEvent(clk)
		clk.Run(func() {
			turn := 0
			clk.Go(func() {
				for i := 0; i < n; i++ {
					evt.WaitFor(func() bool { return turn > i }, time.Time{})
				}
			})
			for i := 0; i < n; i++ {
				turn++
				evt.Signal()
				clk.Sleep(time.Microsecond)
			}
		})
	}})

	// cos.Store: small PUT, GET, and a resumed LIST on a 100k-key bucket.
	keys := int(100_000 * scale)
	if keys < 2000 {
		keys = 2000
	}
	store := cos.NewStore()
	mustDo(store.CreateBucket("b"))
	for i := 0; i < keys; i++ {
		_, err := store.Put("b", fmt.Sprintf("exec/status/%08d", i), nil)
		mustDo(err)
	}
	small := make([]byte, 256)
	probes = append(probes, probe{metric: "cos.store_put_host_ns", allocs: "cos.store_put_allocs", batch: 2000, fn: func(n int) {
		for i := 0; i < n; i++ {
			_, err := store.Put("b", fmt.Sprintf("exec/result/%08d", i%4096), small)
			mustDo(err)
		}
	}})
	probes = append(probes, probe{metric: "cos.store_get_host_ns", batch: 2000, fn: func(n int) {
		for i := 0; i < n; i++ {
			_, _, err := store.Get("b", fmt.Sprintf("exec/result/%08d", i%2000))
			mustDo(err)
		}
	}})
	probes = append(probes, probe{metric: "cos.store_listfrom_host_ns", batch: 500, fn: func(n int) {
		for i := 0; i < n; i++ {
			_, err := cos.ListFrom(store, "b", "exec/status/", fmt.Sprintf("exec/status/%08d", keys-10))
			mustDo(err)
		}
	}})

	// cos over HTTP: the REST dialect end to end, in process, 64 KiB bodies.
	httpStore := cos.NewStore()
	mustDo(httpStore.CreateBucket("b"))
	srv := httptest.NewServer(cos.Handler(httpStore))
	hc := &http.Client{}
	client := cos.NewHTTPClient(srv.URL, hc)
	body := make([]byte, serverObjectBytes)
	var putMs, getMs []float64
	cleanup = func() {
		hc.CloseIdleConnections()
		srv.Close()
	}
	probes = append(probes, probe{metric: "cos.http_put_ms_p50", report: func() float64 { return median(putMs) }, batch: 50, fn: func(n int) {
		for i := 0; i < n; i++ {
			t0 := hostNow()
			_, err := client.Put("b", fmt.Sprintf("obj-%02d", i%16), body)
			mustDo(err)
			putMs = append(putMs, hostSince(t0).Seconds()*1e3)
		}
	}})
	probes = append(probes, probe{metric: "cos.http_get_ms_p50", report: func() float64 { return median(getMs) }, batch: 50, fn: func(n int) {
		for i := 0; i < n; i++ {
			t0 := hostNow()
			_, _, err := client.Get("b", fmt.Sprintf("obj-%02d", i%16))
			mustDo(err)
			getMs = append(getMs, hostSince(t0).Seconds()*1e3)
		}
	}})

	// wire: the payload staged per call, and the status record polled per call.
	payload := &wire.CallPayload{
		ExecutorID: "exec-000001", CallID: "00000042", Runtime: "gowren-default:1", Function: workloads.FuncComputeBound,
		Kind: wire.KindPlain, Arg: json.RawMessage(`50`), MetaBucket: "gowren-meta", Tenant: "tenant-3",
	}
	encoded, err := wire.Marshal(payload)
	mustDo(err)
	status, err := wire.Marshal(&wire.StatusRecord{
		ExecutorID: "exec-000001", CallID: "00000042", OK: true, ActivationID: "act-0000000042",
		SubmitUnixNs: 1, StartUnixNs: 2, EndUnixNs: 3, Inline: json.RawMessage(`{"kind":"value","value":50}`),
	})
	mustDo(err)
	probes = append(probes, probe{metric: "wire.payload_encode_host_ns", batch: 2000, fn: func(n int) {
		for i := 0; i < n; i++ {
			_, err := wire.Marshal(payload)
			mustDo(err)
		}
	}})
	probes = append(probes, probe{metric: "wire.payload_decode_host_ns", batch: 2000, fn: func(n int) {
		for i := 0; i < n; i++ {
			var p wire.CallPayload
			mustDo(wire.Unmarshal(encoded, &p))
		}
	}})
	probes = append(probes, probe{metric: "wire.status_decode_host_ns", batch: 2000, fn: func(n int) {
		for i := 0; i < n; i++ {
			var s wire.StatusRecord
			mustDo(wire.Unmarshal(status, &s))
		}
	}})

	// faas: Controller.Invoke of a no-op action, through admission,
	// provisioning and completion, on the virtual clock.
	probes = append(probes, probe{metric: "faas.invoke_host_us", scale: 1e-3, batch: 2000, fn: func(n int) {
		clk := vclock.NewVirtual()
		reg := gwruntime.NewRegistry()
		mustDo(reg.Publish(gwruntime.NewImage(gwruntime.DefaultImage, 100)))
		ctrl, err := faas.New(faas.Config{Clock: clk, Registry: reg, Storage: cos.NewStore(), MaxConcurrent: -1, RetainActivations: 1024})
		mustDo(err)
		mustDo(ctrl.CreateAction(faas.ActionSpec{Name: "noop", Image: gwruntime.DefaultImage,
			Handler: func(*gwruntime.Ctx, []byte) ([]byte, error) { return []byte(`null`), nil }}))
		clk.Run(func() {
			for i := 0; i < n; i++ {
				_, err := ctrl.Invoke("noop", []byte(`{}`))
				mustDo(err)
			}
		})
	}})

	// workloads: the tone analyzer on a generated 1 MiB chunk.
	city := workloads.Cities(experiments.Table3DatasetBytes)[0]
	chunk := make([]byte, 1<<20)
	workloads.CityGenerator(city, 1).FillAt(0, chunk)
	probes = append(probes, probe{metric: "workloads.tone_host_ms_per_mb", scale: 1e-6, batch: 1, fn: func(n int) {
		for i := 0; i < n; i++ {
			counts, _ := workloads.AnalyzeTone(chunk, workloads.MaxPointsPerChunk)
			if counts.Records != int64(len(chunk)/workloads.RecordSize) {
				panic("bench: tone probe analysed the wrong number of records")
			}
		}
	}})

	return probes, cleanup
}

// mustDo panics on a probe set-up error: a probe that cannot run is a bug in
// the harness, not a measurement.
func mustDo(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: probe: %v", err))
	}
}
