package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gowren/internal/billing"
	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/workloads"
)

// The interactive request every server_http client repeats: store an
// object, read it back, run a small map.
const (
	serverClients     = 2 // closed-loop clients, ≤ nproc of the reference box
	serverObjectBytes = 64 << 10
	serverMapCalls    = 8
	serverTaskSeconds = 0.02
	serverKeysPerConn = 16  // objects each client cycles through
	serverSetups      = 2   // server builds + starts per repetition; setup_s is their median
	serverRepSeconds  = 3.5 // host seconds of socket load per repetition
	// serverCostSampleJobs is how many of a repetition's newest jobs have
	// their activation records fetched to price the function time of a job.
	serverCostSampleJobs = 100
)

// serverProc is a running gowren-server subprocess.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// startServer builds cmd/gowren-server into outDir and starts it on a free
// loopback port, returning once /healthz answers.
func startServer(outDir string, seed int64) (*serverProc, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(outDir) {
		outDir = filepath.Join(root, outDir)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	bin := filepath.Join(outDir, "gowren-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/gowren-server")
	build.Dir = root
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build gowren-server: %v: %s", err, msg)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-seed", fmt.Sprint(seed))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gowren-server: %w", err)
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { sp.done <- cmd.Wait() }()
	deadline := hostNow().Add(10 * time.Second)
	for {
		resp, err := http.Get(sp.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, nil
			}
		}
		select {
		case werr := <-sp.done:
			return nil, fmt.Errorf("gowren-server exited during start-up: %v", werr)
		default:
		}
		if hostNow().After(deadline) {
			sp.stop()
			return nil, errors.New("gowren-server did not become healthy within 10 s")
		}
		time.Sleep(5 * time.Millisecond) //gowren:allow clockcheck — host-time wait for a subprocess to listen
	}
}

// stop kills the server and waits until it has ended.
func (sp *serverProc) stop() {
	if sp.cmd.Process != nil {
		_ = sp.cmd.Process.Kill() // already-exited is fine: the wait below reaps it either way
	}
	<-sp.done
}

type mapRequest struct {
	Function string    `json:"function"`
	Args     []float64 `json:"args"`
}

type mapResponse struct {
	Results []float64 `json:"results"`
}

// repServerHTTP is one repetition of the socket workload: set the server up
// (several times, for a steady setup_s), then drive it closed-loop from two
// clients. Everything reported is what the socket shows: round trips timed
// by the clients, the store's own request counters (GET /cos/stats) and the
// controller's activation records (GET /faas/api/v1/activations).
func repServerHTTP(rc *repCtx) error {
	var sp *serverProc
	for i := 0; i < serverSetups; i++ {
		if sp != nil {
			sp.stop()
		}
		setupStart := hostNow()
		var err error
		if sp, err = startServer(rc.outDir, rc.seed); err != nil {
			return err
		}
		// One warm request: the runtime image is pulled and a container is warm.
		if err := serverWarm(sp.base); err != nil {
			sp.stop()
			return err
		}
		rc.setupDone(setupStart)
		if rc.scale < 1 {
			break // smoke runs set up once
		}
	}
	defer sp.stop()

	budget := time.Duration(serverRepSeconds * rc.scale * float64(time.Second))
	if budget < 300*time.Millisecond {
		budget = 300 * time.Millisecond
	}
	type clientStats struct {
		mapMs, putMs, getMs, iterMs []float64
	}
	stats := make([]clientStats, serverClients)
	store0, err := serverStoreStats(sp.base)
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	var wg sync.WaitGroup
	loopStart := hostNow()
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
			defer hc.CloseIdleConnections()
			store := cos.NewHTTPClient(sp.base+"/cos", hc)
			bucket := fmt.Sprintf("bench-%d", c)
			if err := store.CreateBucket(bucket); err != nil {
				rc.out.op(err)
				return
			}
			rng := rand.New(rand.NewSource(rc.seed + int64(c)))
			body := make([]byte, serverObjectBytes)
			for i := 0; hostSince(loopStart) < budget; i++ {
				rng.Read(body)
				key := fmt.Sprintf("obj-%02d", i%serverKeysPerConn)
				// The socket path runs on the wall clock, so that is the
				// clock of its spans.
				job := fmt.Sprintf("http-%d-c%d-%05d", rc.seed, c, i)
				t0 := hostNow()
				root := rc.spans.begin(job, spanJob, t0)
				_, err := store.Put(bucket, key, body)
				t1 := hostNow()
				rc.out.op(err)
				got, _, err := store.Get(bucket, key)
				t2 := hostNow()
				if err == nil && !bytes.Equal(got, body) {
					err = fmt.Errorf("server_http: GET %s/%s returned different bytes", bucket, key)
				}
				rc.out.op(err)
				err = serverMap(hc, sp.base)
				t3 := hostNow()
				rc.out.op(err)
				if root != 0 {
					rc.spans.addSim(job, "server.cos_put", "", t0, t1, false)
					rc.spans.addSim(job, "server.cos_get", "", t1, t2, false)
					rc.spans.addSim(job, "server.map", "", t2, t3, false)
					rc.spans.end(root, t3)
				}
				st.putMs = append(st.putMs, t1.Sub(t0).Seconds()*1e3)
				st.getMs = append(st.getMs, t2.Sub(t1).Seconds()*1e3)
				st.mapMs = append(st.mapMs, t3.Sub(t2).Seconds()*1e3)
				st.iterMs = append(st.iterMs, t3.Sub(t0).Seconds()*1e3)
			}
		}(c)
	}
	wg.Wait()
	loopHost := hostSince(loopStart)
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0
	store1, err := serverStoreStats(sp.base)
	if err != nil {
		return err
	}

	var mapMs, putMs, getMs, iterMs []float64
	for _, st := range stats {
		mapMs = append(mapMs, st.mapMs...)
		putMs = append(putMs, st.putMs...)
		getMs = append(getMs, st.getMs...)
		iterMs = append(iterMs, st.iterMs...)
	}
	if len(mapMs) == 0 {
		return errors.New("server_http: no request completed")
	}
	// A job is one iteration: PUT, GET, and a map of serverMapCalls calls.
	jobs := float64(len(mapMs))
	calls := jobs * serverMapCalls
	writes := float64(store1.PutOps - store0.PutOps)
	reads := float64(store1.GetOps - store0.GetOps + store1.HeadOps - store0.HeadOps + store1.ListOps - store0.ListOps)
	deletes := float64(store1.DeleteOps - store0.DeleteOps)
	sample, err := serverActivations(sp.base, serverCostSampleJobs*serverMapCalls)
	if err != nil {
		return err
	}
	if len(sample) == 0 {
		return errors.New("server_http: the controller lists no finished activation")
	}
	prices := billing.IBMCloud2018()
	functionUSD := billing.MeterActivations(sample, 0).GBSeconds / float64(len(sample)) * serverMapCalls * prices.GBSecondUSD
	storageUSD := (writes*prices.StorageWriteUSD + reads*prices.StorageReadUSD) / jobs

	out := rc.out
	out.add("req_per_s", 3*jobs/loopHost.Seconds())
	out.add("latency_p50_ms", median(mapMs))
	out.add("latency_p95_ms", highPercentile(mapMs, 0.95))
	out.add("cos_requests_per_call", (writes+reads+deletes)/calls)
	out.add("cost_usd_per_job", functionUSD+storageUSD)
	// The server's heap is not visible from outside: these are the mallocs
	// of the load generator (cos.HTTPClient, the JSON job API) per call asked for.
	out.add("host_allocs_per_call", float64(mallocs)/calls)
	out.add(jobHostMs, median(iterMs))
	if !rc.layers {
		return nil
	}
	if p, ok := tailPercentile(mapMs, 0.99); ok {
		out.add("server.map_ms_p99", p)
	}
	out.add("host_calls_per_s", calls/loopHost.Seconds())
	out.add("server.cos_put_ms_p50", median(putMs))
	out.add("server.cos_get_ms_p50", median(getMs))
	out.add("server.healthz_ms_p50", serverHealthzFloor(sp.base))
	out.add("cos.put_ops", writes)
	out.add("cos.get_ops", float64(store1.GetOps-store0.GetOps))
	out.add("cos.head_ops", float64(store1.HeadOps-store0.HeadOps))
	out.add("cos.list_ops", float64(store1.ListOps-store0.ListOps))
	out.add("cos.delete_ops", deletes)
	out.add("cos.bytes_in", float64(store1.BytesIn-store0.BytesIn))
	out.add("cos.bytes_out", float64(store1.BytesOut-store0.BytesOut))
	out.add("billing.function_usd", functionUSD)
	out.add("billing.storage_usd", storageUSD)
	var cold int
	var waits, execs []float64
	for _, a := range sample {
		if a.ColdStart {
			cold++
		}
		// The server's clock runs at 20x the wall clock (TimeScale), and its
		// records are on that clock.
		waits = append(waits, float64(a.StartAt.Sub(a.SubmitAt))/1e6)
		execs = append(execs, a.EndAt.Sub(a.StartAt).Seconds())
	}
	out.add("faas.activations", calls)
	out.add("faas.cold_start_share", float64(cold)/float64(len(sample)))
	out.add("faas.queue_wait_sim_ms_p50", median(waits))
	out.add("faas.exec_sim_s_p50", median(execs))
	return nil
}

// serverStoreStats reads the store's request counters over the socket.
func serverStoreStats(base string) (cos.StatsSnapshot, error) {
	var snap cos.StatsSnapshot
	err := getJSON(base+"/cos/stats", &snap)
	return snap, err
}

// serverActivations lists the newest finished runner activations, at most
// limit of them, through the server's OpenWhisk-style API.
func serverActivations(base string, limit int) ([]faas.Activation, error) {
	var acts []faas.Activation
	if err := getJSON(fmt.Sprintf("%s/faas/api/v1/activations?done=true&limit=%d", base, limit), &acts); err != nil {
		return nil, err
	}
	runners := acts[:0]
	for _, a := range acts {
		if strings.HasPrefix(a.Action, runnerPrefix) {
			runners = append(runners, a)
		}
	}
	return runners, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func serverWarm(base string) error {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	return serverMap(hc, base)
}

// serverMap posts the 8-call map and checks every result.
func serverMap(hc *http.Client, base string) error {
	args := make([]float64, serverMapCalls)
	for i := range args {
		args[i] = serverTaskSeconds
	}
	body, err := json.Marshal(mapRequest{Function: workloads.FuncComputeBound, Args: args})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server_http: POST /v1/map: %s", resp.Status)
	}
	var mr mapResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return err
	}
	return checkAll("server_http: POST /v1/map", mr.Results, serverMapCalls, serverTaskSeconds)
}

// serverHealthzFloor is the HTTP floor of the server: the median round trip
// of its cheapest endpoint over a kept-alive connection.
func serverHealthzFloor(base string) float64 {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var ms []float64
	for i := 0; i < 200; i++ {
		t0 := hostNow()
		resp, err := hc.Get(base + "/healthz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		resp.Body.Close()
		ms = append(ms, hostSince(t0).Seconds()*1e3)
	}
	return median(ms)
}
