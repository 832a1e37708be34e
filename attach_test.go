package gowren_test

import (
	"errors"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
)

// driverKillRun is the headline crash-recovery scenario: a 500-call map
// under container crashes and an early COS brownout, whose driver is killed
// after roughly a third of the job completes. All in-memory state — the
// executor, its futures, the respawn ledger — is discarded; a fresh driver
// attaches by job ID alone and finishes the job.
func driverKillRun(t *testing.T, seed int64) (results []int, elapsed time.Duration) {
	t.Helper()
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:    []*gowren.Image{chaosImage(t)},
		Seed:      seed,
		CrashProb: 0.05,
		Chaos: []gowren.ChaosFault{
			{
				Kind:        gowren.ChaosCOSBrownout,
				Start:       1 * time.Second,
				End:         3 * time.Second,
				Probability: 0.8,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		driver1, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		args := make([]any, 500)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		futs, err := driver1.MapSlice("work", args)
		if err != nil {
			t.Errorf("map: %v", err)
			return
		}
		// Drive the job to ~30% completion, then kill the driver. Only the
		// job ID survives — the durable manifest and journal carry the rest.
		if _, _, err := driver1.WaitThreshold(0.3, time.Hour); err != nil {
			t.Errorf("wait threshold: %v", err)
			return
		}
		jobID := driver1.JobID()

		driver2, err := cloud.Attach(jobID)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		results, err = gowren.Results[int](driver2, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		if dead := driver2.DeadLetters(); len(dead) != 0 {
			t.Errorf("recovery gave up on %d calls: %+v", len(dead), dead[0])
		}
		// The fencing epoch bumped on attach: the dead driver — were it
		// still alive — can no longer mutate job state, so completed calls
		// cannot be re-executed behind the new driver's back.
		if err := driver1.Respawn(futs[:1]); !errors.Is(err, gowren.ErrFenced) {
			t.Errorf("old driver respawn err = %v, want ErrFenced", err)
		}
	})
	return results, elapsed
}

func TestDriverKillAttachCompletesMap(t *testing.T) {
	results, _ := driverKillRun(t, 42)
	if len(results) != 500 {
		t.Fatalf("got %d results, want 500", len(results))
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*2)
		}
	}
}

func TestDriverKillDeterministicUnderSeed(t *testing.T) {
	r1, e1 := driverKillRun(t, 42)
	r2, e2 := driverKillRun(t, 42)
	if e1 != e2 {
		t.Fatalf("elapsed diverged under same seed: %v vs %v", e1, e2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("result counts diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("result %d diverged: %d vs %d", i, r1[i], r2[i])
		}
	}
}

func TestAttachReplayDeadLettersIdempotent(t *testing.T) {
	// Cross-driver replay: driver 1 dead-letters every call of a job whose
	// backend is down, then dies. Driver 2 attaches after the backend heals
	// and replays the dead letters. A third driver attaching afterwards must
	// neither double-execute the replacements nor resurrect the originals,
	// and the fenced first driver must not sneak its own replay in.
	var healed atomic.Bool
	var execs atomic.Int64
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterFunc(img, "guarded", func(_ *gowren.Ctx, x int) (int, error) {
		execs.Add(1)
		if !healed.Load() {
			return 0, errors.New("backend still down")
		}
		return x * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		driver1, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := driver1.Map("guarded", 1, 2, 3, 4); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		_, err = driver1.GetResult(gowren.GetResultOptions{
			Timeout:        time.Hour,
			PartialResults: true,
			Recovery:       &gowren.RecoveryOptions{MaxAttempts: 1},
		})
		var pe *gowren.PartialError
		if !errors.As(err, &pe) || len(pe.Failed) != 4 {
			t.Errorf("driver 1 err = %v, want PartialError with 4 failures", err)
			return
		}
		// 4 first attempts + 4 recovery attempts, all failed.
		if got := execs.Load(); got != 8 {
			t.Errorf("executions after driver 1 = %d, want 8", got)
		}
		jobID := driver1.JobID()

		// Driver 1 dies; the backend heals; driver 2 picks the job up and
		// replays the durable dead letters.
		healed.Store(true)
		driver2, err := cloud.Attach(jobID)
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		letters, err := driver2.PersistedDeadLetters()
		if err != nil || len(letters) != 4 {
			t.Errorf("persisted dead letters = %d (%v), want 4", len(letters), err)
			return
		}
		replayed, err := driver2.ReplayDeadLetters()
		if err != nil || len(replayed) != 4 {
			t.Errorf("replay = %d futures (%v), want 4", len(replayed), err)
			return
		}
		results, err := gowren.Results[int](driver2, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result after replay: %v", err)
			return
		}
		want := map[int]bool{10: true, 20: true, 30: true, 40: true}
		for _, r := range results {
			if !want[r] {
				t.Errorf("unexpected replay result %d", r)
			}
			delete(want, r)
		}
		if got := execs.Load(); got != 12 {
			t.Errorf("executions after replay = %d, want 12", got)
		}

		// The fenced first driver still holds the letters in memory; its
		// replay attempt must die at the lease checkpoint without launching.
		if _, err := driver1.ReplayDeadLetters(); !errors.Is(err, gowren.ErrFenced) {
			t.Errorf("old driver replay err = %v, want ErrFenced", err)
		}

		// A third driver sees the replay journal record: the originals are
		// superseded, the replacements already done. Nothing runs again.
		driver3, err := cloud.Attach(jobID)
		if err != nil {
			t.Errorf("attach driver 3: %v", err)
			return
		}
		if letters, err := driver3.PersistedDeadLetters(); err != nil || len(letters) != 0 {
			t.Errorf("driver 3 persisted letters = %d (%v), want 0", len(letters), err)
		}
		again, err := driver3.ReplayDeadLetters()
		if err != nil || again != nil {
			t.Errorf("driver 3 replay = %v, %v, want nil, nil", again, err)
		}
		results3, err := gowren.Results[int](driver3, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil || len(results3) != 4 {
			t.Errorf("driver 3 results = %v (%v), want the 4 replayed values", results3, err)
		}
		if got := execs.Load(); got != 12 {
			t.Errorf("executions after driver 3 = %d, want 12 (no re-execution)", got)
		}
	})
}

// keyRecorder counts a storage client's GETs and writes per key.
type keyRecorder struct {
	cos.Client
	mu  sync.Mutex
	ops map[string]int // "GET key" or "PUT key" -> count
}

func (r *keyRecorder) note(op, key string) {
	r.mu.Lock()
	if r.ops == nil {
		r.ops = make(map[string]int)
	}
	r.ops[op+" "+key]++
	r.mu.Unlock()
}

// snapshot returns the recorded requests.
func (r *keyRecorder) snapshot() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.ops)
}

func (r *keyRecorder) Get(bucket, key string) ([]byte, cos.ObjectMeta, error) {
	r.note("GET", key)
	return r.Client.Get(bucket, key)
}

func (r *keyRecorder) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	r.note("PUT", key)
	return r.Client.Put(bucket, key, data)
}

func (r *keyRecorder) PutIf(bucket, key string, data []byte, ifMatch string) (cos.ObjectMeta, error) {
	r.note("PUT", key)
	return r.Client.PutIf(bucket, key, data, ifMatch)
}

func TestAttachListJobsAndCleanAbandoned(t *testing.T) {
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images: []*gowren.Image{chaosImage(t)},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := cloud.Platform().MetaBucket()
	// The manifest is the driver lease: no job ever writes a lease object
	// of its own.
	noLeaseObject := func(jobID, when string) {
		listed, err := cos.ListAll(cloud.Store(), meta, "jobs/"+jobID+"/")
		if err != nil {
			t.Errorf("list jobs/%s/ %s: %v", jobID, when, err)
		}
		for _, obj := range listed {
			if strings.HasSuffix(obj.Key, "/lease") {
				t.Errorf("%s: lease object %s exists beside the manifest", when, obj.Key)
			}
		}
	}
	listJobs := func() ([]gowren.JobInfo, error) {
		before := cloud.Store().Stats().GetOps
		jobs, err := cloud.ListJobs()
		if got := cloud.Store().Stats().GetOps - before; err == nil && got != int64(len(jobs)) {
			t.Errorf("ListJobs issued %d GETs for %d jobs, want one per job", got, len(jobs))
		}
		return jobs, err
	}
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("work", 1, 2); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		if _, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		noLeaseObject(exec.JobID(), "after the job")
		jobs, err := listJobs()
		if err != nil || len(jobs) != 1 {
			t.Errorf("jobs = %v (%v), want exactly one", jobs, err)
			return
		}
		if jobs[0].JobID != exec.JobID() || jobs[0].LeaseEpoch != 1 {
			t.Errorf("job = %+v, want id %s at lease epoch 1", jobs[0], exec.JobID())
		}

		// Attach reads the manifest once and takes its lease over with a
		// conditional PUT on the manifest itself.
		rec := &keyRecorder{Client: cloud.Store()}
		if _, err := cloud.Attach(exec.JobID(), gowren.WithStorage(rec)); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		manifest := "manifests/" + exec.JobID()
		ops := rec.snapshot()
		if got := ops["GET "+manifest]; got != 1 {
			t.Errorf("attach issued %d GETs of %s, want 1", got, manifest)
		}
		for op := range ops {
			if key, ok := strings.CutPrefix(op, "PUT "); ok && key != manifest && !strings.HasPrefix(key, "jobs/"+exec.JobID()+"/journal/") {
				t.Errorf("attach wrote %s, want only the manifest and journal records", key)
			}
		}
		noLeaseObject(exec.JobID(), "after attach")
		if jobs, err := listJobs(); err != nil || len(jobs) != 1 || jobs[0].LeaseEpoch != 2 {
			t.Errorf("jobs after attach = %+v (%v), want one at lease epoch 2", jobs, err)
		}

		// Too fresh to collect: the driver held the lease moments ago.
		if removed, err := cloud.CleanAbandoned(time.Hour); err != nil || len(removed) != 0 {
			t.Errorf("premature GC removed %v (%v)", removed, err)
		}
		cloud.Clock().Sleep(2 * time.Hour)
		removed, err := cloud.CleanAbandoned(time.Hour)
		if err != nil || len(removed) != 1 || removed[0] != exec.JobID() {
			t.Errorf("GC removed %v (%v), want [%s]", removed, err, exec.JobID())
			return
		}
		if jobs, err := listJobs(); err != nil || len(jobs) != 0 {
			t.Errorf("jobs after GC = %v (%v), want none", jobs, err)
		}
		if _, err := cloud.Attach(exec.JobID()); err == nil {
			t.Error("attach to a collected job succeeded")
		}
	})
}

// TestAttachLeaseRenewedThroughEveryWait: a driver renews its lease in every
// wait, not only in GetResult's, so the orphan GC never collects a job whose
// driver is blocked in Wait, WaitThreshold or a composition's continuation.
// Each row waits on work that takes 5 sim-min while a second task runs
// CleanAbandoned with a 2 min TTL at 4 sim-min.
func TestAttachLeaseRenewedThroughEveryWait(t *testing.T) {
	const work = 5 * time.Minute
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(gowren.RegisterFunc(img, "slow", func(ctx *gowren.Ctx, x int) (int, error) {
		return x, ctx.ChargeCompute(work)
	}))
	must(gowren.RegisterComposerFunc(img, "then_slow", func(ctx *gowren.Ctx, x int) (*gowren.FuturesRef, error) {
		return gowren.Chain(ctx, "slow", x)
	}))
	for _, row := range []struct {
		name string
		fn   string
		args []any
		wait func(exec *gowren.Executor) error
	}{
		{"wait-all", "slow", []any{1, 2}, func(exec *gowren.Executor) error {
			_, _, err := exec.Wait(gowren.WaitAllCompleted, time.Hour)
			return err
		}},
		{"wait-threshold", "slow", []any{1, 2}, func(exec *gowren.Executor) error {
			_, _, err := exec.WaitThreshold(1.0, time.Hour)
			return err
		}},
		// Four continuations wait at once, on several resolver workers:
		// only one of them may renew the lease at a time, or the second
		// renewal in flight fences the driver off from itself.
		{"get-result-chain", "then_slow", []any{1, 2, 3, 4}, func(exec *gowren.Executor) error {
			_, err := exec.GetResult(gowren.GetResultOptions{Timeout: time.Hour})
			return err
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cloud, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			meta := cloud.Platform().MetaBucket()
			cloud.Run(func() {
				exec, err := cloud.Executor()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := exec.Map(row.fn, row.args...); err != nil {
					t.Errorf("map: %v", err)
					return
				}
				start := cloud.Clock().Now()
				cloud.Go(func() {
					cloud.Clock().Sleep(4*time.Minute - cloud.Clock().Now().Sub(start))
					if removed, err := cloud.CleanAbandoned(2 * time.Minute); err != nil || len(removed) != 0 {
						t.Errorf("CleanAbandoned at 4 sim-min removed %v (%v), want nothing", removed, err)
					}
				})
				if err := row.wait(exec); err != nil {
					t.Errorf("wait: %v", err)
				}
				if took := cloud.Clock().Now().Sub(start); took < work {
					t.Errorf("wait returned after %v, before the %v of work", took, work)
				}
				if _, _, err := cloud.Store().Get(meta, "manifests/"+exec.JobID()); err != nil {
					t.Errorf("manifest after the wait: %v", err)
				}
			})
		})
	}
}
