package gowren_test

import (
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/netsim"
)

// regionImage registers the function the multi-region acceptance tests
// run: 5 seconds of compute per call, so a mid-job regional partition
// lands squarely on the result-writing phase.
func regionImage(t *testing.T) *gowren.Image {
	t.Helper()
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	if err := gowren.RegisterFunc(img, "work", func(ctx *gowren.Ctx, x int) (int, error) {
		if err := ctx.ChargeCompute(5 * time.Second); err != nil {
			return 0, err
		}
		return x * 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	return img
}

// twoRegionConfig scripts the acceptance scenario: two regions, with the
// first fully partitioned from its network between t=2s and t=25s —
// covering the window where a 5 s job's statuses and results are written.
func twoRegionConfig(t *testing.T, seed int64) gowren.SimConfig {
	t.Helper()
	return gowren.SimConfig{
		Images: []*gowren.Image{regionImage(t)},
		Seed:   seed,
		Regions: []gowren.RegionSpec{
			{
				Name: "us-south",
				Degrade: []gowren.LinkPhase{
					{Start: 2 * time.Second, End: 25 * time.Second, Partition: true},
				},
			},
			{Name: "eu-gb"},
		},
	}
}

// degradedClientStorage is the client's own storage path through the
// facade, on a dedicated in-cloud link whose latency is inflated 8x for the
// partition window (t=2s to t=25s), so the rest of the cloud keeps a clean
// path. Call it inside Run: the window is relative to the call.
func degradedClientStorage(t *testing.T, cloud *gowren.Cloud, seed int64) cos.Client {
	t.Helper()
	sched, err := netsim.NewSchedule(cloud.Clock(), []gowren.LinkPhase{
		{Start: 2 * time.Second, End: 25 * time.Second, LatencyFactor: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.InCloud(seed + 4)
	link.SetSchedule(sched)
	return cos.NewLinked(cloud.MultiRegion(), cloud.Clock(), link)
}

// regionRun executes one 500-call map through the scripted regional
// partition, with the client's own storage path suffering a concurrent
// latency-inflation window, and returns results, elapsed virtual time,
// dead letters and the facade's failover count.
func regionRun(t *testing.T, seed int64) (results []int, elapsed time.Duration, dead []gowren.DeadLetter, failovers int64) {
	t.Helper()
	cloud, err := gowren.NewSimCloud(twoRegionConfig(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		exec, err := cloud.Executor(gowren.WithStorage(degradedClientStorage(t, cloud, seed)))
		if err != nil {
			t.Error(err)
			return
		}
		args := make([]any, 500)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("work", args); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		// Recovery patient enough to outlast the 23 s partition: a call
		// whose payload got only one replica (a rare write miss at staging)
		// and then lost that region must be re-run once the window lifts.
		results, err = gowren.Results[int](exec, gowren.GetResultOptions{
			Timeout:  time.Hour,
			Recovery: &gowren.RecoveryOptions{MaxAttempts: 8, Backoff: 2 * time.Second},
		})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		dead = exec.DeadLetters()
	})
	return results, elapsed, dead, cloud.MultiRegion().Stats().Failovers
}

func TestRegionPartitionTransparentFailover(t *testing.T) {
	// Acceptance: a 500-call map runs through a full partition of the
	// preferred region plus an 8x WAN latency inflation on the client
	// path, and completes with every result intact and nothing
	// dead-lettered — the facade absorbs the outage by serving the
	// surviving region.
	results, _, dead, failovers := regionRun(t, 42)
	if len(results) != 500 {
		t.Fatalf("got %d results, want 500", len(results))
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*2)
		}
	}
	if len(dead) != 0 {
		t.Fatalf("failover run dead-lettered %d calls: %+v", len(dead), dead[0])
	}
	// The partition must actually have engaged, or the test proves
	// nothing: every read served during the window had to fail over.
	if failovers == 0 {
		t.Fatal("no failovers recorded; the partition window never engaged")
	}
}

func TestRegionRunDeterministicUnderSeed(t *testing.T) {
	r1, e1, _, f1 := regionRun(t, 42)
	r2, e2, _, f2 := regionRun(t, 42)
	if e1 != e2 {
		t.Fatalf("elapsed diverged under same seed: %v vs %v", e1, e2)
	}
	if f1 != f2 {
		t.Fatalf("failover count diverged under same seed: %d vs %d", f1, f2)
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

// asyncRegionRun executes the acceptance map with asynchronous replication:
// the preferred region is lost mid-job while catch-up writes to the second
// region are still queued (its path is latency-inflated during the early
// window), so completion depends on the queue carrying the committed bytes
// plus versioned failover and read-repair.
func asyncRegionRun(t *testing.T, seed int64) (results []int, elapsed time.Duration, dead []gowren.DeadLetter, snap gowren.MultiRegionSnapshot) {
	t.Helper()
	cfg := twoRegionConfig(t, seed)
	cfg.Replication = gowren.ReplicationAsync
	// Slow the surviving region's path while the first region is still up:
	// catch-up writes queued before the partition are in flight when the
	// primary disappears at t=2s.
	cfg.Regions[1].Degrade = []gowren.LinkPhase{
		{Start: 0, End: 4 * time.Second, LatencyFactor: 40},
	}
	cloud, err := gowren.NewSimCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		exec, err := cloud.Executor(gowren.WithStorage(degradedClientStorage(t, cloud, seed)))
		if err != nil {
			t.Error(err)
			return
		}
		args := make([]any, 500)
		for i := range args {
			args[i] = i
		}
		start := cloud.Clock().Now()
		if _, err := exec.MapSlice("work", args); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		results, err = gowren.Results[int](exec, gowren.GetResultOptions{
			Timeout:  time.Hour,
			Recovery: &gowren.RecoveryOptions{MaxAttempts: 8, Backoff: 2 * time.Second},
		})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
		dead = exec.DeadLetters()
		if !cloud.MultiRegion().Drain(cloud.Clock().Now().Add(time.Hour)) {
			t.Error("replication queues did not drain")
		}
	})
	return results, elapsed, dead, cloud.MultiRegion().Stats()
}

func TestRegionAsyncPartitionCompletesAndRepairs(t *testing.T) {
	// Acceptance: with async replication, losing the preferred region
	// mid-job — before its catch-up queue has drained — must not lose data
	// or wedge the job: acked writes live in the queue (and the primary),
	// catch-up lands them in the survivor, and reads fail over without ever
	// serving a stale replica.
	results, _, dead, st := asyncRegionRun(t, 42)
	if len(results) != 500 {
		t.Fatalf("got %d results, want 500", len(results))
	}
	for i, r := range results {
		if r != i*2 {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*2)
		}
	}
	if len(dead) != 0 {
		t.Fatalf("async run dead-lettered %d calls: %+v", len(dead), dead[0])
	}
	if st.Failovers == 0 {
		t.Fatal("no failovers recorded; the partition window never engaged")
	}
	if st.AsyncQueued == 0 {
		t.Fatal("no catch-up writes queued; replication never went async")
	}
	// The ledger must close: every queued catch-up either landed, was
	// dropped (leaving read-repair to fix the replica), or was obsolete by
	// drain time — none still pending.
	if st.AsyncReplicated+st.AsyncDropped+st.AsyncSkipped != st.AsyncQueued || st.AsyncLag != 0 {
		t.Fatalf("catch-up ledger open: %+v", st)
	}
}

func TestRegionAsyncRunDeterministicUnderSeed(t *testing.T) {
	r1, e1, _, s1 := asyncRegionRun(t, 42)
	r2, e2, _, s2 := asyncRegionRun(t, 42)
	if e1 != e2 {
		t.Fatalf("elapsed diverged under same seed: %v vs %v", e1, e2)
	}
	if s1.Failovers != s2.Failovers || s1.AsyncQueued != s2.AsyncQueued {
		t.Fatalf("facade stats diverged under same seed: %+v vs %+v", s1, s2)
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

func TestRegionReplicationVisibleInBothStores(t *testing.T) {
	// A small job on a healthy two-region cloud replicates the meta
	// bucket's objects: results are readable through a view that prefers
	// the second region.
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images: []*gowren.Image{regionImage(t)},
		Seed:   3,
		Regions: []gowren.RegionSpec{
			{Name: "us-south"},
			{Name: "eu-gb"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cloud.Run(func() {
		view, err := cloud.MultiRegion().View("eu-gb", "eu-gb")
		if err != nil {
			t.Error(err)
			return
		}
		exec, err := cloud.Executor(gowren.WithStorage(view))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.Map("work", 10, 20); err != nil {
			t.Errorf("map: %v", err)
			return
		}
		results, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		if len(results) != 2 || results[0] != 20 || results[1] != 40 {
			t.Errorf("results = %v, want [20 40]", results)
		}
	})
	if names := cloud.MultiRegion().RegionNames(); len(names) != 2 {
		t.Fatalf("regions = %v", names)
	}
}
