package gowren_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/trace"
)

// Fault-injection acceptance for completion-triggered reducers (DESIGN.md,
// "Stage barriers: completion-triggered fan-in"): whatever happens to the
// map that should have launched a stage, the job finishes with exact
// results, nothing is dead-lettered, and no reducer is launched twice under
// one marker generation.

// runnerActivations counts the map and reduce activations of a cloud —
// every copy that ever started — leaving the spawner helpers out.
func runnerActivations(cloud *gowren.Cloud) int {
	n := 0
	for _, a := range cloud.Platform().Controller().Activations() {
		if strings.HasPrefix(a.Action, "gowren-runner--") {
			n++
		}
	}
	return n
}

// fanInLaunches returns the generation-tagged launch events of the trace:
// one per marker generation that fired reducers.
func fanInLaunches(cloud *gowren.Cloud) []string {
	var out []string
	for _, ev := range cloud.Trace().Events() {
		if ev.Kind == trace.KindFanIn && strings.Contains(ev.Detail, "launched=") {
			out = append(out, ev.Actor+" "+ev.Detail)
		}
	}
	return out
}

func checkWordCounts(t *testing.T, got []gowren.KeyResult, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d distinct words, want %d", len(got), len(want))
	}
	for _, kr := range got {
		if string(kr.Value) != strconv.Itoa(want[kr.Key]) {
			t.Fatalf("word %s counted %s times, want %d", kr.Key, kr.Value, want[kr.Key])
		}
	}
}

// fanInShuffleCloud is a cloud with the exchange-chaos word-count pipeline
// and a seeded corpus of the given size.
func fanInShuffleCloud(t *testing.T, cfg gowren.SimConfig, maps int) (*gowren.Cloud, map[string]int) {
	t.Helper()
	cfg.Images = []*gowren.Image{exchangeChaosImage(t)}
	cfg.TraceCapacity = 1 << 16
	cloud, err := gowren.NewSimCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	docs, want := exchangeCorpus(maps)
	if err := cloud.Store().CreateBucket("corpus"); err != nil {
		t.Fatal(err)
	}
	for key, body := range docs {
		if _, err := cloud.Store().Put("corpus", key, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	return cloud, want
}

// TestChaosFanInLauncherKilled: the container of the map that completes the
// stage is killed after it committed its status and claimed the marker,
// before it wrote the stage index or any invocation left. The driver's
// backstop takes the stale claim over one grace period later and launches
// every reducer, once; the reducers find no index, rebuild it from the map
// statuses, and one copy of it stays behind.
func TestChaosFanInLauncherKilled(t *testing.T) {
	const maps, reducers = 12, 4
	cloud, want := fanInShuffleCloud(t, gowren.SimConfig{
		Seed:  9,
		Chaos: []gowren.ChaosFault{{Kind: gowren.ChaosLauncherKill, Start: 0, End: time.Minute}},
	}, maps)
	var execID string
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		execID = exec.ID()
		if _, err := exec.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum", gowren.ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Errorf("shuffle: %v", err)
			return
		}
		got, err := gowren.ShuffleResults(exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		checkWordCounts(t, got, want)
		if dead := exec.DeadLetters(); len(dead) != 0 {
			t.Errorf("dead letters: %+v", dead)
		}
	})
	if got := runnerActivations(cloud); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d: every reducer launched exactly once", got, maps+reducers)
	}
	launches := fanInLaunches(cloud)
	if len(launches) != 1 || !strings.Contains(launches[0], "generation=2 driver") {
		t.Errorf("launches = %q, want one, by the driver under generation 2", launches)
	}
	rebuilt := 0
	for _, ev := range cloud.Trace().Events() {
		if ev.Kind == trace.KindExchange && strings.Contains(ev.Detail, "op=index") && strings.Contains(ev.Detail, "rebuilt") {
			rebuilt++
		}
	}
	if rebuilt < 1 || rebuilt > reducers {
		t.Errorf("index rebuilds = %d, want between 1 and %d: the reducers had to build it", rebuilt, reducers)
	}
	indexes, err := cos.ListAll(cloud.Store(), cloud.Platform().MetaBucket(), "jobs/"+execID+"/shuffle/index/")
	if err != nil || len(indexes) != 1 {
		t.Errorf("stage indexes = %+v (err %v), want exactly one", indexes, err)
	}
	cleanLeavesNothing(t, cloud, driven...)
}

// TestRegionFanInPartitionHidesSiblingStatuses: two maps, two regions, two
// partitions back to back. The first map commits while eu-gb is cut off (its
// status exists only in us-south); the second commits while us-south is cut
// off, so its fan-in LIST — served by eu-gb alone — cannot see the first
// map's status and nobody launches the reducer. The driver's done-set is
// cumulative — it listed the first status at ~6 s and the second at ~16 s —
// so it knows the group is complete; one grace period later it finds no
// marker and launches the reducer itself.
func TestRegionFanInPartitionHidesSiblingStatuses(t *testing.T) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	if err := gowren.RegisterFunc(img, "busy", func(ctx *gowren.Ctx, seconds int) (int, error) {
		return seconds, ctx.ChargeCompute(time.Duration(seconds) * time.Second)
	}); err != nil {
		t.Fatal(err)
	}
	if err := gowren.RegisterReduceFunc(img, "sum", func(_ *gowren.Ctx, _ string, partials []int) (int, error) {
		total := 0
		for _, p := range partials {
			total += p
		}
		return total, nil
	}); err != nil {
		t.Fatal(err)
	}
	cloud, err := gowren.NewSimCloud(gowren.SimConfig{
		Images:        []*gowren.Image{img},
		Seed:          4,
		TraceCapacity: 1 << 12,
		Regions: []gowren.RegionSpec{
			{Name: "us-south", Degrade: []gowren.LinkPhase{{Start: 10 * time.Second, End: 25 * time.Second, Partition: true}}},
			{Name: "eu-gb", Degrade: []gowren.LinkPhase{{Start: 3 * time.Second, End: 10 * time.Second, Partition: true}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	watchJobShape(t, cloud)
	var driven []*gowren.Executor
	cloud.Run(func() {
		exec, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, exec)
		start := cloud.Clock().Now()
		if _, err := exec.MapReduce("busy", gowren.FromValues(5, 15), "sum", gowren.MapReduceOptions{}); err != nil {
			t.Errorf("map_reduce: %v", err)
			return
		}
		total, err := gowren.Result[int](exec, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result: %v", err)
			return
		}
		if total != 20 {
			t.Errorf("reduced total = %d, want 20", total)
		}
		// The second map commits at ~16 s; nothing launches until one grace
		// period (30 s) after the driver saw that.
		if took := cloud.Clock().Now().Sub(start); took < 45*time.Second || took > 90*time.Second {
			t.Errorf("job took %v, want the second map's 16 s plus one grace period", took)
		}
		if dead := exec.DeadLetters(); len(dead) != 0 {
			t.Errorf("dead letters: %+v", dead)
		}
	})
	if got := runnerActivations(cloud); got != 3 {
		t.Errorf("runner activations = %d, want 3: two maps, one reducer", got)
	}
	launches := fanInLaunches(cloud)
	if len(launches) != 1 || !strings.Contains(launches[0], "generation=1 driver") {
		t.Errorf("launches = %q, want one, by the driver under the marker's first generation", launches)
	}
	cleanLeavesNothing(t, cloud, driven...)
}

// TestDriverKillFanInAttachMidMapPhase: the driver dies while the maps are
// still running — before any reducer exists as an activation — and a fresh
// driver attaches by job ID. It must not mistake the staged reducers for
// orphans (respawning them would start a second copy when the maps finish):
// the maps launch them, once, and the new driver collects exact results.
func TestDriverKillFanInAttachMidMapPhase(t *testing.T) {
	const maps, reducers = 12, 4
	cloud, want := fanInShuffleCloud(t, gowren.SimConfig{Seed: 21}, maps)
	var driven []*gowren.Executor
	cloud.Run(func() {
		driver1, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, driver1)
		if _, err := driver1.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum", gowren.ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Errorf("shuffle: %v", err)
			return
		}
		// The maps charge 0.5–10 s of compute: at 2 s some are done, most not.
		cloud.Clock().Sleep(2 * time.Second)
		if got := runnerActivations(cloud); got != maps {
			t.Errorf("runner activations at the kill = %d, want the %d maps only", got, maps)
		}
		driver2, err := cloud.Attach(driver1.JobID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		driven = append(driven, driver2)
		if got := runnerActivations(cloud); got != maps {
			t.Errorf("attach launched %d activations of its own", got-maps)
		}
		got, err := gowren.ShuffleResults(driver2, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		checkWordCounts(t, got, want)
		if dead := driver2.DeadLetters(); len(dead) != 0 {
			t.Errorf("dead letters: %+v", dead)
		}
	})
	if got := runnerActivations(cloud); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d: every reducer launched exactly once", got, maps+reducers)
	}
	launches := fanInLaunches(cloud)
	if len(launches) != 1 || !strings.Contains(launches[0], "generation=1 launched=") {
		t.Errorf("launches = %q, want one, by the last map", launches)
	}
	cleanLeavesNothing(t, cloud, driven...)
}

// TestDriverKillFanInAttachAfterLauncherKilled combines the two: the
// launcher is killed holding the claim and the first driver dies before its
// backstop acts. The attached driver rebuilds the barrier from the journal,
// reads the stale marker after its own grace period and launches.
func TestDriverKillFanInAttachAfterLauncherKilled(t *testing.T) {
	const maps, reducers = 6, 3
	cloud, want := fanInShuffleCloud(t, gowren.SimConfig{
		Seed:  22,
		Chaos: []gowren.ChaosFault{{Kind: gowren.ChaosLauncherKill, Start: 0, End: time.Minute}},
	}, maps)
	var driven []*gowren.Executor
	cloud.Run(func() {
		driver1, err := cloud.Executor()
		if err != nil {
			t.Error(err)
			return
		}
		driven = append(driven, driver1)
		if _, err := driver1.MapReduceShuffle("xc/words", gowren.FromBuckets("corpus"), "xc/sum", gowren.ShuffleOptions{NumReducers: reducers}); err != nil {
			t.Errorf("shuffle: %v", err)
			return
		}
		cloud.Clock().Sleep(15 * time.Second) // every map is done, the launcher dead
		driver2, err := cloud.Attach(driver1.JobID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		driven = append(driven, driver2)
		got, err := gowren.ShuffleResults(driver2, gowren.GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		checkWordCounts(t, got, want)
		if dead := driver2.DeadLetters(); len(dead) != 0 {
			t.Errorf("dead letters: %+v", dead)
		}
	})
	if got := runnerActivations(cloud); got != maps+reducers {
		t.Errorf("runner activations = %d, want %d", got, maps+reducers)
	}
	cleanLeavesNothing(t, cloud, driven...)
}
