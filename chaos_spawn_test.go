package gowren_test

import (
	"fmt"
	"testing"
	"time"

	"gowren"
	"gowren/internal/trace"
)

// Container crashes on the calls that gate an in-cloud launch: a remote
// invoker of massive spawning, which gates its group, and a map, which gates
// its reducer. Neither may stall the job: the driver probes the gating
// call's activation and respawns it, and it probes the launched calls once
// it has read their activations off the group's marker.

// crashCount counts the activations the platform crashed.
func crashCount(cloud *gowren.Cloud) int {
	n := 0
	for _, ev := range cloud.Trace().Events() {
		if ev.Kind == trace.KindCrash {
			n++
		}
	}
	return n
}

// TestChaosMassiveSpawningCrashes: a 200-call map behind four remote
// invokers at 5 % crashes finishes with every result exact and nothing
// dead-lettered, on three seeds.
func TestChaosMassiveSpawningCrashes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cloud, err := gowren.NewSimCloud(gowren.SimConfig{
				Images: []*gowren.Image{chaosImage(t)}, Seed: seed, CrashProb: 0.05, TraceCapacity: 1 << 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			watchJobShape(t, cloud)
			var driven []*gowren.Executor
			cloud.Run(func() {
				exec, err := cloud.Executor(gowren.WithMassiveSpawning(50))
				if err != nil {
					t.Error(err)
					return
				}
				driven = append(driven, exec)
				args := make([]any, 200)
				for i := range args {
					args[i] = i
				}
				if _, err := exec.MapSlice("work", args); err != nil {
					t.Errorf("map: %v", err)
					return
				}
				results, err := gowren.Results[int](exec, gowren.GetResultOptions{Timeout: 10 * time.Minute})
				if err != nil {
					t.Errorf("get result: %v", err)
					return
				}
				for i, r := range results {
					if r != i*2 {
						t.Errorf("result[%d] = %d, want %d", i, r, i*2)
						return
					}
				}
				if dead := exec.DeadLetters(); len(dead) != 0 {
					t.Errorf("dead letters: %+v", dead)
				}
			})
			if crashCount(cloud) == 0 {
				t.Error("no container crashed; fault injection did not engage")
			}
			cleanLeavesNothing(t, cloud, driven...)
		})
	}
}

// TestChaosFanInCrashedMapRespawned: a crashed map never commits a status,
// so its group's fan-in never completes. The driver holds the map's
// activation ID (direct invocation), finds it dead and respawns it, and the
// respawned map launches the reducer.
func TestChaosFanInCrashedMapRespawned(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			img := chaosImage(t)
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
				Images: []*gowren.Image{img}, Seed: seed, CrashProb: 0.1, TraceCapacity: 1 << 14,
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
				values := make([]any, 40)
				want := 0
				for i := range values {
					values[i] = i
					want += 2 * i
				}
				if _, err := exec.MapReduce("work", gowren.FromValues(values...), "sum", gowren.MapReduceOptions{}); err != nil {
					t.Errorf("map_reduce: %v", err)
					return
				}
				total, err := gowren.Result[int](exec, gowren.GetResultOptions{Timeout: 10 * time.Minute})
				if err != nil {
					t.Errorf("get result: %v", err)
					return
				}
				if total != want {
					t.Errorf("reduced total = %d, want %d", total, want)
				}
				if dead := exec.DeadLetters(); len(dead) != 0 {
					t.Errorf("dead letters: %+v", dead)
				}
			})
			if crashCount(cloud) == 0 {
				t.Error("no container crashed; fault injection did not engage")
			}
			cleanLeavesNothing(t, cloud, driven...)
		})
	}
}
