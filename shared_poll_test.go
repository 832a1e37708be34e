package gowren_test

import (
	"testing"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

// TestDriverSharedPollWithStorageAlone: executors a Cloud gives the storage
// it built share their status polls, so two jobs waiting side by side list
// about as often as one; an executor given WithStorage polls alone, and so
// does the one left beside it: each lists on every tick of its wait.
func TestDriverSharedPollWithStorageAlone(t *testing.T) {
	const interval = 50 * time.Millisecond // the default poll interval
	// run drives two 2-second single-call jobs side by side, the second over
	// storage of its own when private, and returns each driver's LISTs and
	// the length of its wait.
	run := func(private bool) (lists [2]int64, waits [2]time.Duration) {
		cloud := newCloud(t, gowren.SimConfig{Seed: 7})
		clk := cloud.Clock()
		cloud.Run(func() {
			finished := 0
			all := vclock.NewEvent(clk)
			for i := range 2 {
				opts := []gowren.ExecutorOption{gowren.WithClientProfile(gowren.ClientLoopback)}
				if private && i == 1 {
					opts = append(opts, gowren.WithStorage(cos.NewLinked(cloud.Store(), clk, netsim.Loopback())))
				}
				exec, err := cloud.Executor(opts...)
				if err != nil {
					t.Error(err)
					return
				}
				cloud.Go(func() {
					defer func() {
						finished++
						all.Signal()
					}()
					if _, err := exec.Map("busy", 2); err != nil {
						t.Error(err)
						return
					}
					start := clk.Now()
					if _, err := gowren.Results[int](exec); err != nil {
						t.Error(err)
						return
					}
					waits[i] = clk.Now().Sub(start)
					lists[i] = exec.Core().StorageOps().ListOps
				})
			}
			all.WaitFor(func() bool { return finished == 2 }, time.Time{})
		})
		return lists, waits
	}

	// A tick is one interval on the loopback link, which charges nothing.
	ticks := func(wait time.Duration) int64 { return int64(wait / interval) }
	shared, waits := run(false)
	if t.Failed() {
		return
	}
	if got, alone := shared[0]+shared[1], ticks(waits[0])+ticks(waits[1]); got*3 > alone*2 {
		t.Errorf("two executors of the Cloud's storage listed %d times in all, want well under the %d ticks of their waits: they share each LIST",
			got, alone)
	}
	private, waits := run(true)
	for i, n := range private {
		if min := ticks(waits[i]); n < min {
			t.Errorf("executor %d beside one WithStorage listed %d times over a %v wait, want one LIST a tick (at least %d): nothing is shared",
				i, n, waits[i], min)
		}
	}
}
