package vclock

import (
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualSingleSleepAdvances(t *testing.T) {
	clk := NewVirtual()
	start := clk.Now()
	clk.Run(func() {
		clk.Sleep(50 * time.Second)
	})
	if got := clk.Now().Sub(start); got != 50*time.Second {
		t.Fatalf("elapsed = %v, want 50s", got)
	}
}

func TestVirtualSleepZeroOrNegativeReturns(t *testing.T) {
	clk := NewVirtual()
	start := clk.Now()
	clk.Run(func() {
		clk.Sleep(0)
		clk.Sleep(-time.Hour)
	})
	if !clk.Now().Equal(start) {
		t.Fatalf("time advanced on non-positive sleep: %v", clk.Now().Sub(start))
	}
}

func TestVirtualConcurrentSleepsOverlap(t *testing.T) {
	// 1000 tasks each sleeping 60s concurrently must take 60s of simulated
	// time total, not 1000*60s.
	clk := NewVirtual()
	start := clk.Now()
	clk.Run(func() {
		for i := 0; i < 1000; i++ {
			clk.Go(func() { clk.Sleep(60 * time.Second) })
		}
	})
	if got := clk.Now().Sub(start); got != 60*time.Second {
		t.Fatalf("elapsed = %v, want 60s", got)
	}
}

func TestVirtualStaggeredWakeOrder(t *testing.T) {
	clk := NewVirtual()
	var mu sync.Mutex
	var order []int
	clk.Run(func() {
		for i := 5; i >= 1; i-- {
			d := time.Duration(i) * time.Second
			idx := i
			clk.Go(func() {
				clk.Sleep(d)
				mu.Lock()
				order = append(order, idx)
				mu.Unlock()
			})
		}
	})
	if len(order) != 5 {
		t.Fatalf("got %d wakes, want 5", len(order))
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("wake order = %v, want ascending 1..5", order)
		}
	}
}

func TestVirtualNowMonotonicUnderRandomSleeps(t *testing.T) {
	clk := NewVirtual()
	rng := rand.New(rand.NewSource(42))
	var mu sync.Mutex
	var stamps []time.Time
	durations := make([][]time.Duration, 20)
	for i := range durations {
		for j := 0; j < 10; j++ {
			durations[i] = append(durations[i], time.Duration(rng.Intn(5000))*time.Millisecond)
		}
	}
	clk.Run(func() {
		for i := 0; i < 20; i++ {
			ds := durations[i]
			clk.Go(func() {
				for _, d := range ds {
					clk.Sleep(d)
					now := clk.Now()
					mu.Lock()
					stamps = append(stamps, now)
					mu.Unlock()
				}
			})
		}
	})
	if !sort.SliceIsSorted(stamps, func(i, j int) bool { return stamps[i].Before(stamps[j]) }) {
		// Equal timestamps are fine; only strict regressions are bugs.
		for i := 1; i < len(stamps); i++ {
			if stamps[i].Before(stamps[i-1]) {
				t.Fatalf("time went backwards: %v then %v", stamps[i-1], stamps[i])
			}
		}
	}
}

func TestVirtualNestedSpawn(t *testing.T) {
	// A task that spawns children mid-simulation; total time is the critical
	// path: 10s parent + 20s child = 30s.
	clk := NewVirtual()
	start := clk.Now()
	var childDone atomic.Bool
	clk.Run(func() {
		clk.Sleep(10 * time.Second)
		clk.Go(func() {
			clk.Sleep(20 * time.Second)
			childDone.Store(true)
		})
	})
	if !childDone.Load() {
		t.Fatal("child task did not complete")
	}
	if got := clk.Now().Sub(start); got != 30*time.Second {
		t.Fatalf("elapsed = %v, want 30s", got)
	}
}

func TestVirtualRunsOneTaskAtATime(t *testing.T) {
	// Tasks due at the same instant never overlap, and they run in the
	// order they became runnable: spawned children after their parent
	// parks, in spawn order; sleepers by arrival. The trace is therefore
	// the same on every run, whatever the host's core count.
	run := func() []int {
		clk := NewVirtual()
		var running atomic.Int32
		var order []int
		step := func(id int) {
			if n := running.Add(1); n != 1 {
				t.Errorf("task %d runs alongside %d others", id, n-1)
			}
			order = append(order, id)
			for i := 0; i < 1000; i++ {
				_ = clk.Now() // CPU work between clock calls
			}
			running.Add(-1)
		}
		clk.Run(func() {
			for id := 1; id <= 8; id++ {
				clk.Go(func() {
					step(id)
					clk.Sleep(time.Second)
					step(10 + id)
				})
			}
			step(0)
		})
		return order
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 18}
	for i := 0; i < 20; i++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("run %d: order = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: order = %v, want %v", i, got, want)
			}
		}
	}
}

func TestVirtualPollObservesSharedState(t *testing.T) {
	clk := NewVirtual()
	var ready atomic.Bool
	var sawAt time.Duration
	start := clk.Now()
	clk.Run(func() {
		clk.Go(func() {
			clk.Sleep(7 * time.Second)
			ready.Store(true)
		})
		clk.Go(func() {
			if !Poll(clk, ready.Load, 100*time.Millisecond, time.Time{}) {
				t.Error("poll returned false without deadline")
				return
			}
			sawAt = clk.Now().Sub(start)
		})
	})
	if sawAt < 7*time.Second || sawAt > 8*time.Second {
		t.Fatalf("poll observed readiness at %v, want within [7s,8s]", sawAt)
	}
}

func TestVirtualPollDeadline(t *testing.T) {
	clk := NewVirtual()
	var ok bool
	start := clk.Now()
	clk.Run(func() {
		ok = Poll(clk, func() bool { return false }, time.Second, start.Add(5*time.Second))
	})
	if ok {
		t.Fatal("poll succeeded on always-false predicate")
	}
	if got := clk.Now().Sub(start); got < 5*time.Second || got > 6*time.Second {
		t.Fatalf("poll gave up at %v, want ~5s", got)
	}
}

func TestVirtualDeterministic(t *testing.T) {
	run := func() (time.Duration, int) {
		clk := NewVirtual()
		start := clk.Now()
		var wakes atomic.Int64
		clk.Run(func() {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 50; i++ {
				d := time.Duration(rng.Intn(10000)) * time.Millisecond
				clk.Go(func() {
					clk.Sleep(d)
					wakes.Add(1)
				})
			}
		})
		return clk.Now().Sub(start), int(wakes.Load())
	}
	e1, n1 := run()
	e2, n2 := run()
	if e1 != e2 || n1 != n2 {
		t.Fatalf("runs differ: (%v,%d) vs (%v,%d)", e1, n1, e2, n2)
	}
}

func TestVirtualElapsedEqualsMaxSleepProperty(t *testing.T) {
	// Property: for k concurrent tasks each doing one sleep, elapsed
	// simulated time equals the maximum requested duration.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		clk := NewVirtual()
		start := clk.Now()
		var want time.Duration
		clk.Run(func() {
			for _, r := range raw {
				d := time.Duration(r) * time.Millisecond
				if d > want {
					want = d
				}
				clk.Go(func() { clk.Sleep(d) })
			}
		})
		return clk.Now().Sub(start) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRealClockBasics(t *testing.T) {
	clk := NewScaled(1)
	start := clk.Now()
	var ran atomic.Bool
	clk.Go(func() {
		clk.Sleep(10 * time.Millisecond)
		ran.Store(true)
	})
	clk.Wait()
	if !ran.Load() {
		t.Fatal("task did not run")
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("elapsed %v < sleep duration", elapsed)
	}
	if clk.Now().Sub(start) < 10*time.Millisecond {
		t.Fatal("clock Now disagrees")
	}
}

func TestWatchdogDetectsStuckSimulation(t *testing.T) {
	clk := NewVirtual()
	reported := make(chan WatchdogReport, 1)
	stop := clk.StartWatchdog(5*time.Millisecond, func(r WatchdogReport) {
		reported <- r
	})
	defer stop()

	release := make(chan struct{})
	go func() {
		// Deliberately violate the contract: block a registered task on a
		// bare channel with nothing else runnable.
		clk.Run(func() {
			<-release
		})
	}()
	select {
	case r := <-reported:
		// The stuck task is the closure given to Run below.
		if !strings.HasPrefix(r.Task, "gowren/internal/vclock.TestWatchdogDetectsStuckSimulation.func") {
			t.Fatalf("report names task %q, want the closure given to Run", r.Task)
		}
		if !strings.Contains(r.String(), r.Task) {
			t.Fatalf("report %q does not name the task", r.String())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired")
	}
	close(release)
}

func TestWatchdogQuietOnHealthySimulation(t *testing.T) {
	clk := NewVirtual()
	fired := make(chan struct{}, 1)
	stop := clk.StartWatchdog(2*time.Millisecond, func(WatchdogReport) {
		fired <- struct{}{}
	})
	defer stop()
	clk.Run(func() {
		for i := 0; i < 50; i++ {
			clk.Sleep(time.Second)
		}
	})
	// Give the watchdog a few intervals to (incorrectly) trip.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-fired:
		t.Fatal("watchdog fired on a healthy simulation")
	default:
	}
}

func TestWatchdogStopIdempotent(t *testing.T) {
	clk := NewVirtual()
	stop := clk.StartWatchdog(time.Millisecond, func(WatchdogReport) {})
	stop()
	stop()
}

func TestScaledClockAccelerates(t *testing.T) {
	clk := NewScaled(100)
	if clk.factor != 100 {
		t.Fatalf("factor = %v", clk.factor)
	}
	wallStart := time.Now()
	simStart := clk.Now()
	var ran atomic.Bool
	clk.Go(func() {
		clk.Sleep(time.Second) // 10ms of wall time at 100x
		ran.Store(true)
	})
	clk.Wait()
	if !ran.Load() {
		t.Fatal("task did not run")
	}
	wall := time.Since(wallStart)
	if wall > 500*time.Millisecond {
		t.Fatalf("1s scaled sleep took %v wall", wall)
	}
	if sim := clk.Now().Sub(simStart); sim < time.Second {
		t.Fatalf("scaled Now advanced only %v for a 1s sleep", sim)
	}
	clk.Sleep(0)
	clk.Sleep(-time.Minute) // non-positive returns immediately
}

func TestScaledClockDegenerateFactor(t *testing.T) {
	if got := NewScaled(0).factor; got != 1 {
		t.Fatalf("factor = %v, want clamp to 1", got)
	}
	if got := NewScaled(-3).factor; got != 1 {
		t.Fatalf("factor = %v, want clamp to 1", got)
	}
}

func TestVirtualStressManyTasks(t *testing.T) {
	// 5,000 interleaved tasks with mixed sleeps: exercises the heap and
	// the advance logic at experiment scale.
	clk := NewVirtual()
	start := clk.Now()
	var done atomic.Int64
	clk.Run(func() {
		for i := 0; i < 5000; i++ {
			d := time.Duration(i%97+1) * 100 * time.Millisecond
			clk.Go(func() {
				clk.Sleep(d)
				clk.Sleep(d / 2)
				done.Add(1)
			})
		}
	})
	if done.Load() != 5000 {
		t.Fatalf("done = %d", done.Load())
	}
	want := time.Duration(97) * 100 * time.Millisecond * 3 / 2
	if got := clk.Now().Sub(start); got != want {
		t.Fatalf("elapsed = %v, want %v (longest task)", got, want)
	}
}

func TestVirtualTaskPanicReachesRun(t *testing.T) {
	clk := NewVirtual()
	var got any
	func() {
		defer func() { got = recover() }()
		clk.Run(func() {
			clk.Go(func() {
				clk.Sleep(time.Second)
				panic("boom")
			})
			clk.Sleep(time.Minute)
		})
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want the task's panic value", got)
	}
}

func TestVirtualTaskGoexitReachesRun(t *testing.T) {
	clk := NewVirtual()
	returned := make(chan bool, 1)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		clk.Run(func() {
			clk.Sleep(time.Second)
			runtime.Goexit()
		})
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after its task called runtime.Goexit")
	}
}

// TestVirtualTaskFatalEndsTest runs a test whose task calls t.Fatal in a
// child process: the failure must end that test like any other, not kill
// the binary from a stray goroutine.
func TestVirtualTaskFatalEndsTest(t *testing.T) {
	if os.Getenv("VCLOCK_FATAL_IN_TASK") == "1" {
		clk := NewVirtual()
		clk.Run(func() {
			clk.Sleep(time.Second)
			t.Fatal("fatal inside a task")
		})
		t.Error("Run returned after its task called t.Fatal")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestVirtualTaskFatalEndsTest$", "-test.v")
	cmd.Env = append(os.Environ(), "VCLOCK_FATAL_IN_TASK=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("the test whose task called t.Fatal passed:\n%s", out)
	}
	for _, want := range []string{"fatal inside a task", "--- FAIL: TestVirtualTaskFatalEndsTest"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "Run returned") || strings.Contains(string(out), "panic:") {
		t.Fatalf("t.Fatal did not end the test cleanly:\n%s", out)
	}
}

func TestVirtualRunOrWaitInsideTaskPanics(t *testing.T) {
	clk := NewVirtual()
	for name, call := range map[string]func(){
		"Run":  func() { clk.Run(func() {}) },
		"Wait": clk.Wait,
	} {
		var got any
		clk.Run(func() {
			defer func() { got = recover() }()
			call()
		})
		msg, _ := got.(string)
		if !strings.Contains(msg, "Virtual.Run or Wait called from inside one of its own tasks") {
			t.Errorf("%s inside a task panicked with %v, want a message naming the misuse", name, got)
		}
	}
}

func TestVirtualGoBeforeRunQueues(t *testing.T) {
	clk := NewVirtual()
	var order []string
	clk.Go(func() { order = append(order, "queued") })
	if len(order) != 0 {
		t.Fatal("Go outside a run started its task at once")
	}
	clk.Run(func() { order = append(order, "root") })
	if strings.Join(order, ",") != "queued,root" {
		t.Fatalf("order = %v, want the queued task first", order)
	}
}

func TestVirtualDeadlockPanics(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	var got any
	func() {
		defer func() { got = recover() }()
		clk.Run(func() { evt.Wait(evt.Gen(), time.Time{}) })
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "deadlock: 1 tasks") {
		t.Fatalf("a run whose last task waits forever panicked with %v, want a deadlock report", got)
	}
}
