package vclock

import (
	"testing"
	"time"
)

// BenchmarkVirtualSleep measures the scheduler's innermost loop: one task
// sleeping repeatedly, each sleep a park, an advance, and a wake.
func BenchmarkVirtualSleep(b *testing.B) {
	clk := NewVirtual()
	clk.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clk.Sleep(time.Millisecond)
		}
	})
}

// BenchmarkVirtualSleepFanout measures batch release: many tasks asleep at
// once with interleaved wake instants, the shape of a loaded simulation.
func BenchmarkVirtualSleepFanout(b *testing.B) {
	const tasks = 64
	clk := NewVirtual()
	clk.Run(func() {
		b.ResetTimer()
		per := b.N/tasks + 1
		for t := 0; t < tasks; t++ {
			d := time.Duration(t+1) * 100 * time.Microsecond
			clk.Go(func() {
				for i := 0; i < per; i++ {
					clk.Sleep(d)
				}
			})
		}
	})
}

// BenchmarkVirtualGo measures task spawn/exit accounting.
func BenchmarkVirtualGo(b *testing.B) {
	clk := NewVirtual()
	clk.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clk.Go(func() {})
		}
	})
	clk.Wait()
}

// BenchmarkEventSignalWait measures the event primitive round trip: one
// waiter parked, one signaller flipping it awake.
func BenchmarkEventSignalWait(b *testing.B) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	clk.Run(func() {
		var turn int
		b.ResetTimer()
		clk.Go(func() {
			for i := 0; i < b.N; i++ {
				evt.WaitFor(func() bool { return turn > i }, time.Time{})
			}
		})
		for i := 0; i < b.N; i++ {
			turn++
			evt.Signal()
			clk.Sleep(time.Microsecond)
		}
	})
}

// TestSleepSteadyStateAllocs pins that Sleep on a Virtual clock performs
// zero heap allocations per call once the timer heap is warm, whether it
// advances the clock in place (the lone sleeper) or parks behind another
// task.
func TestSleepSteadyStateAllocs(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		clk.Go(func() {
			for i := 0; i < 400; i++ {
				clk.Sleep(time.Millisecond)
			}
		})
		for i := 0; i < 64; i++ {
			clk.Sleep(time.Millisecond)
		}
		for _, d := range []time.Duration{time.Millisecond, time.Hour} {
			if avg := testing.AllocsPerRun(100, func() { clk.Sleep(d) }); avg != 0 {
				t.Errorf("steady-state Sleep(%v) allocates %.1f objects per call, want 0", d, avg)
			}
		}
	})
}

// TestGoSteadyStateAllocs pins coroutine reuse: once a finished task's
// coroutine is idle, Go and the task's run to exit allocate nothing.
func TestGoSteadyStateAllocs(t *testing.T) {
	clk := NewVirtual()
	clk.Run(func() {
		spawn := func() {
			clk.Go(func() {})
			clk.Sleep(time.Millisecond) // let the child run and exit
		}
		for i := 0; i < 64; i++ {
			spawn()
		}
		if avg := testing.AllocsPerRun(200, spawn); avg != 0 {
			t.Fatalf("warm Go and exit allocate %.1f objects, want 0", avg)
		}
	})
}

// TestEventWaitSignalAllocs pins the event round trip: a parked waiter
// released by Signal costs no allocation once the waiter list is warm.
func TestEventWaitSignalAllocs(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	clk.Run(func() {
		var turn, seen int
		done := false
		clk.Go(func() {
			for !done {
				gen := evt.Gen()
				if turn > seen {
					seen = turn
					continue
				}
				evt.Wait(gen, time.Time{})
			}
		})
		roundTrip := func() {
			turn++
			evt.Signal()
			clk.Sleep(time.Microsecond) // the waiter runs and parks again
		}
		for i := 0; i < 64; i++ {
			roundTrip()
		}
		if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
			t.Errorf("Event Wait and Signal allocate %.1f objects per round trip, want 0", avg)
		}
		if seen != turn {
			t.Errorf("waiter saw turn %d of %d", seen, turn)
		}
		done = true
		evt.Signal()
	})
}
