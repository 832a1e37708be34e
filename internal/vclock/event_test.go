package vclock

import (
	"sync"
	"testing"
	"time"
)

// TestEventSignalWakesWaiter checks the basic park/signal round trip on a
// Virtual clock: the waiter blocks in simulated time until Signal lands.
func TestEventSignalWakesWaiter(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	var mu sync.Mutex
	ready := false
	var waited time.Duration
	clk.Run(func() {
		start := clk.Now()
		clk.Go(func() {
			ok := evt.WaitFor(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return ready
			}, time.Time{})
			if !ok {
				t.Error("WaitFor with no deadline returned false")
			}
			waited = clk.Now().Sub(start)
		})
		clk.Sleep(3 * time.Second)
		mu.Lock()
		ready = true
		mu.Unlock()
		evt.Signal()
	})
	if waited != 3*time.Second {
		t.Fatalf("waiter woke after %v of simulated time, want 3s (the signal instant)", waited)
	}
}

// TestEventWaitDeadline checks that a timed wait gives up at its virtual
// deadline and reports pred's final answer.
func TestEventWaitDeadline(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	var elapsed time.Duration
	var ok bool
	clk.Run(func() {
		start := clk.Now()
		ok = evt.WaitFor(func() bool { return false }, start.Add(250*time.Millisecond))
		elapsed = clk.Now().Sub(start)
	})
	if ok {
		t.Fatal("WaitFor returned true though pred never held")
	}
	if elapsed != 250*time.Millisecond {
		t.Fatalf("gave up after %v of simulated time, want exactly 250ms", elapsed)
	}
}

// TestEventGenClosesRace checks the generation protocol: a Signal that
// lands between the Gen snapshot and the Wait call makes Wait return true
// immediately instead of parking forever.
func TestEventGenClosesRace(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	clk.Run(func() {
		gen := evt.Gen()
		evt.Signal() // lands before the park
		if !evt.Wait(gen, time.Time{}) {
			t.Error("Wait missed a Signal that preceded it")
		}
	})
}

// TestEventWaitExpiredDeadline checks that a deadline at or before now
// returns false without blocking.
func TestEventWaitExpiredDeadline(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	clk.Run(func() {
		if evt.Wait(evt.Gen(), clk.Now()) {
			t.Error("Wait(deadline=now) reported a signal")
		}
		if evt.Wait(evt.Gen(), clk.Now().Add(-time.Second)) {
			t.Error("Wait(past deadline) reported a signal")
		}
	})
}

// TestEventSignalWakesAllWaiters checks broadcast semantics: every parked
// waiter is released by one Signal, at the same simulated instant.
func TestEventSignalWakesAllWaiters(t *testing.T) {
	const waiters = 32
	clk := NewVirtual()
	evt := NewEvent(clk)
	var mu sync.Mutex
	done := false
	wakes := make([]time.Time, 0, waiters)
	clk.Run(func() {
		for i := 0; i < waiters; i++ {
			clk.Go(func() {
				evt.WaitFor(func() bool {
					mu.Lock()
					defer mu.Unlock()
					return done
				}, time.Time{})
				mu.Lock()
				wakes = append(wakes, clk.Now())
				mu.Unlock()
			})
		}
		clk.Sleep(time.Second)
		mu.Lock()
		done = true
		mu.Unlock()
		evt.Signal()
	})
	if len(wakes) != waiters {
		t.Fatalf("%d of %d waiters woke", len(wakes), waiters)
	}
	for i, at := range wakes {
		if at != wakes[0] {
			t.Fatalf("waiter %d woke at %v, first at %v — not one broadcast instant", i, at, wakes[0])
		}
	}
}

// TestEventSignalThenDeadline checks the double-waker interaction: a timed
// waiter signalled before its deadline reports the signal, and the stale
// heap entry firing later must not corrupt scheduler accounting. The
// trailing sleeps exercise the post-deadline bookkeeping.
func TestEventSignalThenDeadline(t *testing.T) {
	clk := NewVirtual()
	evt := NewEvent(clk)
	var mu sync.Mutex
	flag := false
	clk.Run(func() {
		start := clk.Now()
		clk.Go(func() {
			ok := evt.WaitFor(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return flag
			}, start.Add(10*time.Second))
			if !ok {
				t.Error("signalled waiter reported deadline expiry")
			}
			if got := clk.Now().Sub(start); got != time.Second {
				t.Errorf("woke after %v, want 1s (the signal instant)", got)
			}
		})
		clk.Sleep(time.Second)
		mu.Lock()
		flag = true
		mu.Unlock()
		evt.Signal()
		// Sleep past the abandoned deadline entry so it fires and is
		// discarded while this test still owns the clock.
		clk.Sleep(15 * time.Second)
	})
}

// TestEventWallClocks checks the Scaled implementation, at wall speed and
// faster, which blocks instead of polling: a waiter without a deadline
// returns true only once signalled, a timed wait gives up no earlier than
// its deadline takes in wall time (the clock's time divided by its factor),
// and a Signal between Gen and Wait is not lost.
func TestEventWallClocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		clk    Clock
		factor float64
	}{
		{"real", NewScaled(1), 1},
		{"scaled20", NewScaled(20), 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := tc.clk

			evt := NewEvent(clk)
			gen := evt.Gen()
			woke := make(chan bool, 1)
			clk.Go(func() { woke <- evt.Wait(gen, time.Time{}) })
			time.Sleep(20 * time.Millisecond)
			select {
			case ok := <-woke:
				t.Fatalf("waiter returned %v before any Signal", ok)
			default:
			}
			evt.Signal()
			select {
			case ok := <-woke:
				if !ok {
					t.Fatal("signalled waiter reported its deadline")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Signal did not wake the waiter")
			}
			clk.Wait()

			const timeout = 200 * time.Millisecond // on the clock
			want := time.Duration(float64(timeout) / tc.factor)
			start := time.Now()
			if evt.Wait(evt.Gen(), clk.Now().Add(timeout)) {
				t.Fatal("unsignalled timed wait reported a signal")
			}
			if got := time.Since(start); got < want {
				t.Fatalf("timed wait gave up after %v of wall time, want >= %v", got, want)
			}
			if evt.Wait(evt.Gen(), clk.Now().Add(-time.Second)) {
				t.Fatal("Wait(past deadline) reported a signal")
			}

			gen = evt.Gen()
			evt.Signal() // lands before the park
			start = time.Now()
			if !evt.Wait(gen, time.Time{}) {
				t.Fatal("Wait missed a Signal that preceded it")
			}
			if got := time.Since(start); got > time.Second {
				t.Fatalf("Wait after a preceding Signal blocked %v", got)
			}
		})
	}
}

// TestEventWaitDeterministic runs a contended signal/wait mix twice and
// requires identical simulated completion times — the determinism contract
// the rest of the simulator builds on.
func TestEventWaitDeterministic(t *testing.T) {
	runOnce := func() time.Duration {
		clk := NewVirtual()
		evt := NewEvent(clk)
		var mu sync.Mutex
		count := 0
		var elapsed time.Duration
		clk.Run(func() {
			start := clk.Now()
			for i := 0; i < 8; i++ {
				step := time.Duration(i+1) * 100 * time.Millisecond
				clk.Go(func() {
					clk.Sleep(step)
					mu.Lock()
					count++
					mu.Unlock()
					evt.Signal()
				})
			}
			evt.WaitFor(func() bool {
				mu.Lock()
				defer mu.Unlock()
				return count == 8
			}, time.Time{})
			elapsed = clk.Now().Sub(start)
		})
		return elapsed
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Fatalf("same scenario finished at %v then %v — not deterministic", a, b)
	}
	if a != 800*time.Millisecond {
		t.Fatalf("finished at %v, want 800ms (the slowest signaller)", a)
	}
}
