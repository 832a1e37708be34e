package vclock

import (
	"sync"
	"time"
)

// Event is the clock's event-driven wait primitive: tasks block in Wait (or
// the WaitFor convenience loop) until another task calls Signal, with an
// optional deadline on the clock. On a Virtual clock a waiter costs O(1)
// scheduler events — park once, wake once — where the Poll helper costs one
// scheduler event per tick for the whole wait. Code that today spins on the
// clock waiting for shared state another task flips (admission queues,
// worker-pool barriers, sweep followers) should signal that flip instead.
//
// The generation protocol makes waits lost-wakeup-free without holding any
// lock across the predicate: snapshot Gen, check the predicate, then
// Wait(gen, ...) — a Signal that lands between the snapshot and the park
// returns immediately instead of being missed.
//
// On a Virtual clock every method must be called from one of its tasks (or
// outside a run), like the rest of the simulation; the loop runs one task
// at a time, so the event needs no lock. On the wall-clock-driven clock
// (Scaled) Signal may be called from any goroutine: a waiter blocks on a
// channel that Signal closes, and a deadline is a wall timer for the time
// left on the clock, so a wake-up costs no polling and comes as soon as the
// runtime schedules the waiter.
type Event struct {
	v *Virtual // nil selects the wall-clock implementation

	// Wall-clock state, guarded by mu: ch is closed by the next Signal and
	// made by the first waiter after one, so a Signal nobody waits for
	// allocates nothing.
	c  Clock
	mu sync.Mutex
	ch chan struct{}

	gen     uint64  // guarded by mu on a wall clock
	waiters []waker // Virtual: tasks parked in Wait
}

// NewEvent returns an Event bound to c. Virtual clocks get the native
// scheduler-integrated implementation; a Scaled clock blocks on channels.
func NewEvent(c Clock) *Event {
	e := &Event{c: c}
	if v, ok := c.(*Virtual); ok {
		e.v = v
	}
	return e
}

// Gen returns the signal generation: it increments on every Signal. Pair it
// with Wait to close the check-then-block race.
func (e *Event) Gen() uint64 {
	if e.v != nil {
		return e.gen
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// Signal wakes every waiter parked on the event and advances the
// generation so concurrent Wait(gen, ...) callers do not park at all.
// It never blocks.
func (e *Event) Signal() {
	if e.v == nil {
		e.mu.Lock()
		e.gen++
		if e.ch != nil {
			close(e.ch)
			e.ch = nil
		}
		e.mu.Unlock()
		return
	}
	e.gen++
	for _, w := range e.waiters {
		e.v.wake(w, true)
	}
	e.waiters = e.waiters[:0]
}

// Wait blocks the calling task until the event is signalled past gen or
// the deadline (on the event's clock) passes; a zero deadline means no
// deadline. It reports whether the wake-up was a signal. A Signal that
// happened after the Gen() snapshot but before Wait returns true
// immediately.
func (e *Event) Wait(gen uint64, deadline time.Time) bool {
	if e.v == nil {
		return e.waitWall(gen, deadline)
	}
	if e.gen != gen {
		return true
	}
	v := e.v
	t := v.running()
	w := waker{t, t.gen}
	if !deadline.IsZero() {
		wakeNS := int64(deadline.Sub(v.epoch))
		if wakeNS <= v.now.Load() {
			return false
		}
		v.addTimer(wakeNS, w)
	}
	// Drop the waiters whose park another waker already ended, so an
	// often-timed-out event's list stays short.
	kept := e.waiters[:0]
	for _, x := range e.waiters {
		if x.gen == x.t.gen {
			kept = append(kept, x)
		}
	}
	e.waiters = append(kept, w)
	t.yield(struct{}{})
	return t.signaled
}

// waitWall is Wait on a wall-clock-driven clock: block on the current
// generation's channel, racing a wall timer for the time left before the
// deadline.
func (e *Event) waitWall(gen uint64, deadline time.Time) bool {
	timed := !deadline.IsZero()
	var left time.Duration
	if timed {
		left = deadline.Sub(e.c.Now())
	}
	e.mu.Lock()
	if e.gen != gen {
		e.mu.Unlock()
		return true
	}
	if timed && left <= 0 {
		e.mu.Unlock()
		return false
	}
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	ch := e.ch
	e.mu.Unlock()
	if !timed {
		<-ch
		return true
	}
	t := time.NewTimer(e.c.(*Scaled).wall(left))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// WaitFor blocks until pred reports true, rechecking on every signal, or
// until the deadline (zero means none) passes; it returns pred's final
// answer. pred runs without event-internal locks held and may itself
// block on the clock.
func (e *Event) WaitFor(pred func() bool, deadline time.Time) bool {
	for {
		gen := e.Gen()
		if pred() {
			return true
		}
		if !e.Wait(gen, deadline) {
			return pred()
		}
	}
}
