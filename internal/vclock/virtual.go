package vclock

import (
	"fmt"
	"iter"
	"sync/atomic"
	"time"
)

// Virtual is a cooperative discrete-event clock. Tasks are registered with
// Go; simulated time advances to the earliest pending wake-up whenever every
// registered task is blocked in Sleep. CPU work performed by tasks between
// clock calls consumes no simulated time.
//
// One goroutine runs a simulation: the caller of Run (or Wait) loops over
// the runnable tasks and resumes each as a coroutine (iter.Pull). A task
// keeps the clock until it parks in Sleep or an Event wait, or returns, and
// only then does the loop resume the next one. Runnable tasks wait in a
// FIFO queue — a new Go child, an Event waiter a Signal released, and, when
// the queue drains, every sleeper due at the earliest instant in (wake
// instant, arrival) order. So the interleaving of a simulation is a
// function of its code and seed alone, never of how the host schedules
// goroutines. A task's panic, or its runtime.Goexit (t.Fatal), reaches
// Run's caller.
//
// Rules for correctness (enforced by convention across GoWren's internals):
//
//   - every goroutine that participates in the simulation is started via Go
//     (directly or transitively from a task);
//   - tasks block only via Sleep / Poll / Event.Wait, never on bare
//     channels or mutexes held across simulated time.
//
// A task blocked outside the clock stops the loop; StartWatchdog names it.
//
// Internally the clock works in integer nanoseconds since the epoch and
// keeps sleepers in a min-heap keyed by (wake instant, arrival sequence).
// Heap and Event entries carry their task's park generation, which the
// wake that ends a park bumps, so the losing waker of a timed Event wait
// is skipped.
type Virtual struct {
	epoch time.Time
	now   atomic.Int64 // ns since epoch; atomic so Now may be read from outside the run

	cur  *task  // the task holding the clock; nil outside tasks
	live int    // tasks started and not yet returned
	seq  uint64 // next timer arrival sequence (FIFO tiebreak)

	timers timerHeap

	runq     []*task // runnable tasks, FIFO; runq[runqHead:] is the queue
	runqHead int
	idle     []*task // finished coroutines, reused by the next Go

	// Sampled by the watchdog: the loop's resume count, and the task last
	// resumed (nil once the loop has returned).
	resumes atomic.Uint64
	holder  atomic.Pointer[task]
}

var _ Clock = (*Virtual)(nil)

// NewVirtual returns a Virtual clock starting at epoch. A fixed, non-zero
// epoch keeps timestamps deterministic across runs.
func NewVirtual() *Virtual {
	return NewVirtualAt(time.Date(2018, time.December, 10, 0, 0, 0, 0, time.UTC))
}

// NewVirtualAt returns a Virtual clock starting at epoch.
func NewVirtualAt(epoch time.Time) *Virtual {
	return &Virtual{epoch: epoch}
}

// Now returns the current simulated time.
func (v *Virtual) Now() time.Time {
	return v.epoch.Add(time.Duration(v.now.Load()))
}

// task is a coroutine that runs task bodies: Go hands it fn, and once fn
// returns it idles until a later Go hands it another.
type task struct {
	fn     func() // nil once the body has returned
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	// gen is the park generation: the wake that ends a park bumps it, so
	// a waker holding an older generation is stale.
	gen uint64
	// signaled records whether the last Event wait ended by Signal.
	signaled bool
}

func newTask() *task {
	t := &task{}
	t.resume, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		for {
			t.fn()
			t.fn = nil
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return t
}

// idleTasks caches finished coroutines across clocks: every simulation
// builds a fresh clock, and a new coroutine costs iter.Pull's allocations.
// A Go whose clock has none idle takes the whole cache; a loop that returns
// publishes its own idle list if the cache is empty and stops its
// coroutines otherwise. Cached coroutines hold no simulated state.
var idleTasks atomic.Pointer[[]*task]

// maxIdleTasks bounds a clock's idle list, and so the cache.
const maxIdleTasks = 4096

// running returns the task holding the clock, which must be the caller.
func (v *Virtual) running() *task {
	if v.cur == nil {
		panic("vclock: Sleep or Event.Wait on a Virtual clock outside its tasks; start the caller with Go or Run")
	}
	return v.cur
}

// Sleep blocks the calling task for d of simulated time. It must be called
// from a task started with Go (or Run).
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := v.running()
	wake := v.now.Load() + int64(d)
	if len(v.runq) == 0 && (len(v.timers) == 0 || wake < v.timers[0].wakeNS) {
		// Nothing else can run before wake: advance without a switch.
		v.now.Store(wake)
		return
	}
	v.addTimer(wake, waker{t, t.gen})
	t.yield(struct{}{})
}

// Go registers fn as a simulation task. It is queued and starts once the
// caller (and every task queued before fn) parks or exits; called outside
// a run, it starts when Run or Wait runs the loop.
func (v *Virtual) Go(fn func()) {
	if p := idleTasks.Load(); len(v.idle) == 0 && p != nil && idleTasks.CompareAndSwap(p, nil) {
		v.idle = *p
	}
	var t *task
	if n := len(v.idle); n > 0 {
		t, v.idle = v.idle[n-1], v.idle[:n-1]
	} else {
		t = newTask()
	}
	t.fn = fn
	v.live++
	v.runq = append(v.runq, t)
}

// Run starts fn as a task and runs the simulation until fn and every task
// it spawned (transitively) have returned. It is the usual entry point:
//
//	clk := vclock.NewVirtual()
//	clk.Run(func() { ... })
func (v *Virtual) Run(fn func()) {
	v.Go(fn)
	v.Wait()
}

// Wait runs the simulation on the calling goroutine until every task
// started with Go has returned. A task's panic re-panics here with its
// value, and a task's runtime.Goexit exits the caller; either way the
// tasks still parked are abandoned, and the clock must not be run again.
// Wait panics if called from a task of this clock, or if the remaining
// tasks all wait on Events with no deadline and nobody left to signal them.
func (v *Virtual) Wait() {
	if v.cur != nil {
		panic("vclock: Virtual.Run or Wait called from inside one of its own tasks; start the work with Go instead")
	}
	defer v.endLoop()
	for {
		t := v.next()
		if t == nil {
			break
		}
		v.cur = t
		v.resumes.Add(1)
		v.holder.Store(t)
		t.resume()
		if t.fn == nil {
			v.live--
			if len(v.idle) < maxIdleTasks {
				v.idle = append(v.idle, t)
			} else {
				t.stop()
			}
		}
	}
	if v.live > 0 {
		panic(fmt.Sprintf("vclock: deadlock: %d tasks wait on Events that no task is left to signal", v.live))
	}
}

// endLoop leaves the clock idle between runs, including after a task's
// panic, and publishes the finished coroutines for later clocks.
func (v *Virtual) endLoop() {
	v.cur = nil
	v.holder.Store(nil)
	if idle := v.idle; len(idle) > 0 && !idleTasks.CompareAndSwap(nil, &idle) {
		for _, t := range idle {
			t.stop()
		}
	}
	v.idle = nil
}

// next pops the next runnable task, or nil when none is left. When the run
// queue is empty it first advances the clock to the earliest wake-up and
// queues every task due at that instant, in seq order; an instant whose
// timers are all stale releases nobody, and the loop moves past it.
func (v *Virtual) next() *task {
	for len(v.runq) == 0 {
		if len(v.timers) == 0 {
			return nil
		}
		instant := v.timers[0].wakeNS
		v.now.Store(instant)
		for len(v.timers) > 0 && v.timers[0].wakeNS == instant {
			v.wake(v.timers.pop().waker, false)
		}
	}
	t := v.runq[v.runqHead]
	v.runq[v.runqHead] = nil
	if v.runqHead++; v.runqHead == len(v.runq) {
		v.runq, v.runqHead = v.runq[:0], 0
	}
	return t
}

// waker is one claim to end a park: it holds the task's park generation.
type waker struct {
	t   *task
	gen uint64
}

// wake ends w's park, unless another waker already has, and queues the
// task; signaled tells Event.Wait how the park ended.
func (v *Virtual) wake(w waker, signaled bool) {
	if w.gen != w.t.gen {
		return
	}
	w.t.gen++
	w.t.signaled = signaled
	v.runq = append(v.runq, w.t)
}

// addTimer parks w until wakeNS.
func (v *Virtual) addTimer(wakeNS int64, w waker) {
	v.timers.push(timer{wakeNS: wakeNS, seq: v.seq, waker: w})
	v.seq++
}

// timer is a heap entry: a waker due at wakeNS.
type timer struct {
	wakeNS int64  // heap key: wake instant, ns since epoch
	seq    uint64 // heap tiebreak: arrival order among equal instants
	waker
}

// timerHeap is a binary min-heap of timers keyed by (wakeNS, seq). It is
// hand-rolled over the two integer keys rather than container/heap to keep
// the per-operation cost — this is the simulator's innermost loop — free of
// interface dispatch.
type timerHeap []timer

// before reports whether a wakes strictly before b.
func before(a, b *timer) bool {
	return a.wakeNS < b.wakeNS || (a.wakeNS == b.wakeNS && a.seq < b.seq)
}

func (h *timerHeap) push(x timer) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&s[i], &s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *timerHeap) pop() timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timer{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(&s[l], &s[smallest]) {
			smallest = l
		}
		if r < n && before(&s[r], &s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
