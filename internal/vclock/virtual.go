package vclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a cooperative discrete-event clock. Tasks are registered with
// Go; simulated time advances to the earliest pending wake-up whenever every
// registered task is blocked in Sleep. CPU work performed by tasks between
// clock calls consumes no simulated time.
//
// Tasks run one at a time (run-to-park): a task keeps the clock until it
// parks in Sleep or an Event wait, or returns, and only then does the next
// runnable task start. Runnable tasks wait in a FIFO queue — a new Go child,
// an Event waiter a Signal released, and, when the queue drains, every
// sleeper due at the earliest instant in (wake instant, arrival) order. So
// the interleaving of a simulation is a function of its code and seed
// alone, never of how the host schedules goroutines.
//
// Rules for correctness (enforced by convention across GoWren's internals):
//
//   - every goroutine that participates in the simulation is started via Go
//     (directly or transitively from a task);
//   - tasks block only via Sleep / Poll / Event.Wait, never on bare
//     channels or mutexes held across simulated time.
//
// Shared state protected by mutexes is fine as long as critical sections do
// not block on the clock.
//
// Internally the scheduler works in integer nanoseconds since the epoch and
// keeps sleepers in a hand-rolled min-heap keyed by (wake instant, arrival
// sequence): when time advances, every parker due at the minimum instant is
// moved to the run queue in one batch under one lock acquisition, in FIFO
// sequence order — the deterministic tiebreak for simultaneous wake-ups.
// Parkers — the one-slot channels a blocked or queued task waits on — are
// recycled on a free list under the scheduler lock, so steady-state Sleep
// and Go allocate no parker.
type Virtual struct {
	epoch time.Time

	mu      sync.Mutex
	offset  atomic.Int64 // ns since epoch; written under mu, read lock-free
	active  int          // registered tasks currently runnable (running or queued)
	running bool         // a task holds the clock; it runs until it parks or exits
	tasks   int          // registered tasks alive (runnable, sleeping, or blocked)
	events  uint64       // scheduler progress counter (sleeps, wakes, spawns, exits)
	parked  int          // tasks blocked in Sleep or a timed/untimed Event wait
	seq     uint64       // next parker arrival sequence (FIFO tiebreak)

	sleepers parkerHeap

	// runq holds the parkers of runnable tasks waiting for the clock, in
	// the order they became runnable; runq[runqHead:] is the queue.
	runq     []*parker
	runqHead int

	freeParkers []*parker

	wg sync.WaitGroup
}

var _ Clock = (*Virtual)(nil)

// maxFreeParkers bounds the parker free list: high enough to cover a large
// simulation's concurrent-sleeper high-water mark, low enough that a burst
// does not pin memory forever.
const maxFreeParkers = 1 << 16

// NewVirtual returns a Virtual clock starting at epoch. A fixed, non-zero
// epoch keeps timestamps deterministic across runs.
func NewVirtual() *Virtual {
	return NewVirtualAt(time.Date(2018, time.December, 10, 0, 0, 0, 0, time.UTC))
}

// NewVirtualAt returns a Virtual clock starting at epoch.
func NewVirtualAt(epoch time.Time) *Virtual {
	return &Virtual{epoch: epoch}
}

// Now returns the current simulated time. It is lock-free: the offset is
// published atomically by the scheduler, so hot paths that timestamp every
// operation do not serialize on the scheduler mutex.
func (v *Virtual) Now() time.Time {
	return v.epoch.Add(time.Duration(v.offset.Load()))
}

// parker is the one-slot channel a blocked task waits on, tagged with its
// position in the wake heap. Sleep parkers are recycled through the clock's
// free list; Event waiters allocate their own (they can be woken twice —
// signal and deadline — so recycling them would race a late wake-up against
// reuse).
type parker struct {
	ch     chan struct{}
	wakeNS int64  // heap key: wake instant, ns since epoch
	seq    uint64 // heap tiebreak: arrival order among equal instants
	// timer entries always fire; event entries are skipped once woken.
	woken bool
	// signaled records, for event waiters, whether the wake-up came from
	// Signal (true) or the deadline (false).
	signaled bool
}

// getParkerLocked pops a recycled parker or allocates one.
func (v *Virtual) getParkerLocked() *parker {
	if n := len(v.freeParkers); n > 0 {
		p := v.freeParkers[n-1]
		v.freeParkers = v.freeParkers[:n-1]
		return p
	}
	return &parker{ch: make(chan struct{}, 1)}
}

func (v *Virtual) putParkerLocked(p *parker) {
	p.woken = false
	p.signaled = false
	if len(v.freeParkers) < maxFreeParkers {
		v.freeParkers = append(v.freeParkers, p)
	}
}

// enqueueLocked parks p at the wake instant.
func (v *Virtual) enqueueLocked(wakeNS int64, p *parker) {
	p.wakeNS = wakeNS
	p.seq = v.seq
	v.seq++
	v.sleepers.push(p)
	v.parked++
}

// Sleep blocks the calling task for d of simulated time. It must be called
// from a task started with Go (or Run); calling it from an unregistered
// goroutine corrupts the runnable-task accounting.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	p := v.getParkerLocked()
	v.events++
	v.enqueueLocked(v.offset.Load()+int64(d), p)
	v.active--
	v.running = false
	v.dispatchLocked()
	v.mu.Unlock()
	<-p.ch
	v.mu.Lock()
	v.putParkerLocked(p)
	v.mu.Unlock()
}

// Go starts fn as a registered simulation task. Called from a running
// task, fn is queued and starts once the caller (and every task queued
// before fn) parks or exits; called from outside the simulation with no
// task running, fn starts at once.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.active++
	v.tasks++
	v.events++
	p := v.getParkerLocked()
	v.pushRunnableLocked(p)
	v.dispatchLocked()
	v.mu.Unlock()
	v.wg.Add(1)
	go func() {
		<-p.ch
		v.mu.Lock()
		v.putParkerLocked(p)
		v.mu.Unlock()
		defer func() {
			v.mu.Lock()
			v.active--
			v.tasks--
			v.events++
			v.running = false
			v.dispatchLocked()
			v.mu.Unlock()
			v.wg.Done()
		}()
		fn()
	}()
}

// Wait blocks the caller in real time until every task has returned.
func (v *Virtual) Wait() { v.wg.Wait() }

// Run starts fn as the root task and blocks until fn and every task it
// spawned (transitively) have returned. It is the usual entry point for a
// simulation:
//
//	clk := vclock.NewVirtual()
//	clk.Run(func() { ... })
func (v *Virtual) Run(fn func()) {
	v.Go(fn)
	v.Wait()
}

// pushRunnableLocked appends a released parker to the run queue. Callers
// must hold v.mu.
func (v *Virtual) pushRunnableLocked(p *parker) {
	if v.runqHead > 0 && v.runqHead == len(v.runq) {
		v.runq = v.runq[:0]
		v.runqHead = 0
	} else if v.runqHead > 64 && v.runqHead*2 > len(v.runq) {
		n := copy(v.runq, v.runq[v.runqHead:])
		clear(v.runq[n:])
		v.runq = v.runq[:n]
		v.runqHead = 0
	}
	v.runq = append(v.runq, p)
}

// dispatchLocked hands the clock to the next runnable task if no task
// holds it. When the run queue is empty it first advances simulated time
// to the earliest wake-up and queues every parker due at that instant —
// in FIFO seq order, the heap's tiebreak. Instants whose entries were all
// cancelled (event waiters signalled before their deadline) release
// nobody; the loop skips past them to the next instant. Callers must hold
// v.mu.
func (v *Virtual) dispatchLocked() {
	if v.running {
		return
	}
	for v.runqHead == len(v.runq) && v.sleepers.len() > 0 {
		instant := v.sleepers.ps[0].wakeNS
		if instant > v.offset.Load() {
			v.offset.Store(instant)
		}
		for v.sleepers.len() > 0 && v.sleepers.ps[0].wakeNS == instant {
			p := v.sleepers.pop()
			if p.woken {
				continue // event waiter already released by Signal
			}
			p.woken = true
			v.parked--
			v.active++
			v.events++
			v.pushRunnableLocked(p)
		}
	}
	if v.runqHead == len(v.runq) {
		return
	}
	p := v.runq[v.runqHead]
	v.runq[v.runqHead] = nil
	v.runqHead++
	v.running = true
	p.ch <- struct{}{} //gowren:allow lockhold — cap-1 parker channel with exactly one send per wake; never blocks
}

// parkerHeap is a binary min-heap of parkers keyed by (wakeNS, seq). It is
// hand-rolled over the two integer keys rather than container/heap to keep
// the per-operation cost — this is the simulator's innermost loop — free of
// interface dispatch.
type parkerHeap struct {
	ps []*parker
}

func (h *parkerHeap) len() int { return len(h.ps) }

// before reports whether a wakes strictly before b.
func before(a, b *parker) bool {
	return a.wakeNS < b.wakeNS || (a.wakeNS == b.wakeNS && a.seq < b.seq)
}

func (h *parkerHeap) push(p *parker) {
	h.ps = append(h.ps, p)
	i := len(h.ps) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h.ps[i], h.ps[parent]) {
			break
		}
		h.ps[parent], h.ps[i] = h.ps[i], h.ps[parent]
		i = parent
	}
}

func (h *parkerHeap) pop() *parker {
	top := h.ps[0]
	n := len(h.ps) - 1
	h.ps[0] = h.ps[n]
	h.ps[n] = nil
	h.ps = h.ps[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(h.ps[l], h.ps[smallest]) {
			smallest = l
		}
		if r < n && before(h.ps[r], h.ps[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.ps[i], h.ps[smallest] = h.ps[smallest], h.ps[i]
		i = smallest
	}
	return top
}
