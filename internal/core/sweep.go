package core

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
)

// Incremental status sweeps. The client discovers completion by polling a
// per-executor status prefix in COS (paper §4.2); naively that is one LIST
// of the *entire* prefix per poll per waiter, which at Table-3 scale makes
// the poll loop O(total futures) per tick and the job O(futures × ticks)
// in listed objects. The sweepCoordinator makes the poll loop O(newly
// finished) instead:
//
//   - Call IDs are zero-padded, so status keys sort in call order. The
//     coordinator keeps, per status namespace, a contiguous done-frontier
//     (every call below it has committed a status) plus a cache of
//     out-of-order completions above it, and starts each LIST strictly
//     after the frontier key via cos.ListFrom. Keys behind the frontier
//     are never listed again.
//   - Every status waiter is a pendingSet (future.go) waiting through its
//     one wait loop, the only caller of pendingSet.sweep, which also runs
//     the driver's chores around each sweep: the respawn-ledger tick, the
//     lease renewal and the fan-in backstop. All waiters of one executor —
//     Wait, GetResult, WaitThreshold, the composition resolver's awaitCalls
//     running on many staging workers — share the coordinator, so
//     concurrent polls of the same namespace coalesce into (at most) one
//     LIST per tick: a caller that finds a sweep in flight, or one that
//     completed at/after its own observation time, reuses the shared state
//     instead of issuing its own LIST. A reduce barrier builds a
//     coordinator of its own per activation.
//
//   - The done-set carries a version that moves only when a call enters or
//     leaves it. Waiters keep their own shrinking pending list and prune it
//     with harvest, which walks the list only when the version moved since
//     the waiter last looked — a tick whose LIST returned nothing new costs
//     a waiter no per-call work at all.
//
// The coordinator also owns the consecutive-LIST-failure counter that
// arms the dead-call consult (see sweepConsultThreshold in future.go), so
// composition waits get the same outage behavior as the main sweep.
//
// Completion push. On a wall-clock-driven clock over storage that reaches
// the in-process store (cos.WatcherOf; as under gowren-server), a wait also
// holds a watch on its status prefix: each committed status key goes into
// the done-set through the same record step a LIST's keys take, and wakes
// the namespace's waiters through an event the first watch creates. Once a
// LIST that began under the watch has landed, the done-set is exact — the
// LIST holds every status committed before the watch, the watch every one
// after — so sweeps stop listing until the last wait lets the watch go.
// The push also carries each newly recorded status's body, which the
// namespace's state keeps until a status fetch takes it (takePushed): a
// status the driver was pushed costs it no GET. The Virtual clock never
// watches: its client polls and reads COS exactly as the paper's does.

// nsKey identifies one status namespace: a meta bucket plus the executor
// ID whose calls it holds.
type nsKey struct {
	bucket string
	execID string
}

// sweepOutcome reports one coordinated sweep attempt.
type sweepOutcome struct {
	// listed is true when the namespace has at least one successful LIST
	// behind it, i.e. the done-set reflects real storage state (possibly a
	// tick old when the caller coalesced onto an in-flight sweep).
	listed bool
	// fails is the consecutive-failed-LIST count after this attempt.
	fails int
	// err is a non-transient sweep failure; the wait must abort.
	err error
}

// consult reports whether callers should fall through to the
// activation-record consult: either the done-set is trustworthy (a LIST
// succeeded) or the listing has been failing long enough that waiting for
// it to recover would hide platform-dead calls (see pendingSet.sweep).
func (o sweepOutcome) consult() bool {
	return o.listed || o.fails >= sweepConsultThreshold
}

// sweepState is the per-namespace sweep memory.
type sweepState struct {
	// nextSeq is the frontier: every call sequence below it has a
	// committed status. The next LIST starts after callIDForSeq(nextSeq-1).
	nextSeq int
	// ahead caches committed sequences at or above the frontier
	// (out-of-order completions, bounded by the job's completion skew).
	ahead map[int]bool
	// odd holds committed call IDs that do not parse as padded sequences
	// (foreign writers); they never advance the frontier but still count
	// as done.
	odd map[string]bool
	// version counts changes to the done-set (harvested completions and
	// forgets); see harvest.
	version uint64

	inflight  bool      // a LIST for this namespace is on the wire
	swept     bool      // at least one LIST has ever succeeded
	lastSweep time.Time // completion time of the last successful LIST
	fails     int       // consecutive failed LISTs
	// evt is signalled whenever a watched commit or a successful sweep
	// lands for the namespace, so waiters holding the watch recheck their
	// pending sets immediately. The first watch creates it; nil before.
	evt *vclock.Event
	// gen counts forget calls. A sweep whose LIST was on the wire when a
	// forget landed must discard its harvest: the listing may still show
	// the status object a concurrent respawn just deleted, and marking
	// that call done again would hand the waiter a dangling status key.
	gen int

	// The namespace's commit watch: holds counts the waits holding it,
	// cancel ends it (nil until it is armed), arms numbers the armings, and
	// pushed is set once a LIST that began under the current arming has
	// landed — from then on the watch keeps the done-set exact and sweeps
	// do not list.
	holds  int
	cancel func()
	arms   uint64
	pushed bool
	// bodies holds, by call ID, the status body the watch delivered with
	// each commit it newly recorded, until a fetch takes it (takePushed).
	// They are the store's own copies: nothing here writes into one, and a
	// fetch hands its caller a copy. They outlive the watch's release, so a
	// fetch after its wait still finds them; forget drops the call's, and
	// forgetNamespace all of them. Nil until the first push.
	bodies map[string][]byte
}

// sweepCoordinator shares incremental sweep state between every waiter of
// one storage view. It is safe for concurrent use; the LIST itself runs
// outside the lock (it sleeps on the simulation clock).
type sweepCoordinator struct {
	storage cos.Client
	clock   vclock.Clock
	// watcher is the store waits arm their commit watches on: the one
	// behind storage, on a wall-clock-driven clock; nil on the Virtual
	// clock or when storage reaches none (HTTP, multi-region).
	watcher *cos.Store

	mu     sync.Mutex
	states map[nsKey]*sweepState
}

func newSweepCoordinator(storage cos.Client, clock vclock.Clock) *sweepCoordinator {
	c := &sweepCoordinator{
		storage: storage,
		clock:   clock,
		states:  make(map[nsKey]*sweepState),
	}
	if _, virtual := clock.(*vclock.Virtual); !virtual {
		c.watcher = cos.WatcherOf(storage)
	}
	return c
}

// stateLocked returns (creating if needed) the state for ns. Callers hold
// c.mu.
func (c *sweepCoordinator) stateLocked(ns nsKey) *sweepState {
	s, ok := c.states[ns]
	if !ok {
		s = &sweepState{
			ahead: make(map[int]bool),
			odd:   make(map[string]bool),
		}
		c.states[ns] = s
	}
	return s
}

// sweep brings ns's done-set up to date with one incremental LIST,
// coalescing with concurrent callers: if a sweep completed at or after
// asOf the cached state is already fresh enough, and if one is in flight
// this caller skips its own LIST entirely — it is polling and will
// observe the in-flight sweep's harvest next tick.
func (c *sweepCoordinator) sweep(ns nsKey, asOf time.Time) sweepOutcome {
	c.mu.Lock()
	s := c.stateLocked(ns)
	if s.pushed || (s.swept && !s.lastSweep.Before(asOf)) {
		out := sweepOutcome{listed: true, fails: s.fails}
		c.mu.Unlock()
		return out
	}
	if s.inflight {
		out := sweepOutcome{listed: s.swept, fails: s.fails}
		c.mu.Unlock()
		return out
	}
	s.inflight = true
	gen := s.gen
	// A LIST completes the push only if the watch that is live when it lands
	// was armed before it began: a status committed between the LIST's
	// snapshot and a later arming is in neither.
	arm := s.arms
	marker := ""
	if s.nextSeq > 0 {
		marker = statusKey(ns.execID, callIDForSeq(s.nextSeq-1))
	}
	c.mu.Unlock()

	// The LIST sleeps on the clock (link latency, retries); it must not
	// run under c.mu.
	listed, err := cos.ListFrom(c.storage, ns.bucket, statusListPrefix(ns.execID), marker)
	now := c.clock.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	s.inflight = false
	if err != nil {
		if errors.Is(err, cos.ErrRequestFailed) {
			s.fails++
			return sweepOutcome{listed: s.swept, fails: s.fails}
		}
		return sweepOutcome{err: err}
	}
	s.fails = 0
	if s.gen != gen {
		// A forget raced this LIST: its snapshot may predate the respawn's
		// status delete. Drop the harvest; the next sweep re-lists from the
		// rolled-back frontier and observes only real state.
		return sweepOutcome{listed: s.swept, fails: s.fails}
	}
	for _, obj := range listed {
		s.record(obj.Key)
	}
	s.advance()
	s.swept = true
	s.lastSweep = now
	if s.cancel != nil && s.arms == arm {
		s.pushed = true
	}
	if s.evt != nil {
		s.evt.Signal()
	}
	return sweepOutcome{listed: true}
}

// record adds the call a committed status key names to the done-set,
// reporting whether it is new there. A LIST's keys and a watch's deliveries
// both come in through here. Callers hold the coordinator's lock.
func (s *sweepState) record(key string) bool {
	id, ok := callIDFromStatusKey(key)
	if !ok || s.has(id) {
		return false
	}
	if seq, numeric := callSeq(id); numeric {
		s.ahead[seq] = true
	} else {
		s.odd[id] = true
	}
	s.version++
	return true
}

// advance moves the frontier over the contiguous completions cached ahead
// of it. Callers hold the coordinator's lock.
func (s *sweepState) advance() {
	for s.ahead[s.nextSeq] {
		delete(s.ahead, s.nextSeq)
		s.nextSeq++
	}
}

// watch arms ns's commit watch for the length of one wait, when the
// coordinator has a watcher, and returns ns's event — signalled by every
// newly recorded commit — with the wait's release. It returns a nil event
// and a no-op release when nothing can be watched. Waits share one watch
// per namespace; the last release cancels it, and the next arming must
// list once more before sweeps stop listing.
func (c *sweepCoordinator) watch(ns nsKey) (evt *vclock.Event, release func()) {
	if c.watcher == nil {
		return nil, func() {}
	}
	c.mu.Lock()
	s := c.stateLocked(ns)
	if s.evt == nil {
		s.evt = vclock.NewEvent(c.clock)
	}
	s.holds++
	first := s.holds == 1
	c.mu.Unlock()
	if first {
		// Watch runs outside c.mu: deliveries take c.mu under the store's
		// lock, so the store's lock is always taken first.
		cancel := c.watcher.Watch(ns.bucket, statusListPrefix(ns.execID), func(key string, body []byte) {
			c.mu.Lock()
			defer c.mu.Unlock()
			if s.record(key) {
				if s.bodies == nil {
					s.bodies = make(map[string][]byte)
				}
				id, _ := callIDFromStatusKey(key)
				s.bodies[id] = body
				s.advance()
				s.evt.Signal()
			}
		})
		c.mu.Lock()
		s.cancel = cancel
		s.arms++
		c.mu.Unlock()
	}
	return s.evt, func() {
		c.mu.Lock()
		s.holds--
		var cancel func()
		if s.holds == 0 {
			cancel, s.cancel, s.pushed = s.cancel, nil, false
		}
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
}

// takePushed moves the status bodies the watches pushed for calls, all in
// bucket, into bodies (index-aligned with calls), each a private copy, and
// returns the indices of the calls it found none for — the ones to GET. A
// body is taken at most once. Without a watcher it returns nil: GET every
// call, with no lookup.
func (c *sweepCoordinator) takePushed(bucket string, calls []callRef, bodies [][]byte) (gets []int) {
	if c.watcher == nil {
		return nil
	}
	gets = make([]int, 0, len(calls))
	c.mu.Lock()
	for i, call := range calls {
		if s := c.states[nsKey{bucket: bucket, execID: call.execID}]; s != nil {
			bodies[i] = s.bodies[call.callID]
			delete(s.bodies, call.callID)
		}
		if bodies[i] == nil {
			gets = append(gets, i)
		}
	}
	c.mu.Unlock()
	// The copies are made outside the lock: deliveries wait on it under the
	// store's, and a stored body never changes.
	for i, body := range bodies {
		if body != nil {
			bodies[i] = bytes.Clone(body)
		}
	}
	return gets
}

// has reports whether callID is in the done-set. Callers hold the
// coordinator's lock.
func (s *sweepState) has(callID string) bool {
	if seq, numeric := callSeq(callID); numeric {
		return seq < s.nextSeq || s.ahead[seq]
	}
	return s.odd[callID]
}

// harvest splits a waiter's pending calls into those whose status has been
// observed in ns and the rest (kept reuses pending's storage), in one pass
// under one lock — and in no pass at all while the done-set is still at the
// version *seen the waiter last harvested at, which is what makes a poll
// tick cost O(newly completed) rather than O(pending).
func harvest(c *sweepCoordinator, ns nsKey, seen *uint64, pending []*Future) (done, kept []*Future) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	if !ok || s.version == *seen {
		return nil, pending
	}
	*seen = s.version
	kept = pending[:0]
	for _, p := range pending {
		if s.has(p.callID) {
			done = append(done, p)
		} else {
			kept = append(kept, p)
		}
	}
	return done, kept
}

// firstUncommitted returns the lowest call sequence in [from, end) whose
// status the done-set does not hold, or end when it holds them all. A caller
// that keeps the result as its next from pays O(newly committed) over a whole
// job rather than O(range) per look.
func (c *sweepCoordinator) firstUncommitted(ns nsKey, from, end int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	if !ok {
		return from
	}
	for from < end {
		switch {
		case from < s.nextSeq:
			from = min(s.nextSeq, end)
		case s.ahead[from], len(s.odd) > 0 && s.odd[callIDForSeq(from)]:
			from++
		default:
			return from
		}
	}
	return from
}

// forget withdraws callID from ns's done-set — called when a respawn
// deletes the stale status object so the next sweep re-observes the call.
// Forgetting a call below the frontier rolls the frontier back to it; the
// completions in between stay cached, so only the forgotten key is
// re-listed.
func (c *sweepCoordinator) forget(ns nsKey, callID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	if !ok {
		return
	}
	s.gen++
	s.version++
	delete(s.bodies, callID)
	seq, numeric := callSeq(callID)
	if !numeric {
		delete(s.odd, callID)
		return
	}
	if seq >= s.nextSeq {
		delete(s.ahead, seq)
		return
	}
	for j := seq + 1; j < s.nextSeq; j++ {
		s.ahead[j] = true
	}
	s.nextSeq = seq
}

// forgetNamespace drops all sweep state for ns, its pushed bodies included
// — called by Clean, which deletes the status objects the state mirrors. A
// wait still holding the watch fills the dropped state, which nothing reads.
func (c *sweepCoordinator) forgetNamespace(ns nsKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.states, ns)
}
