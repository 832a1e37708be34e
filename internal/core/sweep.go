package core

import (
	"cmp"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
)

// Incremental status sweeps. The client discovers completion by polling a
// per-executor status prefix in COS (paper §4.2); naively that is one LIST
// of the *entire* prefix per poll per waiter, which at Table-3 scale makes
// the poll loop O(total futures) per tick and the job O(futures × ticks)
// in listed objects. The sweep makes the poll loop O(newly finished)
// instead, in three parts: each namespace's done-set (doneset.go), whose
// frontier every LIST starts strictly after (cos.ListFrom), so keys behind
// it are never listed again; the scheduling of the LISTs, here; and, on
// wall-clock-driven clocks, the completion push (push.go).
//
//   - Every status waiter is a pendingSet (future.go), which sweeps from
//     its one wait loop and arms each namespace it has calls pending in
//     for as long as it has them. Each executor keeps its namespaces' state
//     in a coordinator of its own, which goes with it, and shares its LISTs
//     with the other coordinators of its hub (sweepHub).
//   - A tick that needs a LIST while several namespaces of the bucket are
//     armed lists them all in one pass (listUnion), which never issues
//     more LIST requests than the namespaces in it would on their own.
//   - The LIST runs through the storage of the coordinator whose tick it
//     is, so it counts in that executor's StorageOps. A later tick reuses
//     a LIST that *began* within half its poll interval, whoever issued it
//     (sweep); a lone waiter's ticks are further apart, so it lists each.
//   - Each wait parks on an event of its own, registered with every
//     namespace it has armed, which a LIST that records a new key signals
//     (wake): a job learns of a completion at the first LIST anyone issues
//     after the commit.
//
// Each namespace keeps its own consecutive-LIST-failure counter, which arms
// the dead-call consult (see sweepConsultThreshold in future.go), so
// composition waits get the same outage behavior as the main sweep.

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
	// ns is the namespace and prefix its status prefix.
	ns     nsKey
	prefix string
	// done is the namespace's done-set; push, its completion push, is nil
	// but on a wall-clock-driven clock.
	done doneSet
	push *push

	inflight  bool      // a LIST for this namespace is on the wire
	swept     bool      // at least one LIST has ever succeeded
	lastBegin time.Time // start of the last successful LIST
	lastSweep time.Time // completion time of the last successful LIST
	fails     int       // consecutive failed LISTs
	// waiters are the events of the waits armed on the namespace (arm): a
	// watched commit or a LIST that records a new key signals them. While
	// there are any, the state is in the hub's armed list.
	waiters []*vclock.Event
	// apart is set when a union page the namespace was in ended before its
	// prefix did: until its waits disarm, its LISTs cover it alone.
	apart bool
	// gen counts forget calls. A sweep whose LIST was on the wire when a
	// forget landed must discard its harvest: the listing may still show
	// the status object a concurrent respawn just deleted, and marking
	// that call done again would hand the waiter a dangling status key.
	gen int
}

// sweepHub is what the coordinators polling one storage share: the clock,
// the store their waits watch, the lock over every coordinator's states and
// the armed namespaces a union pass may cover. The executors a Cloud gives
// the storage it built share the Platform's (Config.SharePolls); every other
// executor and in-cloud waiter (reduce barrier, composition wait inside a
// function) has its own. It keeps no state past a wait: an armed state
// leaves the list when its last wait disarms, and every state belongs to one
// coordinator and goes with it.
type sweepHub struct {
	clock vclock.Clock
	// watcher is the store waits arm their commit watches on: the one
	// behind the storage the hub was built for, on a wall-clock-driven
	// clock; nil on the Virtual clock or when that storage reaches none
	// (HTTP, multi-region).
	watcher *cos.Store

	mu sync.Mutex
	// armed lists the states that have waiters, in namespace order: what a
	// union pass may cover. Two coordinators waiting on one namespace each
	// arm a state of their own.
	armed []*sweepState
}

func newSweepHub(storage cos.Client, clock vclock.Clock) *sweepHub {
	h := &sweepHub{clock: clock}
	if _, virtual := clock.(*vclock.Virtual); !virtual {
		h.watcher = cos.WatcherOf(storage)
	}
	return h
}

// sweepCoordinator holds the sweep state of every namespace one executor's
// waits poll, and shares the LISTs over them with the other coordinators of
// its hub. It is safe for concurrent use; the LIST itself runs outside the
// hub's lock (it sleeps on the simulation clock).
type sweepCoordinator struct {
	*sweepHub
	// storage is what the waits' LISTs run through: the executor's view, or
	// the activation's in a reduce barrier.
	storage cos.Client
	armings uint64                // numbers the watch armings (push.arm); guarded by mu
	states  map[nsKey]*sweepState // guarded by mu
}

// newSweepCoordinator returns a coordinator whose waits list through
// storage and share their LISTs through hub.
func newSweepCoordinator(hub *sweepHub, storage cos.Client) *sweepCoordinator {
	return &sweepCoordinator{sweepHub: hub, storage: storage, states: make(map[nsKey]*sweepState)}
}

// stateLocked returns (creating if needed) the state for ns. Callers hold
// c.mu.
func (c *sweepCoordinator) stateLocked(ns nsKey) *sweepState {
	s, ok := c.states[ns]
	if !ok {
		s = &sweepState{ns: ns, prefix: statusListPrefix(ns.execID)}
		c.states[ns] = s
	}
	return s
}

// arm registers evt, one wait's event, with ns while the wait has calls
// pending there: ns joins the union passes, and every key a LIST or the
// watch newly records for it signals evt.
func (c *sweepCoordinator) arm(ns nsKey, evt *vclock.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stateLocked(ns)
	if len(s.waiters) == 0 {
		i, _ := slices.BinarySearchFunc(c.armed, ns, compareArmed)
		c.armed = slices.Insert(c.armed, i, s)
	}
	s.waiters = append(s.waiters, evt)
}

// disarm withdraws evt from ns. The last wait to go takes ns out of the
// union passes and ends its being listed apart.
func (c *sweepCoordinator) disarm(ns nsKey, evt *vclock.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	if !ok {
		return
	}
	if i := slices.Index(s.waiters, evt); i >= 0 {
		s.waiters = slices.Delete(s.waiters, i, i+1)
	}
	if len(s.waiters) == 0 {
		s.apart = false
		c.unarmLocked(s)
	}
}

func compareArmed(s *sweepState, ns nsKey) int {
	return cmp.Or(strings.Compare(s.ns.bucket, ns.bucket), strings.Compare(s.ns.execID, ns.execID))
}

// unarmLocked takes s out of the armed list. Callers hold c.mu.
func (h *sweepHub) unarmLocked(s *sweepState) {
	i, _ := slices.BinarySearchFunc(h.armed, s.ns, compareArmed)
	for ; i < len(h.armed) && h.armed[i].ns == s.ns; i++ {
		if h.armed[i] == s {
			h.armed = slices.Delete(h.armed, i, i+1)
			return
		}
	}
}

// wake signals the waits armed on the namespace but skip, the one whose
// own LIST brought the news: its tick harvests it already.
func (s *sweepState) wake(skip *vclock.Event) {
	for _, evt := range s.waiters {
		if evt != skip {
			evt.Signal()
		}
	}
}

// sweep brings ns's done-set up to date for a tick of wait p, coalescing
// with every other waiter of the hub. The cached state answers when it is
// pushed, when a LIST landed at or after asOf or — on the wait's later
// ticks — began at most p.reuse before it; a LIST in flight answers too,
// and this caller skips its own LIST entirely: that LIST signals it if it
// finds news, and otherwise the next tick looks again. Anything else lists,
// through c.storage: ns alone, or every armed namespace of the bucket in
// one union pass (listUnion).
func (c *sweepCoordinator) sweep(p *pendingSet, ns nsKey, asOf time.Time) sweepOutcome {
	c.mu.Lock()
	s := c.stateLocked(ns)
	fresh := s.pushed() || (s.swept && (!s.lastSweep.Before(asOf) || asOf.Sub(s.lastBegin) <= p.reuse))
	if fresh || s.inflight {
		out := sweepOutcome{listed: fresh || s.swept, fails: s.fails}
		c.mu.Unlock()
		return out
	}
	covers := c.passLocked(ns, s)
	c.mu.Unlock()

	// The LIST sleeps on the clock (link latency, retries); it must not
	// run under c.mu.
	begin := c.clock.Now()
	listUnion(c.storage, ns.bucket, covers)
	now := c.clock.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	out := landLocked(&covers[0], begin, now, p.evt)
	for i := 1; i < len(covers); i++ {
		landLocked(&covers[i], begin, now, p.evt)
	}
	return out
}

// cover is one namespace's part in a LIST pass.
type cover struct {
	s *sweepState
	// gen and arm are the state's forget count and its push's arming (0
	// without a push) when the pass began (see landLocked).
	gen int
	arm uint64
	// marker is the key the namespace is listed strictly after: its
	// frontier's, or "" from the start of its prefix.
	marker string
	// objs are the status objects the pass found under the namespace's
	// prefix, whole says the pass read that prefix to its end, cut that a
	// union page stopped short of its end, and err is the LIST's failure.
	objs       []cos.ObjectMeta
	whole, cut bool
	err        error
}

// passLocked marks the LIST pass about to run for ns in flight and returns
// its covers: ns first, then — unless ns is listed apart — every other
// armed state of the hub in the bucket, another coordinator's for ns
// included, that is neither pushed, listed apart, nor on the wire already.
// Callers hold c.mu.
func (c *sweepCoordinator) passLocked(ns nsKey, s *sweepState) []cover {
	if s.apart {
		return []cover{coverLocked(s)}
	}
	covers := make([]cover, 1, len(c.armed)+1)
	covers[0] = coverLocked(s)
	for _, t := range c.armed {
		if t != s && t.ns.bucket == ns.bucket && !t.pushed() && !t.apart && !t.inflight {
			covers = append(covers, coverLocked(t))
		}
	}
	return covers
}

func coverLocked(s *sweepState) cover {
	s.inflight = true
	cv := cover{s: s, gen: s.gen, marker: s.done.after(s.prefix), whole: true}
	if s.push != nil {
		cv.arm = s.push.arm
	}
	return cv
}

// pushed reports whether the watch keeps ns's done-set exact, so that
// sweeps need not list it. Callers hold the hub's lock.
func (s *sweepState) pushed() bool { return s.push != nil && s.push.exact }

// listUnion lists the namespaces of bucket in covers in one pass: one page
// over the longest common prefix of their status prefixes, from the lowest
// of their markers to the end of the highest prefix, of which each
// namespace keeps the keys under its own prefix. Ending there, not at the
// end of the common prefix, keeps what the page holds independent of the
// digits the executor IDs happen to share. A namespace the page read past
// the end of is whole. The page is never followed: covers[0], whose tick it
// is, resumes its own listing where the page stopped if the page cut it
// short — for a lone namespace, that is its plain paged listing — and any
// other namespace it cut short is left not whole. Every namespace a union
// page cut short is listed apart from then on (see landLocked), so the
// objects that filled the page are not paged through again.
func listUnion(storage cos.Client, bucket string, covers []cover) {
	prefix, from, last := covers[0].s.prefix, cmp.Or(covers[0].marker, covers[0].s.prefix), covers[0].s.prefix
	for _, cv := range covers[1:] {
		for !strings.HasPrefix(cv.s.prefix, prefix) {
			prefix = prefix[:len(prefix)-1]
		}
		// No key under a prefix sorts at or before the prefix itself.
		from, last = min(from, cmp.Or(cv.marker, cv.s.prefix)), max(last, cv.s.prefix)
	}
	// The page stops before the first key past the highest prefix: every
	// status prefix ends in '/', and '0' follows it.
	page, err := cos.ListUntil(storage, bucket, prefix, from, last[:len(last)-1]+"0")
	if err != nil {
		for i := range covers {
			covers[i].err = err
		}
		return
	}
	objs := page.Objects
	for i := range covers {
		// A prefix's keys are one run of the sorted page.
		cv := &covers[i]
		lo, _ := slices.BinarySearchFunc(objs, cv.s.prefix, func(o cos.ObjectMeta, p string) int { return strings.Compare(o.Key, p) })
		hi := lo
		for hi < len(objs) && strings.HasPrefix(objs[hi].Key, cv.s.prefix) {
			hi++
		}
		cv.objs = objs[lo:hi:hi]
		cv.whole = !page.IsTruncated || hi < len(objs)
		cv.cut = !cv.whole && len(covers) > 1
	}
	if lead := &covers[0]; !lead.whole {
		more, err := cos.ListFrom(storage, bucket, lead.s.prefix, max(objs[len(objs)-1].Key, lead.marker))
		lead.objs, lead.err, lead.whole = append(lead.objs, more...), err, true
	}
}

// landLocked records one namespace's part of a finished LIST pass and
// reports its outcome. A part cut short still records what it found, but
// sets its namespace apart instead of counting as a LIST of it. New keys
// signal the namespace's waits, all but self's. Callers hold c.mu.
func landLocked(cv *cover, begin, now time.Time, self *vclock.Event) sweepOutcome {
	s := cv.s
	s.inflight = false
	if cv.err != nil {
		if errors.Is(cv.err, cos.ErrRequestFailed) {
			s.fails++
			return sweepOutcome{listed: s.swept, fails: s.fails}
		}
		return sweepOutcome{err: cv.err}
	}
	if cv.cut {
		s.apart = true
	}
	if cv.whole {
		s.fails = 0
	}
	if s.gen != cv.gen {
		// A forget raced this LIST: its snapshot may predate the respawn's
		// status delete. Drop the harvest; the next sweep re-lists from the
		// rolled-back frontier and observes only real state.
		return sweepOutcome{listed: s.swept, fails: s.fails}
	}
	news := false
	for _, obj := range cv.objs {
		if id, ok := callIDFromStatusKey(obj.Key); ok && s.done.record(id) {
			news = true
		}
	}
	if news {
		s.wake(self)
	}
	if !cv.whole {
		return sweepOutcome{listed: s.swept, fails: s.fails}
	}
	s.swept = true
	s.lastBegin, s.lastSweep = begin, now
	// A LIST completes the push only if the watch that is live when it lands
	// was armed before it began: a status committed between the LIST's
	// snapshot and a later arming is in neither.
	if p := s.push; p != nil && p.cancel != nil && p.arm == cv.arm {
		p.exact = true
	}
	return sweepOutcome{listed: true}
}

// withDone runs f on ns's done-set under the hub's lock: the one way to
// read it outside the sweep (a wait's harvest, the fan-in backstop,
// Attach). f must not block.
func (c *sweepCoordinator) withDone(ns nsKey, f func(d *doneSet)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(&c.stateLocked(ns).done)
}

// forget withdraws callID from ns's done-set, and drops the body the watch
// pushed for it — called when a respawn deletes the stale status object so
// the next sweep re-observes the call.
func (c *sweepCoordinator) forget(ns nsKey, callID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	if !ok {
		return
	}
	s.gen++
	s.done.forget(callID)
	if s.push != nil {
		delete(s.push.bodies, callID)
		s.tidyPush()
	}
}

// forgetNamespace drops all sweep state for ns, its pushed bodies included
// — called by Clean, which deletes the status objects the state mirrors. A
// wait still holding the watch fills the dropped state, which nothing reads.
func (c *sweepCoordinator) forgetNamespace(ns nsKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.states[ns]; ok {
		delete(c.states, ns)
		c.unarmLocked(s)
	}
}
