package core

import (
	"bytes"
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
//     lease renewal and the fan-in backstop. Each executor keeps its
//     namespaces' state in a coordinator of its own, which goes with it.
//     Every executor a Cloud gives the storage it built shares its LISTs
//     through one hub, the Platform's (Config.SharePolls), which holds
//     only the namespaces armed at the moment; an executor over storage
//     of its own has a hub of its own, and so do the in-cloud waiters
//     (reduce barriers, composition waits inside a function), which model
//     separate containers. A wait arms each namespace it has pending calls
//     in for as long as it has them.
//   - A tick that needs a LIST while several namespaces of the bucket are
//     armed lists them all in one pass (listUnion): one page over the
//     longest common prefix of their status prefixes, from the lowest of
//     their frontiers to the end of the highest prefix. Namespaces the
//     page covered to the end of their prefix are brought up to date
//     together. The page never reads on: the namespace whose tick it is
//     resumes its own LIST where the page stopped if the page did not
//     cover it, and every namespace the page cut short is listed alone
//     until its waits disarm, so a pass issues no more LIST requests than
//     the namespaces in it would on their own.
//   - The LIST runs through the storage of the waiter whose tick it is, so
//     it counts in that executor's StorageOps. A wait's first sweep reuses
//     only a LIST that landed at or after it began, or one in flight; a
//     later tick also reuses one that *began* within half its poll
//     interval, whoever issued it. A lone waiter's ticks are an interval
//     and a LIST apart, so it lists every tick.
//   - Each wait parks on an event of its own, registered with every
//     namespace it has armed. A LIST that records a new key signals the
//     waits of that namespace — except the one whose tick issued it — so a
//     job learns of a completion at the first LIST anyone issues after the
//     commit.
//
//   - The done-set carries a version that moves only when a call enters or
//     leaves it. Waiters keep their own shrinking pending list and prune it
//     with harvest, which walks the list only when the version moved since
//     the waiter last looked — a tick whose LIST returned nothing new costs
//     a waiter no per-call work at all.
//
// Each namespace keeps its own consecutive-LIST-failure counter, which arms
// the dead-call consult (see sweepConsultThreshold in future.go), so
// composition waits get the same outage behavior as the main sweep.
//
// Completion push. On a wall-clock-driven clock over storage that reaches
// the in-process store (cos.WatcherOf; as under gowren-server), a wait also
// holds a watch on its status prefix: each committed status key goes into
// the done-set through the same record step a LIST's keys take, and wakes
// the namespace's waiters. Once a LIST that began under the watch has
// landed, the done-set is exact — the LIST holds every status committed
// before the watch, the watch every one after — so sweeps stop listing,
// and union passes leave the namespace out, until the last wait lets the
// watch go.
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
	// ns is the namespace and prefix its status prefix.
	ns     nsKey
	prefix string
	// nextSeq is the frontier: every call sequence below it has a
	// committed status. The next LIST starts after callIDForSeq(nextSeq-1),
	// whose status key marker caches as of frontier markerSeq (see after).
	nextSeq   int
	marker    string
	markerSeq int
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

// sweepHub is what the coordinators polling one storage share: the clock,
// the store their waits watch, the lock over every coordinator's states and
// the armed namespaces a union pass may cover. It keeps no state of its own
// past a wait: an armed state leaves the list when its last wait disarms,
// and every state belongs to one coordinator and goes with it.
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
	states map[nsKey]*sweepState // guarded by mu
}

// newSweepCoordinator returns a coordinator with a hub of its own: its
// waits share their LISTs with no one else's.
func newSweepCoordinator(storage cos.Client, clock vclock.Clock) *sweepCoordinator {
	return newHubCoordinator(newSweepHub(storage, clock))
}

// newHubCoordinator returns a coordinator sharing the LISTs of hub.
func newHubCoordinator(hub *sweepHub) *sweepCoordinator {
	return &sweepCoordinator{sweepHub: hub, states: make(map[nsKey]*sweepState)}
}

// stateLocked returns (creating if needed) the state for ns. Callers hold
// c.mu.
func (c *sweepCoordinator) stateLocked(ns nsKey) *sweepState {
	s, ok := c.states[ns]
	if !ok {
		s = &sweepState{
			ns:     ns,
			prefix: statusListPrefix(ns.execID),
			ahead:  make(map[int]bool),
			odd:    make(map[string]bool),
		}
		c.states[ns] = s
	}
	return s
}

func compareNS(a, b nsKey) int {
	return cmp.Or(strings.Compare(a.bucket, b.bucket), strings.Compare(a.execID, b.execID))
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

func compareArmed(s *sweepState, ns nsKey) int { return compareNS(s.ns, ns) }

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
// with every other waiter of the hub. The cached state answers when
// a LIST landed at or after asOf or — on the wait's later ticks — began at
// most p.reuse before it; a LIST in flight answers too, and this caller
// skips its own LIST entirely: that LIST signals it if it finds news, and
// otherwise the next tick looks again. Anything else lists, through
// p.storage: ns alone, or every armed namespace of the bucket in one union
// pass (listUnion).
func (c *sweepCoordinator) sweep(p *pendingSet, ns nsKey, asOf time.Time) sweepOutcome {
	c.mu.Lock()
	s := c.stateLocked(ns)
	if s.pushed || (s.swept && (!s.lastSweep.Before(asOf) || asOf.Sub(s.lastBegin) <= p.reuse)) {
		out := sweepOutcome{listed: true, fails: s.fails}
		c.mu.Unlock()
		return out
	}
	if s.inflight {
		out := sweepOutcome{listed: s.swept, fails: s.fails}
		c.mu.Unlock()
		return out
	}
	covers := c.passLocked(ns, s)
	c.mu.Unlock()

	// The LIST sleeps on the clock (link latency, retries); it must not
	// run under c.mu.
	begin := c.clock.Now()
	listUnion(p.storage, ns.bucket, covers)
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
	s      *sweepState
	prefix string // the namespace's status prefix
	// gen and arm are the state's forget count and watch arming when the
	// pass began (see landLocked).
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
		if t != s && t.ns.bucket == ns.bucket && !t.pushed && !t.apart && !t.inflight {
			covers = append(covers, coverLocked(t))
		}
	}
	return covers
}

func coverLocked(s *sweepState) cover {
	s.inflight = true
	return cover{s: s, prefix: s.prefix, gen: s.gen, arm: s.arms, marker: s.after(), whole: true}
}

// after returns the key the namespace's next LIST starts after: its
// frontier's status key, or "" while call 0 has none. The key is kept until
// the frontier moves, so a tick that found nothing new builds no string.
func (s *sweepState) after() string {
	if s.nextSeq == 0 {
		return ""
	}
	if s.markerSeq != s.nextSeq {
		s.marker, s.markerSeq = s.prefix+callIDForSeq(s.nextSeq-1), s.nextSeq
	}
	return s.marker
}

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
	prefix, from, last := covers[0].prefix, cmp.Or(covers[0].marker, covers[0].prefix), covers[0].prefix
	for _, cv := range covers[1:] {
		for !strings.HasPrefix(cv.prefix, prefix) {
			prefix = prefix[:len(prefix)-1]
		}
		// No key under a prefix sorts at or before the prefix itself.
		from, last = min(from, cmp.Or(cv.marker, cv.prefix)), max(last, cv.prefix)
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
		lo, _ := slices.BinarySearchFunc(objs, cv.prefix, func(o cos.ObjectMeta, p string) int { return strings.Compare(o.Key, p) })
		hi := lo
		for hi < len(objs) && strings.HasPrefix(objs[hi].Key, cv.prefix) {
			hi++
		}
		cv.objs = objs[lo:hi:hi]
		cv.whole = !page.IsTruncated || hi < len(objs)
		cv.cut = !cv.whole && len(covers) > 1
	}
	if lead := &covers[0]; !lead.whole {
		more, err := cos.ListFrom(storage, bucket, lead.prefix, max(objs[len(objs)-1].Key, lead.marker))
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
		news = s.record(obj.Key) || news
	}
	s.advance()
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
	if s.cancel != nil && s.arms == cv.arm {
		s.pushed = true
	}
	return sweepOutcome{listed: true}
}

// record adds the call a committed status key names to the done-set,
// reporting whether it is new there. A LIST's keys and a watch's deliveries
// both come in through here. Callers hold the hub's lock.
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
// of it. Callers hold the hub's lock.
func (s *sweepState) advance() {
	for s.ahead[s.nextSeq] {
		delete(s.ahead, s.nextSeq)
		s.nextSeq++
	}
}

// watch arms ns's commit watch for the length of one wait, when the
// coordinator has a watcher, and returns the wait's release: a no-op when
// nothing can be watched. Every newly recorded commit signals the waits
// armed on ns. Waits share one watch per namespace; the last release
// cancels it, and the next arming must list once more before sweeps stop
// listing.
func (c *sweepCoordinator) watch(ns nsKey) (release func()) {
	if c.watcher == nil {
		return func() {}
	}
	c.mu.Lock()
	s := c.stateLocked(ns)
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
				s.wake(nil)
			}
		})
		c.mu.Lock()
		s.cancel = cancel
		s.arms++
		c.mu.Unlock()
	}
	return func() {
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
// hub's lock.
func (s *sweepState) has(callID string) bool {
	if seq, numeric := callSeq(callID); numeric {
		return seq < s.nextSeq || s.ahead[seq]
	}
	return s.odd[callID]
}

// completed reports whether callID's status has been observed in ns.
func (c *sweepCoordinator) completed(ns nsKey, callID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.states[ns]
	return ok && s.has(callID)
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
	if s, ok := c.states[ns]; ok {
		delete(c.states, ns)
		c.unarmLocked(s)
	}
}
