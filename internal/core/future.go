package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// maxCompositionDepth bounds continuation chains so a buggy self-invoking
// composition cannot hang GetResult forever.
const maxCompositionDepth = 32

// Future tracks one remote call, in the spirit of the Python futures
// interface the paper mimics (§4.2, footnote 2). Futures are created by the
// executor; user code observes them through Wait/GetResult or the
// per-future accessors.
type Future struct {
	exec         *Executor
	executorID   string
	callID       string
	activationID string // empty until a fan-in launch is known
	// payload is where the call's staged payload lives — what a respawn hands
	// the runner. The zero ref marks a future adopted by Attach; Respawn
	// locates those through the resolver (payloads.go).
	payload wire.ObjectRef
	// gate is the stage barrier this call waits behind (see fanin.go); nil
	// for calls the client invokes itself.
	gate *fanInGroup

	mu     sync.Mutex
	done   bool
	status *wire.StatusRecord
	failed error
}

func newFuture(e *Executor, executorID, callID, activationID string) *Future {
	return &Future{exec: e, executorID: executorID, callID: callID, activationID: activationID}
}

// CallID returns the future's call identifier.
func (f *Future) CallID() string { return f.callID }

// ActivationID returns the platform activation ID when known: at once for a
// call invoked directly, and for one launched by a fan-in (a reducer, or a
// call under massive spawning) once the driver has read the group's marker.
func (f *Future) ActivationID() string { return f.activationID }

// adopt records the activation now driving the call — a fan-in launch the
// driver learned of from the group's marker, or made itself — so the wait
// path's dead-activation probe covers it.
func (f *Future) adopt(activationID string) {
	f.mu.Lock()
	f.activationID = activationID
	f.mu.Unlock()
}

// markDone records a completed status sighting.
func (f *Future) markDone() { f.complete(nil) }

// markFailed records a platform-level failure (activation died without
// writing a status object).
func (f *Future) markFailed(err error) { f.complete(err) }

// complete transitions the future to done.
func (f *Future) complete(err error) {
	f.mu.Lock()
	f.done = true
	if err != nil {
		f.failed = err
	}
	f.mu.Unlock()
}

// knownDone reports the cached completion state without any storage round
// trip.
func (f *Future) knownDone() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.done
}

// cachedStatus returns the status record in hand, or nil.
func (f *Future) cachedStatus() *wire.StatusRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// outcome judges a done call from what is already in hand — nil for a
// committed OK status, otherwise the failure: an activation that died
// without committing a status (crash) or a status with OK=false (user or
// runner error).
func (f *Future) outcome() error {
	f.mu.Lock()
	failed, rec := f.failed, f.status
	f.mu.Unlock()
	switch {
	case failed != nil:
		return failed
	case !rec.OK:
		return fmt.Errorf("core: call %s/%s: %s: %w", f.executorID, f.callID, rec.Error, ErrCallFailed)
	}
	return nil
}

// fetchStatuses loads and caches the status records of done calls that have
// neither a record nor a platform failure in hand: the body the watch
// pushed, or else one GET each, at most StageConcurrency in flight (see
// fetchStatusRecords). The result is aligned with fs and nil when every
// record is now in hand.
func (e *Executor) fetchStatuses(fs []*Future) []error {
	var (
		idx   []int
		calls []callRef
	)
	for i, f := range fs {
		f.mu.Lock()
		need := f.failed == nil && f.status == nil
		f.mu.Unlock()
		if need {
			idx = append(idx, i)
			calls = append(calls, callRef{execID: f.executorID, callID: f.callID})
		}
	}
	recs, fetchErrs := e.fetchStatusRecords(e.cfg.Platform.MetaBucket(), calls)
	var errs []error
	for k, i := range idx {
		f := fs[i]
		if recs[k] == nil {
			if errs == nil {
				errs = make([]error, len(fs))
			}
			errs[i] = fmt.Errorf("core: fetch status %s/%s: %w", f.executorID, f.callID, fetchErrs[k])
			continue
		}
		f.mu.Lock()
		f.status = recs[k]
		f.mu.Unlock()
		f.complete(nil)
	}
	return errs
}

// callRef names one call: the executor namespace its status is under and
// its call ID.
type callRef struct{ execID, callID string }

// fetchStatusRecords loads and decodes the status records of calls, all in
// bucket. A body the watch pushed is taken from the sweep state (see
// takePushed); the rest are GET, at most StageConcurrency requests in
// flight, the caller being one of the workers. The workers only move bytes:
// every record is decoded here, on the calling task, whose stack has already
// grown to fit the decoder — on a worker's fresh stack each decode would pay
// for growing it again. A record's strings and Inline alias the body it was
// decoded from — a GET's copy, or the copy takePushed makes of the store's —
// which nothing writes into afterwards, and keep that whole body alive.
// recs[i] is nil exactly where errs[i] is set; errs is nil when all succeed.
func (e *Executor) fetchStatusRecords(bucket string, calls []callRef) (recs []*wire.StatusRecord, errs []error) {
	bodies := make([][]byte, len(calls))
	// gets lists the calls left to GET; nil means all of them.
	gets := e.sweeps.takePushed(bucket, calls, bodies)
	n := len(calls)
	if gets != nil {
		n = len(gets)
	}
	errs = fetchFor(e.clock, e.cfg.StageConcurrency, n, func(k int) error {
		if gets != nil {
			k = gets[k]
		}
		var err error
		bodies[k], _, err = e.cfg.Storage.Get(bucket, statusKey(calls[k].execID, calls[k].callID))
		return err
	})
	if gets != nil && errs != nil {
		// Align the GETs' errors with calls.
		byCall := make([]error, len(calls))
		for k, err := range errs {
			byCall[gets[k]] = err
		}
		errs = byCall
	}
	recs = make([]*wire.StatusRecord, len(calls))
	decoded := make([]wire.StatusRecord, len(calls))
	for i, body := range bodies {
		if errs != nil && errs[i] != nil {
			continue
		}
		var err error
		if decoded[i], err = decodeStatusObject(body); err != nil {
			if errs == nil {
				errs = make([]error, len(calls))
			}
			errs[i] = err
			continue
		}
		recs[i] = &decoded[i]
	}
	return recs, errs
}

// decodeStatusObject decodes a whole status object: its record line, with
// a result spilled after the line moved into Inline, so a record in hand
// carries its result whichever way it was committed. The record aliases body.
func decodeStatusObject(body []byte) (wire.StatusRecord, error) {
	rec, _, err := wire.DecodeStatus(body)
	if err != nil || len(rec.Inline) > 0 || rec.ResultRef.Length == 0 {
		return rec, err
	}
	rec.Inline, err = wire.SpilledEnvelope(&rec, body)
	return rec, err
}

// sweepConsultThreshold is the number of consecutive failed status LISTs
// (per executor namespace) after which a sweep stops waiting for the
// listing to recover and consults activation records directly. Low enough
// that a permanently partitioned status prefix surfaces dead calls within
// a few poll intervals, high enough that one lost request does not trigger
// a consult storm.
const sweepConsultThreshold = 3

// pendingSet is the shrinking half of a wait: the futures not yet known
// done, grouped by status namespace. Each sweep hands back the calls that
// newly finished and drops them from the set, so a poll tick costs what
// finished since the last one, not one probe per future. It is the only
// status waiter: the executor's Wait, WaitThreshold and GetResult, the
// composition resolver and the in-cloud reduce barriers all wait through
// its wait loop, which also runs the chores of the driver waiting.
type pendingSet struct {
	// sweeps is the coordinator the set sweeps through, whose storage its
	// LISTs run through and whose clock it waits on.
	sweeps *sweepCoordinator
	meta   string
	// driver is the executor whose job the wait drives: its lease, respawn
	// ledger and fan-in backstop tick with the loop, and its controller
	// answers the dead-activation probe. Nil only in a reduce barrier, which
	// waits inside a function on calls without activation IDs.
	driver *Executor
	// limit caps the backstop's automatic respawns per call.
	limit    int
	interval time.Duration
	// evt is the wait's event, armed on every namespace the set has calls
	// pending in (see sweepCoordinator.arm); tick is false on a pass the
	// event woke between ticks, which harvests without listing; reuse is
	// how long ago a LIST may have begun for a tick to answer from it:
	// none on the wait's first tick, half the interval after it.
	evt   *vclock.Event
	tick  bool
	reuse time.Duration
	// groups are in executor-ID order, so the simulated network sees an
	// identical request sequence every run.
	groups []*pendingGroup
	n      int
	// probe is set once any pending call has an activation ID (direct
	// invocation, a respawn, or a fan-in launch adopted from its marker): a
	// call that dies without committing a status shows up in no listing, so
	// each sweep must then ask the controller about every such call. Until
	// then — calls staged behind a fan-in, barrier waits inside a function —
	// there is nothing to ask about and the walk is skipped.
	probe bool
}

type pendingGroup struct {
	ns nsKey
	fs []*Future
	// seen is the done-set version fs was last pruned against (see harvest).
	seen uint64
	// armed says the wait's event is armed on ns.
	armed bool
}

// pendingIn returns an empty pending set over the executor's sweep
// coordinator, waiting on statuses in meta with e as its driver; limit caps
// the backstop's automatic respawns per call.
func (e *Executor) pendingIn(meta string, limit int) *pendingSet {
	return &pendingSet{sweeps: e.sweeps, meta: meta, driver: e, limit: limit, interval: e.cfg.PollInterval}
}

// add puts futures (back) into the set: respawned calls are pending again.
// A new group is sized for the rest of fs.
func (p *pendingSet) add(fs ...*Future) {
	for k, f := range fs {
		i, found := slices.BinarySearchFunc(p.groups, f.executorID, func(g *pendingGroup, id string) int {
			return strings.Compare(g.ns.execID, id)
		})
		if !found {
			g := &pendingGroup{ns: nsKey{bucket: p.meta, execID: f.executorID}, fs: make([]*Future, 0, len(fs)-k)}
			p.groups = slices.Insert(p.groups, i, g)
		}
		p.groups[i].fs = append(p.groups[i].fs, f)
		p.n++
		p.probe = p.probe || f.activationID != ""
	}
}

// futures returns the calls still pending.
func (p *pendingSet) futures() []*Future {
	out := make([]*Future, 0, p.n)
	for _, g := range p.groups {
		out = append(out, g.fs...)
	}
	return out
}

// sweep advances completion state through the sweep coordinator and
// returns the futures that finished since the last sweep, marked done. On a
// tick it brings every namespace that still has pending calls up to date —
// one LIST unless a recent one answers (see sweepCoordinator.sweep) — and
// consults platform activation records to surface calls that died without
// committing a status (crash, platform timeout): on every trustworthy
// sweep, and — when the LIST itself keeps failing — after
// sweepConsultThreshold consecutive failures, because a status prefix
// pinned to a partitioned region can stay unlistable for a whole outage and
// skipping forever would keep platform-dead calls invisible. A pass the
// wait's event woke between ticks only harvests what others listed. The set
// keeps its event armed on each namespace while it has calls pending there.
func (p *pendingSet) sweep() ([]*Future, error) {
	asOf := p.sweeps.clock.Now()
	var newly []*Future
	for _, g := range p.groups {
		if len(g.fs) == 0 {
			continue
		}
		if !g.armed {
			p.sweeps.arm(g.ns, p.evt)
			g.armed = true
		}
		var out sweepOutcome
		if p.tick {
			if out = p.sweeps.sweep(p, g.ns, asOf); out.err != nil {
				return newly, fmt.Errorf("core: status sweep: %w", out.err)
			}
		}
		var done []*Future
		p.sweeps.withDone(g.ns, func(d *doneSet) { done, g.fs = d.harvest(&g.seen, g.fs) })
		for _, f := range done {
			f.markDone()
		}
		if p.tick && p.probe && out.consult() {
			kept := g.fs[:0]
			for _, f := range g.fs {
				if f.activationID != "" {
					rec, err := p.driver.cfg.Platform.Controller().Activation(f.activationID)
					if err == nil && rec.Done() && !rec.OK {
						f.markFailed(fmt.Errorf("core: call %s/%s activation %s: %s: %w",
							f.executorID, f.callID, f.activationID, rec.Error, ErrCallFailed))
						done = append(done, f)
						continue
					}
				}
				kept = append(kept, f)
			}
			g.fs = kept
		}
		p.n -= len(done)
		newly = append(newly, done...)
		if len(g.fs) == 0 {
			p.sweeps.disarm(g.ns, p.evt)
			g.armed = false
		}
	}
	return newly, nil
}

// disarm withdraws the wait's event from every namespace it is armed on.
func (p *pendingSet) disarm() {
	for _, g := range p.groups {
		if g.armed {
			p.sweeps.disarm(g.ns, p.evt)
			g.armed = false
		}
	}
}

// splitDone splits futures, in order, by whether they are known done.
func splitDone(futures []*Future) (done, pending []*Future) {
	for _, f := range futures {
		if f.knownDone() {
			done = append(done, f)
		} else {
			pending = append(pending, f)
		}
	}
	return done, pending
}

// wait is the one wait loop. Each poll tick it opens a respawn-ledger tick
// and renews the lease when due (when the set has a driver), sweeps, hands
// the calls that newly finished to step, and runs the driver's fan-in
// backstop, until step reports true or the deadline passes: a non-transient
// sweep failure ends the wait with its error, the deadline with
// ErrWaitTimeout, naming the fan-in inputs a stalled call waited on.
// A tick ends one interval on, or at the deadline if that comes first.
// Between ticks the wait parks on its event: a LIST another waiter issued
// that found news for the set, or a commit the watch delivered, wakes it
// for a pass that harvests and steps without listing or running the
// chores, which keep the set's own cadence. When the sweep coordinator can
// watch the one namespace p waits on, the wait holds that watch
// throughout. On the Virtual clock, with nobody else polling, the wait
// behaves as the paper's polling client: one LIST a tick.
func (p *pendingSet) wait(deadline time.Time, step func(newly []*Future) bool) error {
	p.evt, p.tick, p.reuse = vclock.NewEvent(p.sweeps.clock), true, 0
	defer p.disarm()
	if len(p.groups) == 1 {
		defer p.sweeps.watch(p.groups[0].ns)()
	}
	var wake time.Time
	for {
		gen := p.evt.Gen()
		if p.tick {
			p.chore(func(d *Executor) {
				d.respawns.advance()
				d.maybeRenewLease()
			})
		}
		newly, err := p.sweep()
		if err != nil {
			return err
		}
		settled := step(newly)
		if p.tick {
			p.chore(func(d *Executor) { d.backstopFanIns(p, p.limit) })
		}
		if settled {
			return nil
		}
		now := p.sweeps.clock.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			if p.driver != nil {
				if why := p.driver.uncommittedInputs(p.futures()); why != "" {
					return fmt.Errorf("%s: %w", why, ErrWaitTimeout)
				}
			}
			return ErrWaitTimeout
		}
		if p.tick {
			wake = now.Add(p.interval)
			if !deadline.IsZero() && deadline.Before(wake) {
				wake = deadline
			}
			p.reuse = p.interval / 2
		}
		p.tick = !p.evt.Wait(gen, wake)
	}
}

// chore runs f on the set's driver, unless it has none or another of its
// waits is inside a chore: the resolver's composition waits run on several
// workers at once, and two lease renewals in flight would fence the driver
// off from itself.
func (p *pendingSet) chore(f func(d *Executor)) {
	if d := p.driver; d != nil && d.choring.CompareAndSwap(false, true) {
		defer d.choring.Store(false)
		f(d)
	}
}

// awaitAll waits until every one of execID's calls in callIDs has committed
// a status. activationIDs, index-aligned with callIDs where known ("" for
// unknown), arm the dead-activation probe: the first call whose activation
// died without committing a status fails the wait.
func (p *pendingSet) awaitAll(execID string, callIDs, activationIDs []string, deadline time.Time) error {
	calls := make([]Future, len(callIDs))
	fs := make([]*Future, len(callIDs))
	for i, id := range callIDs {
		calls[i].executorID, calls[i].callID = execID, id
		if i < len(activationIDs) {
			calls[i].activationID = activationIDs[i]
		}
		fs[i] = &calls[i]
	}
	p.add(fs...)
	var failed error
	if err := p.wait(deadline, func(newly []*Future) bool {
		for _, f := range newly {
			if failed = f.failed; failed != nil {
				return true
			}
		}
		return p.n == 0
	}); err != nil {
		return err
	}
	return failed
}

// waitDone waits until at least need of futures are known done — WaitAlways
// is need 0, which sweeps once and returns — and returns the (done, pending)
// partition it observed last.
func (e *Executor) waitDone(futures []*Future, need int, deadline time.Time) (done, pending []*Future, err error) {
	pend := e.pendingIn(e.cfg.Platform.MetaBucket(), respawnLimit(RecoveryOptions{}.withDefaults()))
	_, pending = splitDone(futures)
	pend.add(pending...)
	err = pend.wait(deadline, func([]*Future) bool { return len(futures)-pend.n >= need })
	done, pending = splitDone(futures)
	if errors.Is(err, ErrWaitTimeout) {
		err = fmt.Errorf("core: %d of %d calls done, %d needed: %w", len(done), len(futures), need, err)
	}
	return done, pending, err
}

// collectResults waits for all futures and returns their results, resolving
// composition continuations. The wait is driven by completions: each poll
// tick's sweep yields the calls that newly finished, their status records
// are fetched in parallel right then — overlapping the rest of the wait —
// and the recoverer judges them (see recover.go): failed calls are
// re-invoked from their staged payloads until they succeed or run out of
// attempts and land on the executor's dead-letter list. eachTick, when set,
// runs at the end of every tick that left the job unsettled (speculation).
func collectResults(e *Executor, futures []*Future, opts GetResultOptions, eachTick func(pend *pendingSet, rec *recoverer)) ([]json.RawMessage, error) {
	deadline := e.deadlineFrom(opts.Timeout)
	rec := newRecoverer(e, futures, opts.Recovery)
	limit := respawnLimit(rec.opts)
	pend := e.pendingIn(e.cfg.Platform.MetaBucket(), limit)
	already, pending := splitDone(futures)
	pend.add(pending...)
	rec.observe(already)

	total := len(futures)
	last := -1
	// Progress reads the pending set's count instead of recounting every
	// future each poll — at Table-3 scale the recount alone was an O(total)
	// walk per tick.
	report := func() {
		if opts.Progress == nil {
			return
		}
		if done := total - pend.n; done != last {
			last = done
			opts.Progress(done, total)
		}
	}
	report()
	if err := pend.wait(deadline, func(newly []*Future) bool {
		rec.observe(newly)
		pend.add(rec.step()...)
		report()
		if rec.settled() {
			return true
		}
		if eachTick != nil {
			eachTick(pend, rec)
		}
		return false
	}); err != nil {
		return nil, fmt.Errorf("core: get_result: %w", err)
	}

	letters, failErrs := rec.terminalFailures()
	if len(letters) > 0 && !opts.PartialResults {
		return nil, fmt.Errorf("core: get_result: %w", errors.Join(failErrs...))
	}
	// Failed calls stay nil here and in the output; they are reported via
	// PartialError.
	recs := make([]*wire.StatusRecord, len(futures))
	for i, f := range futures {
		if _, failed := rec.failed[f]; !failed {
			recs[i] = f.cachedStatus()
		}
	}
	r := &resolver{exec: e, deadline: deadline, limit: limit}
	out, err := r.resolveAll(recs, 0)
	if err != nil {
		return nil, err
	}
	if len(letters) > 0 {
		return out, &PartialError{Failed: letters, Errs: failErrs}
	}
	return out, nil
}

// resolver follows composition chains: a result envelope of kind "futures"
// points at further calls whose results must be awaited and combined
// (paper §4.4 — get_result "transparently waits for an on-going function
// composition to complete").
type resolver struct {
	exec     *Executor
	deadline time.Time
	limit    int // the collection's automatic-respawn cap, for its waits' backstop
}

// resolveAll turns successful status records into their final values, in
// order; nil records are skipped. Every record carries its envelope, so a
// value needs no I/O and is decoded right here, on the calling task; only
// continuations, which wait for further calls, go through the fetch pool.
func (r *resolver) resolveAll(recs []*wire.StatusRecord, depth int) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(recs))
	var slow []int
	for i, rec := range recs {
		switch {
		case rec == nil:
		case len(rec.Inline) == 0:
			slow = append(slow, i)
		default:
			env, err := wire.DecodeEnvelope(rec.Inline)
			if err != nil {
				return nil, err
			}
			if env.Kind != wire.ResultValue {
				slow = append(slow, i)
				continue
			}
			out[i] = env.Value
		}
	}
	errs := fetchFor(r.exec.clock, r.exec.cfg.StageConcurrency, len(slow), func(k int) error {
		var err error
		out[slow[k]], err = r.resolveStatus(recs[slow[k]], depth)
		return err
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// resolveStatus resolves a successful status record's result from the
// envelope it carries: inlined by the runner, or spilled after the line and
// moved into Inline when the status object was decoded.
func (r *resolver) resolveStatus(rec *wire.StatusRecord, depth int) (json.RawMessage, error) {
	if len(rec.Inline) == 0 {
		return nil, fmt.Errorf("core: status of call %s/%s carries no result", rec.ExecutorID, rec.CallID)
	}
	env, err := wire.DecodeEnvelope(rec.Inline)
	if err != nil {
		return nil, err
	}
	return r.resolveEnvelope(&env, depth)
}

func (r *resolver) resolveEnvelope(env *wire.ResultEnvelope, depth int) (json.RawMessage, error) {
	switch env.Kind {
	case wire.ResultValue:
		return env.Value, nil
	case wire.ResultFutures:
		if depth >= maxCompositionDepth {
			return nil, fmt.Errorf("core: composition deeper than %d levels", maxCompositionDepth)
		}
		if env.Futures == nil {
			return nil, errors.New("core: futures envelope without reference")
		}
		return r.resolveFuturesRef(env.Futures, depth+1)
	default:
		return nil, fmt.Errorf("core: unknown result envelope kind %q", env.Kind)
	}
}

// resolveFuturesRef waits for the referenced calls and combines their
// resolved values.
func (r *resolver) resolveFuturesRef(ref *wire.FuturesRef, depth int) (json.RawMessage, error) {
	if len(ref.CallIDs) == 0 {
		return nil, errors.New("core: empty futures reference")
	}
	values, err := r.resolveCalls(ref, depth)
	if err != nil {
		return nil, err
	}
	switch ref.Combine {
	case wire.CombineSingle:
		if len(values) != 1 {
			return nil, fmt.Errorf("core: single combine over %d calls", len(values))
		}
		return values[0], nil
	default: // wire.CombineList
		return wire.Marshal(values)
	}
}

// awaitCalls waits until every call ID in ref committed a status. It goes
// through the executor's shared sweep coordinator, so the LISTs are
// incremental and coalesce with the main collection sweep and with other
// composition waits over the same child namespace. It also consults
// activation records (when ref carries them) so a composed call that died
// without committing a status surfaces as ErrCallFailed instead of
// hanging the wait until its deadline.
func (r *resolver) awaitCalls(ref *wire.FuturesRef) error {
	pend := r.exec.pendingIn(ref.MetaBucket, r.limit)
	err := pend.awaitAll(ref.ExecutorID, ref.CallIDs, ref.ActivationIDs, r.deadline)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrWaitTimeout):
		return fmt.Errorf("core: await composition %s: %w", ref.ExecutorID, ErrWaitTimeout)
	case errors.Is(err, ErrCallFailed):
		return err
	default:
		return fmt.Errorf("core: await composition: %w", err)
	}
}

// resolveCalls waits for the referenced calls, fetches their statuses in
// parallel and resolves their results in order: N children cost
// ⌈N/StageConcurrency⌉ round trips, not N.
func (r *resolver) resolveCalls(ref *wire.FuturesRef, depth int) ([]json.RawMessage, error) {
	if err := r.awaitCalls(ref); err != nil {
		return nil, err
	}
	calls := make([]callRef, len(ref.CallIDs))
	for i, callID := range ref.CallIDs {
		calls[i] = callRef{execID: ref.ExecutorID, callID: callID}
	}
	recs, errs := r.exec.fetchStatusRecords(ref.MetaBucket, calls)
	for i, callID := range ref.CallIDs {
		if recs[i] == nil {
			return nil, fmt.Errorf("core: fetch composed status %s/%s: %w", ref.ExecutorID, callID, errs[i])
		}
		if !recs[i].OK {
			return nil, fmt.Errorf("core: composed call %s/%s: %s: %w", ref.ExecutorID, callID, recs[i].Error, ErrCallFailed)
		}
	}
	return r.resolveAll(recs, depth)
}
