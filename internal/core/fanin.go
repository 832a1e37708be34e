package core

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"strings"
	"time"

	"gowren/internal/cos"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/wire"
)

// Completion-triggered fan-in: the stage barrier of MapReduce and
// MapReduceShuffle. The client stages every reducer payload and tracks it,
// but invokes none; each map payload carries a wire.FanIn naming its group's
// call-ID range and the reducers that depend on it. After committing its
// status the runner lists that range once (closeFanIn); whoever sees the
// whole group committed claims the group's marker with a create-if-absent
// put and fires the reducers from inside the cloud. The status PUT precedes
// the LIST, so on a linearizable store the last committer always sees the
// full group; several near-simultaneous finishers may, and the marker lets
// exactly one of them launch.
//
// Reducers therefore start when their inputs exist — warm, on a finished
// map's container — and read them without a barrier (inputBarrier is the
// §4.3 poll-and-wait, entered only by an activation that finds an input
// missing). The driver's wait loop is the backstop for a launch that never
// happened (backstopFanIns): it already holds every status of the namespace
// in its sweep done-set, so it spends no request until a reducer is still
// unlaunched one grace period after its inputs committed. It also respawns
// an input whose activation ended without a status, which would otherwise
// hold its group back until the deadline.
//
// Massive function spawning (§5.1) is the same step with a group of one: a
// remote invoker is a staged call that runs nothing, carries a fan-in of
// itself (spawnGates) and so, once committed, claims its marker and fires
// its group without a LIST. Its targets are gated futures like any reducer.

// fanInGrace is how long the driver leaves a complete group alone before
// reading its marker, and how old a claim without a launch must be before
// the driver takes it over. It is far above the in-cloud launch latency
// (milliseconds), so on the normal path the backstop costs nothing; a
// reducer that legitimately runs longer costs one marker GET per group.
const fanInGrace = 30 * time.Second

// fanInDriver is FanInMarker.By for a claim made by the client-side backstop.
const fanInDriver = "driver"

// errLauncherKilled is how a chaos.LauncherKill window manifests: the
// activation dies holding the claim, before any invocation leaves.
var errLauncherKilled = errors.New("core: container killed before launching the fan-in targets")

// stageGate describes one stage barrier to set up: inputs — calls with
// consecutive IDs, not yet staged — gate the targets, consecutive too, which
// are staged but not invoked.
type stageGate struct {
	inputs  []*wire.CallPayload
	targets []*wire.CallPayload
}

// fanInGate is a wire.FanIn resolved in its executor namespace: both call
// ranges as sequences, and from them the keys either side needs.
type fanInGate struct {
	spec        *wire.FanIn
	bucket      string
	execID      string
	first       int // sequence of spec.FirstCallID
	firstTarget int // sequence of spec.FirstTarget
}

func resolveFanIn(bucket, execID string, spec *wire.FanIn) (fanInGate, error) {
	first, err1 := strconv.Atoi(spec.FirstCallID)
	firstTarget, err2 := strconv.Atoi(spec.FirstTarget)
	if err1 != nil || err2 != nil || first < 0 || firstTarget < 0 {
		return fanInGate{}, fmt.Errorf("core: fan-in ranges %q+%d -> %q+%d are not call sequences",
			spec.FirstCallID, spec.Count, spec.FirstTarget, spec.Targets)
	}
	return fanInGate{spec: spec, bucket: bucket, execID: execID, first: first, firstTarget: firstTarget}, nil
}

// marker is the key of the group's launch marker (a wire.FanInMarker).
func (g *fanInGate) marker() string { return fanInKey(g.execID, g.spec.FirstTarget) }

// fanInGroup is the driver's view of one stage barrier it staged (or
// adopted through Attach).
type fanInGroup struct {
	fanInGate
	// gated is indexed like the target range; nil where Attach found the
	// call retired (dead-lettered or superseded).
	gated []*Future
	// inputs are indexed like the input range, as launchBehind invoked
	// them; nil where Attach found no call in the journal (a remote
	// invoker, which is never journaled) or found it retired.
	inputs []*Future
	// next is the lowest input sequence not yet seen committed.
	next int
	// probeAt is when the backstop next asks after the inputs' activations,
	// once per grace period while some input has not committed.
	probeAt time.Time
	// recheck is when the backstop next considers the marker: one grace
	// period after this driver first saw every input committed, and one
	// after each look.
	recheck time.Time
}

func (e *Executor) newFanInGroup(spec *wire.FanIn) (*fanInGroup, error) {
	gate, err := resolveFanIn(e.cfg.Platform.MetaBucket(), e.id, spec)
	if err != nil {
		return nil, err
	}
	return &fanInGroup{fanInGate: gate, next: gate.first, gated: make([]*Future, spec.Targets)}, nil
}

// uncommitted yields, in order, the group's input sequences the driver's
// done-set does not hold, after moving g.next up to the first. The hub's
// lock is held for each look, never while the caller's loop body runs.
func (g *fanInGroup) uncommitted(e *Executor) iter.Seq[int] {
	return func(yield func(int) bool) {
		ns, end := nsKey{bucket: g.bucket, execID: g.execID}, g.first+g.spec.Count
		from := func(seq int) int {
			e.sweeps.withDone(ns, func(d *doneSet) { seq = d.firstUncommitted(seq, end) })
			return seq
		}
		g.next = from(g.next)
		for seq := g.next; seq < end && yield(seq); seq = from(seq + 1) {
		}
	}
}

// inputsCommitted reports whether the driver's sweep has seen a status for
// every input of the group.
func (g *fanInGroup) inputsCommitted(e *Executor) bool {
	for range g.uncommitted(e) {
		return false
	}
	return true
}

// unlaunched returns the target indexes whose call has neither finished nor
// a known activation.
func (g *fanInGroup) unlaunched() []int {
	var idx []int
	for i, f := range g.gated {
		if f != nil && f.activationID == "" && !f.knownDone() {
			idx = append(idx, i)
		}
	}
	return idx
}

// launchBehind runs one stage boundary: it stages the targets of gates
// without invoking them, puts each gate's fan-in spec on its input payloads
// and launches those (untracked: the stage's results are the targets'), and
// only then — nothing is journaled or tracked for a stage whose inputs never
// left — journals the targets, tracked or not as asked, and arms the launch
// backstop. It returns the targets' futures in gate order. open is launch's:
// a top-level stage boundary opens the job or re-asserts the lease first.
func (e *Executor) launchBehind(gates []stageGate, trackFutures, open bool) ([]*Future, error) {
	if open {
		if _, err := e.journalStart(""); err != nil {
			return nil, err
		}
	}
	action, err := e.cfg.Platform.EnsureRuntime(e.cfg.RuntimeImage)
	if err != nil {
		return nil, err
	}
	var inputs, targets []*wire.CallPayload
	for _, g := range gates {
		inputs = append(inputs, g.inputs...)
		targets = append(targets, g.targets...)
	}
	// The targets must exist before any input can finish, and every input
	// carries where its gate's targets were staged.
	targetRefs, _, err := e.stagePayloads(targets)
	if err != nil {
		return nil, err
	}
	specs := make([]wire.FanIn, len(gates))
	groups := make([]*fanInGroup, len(gates))
	located := targetRefs
	for i, g := range gates {
		specs[i] = wire.FanIn{
			FirstCallID: g.inputs[0].CallID,
			Count:       len(g.inputs),
			FirstTarget: g.targets[0].CallID,
			Targets:     len(g.targets),
			TargetSpans: payloadSpans(located[:len(g.targets)]),
			Action:      action,
			Tenant:      e.cfg.Tenant,
		}
		located = located[len(g.targets):]
		if groups[i], err = e.newFanInGroup(&specs[i]); err != nil {
			return nil, err
		}
		for _, p := range g.inputs {
			p.FanIn = &specs[i]
		}
	}
	var launched []*Future
	if inputs[0].Kind == wire.KindInvoker {
		// Remote invokers are helpers of this launch: invoked from here and
		// journaled only as the fan-in specs of their targets.
		launched, err = e.invokeDirect(invokerActionName(e.cfg.RuntimeImage), inputs)
	} else {
		launched, err = e.launch(inputs, false, false)
	}
	if err != nil {
		return nil, err
	}

	e.appendJournal(wire.JournalLaunch, func(rec *wire.JournalRecord) {
		rec.Calls = journalCalls(targets, nil)
		rec.Tracked = trackFutures
		rec.FanIns = specs
	})
	futures := make([]*Future, 0, len(targets))
	for i, g := range gates {
		groups[i].inputs, launched = launched[:len(g.inputs)], launched[len(g.inputs):]
		for t, p := range g.targets {
			f := newFuture(e, p.ExecutorID, p.CallID, "")
			f.payload = targetRefs[len(futures)]
			f.gate = groups[i]
			groups[i].gated[t] = f
			futures = append(futures, f)
		}
	}
	e.fanIns = append(e.fanIns, groups...)
	if trackFutures {
		e.track(futures)
	}
	return futures, nil
}

// adoptFanIns rebuilds the launch backstop of an attached driver from the
// fan-in specs its predecessor journaled; byID maps the rebuilt futures of
// every journaled call by call ID.
func (e *Executor) adoptFanIns(specs []wire.FanIn, byID map[string]*Future) error {
	for i := range specs {
		group, err := e.newFanInGroup(&specs[i])
		if err != nil {
			return err
		}
		group.inputs = make([]*Future, group.spec.Count)
		for in := range group.inputs {
			group.inputs[in] = byID[callIDForSeq(group.first+in)]
		}
		for t := range group.gated {
			if f := byID[callIDForSeq(group.firstTarget+t)]; f != nil {
				f.gate = group
				group.gated[t] = f
			}
		}
		e.fanIns = append(e.fanIns, group)
	}
	return nil
}

// closeFanIn runs in the runner right after a call carrying a fan-in spec
// committed its status, own: one bounded LIST over the group's range (none
// for a group of one, which own completes), and — only if that shows the
// whole group committed — the claim, a COS shuffle's stage index, the launch
// and the marker rewrite. Its request budget is 1 LIST per call, at most 2
// marker PUTs per group, one failed conditional put per losing candidate,
// and one range GET per target span, whose lines the launches carry inline
// so the targets read no payload; the index adds count−1 head-range status
// GETs and one PUT per group.
func (p *Platform) closeFanIn(ctx *runtime.Ctx, payload *wire.CallPayload, own committedStatus) error {
	gate, err := resolveFanIn(payload.MetaBucket, payload.ExecutorID, payload.FanIn)
	if err != nil {
		return err
	}
	if gate.spec.Count > 1 {
		complete, err := p.fanInCommitted(ctx, &gate)
		if err != nil {
			return fmt.Errorf("core: fan-in check after %s/%s: %w", payload.ExecutorID, payload.CallID, err)
		}
		if !complete {
			return nil
		}
	}

	key := gate.marker()
	marker := wire.FanInMarker{By: ctx.ActivationID(), Generation: 1, AtUnixNs: ctx.Clock().Now().UnixNano()}
	_, err = ctx.Storage().PutIf(gate.bucket, key, wire.MustMarshal(&marker), "")
	switch {
	case errors.Is(err, cos.ErrPreconditionFailed):
		return nil // a sibling that finished with us holds the claim
	case err != nil:
		return fmt.Errorf("core: fan-in claim %s: %w", key, err)
	}
	if p.chaos.LauncherKilled() {
		p.trace.Emitf(ctx.Clock().Now(), trace.KindFanIn, ctx.ActivationID(), "marker=%s launcher killed after the claim", key)
		return errLauncherKilled
	}
	// The reducers are not running yet; if the index cannot be written
	// they rebuild it, so its failure only joins the error below.
	indexErr := p.indexShuffleStage(ctx, &gate, payload, own)

	// All targets go out together: R launches cost one in-cloud round trip
	// (plus the gateway's serialized admission of each).
	n := gate.spec.Targets
	lines := p.targetLines(ctx, &gate)
	marker.ActivationIDs = make([]string, n)
	errs := fetchFor(ctx.Clock(), n, n, func(i int) error {
		id, err := p.invokeFromCloud(ctx, gate.spec, invokeParams(gate.spec.Target(gate.bucket, i), lines[i]))
		marker.ActivationIDs[i] = id
		return err
	})
	// Record what was launched even if some invocations failed: the driver
	// probes the IDs that are there and launches the targets that are not.
	_, putErr := ctx.Storage().Put(gate.bucket, key, wire.MustMarshal(&marker))
	if p.trace != nil {
		p.trace.Emitf(ctx.Clock().Now(), trace.KindFanIn, ctx.ActivationID(),
			"marker=%s generation=1 launched=%s", key, strings.Join(marker.ActivationIDs, ","))
	}
	if err := errors.Join(indexErr, firstErr(errs), putErr); err != nil {
		return fmt.Errorf("core: fan-in launch %s: %w", key, err)
	}
	return nil
}

// targetLines reads the staged lines of g's targets, for their launches to
// carry inline: one range GET per target span, from its first line to its
// last. A span whose read fails, or none of whose lines is small enough to
// ride inline, reads as nil lines, and its targets go out with the ref alone.
func (p *Platform) targetLines(ctx *runtime.Ctx, g *fanInGate) [][]byte {
	lines := make([][]byte, 0, g.spec.Targets)
	for _, s := range g.spec.TargetSpans {
		n, first := s.Calls(), s.Bounds[0]
		size, fits := s.Bounds[n]-1-first, false
		for i := 0; i < n; i++ {
			fits = fits || s.Bounds[i+1]-1-s.Bounds[i] <= inlineThreshold
		}
		var body []byte
		if fits {
			var err error
			if body, _, err = ctx.Storage().GetRange(g.bucket, s.Key, first, size); err != nil || int64(len(body)) != size {
				body = nil
			}
		}
		for i := 0; i < n; i++ {
			var line []byte
			if body != nil {
				line = body[s.Bounds[i]-first : s.Bounds[i+1]-1-first]
			}
			lines = append(lines, line)
		}
	}
	return lines
}

// invokeFromCloud fires one target of spec with params over the in-cloud
// link, admitted as the spec's tenant, with fnLaunchRetry's brief retries,
// and returns its activation ID.
func (p *Platform) invokeFromCloud(ctx *runtime.Ctx, spec *wire.FanIn, params []byte) (string, error) {
	var id string
	err := p.fnLaunchRetry.Do(func() error {
		d, failed := p.cloudLink.RequestCost(int64(len(params)))
		ctx.Clock().Sleep(d)
		if failed {
			return cos.ErrRequestFailed
		}
		var err error
		id, err = p.controller.InvokeTenant(spec.Tenant, spec.Action, params)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("core: in-cloud invocation failed: %w", err)
	}
	return id, nil
}

// fanInCommitted lists the status keys of the gate's input range — starting
// just before its first key, at most its size per page — and reports whether
// every one exists. Call IDs are zero-padded and the range is contiguous, so
// "count keys, the last no later than the range's last" is the whole test.
func (p *Platform) fanInCommitted(ctx *runtime.Ctx, g *fanInGate) (bool, error) {
	prefix := statusListPrefix(g.execID)
	after := ""
	if g.first > 0 {
		after = statusKey(g.execID, callIDForSeq(g.first-1))
	}
	last := statusKey(g.execID, callIDForSeq(g.first+g.spec.Count-1))
	for seen := 0; seen < g.spec.Count; {
		want := min(g.spec.Count-seen, cos.DefaultMaxKeys)
		page, err := ctx.Storage().List(g.bucket, prefix, after, want)
		if err != nil {
			return false, err
		}
		if len(page.Objects) < want || page.Objects[want-1].Key > last {
			return false, nil
		}
		seen += want
		after = page.Objects[want-1].Key
	}
	return true, nil
}

// backstopFanIns is the wait loop's liveness net under fan-in launches. A
// group whose inputs have all committed (as seen by the driver's own sweep:
// no extra LIST) but whose targets are still neither finished nor known to
// be running one grace period later gets its marker read, once per grace
// period: recorded activations are adopted — from then on the ordinary
// dead-activation probe and respawn ledger cover them — and targets nobody
// launched are launched from here under a fresh marker generation. A group
// still waiting on inputs has them probed instead (respawnDeadInputs), with
// at most limit automatic respawns per input.
func (e *Executor) backstopFanIns(pend *pendingSet, limit int) {
	if len(e.fanIns) == 0 {
		return
	}
	now := e.clock.Now()
	open := e.fanIns[:0]
	for _, g := range e.fanIns {
		switch {
		case !g.inputsCommitted(e):
			e.respawnDeadInputs(g, now, limit)
		case g.recheck.IsZero():
			g.recheck = now.Add(fanInGrace)
		case now.Before(g.recheck):
		default:
			missing := g.unlaunched()
			if len(missing) == 0 {
				continue // every target finished or is accounted for: the gate is closed
			}
			g.recheck = now.Add(fanInGrace)
			e.rescueFanIn(g, missing, pend)
		}
		open = append(open, g)
	}
	clear(e.fanIns[len(open):])
	e.fanIns = open
}

// respawnDeadInputs asks the controller, once per grace period, about the
// group's uncommitted inputs that have an activation, and respawns those
// whose activation ended without a status: such an input never commits, so
// its group would never launch. The respawns go through the shared ledger;
// an input it refuses stays dead, and the wait's timeout names it.
func (e *Executor) respawnDeadInputs(g *fanInGroup, now time.Time, limit int) {
	switch {
	case g.probeAt.IsZero():
		g.probeAt = now.Add(fanInGrace)
		return
	case now.Before(g.probeAt):
		return
	}
	g.probeAt = now.Add(fanInGrace)
	ctrl := e.cfg.Platform.Controller()
	var dead []*Future
	for seq := range g.uncommitted(e) {
		f := g.inputs[seq-g.first]
		if f == nil || f.activationID == "" {
			continue
		}
		if rec, err := ctrl.Activation(f.activationID); err == nil && rec.Done() && !rec.OK {
			dead = append(dead, f)
		}
	}
	// A respawn that fails leaves the input dead for the next look.
	_ = e.Respawn(e.respawns.reserve(dead, limit))
}

// rescueFanIn reads g's marker and acts on it: adopt the activations a
// launcher recorded, leave a fresh claim alone, and otherwise — no marker,
// or a claim older than the grace period that still lists no activation for
// a missing target — take the marker (conditionally, one generation up) and
// invoke the missing targets directly. It is a job-state mutation, so a
// fenced driver launches nothing. Failures are left for the next look.
func (e *Executor) rescueFanIn(g *fanInGroup, missing []int, pend *pendingSet) {
	meta, key := g.bucket, g.marker()
	now := e.clock.Now()
	var cur wire.FanInMarker
	body, om, err := e.cfg.Storage.Get(meta, key)
	if err == nil {
		cur, err = wire.DecodeMarker(body)
	}
	etag := om.ETag
	switch {
	case errors.Is(err, cos.ErrNoSuchKey):
		cur, etag = wire.FanInMarker{}, ""
	case err != nil:
		return
	default:
		missing = slices.DeleteFunc(missing, func(i int) bool {
			if i >= len(cur.ActivationIDs) || cur.ActivationIDs[i] == "" {
				return false
			}
			g.gated[i].adopt(cur.ActivationIDs[i])
			pend.probe = true
			return true
		})
		if len(missing) == 0 || now.Sub(time.Unix(0, cur.AtUnixNs)) < fanInGrace {
			return
		}
	}
	if e.renewLease() != nil {
		return
	}

	next := wire.FanInMarker{
		By:            fanInDriver,
		Generation:    cur.Generation + 1,
		AtUnixNs:      now.UnixNano(),
		ActivationIDs: make([]string, g.spec.Targets),
	}
	copy(next.ActivationIDs, cur.ActivationIDs)
	if _, err := e.cfg.Storage.PutIf(meta, key, wire.MustMarshal(&next), etag); err != nil {
		return // lost the claim to another driver, or storage trouble
	}
	errs := parallelFor(e.clock, e.cfg.InvokeConcurrency, len(missing), func(k int) error {
		i := missing[k]
		id, err := e.invokeOne(g.spec.Action, wire.InvokeParams(g.spec.Target(g.bucket, i), nil), g.spec.Tenant)
		if err != nil {
			return err
		}
		next.ActivationIDs[i] = id
		g.gated[i].adopt(id)
		return nil
	})
	pend.probe = true
	_, putErr := e.cfg.Storage.Put(meta, key, wire.MustMarshal(&next))
	if tr := e.cfg.Platform.trace; tr != nil {
		tr.Emitf(e.clock.Now(), trace.KindFanIn, e.id, "marker=%s generation=%d driver launched=%s err=%v",
			key, next.Generation, strings.Join(next.ActivationIDs, ","), errors.Join(firstErr(errs), putErr))
	}
}

// uncommittedInputs explains a wait that gave up on calls still gated behind
// a fan-in: it names the input calls whose statuses never committed, or
// returns "" when no pending call is waiting on one.
func (e *Executor) uncommittedInputs(pending []*Future) string {
	const show = 8
	var (
		ids     []string
		stalled int
		seen    = make(map[*fanInGroup]bool)
	)
	for _, f := range pending {
		g := f.gate
		if g == nil || f.activationID != "" || g.inputsCommitted(e) {
			continue
		}
		stalled++
		if seen[g] {
			continue
		}
		seen[g] = true
		for seq := range g.uncommitted(e) {
			ids = append(ids, callIDForSeq(seq))
		}
	}
	if stalled == 0 {
		return ""
	}
	more := ""
	if len(ids) > show {
		more = fmt.Sprintf(" (+%d more)", len(ids)-show)
		ids = ids[:show]
	}
	return fmt.Sprintf("%d calls were never launched: input calls %s%s of %s never committed a status",
		stalled, strings.Join(ids, ", "), more, e.id)
}

// inputBarrier is the paper's §4.3 wait — "The reduce function will wait
// for all the partial results before processing them" — taken only when
// needed. A reducer launched by its stage's fan-in starts after every input
// committed and reads them straight away; one started early (the driver's
// backstop, a respawn, a speculative copy) finds an input missing, polls the
// status prefix here until the whole stage has committed, and carries on.
type inputBarrier struct {
	ctx    *runtime.Ctx
	ns     nsKey
	inputs []string
	who    string // names the waiter in errors
	passed bool
}

// await blocks (within the function's deadline) until every input has a
// committed status. A per-activation coordinator keeps the polling
// incremental: each LIST resumes at the done-frontier.
func (b *inputBarrier) await() error {
	if b.passed {
		return nil
	}
	storage := b.ctx.Storage()
	pend := &pendingSet{sweeps: newSweepCoordinator(newSweepHub(storage, b.ctx.Clock()), storage), meta: b.ns.bucket, interval: 100 * time.Millisecond}
	if err := pend.awaitAll(b.ns.execID, b.inputs, nil, b.ctx.Deadline()); err != nil {
		if errors.Is(err, ErrWaitTimeout) {
			return fmt.Errorf("core: %s waiting for %d map calls: %w", b.who, len(b.inputs), runtime.ErrDeadlineExceeded)
		}
		return fmt.Errorf("core: %s: %w", b.who, err)
	}
	b.passed = true
	return nil
}

// get reads an object that exists once its stage committed. A miss before
// the barrier was taken means this activation started early: wait, then read
// again.
func (b *inputBarrier) get(bucket, key string) ([]byte, error) {
	body, _, err := b.ctx.Storage().Get(bucket, key)
	if b.passed || !errors.Is(err, cos.ErrNoSuchKey) {
		return body, err
	}
	if err := b.await(); err != nil {
		return nil, err
	}
	body, _, err = b.ctx.Storage().Get(bucket, key)
	return body, err
}
