package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Driver crash recovery. AttachExecutor rebuilds an Executor — and the
// futures a dead driver was waiting on — from the durable job manifest and
// journal alone (journal.go), then catches up through the shared status
// sweep, adopts in-flight activations, and respawns orphans. Wait and
// GetResult on the attached executor continue exactly where the dead driver
// left off. Fencing makes the takeover safe against a driver that is
// actually still alive: Attach CAS-bumps the manifest's lease epoch, so the
// old driver's next mutation fails with ErrFenced.

// AttachExecutor rebuilds the executor for jobID from its durable state.
// cfg supplies the platform, storage stack, and tuning knobs exactly as for
// NewExecutor; the runtime image is overridden from the job manifest.
func AttachExecutor(cfg Config, jobID string) (*Executor, error) {
	e, err := NewExecutor(cfg)
	if err != nil {
		return nil, err
	}
	meta := e.cfg.Platform.MetaBucket()

	data, lm, err := e.cfg.Storage.Get(meta, manifestKey(jobID))
	if errors.Is(err, cos.ErrNoSuchKey) {
		return nil, fmt.Errorf("core: attach %s: no such job (no manifest): %w", jobID, err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: attach %s: read manifest: %w", jobID, err)
	}
	var man wire.JobManifest
	if err := wire.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("core: attach %s: decode manifest: %w", jobID, err)
	}
	e.id = jobID
	if man.Runtime != "" {
		e.cfg.RuntimeImage = man.Runtime
	}

	if err := e.takeOverLease(man, lm.ETag); err != nil {
		return nil, err
	}
	st, err := e.replayJournal()
	if err != nil {
		return nil, fmt.Errorf("core: attach %s: %w", jobID, err)
	}
	if err := e.recoverNextID(); err != nil {
		return nil, err
	}

	// Rebuild one future for every call the journal names, in call order,
	// skipping calls the previous driver already retired: dead-lettered ones
	// are parked on the dead-letter list below (ReplayDeadLetters picks them
	// up), and replay-superseded ones were dropped during journal replay.
	// The tracked ones are what the dead driver was waiting on; the rest
	// matter as the inputs and targets of stage barriers.
	var futures []*Future
	byID := make(map[string]*Future, len(st.calls))
	for _, id := range slices.Sorted(maps.Keys(st.calls)) {
		if _, dead := st.letters[id]; dead {
			continue
		}
		cs := st.calls[id]
		f := newFuture(e, e.id, id, cs.actID)
		f.payload = cs.payload
		e.respawns.seed(f, cs.respawns)
		byID[id] = f
		if cs.tracked {
			futures = append(futures, f)
		}
	}
	// Calls the dead driver staged behind a fan-in are launched by their
	// inputs, not by a driver: rebuild the barriers so this driver's wait
	// loop backs the launches up, and respawns a dead input, exactly as its
	// predecessor's did.
	if err := e.adoptFanIns(st.fanIns, byID); err != nil {
		return nil, fmt.Errorf("core: attach %s: %w", jobID, err)
	}
	e.track(futures)

	// Park the journaled dead letters, minus any the previous driver already
	// replayed under fresh IDs — resurrecting those would make the
	// replacements run twice.
	e.mu.Lock()
	e.deadLetters = st.deadLetters()
	e.mu.Unlock()

	// Catch up through the shared sweep coordinator's done-frontier, then
	// deal with what is left: in-flight activations are adopted as-is,
	// everything that cannot make progress on its own is respawned.
	if len(futures) > 0 {
		if _, _, err := e.waitDone(futures, 0, time.Time{}); err != nil {
			return nil, fmt.Errorf("core: attach %s: %w", jobID, err)
		}
		if err := e.respawnOrphans(futures); err != nil {
			return nil, fmt.Errorf("core: attach %s: %w", jobID, err)
		}
	}
	return e, nil
}

// takeOverLease fences the previous driver: it CAS-writes the manifest it
// read, man, with the epoch bumped, conditional on the ETag it read it at.
// The old driver's cached ETag is then stale, so its next conditional
// renewal — and with it every subsequent mutation — fails. Two concurrent
// Attach calls race on the same CAS; exactly one wins, the loser reports
// ErrFenced.
func (e *Executor) takeOverLease(man wire.JobManifest, etag string) error {
	now := e.clock.Now()
	man.Epoch++
	man.RenewedUnixNs = now.UnixNano()
	m, err := e.cfg.Storage.PutIf(e.cfg.Platform.MetaBucket(), manifestKey(e.id), wire.MustMarshal(man), etag)
	switch {
	case errors.Is(err, cos.ErrPreconditionFailed):
		return fmt.Errorf("core: attach %s: another driver took the lease: %w", e.id, ErrFenced)
	case err != nil:
		return fmt.Errorf("core: attach %s: take over lease: %w", e.id, err)
	}
	e.journal.hold(man, m.ETag, now)
	return nil
}

// journalCallState is the reconstructed state of one call after replaying
// the journal in key — that is, (epoch, seq) — order.
type journalCallState struct {
	actID    string
	tracked  bool
	respawns int // journaled automatic respawns, seeds the new ledger
	// payload locates the call's staged line when its launch record came in
	// the reserved batch; zero otherwise, and the resolver finds it.
	payload wire.ObjectRef
}

// journalState is the aggregate of a full journal replay.
type journalState struct {
	calls map[string]*journalCallState
	// letters are the dead letters no replay has superseded, by call ID.
	letters map[string]DeadLetter
	fanIns  []wire.FanIn // stage barriers of the staged-not-invoked launches
}

// deadLetters returns the replayed dead letters in call-ID order.
func (st *journalState) deadLetters() []DeadLetter {
	out := make([]DeadLetter, 0, len(st.letters))
	for _, id := range slices.Sorted(maps.Keys(st.letters)) {
		out = append(out, st.letters[id])
	}
	return out
}

// replayJournal replays the job's launch records and journal in (epoch, seq)
// order, reproducing the dead driver's recovery decisions: which calls exist
// and whether their futures were tracked, the latest activation driving each,
// and the dead letters no replay has superseded. The first launch's record,
// when it came as the last line of the batch the manifest reserves, goes
// first: every other record refers to calls launched before them.
func (e *Executor) replayJournal() (*journalState, error) {
	st := &journalState{
		calls:   make(map[string]*journalCallState),
		letters: make(map[string]DeadLetter),
	}
	if err := e.replayReserved(st); err != nil {
		return nil, err
	}
	meta := e.cfg.Platform.MetaBucket()
	listed, err := cos.ListAll(e.cfg.Storage, meta, journalListPrefix(e.id))
	if err != nil {
		return nil, fmt.Errorf("core: list journal: %w", err)
	}
	for _, obj := range listed {
		data, _, err := e.cfg.Storage.Get(meta, obj.Key)
		if err != nil {
			return nil, fmt.Errorf("core: read journal record %s: %w", obj.Key, err)
		}
		var rec wire.JournalRecord
		if err := wire.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("core: decode journal record %s: %w", obj.Key, err)
		}
		st.apply(e.id, &rec)
	}
	return st, nil
}

// replayReserved applies the launch record at the end of the batch the
// manifest reserves, and hands every call it launched its ref out of the same
// GET. No batch under the key means the driver died, or its PUT failed,
// after invoking: those calls run untracked, and recoverNextID keeps their
// IDs reserved.
func (e *Executor) replayReserved(st *journalState) error {
	e.journal.mu.Lock()
	key := e.journal.manifest.Reserved
	e.journal.mu.Unlock()
	if key == "" {
		return nil
	}
	meta := e.cfg.Platform.MetaBucket()
	b, ok := parseBatchKey(key)
	if !ok {
		return fmt.Errorf("core: manifest reserves %q, not a payload batch", key)
	}
	body, _, err := e.cfg.Storage.Get(meta, key)
	switch {
	case errors.Is(err, cos.ErrNoSuchKey):
		return nil
	case err != nil:
		return fmt.Errorf("core: read reserved batch %s: %w", key, err)
	}
	bounds, rec, err := wire.SplitLaunch(body)
	if err != nil {
		return fmt.Errorf("core: reserved batch %s: %w", key, err)
	}
	if len(bounds)-1 != b.count {
		return fmt.Errorf("core: reserved batch %s holds %d calls, its key says %d", key, len(bounds)-1, b.count)
	}
	st.apply(e.id, &rec)
	span := wire.PayloadSpan{Key: key, Bounds: bounds}
	for _, c := range rec.Calls {
		seq, ok := callSeq(c.CallID)
		if cs := st.calls[c.CallID]; cs != nil && ok && b.first <= seq && seq < b.first+b.count {
			cs.payload = span.Ref(meta, seq-b.first)
		}
	}
	return nil
}

// apply folds one journal record of executor execID into the state.
func (st *journalState) apply(execID string, rec *wire.JournalRecord) {
	switch rec.Kind {
	case wire.JournalLaunch:
		for _, c := range rec.Calls {
			st.calls[c.CallID] = &journalCallState{actID: c.ActivationID, tracked: rec.Tracked}
		}
		st.fanIns = append(st.fanIns, rec.FanIns...)
	case wire.JournalRespawn:
		for _, c := range rec.Calls {
			if cs, ok := st.calls[c.CallID]; ok {
				cs.actID = c.ActivationID
				cs.respawns++
			}
		}
	case wire.JournalDeadLetter:
		for _, c := range rec.Calls {
			st.letters[c.CallID] = DeadLetter{ExecutorID: execID, CallID: c.CallID, Attempts: c.Attempts,
				LastError: c.Error, GaveUpAt: time.Unix(0, rec.AtUnixNs).UTC()}
		}
	case wire.JournalReplay:
		// The originals were untracked by the replaying driver; drop them
		// and their letters so nothing below rebuilds or resurrects them.
		// Their replacements arrive with the replay's own launch record.
		for _, old := range rec.OldCallIDs {
			delete(st.calls, old)
			delete(st.letters, old)
		}
	}
	// Unknown kinds from newer writers are skipped, not fatal.
}

// recoverNextID restores the call-ID high-water mark from the staged
// payload batches, whose keys name the call range they hold, and from the
// batch the manifest reserves, which may not exist yet. The LIST covers
// windows the journal cannot: helper calls that never journal, and a driver
// that died between staging and the launch record; the reservation covers a
// first launch that died between invoking and staging. Fresh IDs minted by
// this driver (replays, later launches) must never collide with any call.
func (e *Executor) recoverNextID() error {
	batches, err := listPayloadBatches(e.cfg.Storage, e.cfg.Platform.MetaBucket(), e.id)
	if err != nil {
		return fmt.Errorf("core: attach %s: list payloads: %w", e.id, err)
	}
	e.journal.mu.Lock()
	if b, ok := parseBatchKey(e.journal.manifest.Reserved); ok {
		batches = append(batches, b)
	}
	e.journal.mu.Unlock()
	next := 0
	for _, b := range batches {
		next = max(next, b.first+b.count)
	}
	e.mu.Lock()
	if next > e.nextID {
		e.nextID = next
	}
	e.mu.Unlock()
	return nil
}

// respawnOrphans re-invokes adopted calls that cannot make progress: the
// activation is unknown to the controller, or it died without committing a
// status — which the catch-up sweep's dead-activation probe has already
// marked failed. In-flight and completed-OK activations are adopted as-is —
// the status sweep picks their records up. A call without an activation is
// staged behind a fan-in (reducers, massive-spawned calls): it is not an
// orphan but not yet launched — its inputs launch it, and the wait loop's
// backstop (backstopFanIns) steps in if nobody does.
//
// The probe judges against a listing that may have begun before a dead
// activation's status commit (a platform timeout or crash after the
// commit). So before a dead call is respawned — which deletes its status
// and runs it again — its status is looked for: in the done-set, then with
// one HEAD. A call whose status is there finished; it is adopted as done.
func (e *Executor) respawnOrphans(futures []*Future) error {
	ctrl := e.cfg.Platform.Controller()
	meta := e.cfg.Platform.MetaBucket()
	var orphans []*Future
	for _, f := range futures {
		f.mu.Lock()
		done, dead := f.done, f.failed != nil
		f.mu.Unlock()
		if f.activationID == "" || (done && !dead) {
			continue
		}
		if !dead {
			rec, err := ctrl.Activation(f.activationID)
			dead = err != nil || (rec.Done() && !rec.OK)
		}
		if !dead {
			continue
		}
		var committed bool
		e.sweeps.withDone(nsKey{bucket: meta, execID: f.executorID}, func(d *doneSet) { committed = d.has(f.callID) })
		if !committed {
			_, err := e.cfg.Storage.Head(meta, statusKey(f.executorID, f.callID))
			if err != nil && !errors.Is(err, cos.ErrNoSuchKey) {
				return fmt.Errorf("look for the status of dead call %s: %w", f.callID, err)
			}
			committed = err == nil
		}
		if committed {
			f.reset(f.activationID)
			f.markDone()
		} else {
			orphans = append(orphans, f)
		}
	}
	if len(orphans) == 0 {
		return nil
	}
	if err := e.Respawn(orphans); err != nil {
		return fmt.Errorf("respawn orphans: %w", err)
	}
	return nil
}

// JobInfo summarizes one durable job for ListJobs.
type JobInfo struct {
	JobID   string
	Runtime string
	// Created is the manifest creation time on the simulation clock.
	Created time.Time
	// LeaseEpoch and LeaseRenewed are the manifest's driver lease: 1 and
	// the creation time until a driver renews it or attaches.
	LeaseEpoch   uint64
	LeaseRenewed time.Time
}

// ListJobs lists the durable job manifests in metaBucket in job-ID order,
// with the driver lease each carries. It is the discovery half of the
// resume workflow: pick a job, AttachExecutor to it.
func ListJobs(storage cos.Client, metaBucket string) ([]JobInfo, error) {
	listed, err := cos.ListAll(storage, metaBucket, manifestListPrefix)
	if err != nil {
		return nil, fmt.Errorf("core: list jobs: %w", err)
	}
	out := make([]JobInfo, 0, len(listed))
	for _, obj := range listed {
		data, _, err := storage.Get(metaBucket, obj.Key)
		if err != nil {
			return nil, fmt.Errorf("core: list jobs: read %s: %w", obj.Key, err)
		}
		var man wire.JobManifest
		if err := wire.Unmarshal(data, &man); err != nil {
			return nil, fmt.Errorf("core: list jobs: decode %s: %w", obj.Key, err)
		}
		out = append(out, JobInfo{
			JobID:        man.JobID,
			Runtime:      man.Runtime,
			Created:      time.Unix(0, man.CreatedUnixNs).UTC(),
			LeaseEpoch:   man.Epoch,
			LeaseRenewed: time.Unix(0, man.RenewedUnixNs).UTC(),
		})
	}
	return out, nil
}

// CleanAbandoned garbage-collects jobs nobody drives anymore: every job
// whose lease renewal is at least ttl old has its entire jobs/{id}/
// namespace and its manifest deleted. It returns the removed job IDs in
// order. Live drivers renew their lease both on every mutation and
// periodically in every wait (leaseRenewInterval), so a ttl comfortably
// above that never collects a driven job.
func CleanAbandoned(storage cos.Client, clk vclock.Clock, metaBucket string, ttl time.Duration) ([]string, error) {
	if ttl <= 0 {
		return nil, errors.New("core: clean abandoned: ttl must be positive")
	}
	jobs, err := ListJobs(storage, metaBucket)
	if err != nil {
		return nil, err
	}
	now := clk.Now()
	var removed []string
	for _, job := range jobs {
		if now.Sub(job.LeaseRenewed) < ttl {
			continue
		}
		if err := deleteJob(storage, clk, defaultStageConcurrency, metaBucket, job.JobID); err != nil {
			return removed, fmt.Errorf("core: clean abandoned %s: %w", job.JobID, err)
		}
		removed = append(removed, job.JobID)
	}
	return removed, nil
}
