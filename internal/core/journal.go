package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

// Durable job journal and driver lease. In the PyWren model the client
// process is the orchestrator, so a crashed driver used to lose the job even
// though every payload and status object was already durable. The
// journal closes that gap: at first launch the executor creates a job
// manifest in the meta bucket, and every recovery event (launches,
// respawns, dead letters, replays) appends a journal record under its COS
// namespace. AttachExecutor (attach.go) rebuilds the whole job from those
// objects alone.
//
// The manifest is also the driver lease, the fencing mechanism: it is
// written only through conditional puts (cos.Client.PutIf), so one PUT both
// claims the job ID and takes epoch 1. The driver caches the manifest and
// the ETag it last wrote; every mutation of job state — every launch after
// the first included — re-asserts ownership by CAS-ing a renewal against
// that ETag. A resuming driver takes over by
// CAS-bumping the epoch, which changes the ETag — the old driver's next
// renewal then fails with ErrPreconditionFailed and it fences itself off
// with ErrFenced. Read paths (status sweeps, result collection) are
// deliberately unfenced: a superseded driver observing the job complete is
// harmless.

// ErrFenced reports a job-state mutation rejected because a newer driver
// holds the job's lease (a later epoch). The superseded driver may keep
// reading results but must not respawn, dead-letter, or replay calls.
var ErrFenced = errors.New("core: driver lease fenced by a newer driver")

// leaseRenewInterval is how often a driver blocked in any wait (Wait,
// WaitThreshold, GetResult and its composition waits) refreshes its lease
// timestamp, keeping the job visibly owned so the orphan GC
// (CleanAbandoned) does not collect a live job. TTLs passed to
// CleanAbandoned should comfortably exceed this.
const leaseRenewInterval = 30 * time.Second

// jobJournal is the executor's journaling state. Critical sections under mu
// are short and never touch storage (storage calls sleep on the clock);
// the storage operations themselves run outside the lock, which is safe
// because executors are driven by a single task at a time.
type jobJournal struct {
	mu        sync.Mutex
	started   bool             // manifest written, lease held; never with Config.DisableJournal
	fenced    bool             // a conditional renewal failed; a newer driver owns the job
	manifest  wire.JobManifest // as this driver last wrote it; Epoch is its lease
	etag      string           // ETag of that manifest body
	seq       int              // next journal record sequence within this epoch
	lastRenew time.Time
}

// hold records a manifest this driver has just written as its lease.
func (j *jobJournal) hold(man wire.JobManifest, etag string, now time.Time) {
	j.mu.Lock()
	j.started = true
	j.manifest = man
	j.etag = etag
	j.lastRenew = now
	j.mu.Unlock()
}

// journalStart opens a top-level launch (Map, MapReduce and friends) with
// the journal. The first, once per executor, creates the job manifest at
// epoch 1 before anything is staged. The put is create-only, so it also
// claims the job ID: a manifest already under it means another driver owns
// the job, and this one is fenced before it writes anything. reserve, when
// set, is the payload batch the launch writes only after invoking; the
// manifest records it, and with it the call IDs the batch's key names. Every
// later launch re-asserts the lease instead (renewLease), so a driver that
// Attach superseded stages and invokes nothing. created reports whether this
// call wrote the manifest. With journaling disabled it does nothing.
func (e *Executor) journalStart(reserve string) (created bool, err error) {
	j := &e.journal
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	switch {
	case e.cfg.DisableJournal:
		return false, nil
	case started:
		return false, e.renewLease()
	}

	meta, now := e.cfg.Platform.MetaBucket(), e.clock.Now()
	man := wire.JobManifest{
		JobID:         e.id,
		MetaBucket:    meta,
		Runtime:       e.cfg.RuntimeImage,
		Seed:          e.cfg.Platform.Seed(),
		CreatedUnixNs: now.UnixNano(),
		Epoch:         1,
		RenewedUnixNs: now.UnixNano(),
		Reserved:      reserve,
	}
	m, err := e.cfg.Storage.PutIf(meta, manifestKey(e.id), wire.MustMarshal(man), "")
	switch {
	case errors.Is(err, cos.ErrPreconditionFailed):
		return false, fmt.Errorf("core: job %s already has a manifest: %w", e.id, ErrFenced)
	case err != nil:
		return false, fmt.Errorf("core: write job manifest: %w", err)
	}
	j.hold(man, m.ETag, now)
	return true, nil
}

// renewLease re-asserts lease ownership with a conditional put of the
// manifest against the ETag this driver last wrote. It is the fencing
// checkpoint every job-state mutation (Respawn, dead-letter persistence,
// replay) passes through first: a failed precondition means a newer driver
// bumped the epoch, and this driver permanently fences itself off. With
// journaling disabled or not yet started it is a no-op.
func (e *Executor) renewLease() error {
	j := &e.journal
	j.mu.Lock()
	if !j.started {
		j.mu.Unlock()
		return nil
	}
	if j.fenced {
		j.mu.Unlock()
		return fmt.Errorf("core: job %s: %w", e.id, ErrFenced)
	}
	man := j.manifest
	etag := j.etag
	j.mu.Unlock()

	now := e.clock.Now()
	man.RenewedUnixNs = now.UnixNano()
	m, err := e.cfg.Storage.PutIf(e.cfg.Platform.MetaBucket(), manifestKey(e.id), wire.MustMarshal(man), etag)
	switch {
	case errors.Is(err, cos.ErrPreconditionFailed):
		j.mu.Lock()
		j.fenced = true
		j.mu.Unlock()
		return fmt.Errorf("core: job %s: %w", e.id, ErrFenced)
	case err != nil:
		// Transient storage trouble is not a fence; the mutation the caller
		// was about to make would have hit the same trouble.
		return fmt.Errorf("core: renew driver lease: %w", err)
	}
	j.hold(man, m.ETag, now)
	return nil
}

// maybeRenewLease renews the lease once leaseRenewInterval has elapsed. The
// wait loop calls it each poll tick so a driver blocked in a long wait keeps
// its job visibly owned. Failures are not fatal here: waiting and
// reading results is allowed even for a superseded driver, and mutations
// re-check through renewLease themselves.
func (e *Executor) maybeRenewLease() {
	j := &e.journal
	j.mu.Lock()
	due := j.started && !j.fenced && e.clock.Now().Sub(j.lastRenew) >= leaseRenewInterval
	j.mu.Unlock()
	if due {
		_ = e.renewLease() //gowren:allow errsink — advisory on the read path; every mutation re-checks the lease itself
	}
}

// journalRecord opens this driver's next journal record of kind; its
// (epoch, seq) is its place in replay order. live is false when there is no
// journal to append it to: disabled, not started, or fenced.
func (e *Executor) journalRecord(kind string) (rec wire.JournalRecord, live bool) {
	j := &e.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	rec = wire.JournalRecord{Epoch: j.manifest.Epoch, Seq: j.seq, Kind: kind, AtUnixNs: e.clock.Now().UnixNano()}
	j.seq++
	return rec, j.started && !j.fenced
}

// appendJournal writes one journal record under the job's journal prefix.
// The record key embeds (epoch, seq) zero-padded, so replay order is plain
// key order and a stale driver's records sort strictly before the epochs
// that superseded it. Appends are best-effort: the journal is redundancy
// over the durable per-call objects — losing a record degrades what a later
// Attach can reconstruct, never the correctness of the running job.
func (e *Executor) appendJournal(kind string, mut func(*wire.JournalRecord)) {
	rec, live := e.journalRecord(kind)
	if !live {
		return
	}
	if mut != nil {
		mut(&rec)
	}
	meta := e.cfg.Platform.MetaBucket()
	_, _ = e.cfg.Storage.Put(meta, journalKey(e.id, rec.Epoch, rec.Seq), wire.MustMarshal(rec)) //gowren:allow errsink — journal records are advisory redundancy over durable call objects
}

// journalCalls builds the per-call entries of a launch record. futures is
// index-aligned with payloads when the calls were invoked directly, and nil
// for calls staged behind a fan-in, which have no activation yet.
func journalCalls(payloads []*wire.CallPayload, futures []*Future) []wire.JournalCall {
	calls := make([]wire.JournalCall, len(payloads))
	for i, p := range payloads {
		calls[i] = wire.JournalCall{CallID: p.CallID, Region: p.Region}
		if futures != nil {
			calls[i].ActivationID = futures[i].activationID
		}
	}
	return calls
}
