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
// though every payload, status, and result object was already durable. The
// journal closes that gap: at first launch the executor writes a job
// manifest plus a driver lease under its COS namespace, and every recovery
// event (launches, respawns, dead letters, replays) appends a journal
// record. AttachExecutor (attach.go) rebuilds the whole job from those
// objects alone.
//
// The lease is the fencing mechanism: a tiny object written only through
// conditional puts (cos.Client.PutIf). The driver caches the lease ETag it
// last wrote; every mutation of job state re-asserts ownership by CAS-ing a
// renewal against that ETag. A resuming driver takes over by CAS-bumping the
// epoch, which changes the ETag — the old driver's next renewal then fails
// with ErrPreconditionFailed and it fences itself off with ErrFenced. Read
// paths (status sweeps, result collection) are deliberately unfenced: a
// superseded driver observing the job complete is harmless.

// ErrFenced reports a job-state mutation rejected because a newer driver
// holds the job's lease (a later epoch). The superseded driver may keep
// reading results but must not respawn, dead-letter, or replay calls.
var ErrFenced = errors.New("core: driver lease fenced by a newer driver")

// leaseRenewInterval is how often a driver blocked in result collection
// refreshes its lease timestamp, keeping the job visibly owned so the
// orphan GC (CleanAbandoned) does not collect a live job. TTLs passed to
// CleanAbandoned should comfortably exceed this.
const leaseRenewInterval = 30 * time.Second

// jobJournal is the executor's journaling state. Critical sections under mu
// are short and never touch storage (storage calls sleep on the clock);
// the storage operations themselves run outside the lock, which is safe
// because executors are driven by a single task at a time.
type jobJournal struct {
	mu        sync.Mutex
	started   bool // manifest written, lease held; never with Config.DisableJournal
	fenced    bool // a conditional renewal failed; a newer driver owns the job
	epoch     uint64
	seq       int    // next journal record sequence within this epoch
	leaseETag string // ETag of the lease body this driver last wrote
	lastRenew time.Time
}

// journalStart lazily writes the job manifest and acquires the epoch-1
// driver lease, once per executor, before the first launch stages anything.
func (e *Executor) journalStart() error {
	j := &e.journal
	j.mu.Lock()
	started := j.started
	j.mu.Unlock()
	if started || e.cfg.DisableJournal {
		return nil
	}

	meta := e.cfg.Platform.MetaBucket()
	man := wire.JobManifest{
		JobID:         e.id,
		MetaBucket:    meta,
		Runtime:       e.cfg.RuntimeImage,
		Seed:          e.cfg.Platform.Seed(),
		CreatedUnixNs: e.clock.Now().UnixNano(),
	}
	if _, err := e.cfg.Storage.Put(meta, manifestKey(e.id), wire.MustMarshal(man)); err != nil {
		return fmt.Errorf("core: write job manifest: %w", err)
	}
	lease := wire.DriverLease{JobID: e.id, Epoch: 1, RenewedUnixNs: e.clock.Now().UnixNano()}
	lm, err := e.cfg.Storage.PutIf(meta, leaseKey(e.id), wire.MustMarshal(lease), "")
	switch {
	case errors.Is(err, cos.ErrPreconditionFailed):
		// A lease already exists under this executor's ID — only possible
		// when an attached driver races the original on a shared ID.
		return fmt.Errorf("core: job %s already has a driver lease: %w", e.id, ErrFenced)
	case err != nil:
		return fmt.Errorf("core: acquire driver lease: %w", err)
	}
	j.mu.Lock()
	j.started = true
	j.epoch = 1
	j.leaseETag = lm.ETag
	j.lastRenew = e.clock.Now()
	j.mu.Unlock()
	return nil
}

// renewLease re-asserts lease ownership with a conditional put against the
// ETag this driver last wrote. It is the fencing checkpoint every job-state
// mutation (Respawn, dead-letter persistence, replay) passes through first:
// a failed precondition means a newer driver bumped the epoch, and this
// driver permanently fences itself off. With journaling disabled or not yet
// started it is a no-op.
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
	epoch := j.epoch
	etag := j.leaseETag
	j.mu.Unlock()

	meta := e.cfg.Platform.MetaBucket()
	lease := wire.DriverLease{JobID: e.id, Epoch: epoch, RenewedUnixNs: e.clock.Now().UnixNano()}
	lm, err := e.cfg.Storage.PutIf(meta, leaseKey(e.id), wire.MustMarshal(lease), etag)
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
	j.mu.Lock()
	j.leaseETag = lm.ETag
	j.lastRenew = e.clock.Now()
	j.mu.Unlock()
	return nil
}

// maybeRenewLease renews the lease once leaseRenewInterval has elapsed. The
// wait path calls it each poll so a driver blocked in a long collection
// keeps its job visibly owned. Failures are not fatal here: waiting and
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

// appendJournal writes one journal record under the job's journal prefix.
// The record key embeds (epoch, seq) zero-padded, so replay order is plain
// key order and a stale driver's records sort strictly before the epochs
// that superseded it. Appends are best-effort: the journal is redundancy
// over the durable per-call objects — losing a record degrades what a later
// Attach can reconstruct, never the correctness of the running job.
func (e *Executor) appendJournal(kind string, mut func(*wire.JournalRecord)) {
	j := &e.journal
	j.mu.Lock()
	if !j.started || j.fenced {
		j.mu.Unlock()
		return
	}
	epoch := j.epoch
	seq := j.seq
	j.seq++
	j.mu.Unlock()

	rec := wire.JournalRecord{Epoch: epoch, Seq: seq, Kind: kind, AtUnixNs: e.clock.Now().UnixNano()}
	if mut != nil {
		mut(&rec)
	}
	meta := e.cfg.Platform.MetaBucket()
	_, _ = e.cfg.Storage.Put(meta, journalKey(e.id, epoch, seq), wire.MustMarshal(rec)) //gowren:allow errsink — journal records are advisory redundancy over durable call objects
}

// journalCalls builds the per-call entries of a launch record. actIDs is
// index-aligned with payloads when known (direct invocation) and nil under
// spawner fan-out, mirroring launch().
func journalCalls(payloads []*wire.CallPayload, actIDs []string) []wire.JournalCall {
	calls := make([]wire.JournalCall, len(payloads))
	for i, p := range payloads {
		calls[i] = wire.JournalCall{CallID: p.CallID, Region: p.Region}
		if actIDs != nil {
			calls[i].ActivationID = actIDs[i]
		}
	}
	return calls
}
