package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// This file holds the quality-of-life operations around the Table 2 API:
// job cleanup (PyWren's clean()), fractional wait thresholds, and respawn
// of platform-failed calls — the operational features a user of the real
// system reaches for once jobs grow to thousands of functions.

// Clean deletes every object this executor staged or produced in the meta
// bucket (payload batches, statuses, fan-in markers, journal records and the
// manifest). Call it after GetResult; futures become unusable afterwards.
func (e *Executor) Clean() error {
	meta := e.cfg.Platform.MetaBucket()
	if err := deleteJob(e.cfg.Storage, e.clock, e.cfg.StageConcurrency, meta, e.id); err != nil {
		return fmt.Errorf("core: clean %s: %w", e.id, err)
	}
	// The status objects the sweep state mirrors are gone; drop the state
	// with them.
	e.sweeps.forgetNamespace(nsKey{bucket: meta, execID: e.id})
	return nil
}

// deleteJob deletes everything a job keeps in the meta bucket: one LIST of
// jobs/{id}/, whose objects go through a pool of workers, then
// manifests/{id}, which a job that never journaled does not have.
func deleteJob(storage cos.Client, clk vclock.Clock, workers int, meta, id string) error {
	listed, err := cos.ListAll(storage, meta, "jobs/"+id+"/")
	if err != nil {
		return err
	}
	errs := parallelFor(clk, workers, len(listed), func(i int) error {
		return storage.Delete(meta, listed[i].Key)
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	if err := storage.Delete(meta, manifestKey(id)); err != nil && !errors.Is(err, cos.ErrNoSuchKey) {
		return err
	}
	return nil
}

// WaitThreshold blocks until at least frac (0 < frac <= 1) of the tracked
// futures have completed, generalizing AnyCompleted/AllCompleted the way
// later PyWren versions generalize return_when. It returns the (done,
// pending) partition observed when the threshold was met.
func (e *Executor) WaitThreshold(frac float64, deadline time.Time) (done, pending []*Future, err error) {
	if frac <= 0 || frac > 1 {
		return nil, nil, fmt.Errorf("core: wait threshold %v out of (0,1]", frac)
	}
	futures := e.Futures()
	if len(futures) == 0 {
		return nil, nil, ErrNoFutures
	}
	return e.waitDone(futures, thresholdCount(frac, len(futures)), deadline)
}

// thresholdCount is the smallest count k of n with k/n >= frac: 0.5 of 3 is
// 2 and 0.3 of 10 is 3, although 0.3*10 rounds to just above 3.
func thresholdCount(frac float64, n int) int {
	k := int(math.Ceil(frac * float64(n)))
	for k > 1 && float64(k-1)/float64(n) >= frac {
		k--
	}
	return k
}

// FailedFutures returns the tracked futures known to have failed — either
// with a failure status committed by the runner or a dead activation.
// It sweeps first so the answer reflects current platform state.
func (e *Executor) FailedFutures() ([]*Future, error) {
	done, _, err := e.waitDone(e.Futures(), 0, time.Time{})
	if err != nil {
		return nil, err
	}
	errs := e.fetchStatuses(done)
	var failed []*Future
	for i, f := range done {
		if (errs != nil && errs[i] != nil) || f.outcome() != nil {
			failed = append(failed, f)
		}
	}
	return failed, nil
}

// Respawn re-invokes the given (typically failed) calls using their staged
// payloads, which remain in storage. The futures are reset and re-tracked
// in place; useful after transient platform failures (container crashes)
// — deterministic user-code errors will simply fail again. Respawn is a
// job-state mutation: it first re-asserts the driver lease, so a driver
// superseded by Attach fails with ErrFenced before deleting any status.
func (e *Executor) Respawn(futures []*Future) error {
	if len(futures) == 0 {
		return nil
	}
	if err := e.renewLease(); err != nil {
		return err
	}
	meta := e.cfg.Platform.MetaBucket()
	action, err := e.cfg.Platform.EnsureRuntime(e.cfg.RuntimeImage)
	if err != nil {
		return err
	}
	for _, f := range futures {
		if f.exec != e {
			return errors.New("core: respawn of a future from another executor")
		}
	}
	// Remove stale statuses so completion polling does not observe the
	// failed run's record.
	errs := parallelFor(e.clock, e.cfg.StageConcurrency, len(futures), func(i int) error {
		f := futures[i]
		return e.cfg.Storage.Delete(meta, statusKey(f.executorID, f.callID))
	})
	if err := firstErr(errs); err != nil {
		return fmt.Errorf("core: respawn reset: %w", err)
	}
	// The sweep coordinator may already have these calls behind its
	// done-frontier; withdraw them so the next sweep re-observes the
	// respawned run's status instead of trusting the deleted one.
	for _, f := range futures {
		e.sweeps.forget(nsKey{bucket: meta, execID: f.executorID}, f.callID)
	}
	if err := e.locatePayloads(futures); err != nil {
		return fmt.Errorf("core: respawn: %w", err)
	}
	newActs := make([]string, len(futures))
	errs = parallelFor(e.clock, e.cfg.InvokeConcurrency, len(futures), func(i int) error {
		f := futures[i]
		actID, err := e.invokeOne(action, wire.InvokeParams(f.payload, nil), e.cfg.Tenant)
		if err != nil {
			return fmt.Errorf("respawn %s/%s: %w", f.executorID, f.callID, err)
		}
		newActs[i] = actID
		f.reset(actID)
		return nil
	})
	invokeErr := firstErr(errs)
	// Journal what was actually re-invoked, even on partial failure: a
	// resuming driver must know about every live activation.
	var calls []wire.JournalCall
	for i, f := range futures {
		if newActs[i] != "" {
			calls = append(calls, wire.JournalCall{CallID: f.callID, ActivationID: newActs[i]})
		}
	}
	if len(calls) > 0 {
		e.appendJournal(wire.JournalRespawn, func(rec *wire.JournalRecord) { rec.Calls = calls })
	}
	if invokeErr != nil {
		return fmt.Errorf("core: respawn: %w", invokeErr)
	}
	return nil
}

// JobStats summarizes the executor's storage footprint (for tests,
// tooling, and Clean verification).
type JobStats struct {
	// Payloads counts staged calls, not the batch objects holding them.
	Payloads int
	Statuses int
	Shuffle  int
}

// Stats counts the executor's objects in the meta bucket — and, for
// payloads, the calls its batch keys say they hold (no batch is read).
func (e *Executor) Stats() (JobStats, error) {
	var out JobStats
	meta := e.cfg.Platform.MetaBucket()
	batches, err := listPayloadBatches(e.cfg.Storage, meta, e.id)
	if err != nil {
		return JobStats{}, fmt.Errorf("core: stats %s: %w", e.id, err)
	}
	// Key order is call order, so a high-water mark counts a call once even
	// where two batches cover it.
	staged := 0
	for _, b := range batches {
		out.Payloads += max(0, b.first+b.count-max(b.first, staged))
		staged = max(staged, b.first+b.count)
	}
	for _, x := range []struct {
		prefix string
		dst    *int
	}{
		{statusPrefix, &out.Statuses},
		{shufflePrefix, &out.Shuffle},
	} {
		listed, err := cos.ListAll(e.cfg.Storage, meta, fmt.Sprintf("jobs/%s/%s/", e.id, x.prefix))
		if err != nil {
			return JobStats{}, fmt.Errorf("core: stats %s: %w", e.id, err)
		}
		*x.dst = len(listed)
	}
	return out, nil
}

// reset rearms a future for a respawned invocation.
func (f *Future) reset(activationID string) {
	f.mu.Lock()
	f.done = false
	f.failed = nil
	f.status = nil
	f.activationID = activationID
	f.mu.Unlock()
}
