package core

import (
	"fmt"

	"gowren/internal/wire"
)

// Dead-letter persistence and replay. The in-memory dead-letter list
// (recover.go) tells the caller which calls automatic recovery abandoned;
// this file makes those records durable and actionable. Every dead letter
// is one record in the job's journal, the same record that retires the call
// for a driver that attaches later, and ReplayDeadLetters re-stages the
// abandoned calls as a brand-new job — the operational loop a real
// deployment runs after an outage: wait for the platform to heal, then
// replay what was parked.

// persistDeadLetter journals d, best-effort like every journal record: the
// call is already parked in memory, and a storage plane unhealthy enough to
// reject this write is usually the reason the call dead-lettered in the
// first place. If the same call dead-letters again, the later record wins.
// Persisting is a job-state mutation, so it passes the lease checkpoint
// first: a fenced driver must not write durable records the job's new
// driver may already have replayed or recovered past.
func (e *Executor) persistDeadLetter(d DeadLetter) {
	if err := e.renewLease(); err != nil {
		return
	}
	e.appendJournal(wire.JournalDeadLetter, func(rec *wire.JournalRecord) {
		rec.AtUnixNs = d.GaveUpAt.UnixNano()
		rec.Calls = []wire.JournalCall{{CallID: d.CallID, Attempts: d.Attempts, Error: d.LastError}}
	})
}

// PersistedDeadLetters replays this executor's journal for its dead
// letters, in call-ID order, leaving out the calls a replay superseded.
func (e *Executor) PersistedDeadLetters() ([]DeadLetter, error) {
	st, err := e.replayJournal()
	if err != nil {
		return nil, err
	}
	return st.deadLetters(), nil
}

// ReplayDeadLetters re-stages every dead-lettered call as a new job on this
// executor: the original staged payloads are fetched (one GET per batch they
// sit in), re-keyed under fresh call IDs, staged, and invoked like any other
// job, so the replay gets the full machinery — retries, recovery,
// speculation — from scratch. On success the executor's dead-letter list is
// cleared, the journaled replay record supersedes the persisted letters, and
// the new futures are returned, tracked in place of the dead originals (which
// are untracked, so the next GetResult collects each replayed call exactly
// once). With no dead letters it returns (nil, nil).
// On error the dead-letter list is left intact for a later retry.
func (e *Executor) ReplayDeadLetters() ([]*Future, error) {
	e.mu.Lock()
	letters := e.deadLetters
	e.deadLetters = nil
	e.mu.Unlock()
	if len(letters) == 0 {
		return nil, nil
	}
	restore := func() {
		e.mu.Lock()
		e.deadLetters = append(letters, e.deadLetters...)
		e.mu.Unlock()
	}

	meta := e.cfg.Platform.MetaBucket()
	callIDs := make([]string, len(letters))
	for i, d := range letters {
		callIDs[i] = d.CallID
	}
	staged, err := resolvePayloads(e.cfg.Storage, meta, e.id, callIDs)
	if err != nil {
		restore()
		return nil, fmt.Errorf("core: replay: fetch payloads: %w", err)
	}
	payloads := make([]*wire.CallPayload, len(letters))
	for i, d := range letters {
		if payloads[i], err = wire.DecodePayload(staged[i].body); err != nil {
			restore()
			return nil, fmt.Errorf("core: replay: decode payload %s/%s: %w", d.ExecutorID, d.CallID, err)
		}
	}
	ids := e.reserveCallIDs(len(payloads))
	for i, p := range payloads {
		p.ExecutorID = e.id
		p.CallID = ids[i]
	}
	// Replay is a job-state mutation: re-assert the lease, then journal the
	// old→new mapping BEFORE the replacements launch. A driver attaching
	// after the record lands never resurrects the superseded originals,
	// even if this driver dies mid-replay (the replacements then simply
	// never ran — their launch record is missing — and the replayed work is
	// lost with the driver, like any un-launched job).
	if err := e.renewLease(); err != nil {
		restore()
		return nil, err
	}
	e.appendJournal(wire.JournalReplay, func(rec *wire.JournalRecord) {
		rec.OldCallIDs = make([]string, len(letters))
		for i, d := range letters {
			rec.OldCallIDs[i] = d.CallID
		}
		rec.Calls = journalCalls(payloads, nil)
	})
	futures, err := e.launch(payloads, true, false)
	if err != nil {
		restore()
		return nil, fmt.Errorf("core: replay dead letters: %w", err)
	}
	// The replacements are tracked; the dead originals must not be, or the
	// next GetResult would collect (and re-recover) both copies.
	dead := make(map[[2]string]bool, len(letters))
	for _, d := range letters {
		dead[[2]string{d.ExecutorID, d.CallID}] = true
	}
	e.untrack(dead)
	return futures, nil
}
