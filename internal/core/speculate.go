package core

import (
	"encoding/json"
	"slices"
	"time"
)

// Speculative execution. The paper's Fig. 3 observes that "some functions
// ran fast while others slow ... due to the internal operation of IBM Cloud
// Functions"; with thousands of executors the slowest activation sets the
// job time. Speculation — re-invoking calls that remain pending long after
// the bulk of the job finished, racing the original against a fresh
// container — is the classic MapReduce countermeasure, implemented here on
// top of the staged-payload respawn machinery. Functions must be idempotent
// (both attempts may run to completion; they write identical result keys),
// which GoWren jobs are by construction: results are pure functions of the
// staged payload.

const (
	// speculationThreshold is the completed fraction at which speculation
	// arms: once this share of calls finished, the remaining ones are
	// straggler candidates.
	speculationThreshold = 0.75
	// speculationFactor multiplies the arm time to produce the straggler
	// deadline: a call still pending at speculationFactor × (time the job
	// needed to reach the threshold) is re-invoked once.
	speculationFactor = 2
)

// GetResultSpeculative is GetResult with straggler re-execution: when the
// job is mostly finished but a tail of calls lingers, the pending calls are
// respawned once. The client keeps the first status it fetches; both
// attempts still commit theirs with plain PUTs, so storage ends with the
// later attempt's status and result (ROADMAP.md, "One commit protocol for
// every attempt").
func (e *Executor) GetResultSpeculative(opts GetResultOptions) ([]json.RawMessage, error) {
	futures := e.Futures()
	if len(futures) == 0 {
		return nil, ErrNoFutures
	}
	jobStart := e.clock.Now()
	need := int(speculationThreshold * float64(len(futures)))
	if need < 1 {
		need = 1
	}

	var (
		armAt      time.Time // when the threshold was reached
		speculated bool
	)
	return collectResults(e, futures, opts, func(pend *pendingSet, rec *recoverer) {
		if armAt.IsZero() && len(futures)-pend.n >= need {
			armAt = e.clock.Now()
		}
		if armAt.IsZero() || speculated {
			return
		}
		stragglerDeadline := jobStart.Add(armAt.Sub(jobStart) * speculationFactor)
		if e.clock.Now().Before(stragglerDeadline) {
			return
		}
		// A call still waiting behind a fan-in whose inputs have not all
		// committed is not a straggler — a copy of it could only sit and
		// wait. Stragglers just respawned by recovery this tick (or out of
		// the shared budget) are filtered by the ledger, so one flaky call
		// never gets two copies in one tick.
		candidates := slices.DeleteFunc(pend.futures(), func(f *Future) bool {
			return f.gate != nil && !f.gate.inputsCommitted(e)
		})
		stragglers := e.respawns.reserve(candidates, respawnLimit(rec.opts))
		if len(stragglers) == 0 {
			speculated = true
			return
		}
		// The copies are invoked directly, so from here on the pending
		// calls have activation records to consult.
		pend.probe = true
		// A failed respawn leaves the original attempt racing on; the wait
		// continues either way.
		if err := e.Respawn(stragglers); err == nil {
			speculated = true
		}
	})
}
