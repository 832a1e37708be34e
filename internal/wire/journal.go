package wire

// Job journal envelopes. The driver is the orchestrator in the PyWren model,
// so a crashed client process used to lose the job even though every payload,
// status, and result was already durable in COS. The manifest plus an
// append-only journal close that gap: together they make the full job state
// reconstructible from storage alone, and a fresh driver can Attach, replay
// the journal, and continue where the dead one left off.

// JobManifest is created once at first launch under the platform's meta
// bucket, and it is the job's driver lease as well. It records everything a
// resuming driver cannot rediscover from the per-call objects — the job's
// identity, runtime, and the platform seed that makes placement and
// speculation decisions reproducible — plus the fencing epoch. It is written
// only through conditional puts: holding the latest epoch is what authorizes
// a driver to mutate job state (respawn, dead-letter, replay), and a driver
// whose conditional renewal fails has been superseded and must stop.
type JobManifest struct {
	JobID      string `json:"jobId"`
	MetaBucket string `json:"metaBucket"`
	Runtime    string `json:"runtime"`
	Seed       int64  `json:"seed"`
	// CreatedUnixNs is the manifest creation time on the simulation clock.
	CreatedUnixNs int64 `json:"createdUnixNs"`
	// Epoch is the fencing epoch of the driver that last wrote the
	// manifest: 1 at creation, bumped by every Attach.
	Epoch uint64 `json:"epoch"`
	// RenewedUnixNs is the last renewal time on the simulation clock; the
	// orphan GC treats a long-unrenewed job as abandoned.
	RenewedUnixNs int64 `json:"renewedUnixNs"`
	// Reserved is the payload batch key the creating launch writes only
	// after it has invoked its calls, its launch record as the last line
	// (AppendLaunch). The key names the call range, so the manifest
	// reserves those call IDs before any of them runs; empty when the
	// first launch staged before invoking and journaled apart.
	Reserved string `json:"reserved,omitempty"`
}

// Journal record kinds.
const (
	// JournalLaunch records a batch of staged-and-invoked calls. A job's
	// first launch may write it as the last line of the payload batch the
	// manifest reserves (AppendLaunch) instead of under the journal prefix.
	JournalLaunch = "launch"
	// JournalRespawn records re-invocations of calls whose activations died.
	JournalRespawn = "respawn"
	// JournalDeadLetter records a call retired after exhausting respawns: it
	// is the durable dead letter.
	JournalDeadLetter = "deadletter"
	// JournalReplay records dead letters re-keyed under fresh call IDs; it is
	// written before the replacements launch so a second driver never
	// resurrects the originals.
	JournalReplay = "replay"
)

// JournalCall is one call touched by a journal record.
type JournalCall struct {
	CallID string `json:"callId"`
	// ActivationID is the platform activation driving the call, when known
	// (direct invocation); empty under spawner fan-out.
	ActivationID string `json:"activationId,omitempty"`
	// Region is the call's storage home region, if placed.
	Region string `json:"region,omitempty"`
	// Attempts and Error, on a dead-letter record, are the automatic
	// re-executions spent on the call and the failure recovery gave up on;
	// the record's AtUnixNs is when it gave up.
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JournalRecord is one append-only entry under the job's journal prefix.
// Records are keyed so that lexicographic order equals (epoch, seq) order;
// replaying them in key order reproduces the driver's recovery decisions.
type JournalRecord struct {
	// Epoch is the manifest epoch of the driver that wrote the record. A
	// resuming driver bumps the epoch before writing, so records from a
	// fenced-off predecessor sort strictly earlier.
	Epoch uint64 `json:"epoch"`
	Seq   int    `json:"seq"`
	Kind  string `json:"kind"`
	// Calls are the calls the record covers (launched, respawned, or
	// dead-lettered, per Kind).
	Calls []JournalCall `json:"calls,omitempty"`
	// Tracked marks launch records whose futures the driver holds (Map and
	// friends), as opposed to untracked helper calls (remote invokers).
	Tracked bool `json:"tracked,omitempty"`
	// FanIns, on a launch record, marks Calls as staged but not invoked: each
	// is a target of one of these stage barriers and starts when the
	// barrier's call range has committed. A resuming driver rebuilds its
	// launch backstop from them.
	FanIns []FanIn `json:"fanIns,omitempty"`
	// OldCallIDs lists the dead-lettered calls a replay record supersedes;
	// index-aligned with Calls, which carries the replacement IDs.
	OldCallIDs []string `json:"oldCallIds,omitempty"`
	// AtUnixNs is the record's write time on the simulation clock.
	AtUnixNs int64 `json:"atUnixNs"`
}
