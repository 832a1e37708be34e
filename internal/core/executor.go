package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/netsim"
	"gowren/internal/retry"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Errors reported by the executor.
var (
	ErrNoFutures   = errors.New("core: executor has no tracked futures")
	ErrWaitTimeout = errors.New("core: wait deadline exceeded")
	ErrCallFailed  = errors.New("core: function call failed")
)

// defaultStageConcurrency is the stage pool size when Config leaves it zero.
const defaultStageConcurrency = 64

// invokeRetryPolicy is the client-side invocation retry schedule on
// throttling or network failure: 5 retries of exponential backoff with
// decorrelated jitter from 1 s, capped at 30 s between tries. Storage
// requests do not use it: they retry in the storage view's own stage
// (executorStorageAttempts).
var invokeRetryPolicy = retry.Policy{
	MaxAttempts: 6,
	BaseBackoff: time.Second,
	MaxBackoff:  30 * time.Second,
	Multiplier:  2,
	Jitter:      true,
}

// Config configures an Executor: which platform it submits to, through
// which network paths, and how aggressively it stages and invokes.
type Config struct {
	// Platform is the simulated cloud to run on. Required.
	Platform *Platform
	// Storage is this executor's view of object storage (typically
	// cos.NewLinked over the client's network profile). Required.
	Storage cos.Client
	// ControlLink models the network path to the invocation API. Nil
	// means free (used by unit tests).
	ControlLink *netsim.Link
	// RuntimeImage selects the runtime for this executor's functions,
	// mirroring pw.ibm_cf_executor(runtime='matplotlib'). Empty uses
	// runtime.DefaultImage.
	RuntimeImage string
	// Tenant attributes this executor's invocations to a platform tenant
	// for fair-share admission and per-tenant billing. The tenant travels
	// in every staged payload, so respawns, remote invokers and
	// composition spawns inherit it. Empty means the default tenant.
	Tenant string

	// InvokeConcurrency is the client thread-pool size for direct
	// invocation. Zero uses 64.
	InvokeConcurrency int
	// StageConcurrency is the pool size for payload uploads, result
	// downloads and Clean's deletes. Zero uses 64.
	StageConcurrency int
	// ClientOverhead is serialized per-invocation client work (the
	// Python client's GIL-bound serialize/sign/build cost). Zero means
	// none; the WAN experiment profiles set it.
	ClientOverhead time.Duration

	// MassiveSpawning enables the §5.1 mechanism: invocations are fanned
	// out by remote invoker functions running inside the cloud, each a
	// fan-in of one in front of its group (spawnGates).
	MassiveSpawning bool
	// SpawnGroupSize is the number of invocations per remote invoker.
	// Zero uses 100, the paper's tuned value.
	SpawnGroupSize int

	// PollInterval is the status-polling granularity. Zero uses 50ms.
	PollInterval time.Duration
	// SharePolls says Storage is the platform's own client view of its
	// store, as a Cloud builds it: the executor then polls through the
	// platform's sweep hub, shared with every other such executor, so one
	// status LIST serves all their waits (sweep.go). An executor over
	// storage of its own polls alone.
	SharePolls bool

	// DisableJournal switches off the durable job journal (the manifest
	// that is also the driver lease, recovery records — see journal.go).
	// In-cloud helper executors (composition spawners) set it: their jobs
	// live and die with a parent call and are not independently resumable.
	DisableJournal bool
}

func (c *Config) applyDefaults() error {
	if c.Platform == nil {
		return errors.New("core: executor config missing platform")
	}
	if c.Storage == nil {
		return errors.New("core: executor config missing storage client")
	}
	if c.RuntimeImage == "" {
		c.RuntimeImage = runtime.DefaultImage
	}
	if c.InvokeConcurrency <= 0 {
		c.InvokeConcurrency = 64
	}
	if c.StageConcurrency <= 0 {
		c.StageConcurrency = defaultStageConcurrency
	}
	if c.SpawnGroupSize <= 0 {
		c.SpawnGroupSize = 100
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	return nil
}

// Executor is the first-class object of the programming model (§4.1): it
// tracks the calls it issues and exposes the Table 2 API. Create one per
// logical job; executors are safe for use from a single task at a time.
type Executor struct {
	cfg   Config
	id    string
	clock vclock.Clock
	gil   *serial

	// invokeRetry backs the client-side invocation retries:
	// invokeRetryPolicy on a seeded stream.
	invokeRetry *retry.Retrier

	// respawns is the unified automatic-respawn ledger shared by failure
	// recovery and straggler speculation (see respawn.go).
	respawns *respawnLedger

	// sweeps is the sweep coordinator every waiter of this executor (Wait,
	// GetResult, composition resolvers) polls completion through — sharing
	// its LISTs with other executors through the platform's hub under
	// SharePolls — so LISTs stay incremental and coalesce (see sweep.go).
	// Its state goes with the executor.
	sweeps *sweepCoordinator
	// ops counts this executor's storage requests on the wire (below the
	// retry stage), exposed through StorageOps.
	ops *cos.Stack

	// journal is the durable job-journal state: the manifest this driver
	// holds as its lease, the sequence counter (see journal.go).
	journal jobJournal

	mu          sync.Mutex
	futures     []*Future
	nextID      int
	deadLetters []DeadLetter

	// fanIns are the stage barriers whose targets this driver staged but did
	// not invoke, until every target is finished or accounted for (fanin.go).
	// Only the wait inside a chore touches them, so mu does not cover them.
	fanIns []*fanInGroup
	// choring is held by the one wait running the driver's chores (see
	// pendingSet.chore).
	choring atomic.Bool
}

// retryableCall reports whether an invocation is worth another try: 429s —
// global throttles and the admission layer's quota and shed rejections
// alike — and lost requests are; anything else is final.
func retryableCall(err error) bool {
	return errors.Is(err, faas.ErrThrottled) ||
		errors.Is(err, faas.ErrQuotaExceeded) ||
		errors.Is(err, faas.ErrShed) ||
		cos.Retryable(err)
}

// NewExecutor validates cfg and returns an executor with a fresh ID.
func NewExecutor(cfg Config) (*Executor, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	clk := cfg.Platform.Clock()
	// Count requests as they hit the wire, then give every storage access
	// SDK-style transient-failure retries, so one lost request cannot fail
	// data discovery or a status sweep. This is the only retry a storage
	// request of the executor passes through. The counter sits below the
	// retry stage so StorageOps reports attempts, not logical operations.
	counting := cos.NewCounting(cfg.Storage)
	cfg.Storage = cos.NewRetrying(counting, clk, executorStorageAttempts, executorStorageBackoff)

	var hub *sweepHub
	if p := cfg.Platform; cfg.SharePolls {
		p.sweepsOnce.Do(func() { p.sweeps = newSweepHub(cfg.Storage, clk) })
		hub = p.sweeps
	} else {
		hub = newSweepHub(cfg.Storage, clk)
	}
	id, seed := cfg.Platform.nextExecutor()
	return &Executor{
		cfg:         cfg,
		id:          id,
		clock:       clk,
		gil:         newSerial(clk),
		respawns:    newRespawnLedger(),
		sweeps:      newSweepCoordinator(hub, cfg.Storage),
		ops:         counting,
		invokeRetry: retry.New(clk, invokeRetryPolicy, retryableCall, retry.WithSeed(seed)),
	}, nil
}

// StorageOps returns a snapshot of the executor's client-side storage
// request counters: every request this executor put on the wire (retry
// attempts included), plus the total objects returned by its LISTs. The
// wait-path benchmark and regression tests assert on these.
func (e *Executor) StorageOps() cos.OpCounts { return e.ops.Counts() }

// ID returns the executor ID used to namespace its jobs in storage.
func (e *Executor) ID() string { return e.id }

// Futures returns the futures tracked so far, in issue order.
func (e *Executor) Futures() []*Future {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Future, len(e.futures))
	copy(out, e.futures)
	return out
}

// reserveCallIDs allocates n sequential call IDs.
func (e *Executor) reserveCallIDs(n int) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = callIDForSeq(e.nextID)
		e.nextID++
	}
	return ids
}

func (e *Executor) track(fs []*Future) {
	e.mu.Lock()
	e.futures = append(e.futures, fs...)
	e.mu.Unlock()
}

// untrack removes the futures matching the given (executorID, callID)
// pairs from the tracked set — used by dead-letter replay, which replaces
// terminally failed calls with freshly staged ones.
func (e *Executor) untrack(ids map[[2]string]bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.futures = slices.DeleteFunc(e.futures, func(f *Future) bool {
		return ids[[2]string{f.executorID, f.callID}]
	})
}

// CallAsync runs one function asynchronously in the cloud (Table 2:
// call_async). It returns immediately after the invocation is issued.
func (e *Executor) CallAsync(function string, arg any) (*Future, error) {
	fs, err := e.Map(function, []any{arg})
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// Map runs one function invocation per element of args (Table 2: map).
// It blocks until the invocation phase completes — exactly the phase the
// paper's Fig. 2 measures — and returns one future per element.
func (e *Executor) Map(function string, args []any) ([]*Future, error) {
	if len(args) == 0 {
		return nil, errors.New("core: map over empty input")
	}
	callIDs := e.reserveCallIDs(len(args))
	payloads := make([]*wire.CallPayload, len(args))
	for i, arg := range args {
		raw, err := wire.Marshal(arg)
		if err != nil {
			return nil, fmt.Errorf("core: serialize map argument %d: %w", i, err)
		}
		payloads[i] = &wire.CallPayload{
			ExecutorID: e.id,
			CallID:     callIDs[i],
			Runtime:    e.cfg.RuntimeImage,
			Function:   function,
			Kind:       wire.KindPlain,
			Arg:        raw,
			MetaBucket: e.cfg.Platform.MetaBucket(),
		}
	}
	return e.runJob(payloads)
}

// runJob stages the payloads in object storage and fires their
// invocations, tracking the resulting futures on the executor.
func (e *Executor) runJob(payloads []*wire.CallPayload) ([]*Future, error) {
	return e.launch(payloads, true, true)
}

// launch is runJob with control over future tracking — map_reduce launches
// its map phase untracked so GetResult waits only on the reducers — and over
// the journal: open says the launch is a top-level one, which opens the job
// or re-asserts the lease first (journalStart); a launch inside another, or
// after its caller renewed the lease itself, passes false. Under massive
// spawning the calls go out behind remote invokers (spawnGates).
//
// The launch that creates the job's manifest, when every call rides its
// invocation, invokes before it stages: the manifest reserves the batch's
// key, and the batch, PUT once every call is out, carries the launch record
// as its last line. Should that PUT fail, the calls run untracked under
// reserved IDs — what a driver that died in the same window leaves.
func (e *Executor) launch(payloads []*wire.CallPayload, trackFutures, open bool) ([]*Future, error) {
	if e.cfg.MassiveSpawning {
		return e.launchBehind(e.spawnGates(payloads), trackFutures, open)
	}
	staged, err := e.framePayloads(payloads)
	if err != nil {
		return nil, err
	}
	deferred := false
	if open {
		reserve := staged.deferrable(payloads)
		created, err := e.journalStart(reserve)
		if err != nil {
			return nil, err
		}
		deferred = created && reserve != ""
	}
	action, err := e.cfg.Platform.EnsureRuntime(e.cfg.RuntimeImage)
	if err != nil {
		return nil, err
	}
	if !deferred {
		if err := e.putBatches(staged.batches); err != nil {
			return nil, err
		}
	}
	futures, err := e.invokeStaged(action, payloads, staged.refs, staged.lines)
	if err != nil {
		return nil, err
	}
	journal := func(rec *wire.JournalRecord) {
		rec.Calls = journalCalls(payloads, futures)
		rec.Tracked = trackFutures
	}
	if deferred {
		// The record goes in even if a newer driver fenced this one
		// meanwhile: the calls are out, and it is the truth about them.
		rec, _ := e.journalRecord(wire.JournalLaunch)
		journal(&rec)
		batch := staged.batches[0]
		if _, err := e.cfg.Storage.Put(e.cfg.Platform.MetaBucket(), batch.key, wire.AppendLaunch(batch.body, &rec)); err != nil {
			return nil, fmt.Errorf("core: stage payloads after invoking: %w", err)
		}
	} else {
		e.appendJournal(wire.JournalLaunch, journal)
	}
	if trackFutures {
		e.track(futures)
	}
	return futures, nil
}

// spawnGates implements massive function spawning (§5.1): every
// SpawnGroupSize calls (100 by default) are staged behind one remote
// invoker, a call that runs nothing and carries a fan-in of itself alone, so
// its runner commits it and fires the group from inside the cloud at
// datacenter latency. The client pays ceil(n/group) WAN invocations.
func (e *Executor) spawnGates(payloads []*wire.CallPayload) []stageGate {
	group := e.cfg.SpawnGroupSize
	ids := e.reserveCallIDs((len(payloads) + group - 1) / group)
	gates := make([]stageGate, len(ids))
	for g, id := range ids {
		gates[g] = stageGate{
			inputs: []*wire.CallPayload{{
				ExecutorID: e.id,
				CallID:     id,
				Runtime:    e.cfg.RuntimeImage,
				Function:   "gowren/spawn", // nothing to run: the runner only closes the fan-in
				Kind:       wire.KindInvoker,
				MetaBucket: e.cfg.Platform.MetaBucket(),
			}},
			targets: payloads[g*group : min((g+1)*group, len(payloads))],
		}
	}
	return gates
}

// Wait strategies (Table 2: wait). The names mirror the paper's §4.2.
type WaitStrategy int

const (
	// WaitAlways checks availability once and returns immediately.
	WaitAlways WaitStrategy = iota + 1
	// WaitAnyCompleted returns as soon as at least one call finished.
	WaitAnyCompleted
	// WaitAllCompleted returns when every call finished.
	WaitAllCompleted
)

// Wait applies strategy to the executor's tracked futures and returns the
// (done, pending) partition. deadline zero means no deadline; reaching a
// deadline returns ErrWaitTimeout alongside the partition observed last.
// A strategy other than the three above is an error.
func (e *Executor) Wait(strategy WaitStrategy, deadline time.Time) (done, pending []*Future, err error) {
	futures := e.Futures()
	need := 0
	switch strategy {
	case WaitAlways:
	case WaitAnyCompleted:
		need = 1
	case WaitAllCompleted:
		need = len(futures)
	default:
		return nil, nil, fmt.Errorf("core: unknown wait strategy %d", strategy)
	}
	if len(futures) == 0 {
		return nil, nil, ErrNoFutures
	}
	return e.waitDone(futures, need, deadline)
}

// GetResultOptions tune GetResult (Table 2: get_result).
type GetResultOptions struct {
	// Timeout bounds the whole wait+collect; zero means none.
	Timeout time.Duration
	// Progress, when set, receives (done, total) after every poll sweep,
	// backing the paper's progress bar.
	Progress func(done, total int)
	// Recovery tunes automatic re-execution of failed calls while
	// waiting. Nil uses the defaults: 3 attempts with doubling backoff.
	//
	//gowren:allow reach — TestRegionPartitionTransparentFailover needs recovery that outlasts a 23 s partition
	Recovery *RecoveryOptions
	// PartialResults returns the successful subset instead of failing the
	// whole collection: permanently failed calls leave nil entries in the
	// result slice and are reported through a *PartialError.
	//
	//gowren:allow reach — TestRecoveryBudgetExhaustionDeadLetters and the chaos acceptances read the survivors' exact values through it
	PartialResults bool
}

// GetResult waits for every tracked future, downloads the results, and
// transparently follows composition continuations (§4.2, §4.4). It returns
// the raw JSON results in call order. Calls that failed surface as a joined
// error wrapping ErrCallFailed.
func (e *Executor) GetResult(opts GetResultOptions) ([]json.RawMessage, error) {
	futures := e.Futures()
	if len(futures) == 0 {
		return nil, ErrNoFutures
	}
	return collectResults(e, futures, opts, nil)
}

// deadlineFrom converts a timeout into an absolute deadline on the
// executor's clock.
func (e *Executor) deadlineFrom(timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return e.clock.Now().Add(timeout)
}
