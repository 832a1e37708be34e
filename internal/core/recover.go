package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Automatic failure recovery in the wait path. The paper's programming
// model (§4.2) leaves failure handling to the user: a crashed container or
// a failed call surfaces from get_result and the caller re-runs the job.
// GoWren keeps the manual FailedFutures/Respawn pair but always does the
// thing every real deployment ends up building anyway: while the client is
// already polling for statuses, failed calls are re-invoked from their
// staged payloads — idempotent by construction — up to a bounded number of
// attempts with backoff. Calls that stay broken are parked on the executor's dead-letter
// list and reported either as an error or, with PartialResults, alongside
// the successful subset.

// Recovery defaults applied by RecoveryOptions.withDefaults.
const (
	// DefaultRecoveryAttempts is the per-call re-execution cap.
	DefaultRecoveryAttempts = 3
	// DefaultRecoveryBackoff is the delay before the first re-execution;
	// it doubles per attempt up to maxRecoveryBackoff.
	DefaultRecoveryBackoff = 500 * time.Millisecond
	maxRecoveryBackoff     = 10 * time.Second
)

// RecoveryOptions tune automatic re-execution of failed calls during
// result collection. The zero value means "recovery on, defaults".
type RecoveryOptions struct {
	// MaxAttempts caps re-executions per call. Zero selects
	// DefaultRecoveryAttempts; negative behaves like zero attempts left
	// (failures dead-letter immediately but are still recorded).
	//
	//gowren:allow reach — TestRegionPartitionTransparentFailover needs recovery that outlasts a 23 s partition
	MaxAttempts int
	// Backoff delays the first re-execution of a failed call and doubles
	// per subsequent attempt. Zero selects DefaultRecoveryBackoff.
	//
	//gowren:allow reach — TestRegionPartitionTransparentFailover needs recovery that outlasts a 23 s partition
	Backoff time.Duration
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultRecoveryAttempts
	}
	if o.MaxAttempts < 0 {
		o.MaxAttempts = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultRecoveryBackoff
	}
	return o
}

// DeadLetter records one call automatic recovery gave up on.
type DeadLetter struct {
	ExecutorID string
	CallID     string
	// Attempts is the number of automatic re-executions performed.
	Attempts int
	// LastError is the failure observed when recovery gave up.
	LastError string
	// GaveUpAt is the virtual time of the final verdict.
	GaveUpAt time.Time
}

// DeadLetters returns the calls automatic recovery abandoned, in the order
// they were given up on. The list accumulates across GetResult calls;
// a respawned call that later succeeds never appears here.
func (e *Executor) DeadLetters() []DeadLetter {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]DeadLetter, len(e.deadLetters))
	copy(out, e.deadLetters)
	return out
}

func (e *Executor) addDeadLetter(d DeadLetter) {
	e.mu.Lock()
	e.deadLetters = append(e.deadLetters, d)
	e.mu.Unlock()
	// Durable copy in the meta bucket, next to the staged payload it
	// refers to (see deadletter.go).
	e.persistDeadLetter(d)
}

// PartialError reports the calls that failed permanently when GetResult
// ran with PartialResults. It unwraps to the per-call errors, so
// errors.Is(err, ErrCallFailed) works on it.
type PartialError struct {
	// Failed lists the permanently failed calls, mirroring the
	// executor's dead letters for this collection.
	Failed []DeadLetter
	// Errs holds one error per failed call.
	Errs []error
}

func (p *PartialError) Error() string {
	return fmt.Sprintf("core: %d calls failed permanently (first: %v)", len(p.Errs), p.Errs[0])
}

// Unwrap exposes the per-call errors to errors.Is/errors.As.
func (p *PartialError) Unwrap() []error { return p.Errs }

// recoverer drives automatic re-execution from inside a wait loop. One
// recoverer serves one collection call; the executor's dead-letter list is
// the only state that outlives it. It is fed completions (observe) rather
// than scanning for them: a call is judged once, when it finishes, and
// after that only the calls currently failing are looked at again, so a
// quiet poll tick costs it nothing.
type recoverer struct {
	exec    *Executor
	opts    RecoveryOptions
	futures []*Future

	ok       int           // calls judged successful
	failing  []failingCall // observed failures awaiting backoff, respawn or a verdict
	attempts map[*Future]int
	nextTry  map[*Future]time.Time
	failed   map[*Future]verdict // terminal failures, keyed by future
}

// verdict is one call recovery gave up on: its dead letter and the failure
// GetResult reports for it.
type verdict struct {
	letter DeadLetter
	err    error
}

type failingCall struct {
	f   *Future
	err error
	// unread marks a status that could not be fetched; it is fetched again
	// on every pass, so a storage hiccup shorter than the backoff heals
	// without a respawn.
	unread bool
}

func newRecoverer(e *Executor, futures []*Future, opts *RecoveryOptions) *recoverer {
	var o RecoveryOptions
	if opts != nil {
		o = *opts
	}
	return &recoverer{
		exec:     e,
		opts:     o.withDefaults(),
		futures:  futures,
		attempts: make(map[*Future]int),
		nextTry:  make(map[*Future]time.Time),
		failed:   make(map[*Future]verdict),
	}
}

// observe judges calls that just finished. Their status records are
// fetched in parallel (a pushed body or one GET per call, see
// fetchStatuses); a record with
// OK=true settles the call, anything else — a dead activation, OK=false, an
// unreadable status — joins the failing list for step to act on.
func (r *recoverer) observe(done []*Future) {
	if len(done) == 0 {
		return
	}
	errs := r.exec.fetchStatuses(done)
	before := len(r.failing)
	for i, f := range done {
		if errs != nil && errs[i] != nil {
			err := fmt.Errorf("core: call %s/%s status unreadable: %w", f.executorID, f.callID, errs[i])
			r.failing = append(r.failing, failingCall{f: f, err: err, unread: true})
		} else if err := f.outcome(); err != nil {
			r.failing = append(r.failing, failingCall{f: f, err: err})
		} else {
			r.ok++
		}
	}
	if len(r.failing) > before {
		// Verdicts and respawns go out in call order, whatever order the
		// failures were observed in.
		slices.SortStableFunc(r.failing, func(a, b failingCall) int {
			return cmp.Or(strings.Compare(a.f.executorID, b.f.executorID), strings.Compare(a.f.callID, b.f.callID))
		})
	}
}

// step runs one recovery pass over the failing calls: newly observed
// failures are scheduled for re-execution after their backoff, due ones are
// respawned in a batch, and calls out of attempts are dead-lettered. It
// returns the calls it re-invoked, which are pending again. Respawn
// failures (for example a controller outage outlasting the invocation
// retries) are not fatal: the call stays failing and the next pass tries
// again until the attempt cap dead-letters it.
func (r *recoverer) step() (respawned []*Future) {
	if len(r.failing) == 0 {
		return nil
	}
	var unread []*Future
	r.failing = slices.DeleteFunc(r.failing, func(c failingCall) bool {
		if c.unread {
			unread = append(unread, c.f)
		}
		return c.unread
	})
	r.observe(unread)

	now := r.exec.clock.Now()
	var due []*Future
	kept := r.failing[:0]
	for _, c := range r.failing {
		f := c.f
		if r.attempts[f] >= r.opts.MaxAttempts {
			d := DeadLetter{
				ExecutorID: f.executorID,
				CallID:     f.callID,
				Attempts:   r.attempts[f],
				LastError:  c.err.Error(),
				GaveUpAt:   now,
			}
			r.failed[f] = verdict{letter: d, err: c.err}
			r.exec.addDeadLetter(d)
			continue
		}
		kept = append(kept, c)
		when, scheduled := r.nextTry[f]
		if !scheduled {
			// First sighting of this failure: wait out the backoff before
			// re-invoking, doubling per attempt already spent.
			backoff := r.opts.Backoff << r.attempts[f]
			if backoff > maxRecoveryBackoff || backoff <= 0 {
				backoff = maxRecoveryBackoff
			}
			r.nextTry[f] = now.Add(backoff)
			continue
		}
		if now.Before(when) {
			continue
		}
		due = append(due, f)
	}
	r.failing = kept
	// The ledger shared with speculation grants at most one automatic
	// respawn per call per tick and a joint lifetime budget; denied calls
	// stay due and come around next tick (or dead-letter at the attempt
	// cap above).
	due = r.exec.respawns.reserve(due, respawnLimit(r.opts))
	if len(due) == 0 {
		return nil
	}
	for _, f := range due {
		r.attempts[f]++
		delete(r.nextTry, f)
	}
	// Respawn resets each successfully re-invoked future; ones it could
	// not re-invoke keep their failure mark and come around again.
	_ = r.exec.Respawn(due)
	r.failing = slices.DeleteFunc(r.failing, func(c failingCall) bool {
		reset := !c.f.knownDone()
		if reset {
			respawned = append(respawned, c.f)
		}
		return reset
	})
	return respawned
}

// settled reports whether every future reached a terminal state: succeeded,
// or failed with no recovery attempts left.
func (r *recoverer) settled() bool {
	return r.ok+len(r.failed) == len(r.futures)
}

// terminalFailures returns the dead letters of the calls recovery gave up
// on, with their errors, in future order.
func (r *recoverer) terminalFailures() ([]DeadLetter, []error) {
	if len(r.failed) == 0 {
		return nil, nil
	}
	var letters []DeadLetter
	var errs []error
	for _, f := range r.futures {
		if v, ok := r.failed[f]; ok {
			letters = append(letters, v.letter)
			errs = append(errs, v.err)
		}
	}
	return letters, errs
}
