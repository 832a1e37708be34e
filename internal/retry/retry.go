// Package retry is GoWren's single retry policy. Every retry loop in the
// system — the executor's invocation path, the in-cloud invoker and fan-in
// launcher, and the cos.Stack retry stage every storage request passes
// through — is a Retrier running a Policy: bounded exponential backoff,
// optionally with decorrelated jitter, driven by the simulation clock so
// virtual-time experiments pay realistic retry delays.
//
// Callers say which errors are worth another try with a func(error) bool;
// the package itself has no knowledge of faas or cos error values, which
// keeps it at the bottom of the dependency graph.
package retry

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gowren/internal/vclock"
)

// Policy describes one bounded-backoff retry schedule.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Zero or negative selects 5.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Zero or negative
	// selects 100 ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay between retries. Zero selects 30 s.
	MaxBackoff time.Duration
	// Multiplier grows the delay per retry. Values <= 1 keep the delay
	// fixed at BaseBackoff; zero selects 2.
	Multiplier float64
	// Jitter switches the schedule to decorrelated jitter: each delay is
	// drawn uniformly from [BaseBackoff, prev*3], capped at MaxBackoff.
	// Jittered schedules need a seeded Retrier to stay deterministic.
	Jitter bool
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 30 * time.Second
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	return p
}

// Retrier executes operations under a Policy on a clock. It is safe for
// concurrent use; jittered backoff draws come from one seeded PRNG so
// virtual-time runs stay deterministic. A nil *Retrier runs each operation
// once.
type Retrier struct {
	policy    Policy
	clk       vclock.Clock
	retryable func(error) bool
	seed      int64

	mu  sync.Mutex
	rng *rand.Rand // seeded from seed on the first jittered draw
}

// Option customizes a Retrier.
type Option func(*Retrier)

// WithSeed seeds the jitter PRNG (default seed 0, still deterministic).
func WithSeed(seed int64) Option {
	return func(r *Retrier) { r.seed = seed }
}

// New builds a Retrier that retries the errors retryable reports true for.
// clk and retryable are required; retryable is never called with nil.
func New(clk vclock.Clock, policy Policy, retryable func(error) bool, opts ...Option) *Retrier {
	if clk == nil {
		panic("retry: nil clock")
	}
	if retryable == nil {
		panic("retry: nil classifier")
	}
	r := &Retrier{
		policy:    policy.withDefaults(),
		clk:       clk,
		retryable: retryable,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// backoff computes the delay before retry number n (1-based), given the
// previous delay for decorrelated jitter.
func (r *Retrier) backoff(n int, prev time.Duration) time.Duration {
	p := r.policy
	if p.Jitter {
		lo, hi := min(p.BaseBackoff, p.MaxBackoff), min(3*prev, p.MaxBackoff)
		d := lo
		if hi > lo {
			r.mu.Lock()
			if r.rng == nil {
				r.rng = rand.New(rand.NewSource(r.seed))
			}
			d = lo + time.Duration(r.rng.Int63n(int64(hi-lo)+1))
			r.mu.Unlock()
		}
		return d
	}
	d := p.BaseBackoff
	if p.Multiplier > 1 {
		for i := 1; i < n && d < p.MaxBackoff; i++ {
			d = time.Duration(float64(d) * p.Multiplier)
		}
	}
	return min(d, p.MaxBackoff)
}

// Do runs op under the policy: an error op's retryable classifier accepts
// is retried after a backoff until the attempt cap, and then returned
// wrapped with the attempt count; any other error is returned as it is.
func (r *Retrier) Do(op func() error) error {
	if r == nil {
		return op()
	}
	prev := r.policy.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !r.retryable(err) {
			return err
		}
		if attempt >= r.policy.MaxAttempts {
			return fmt.Errorf("retry: %d attempts exhausted: %w", attempt, err)
		}
		prev = r.backoff(attempt, prev)
		r.clk.Sleep(prev)
	}
}
