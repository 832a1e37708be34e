package retry

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"gowren/internal/vclock"
)

var (
	errTransient = errors.New("transient")
	errFatal     = errors.New("fatal")
)

func retryable(err error) bool { return errors.Is(err, errTransient) }

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		r := New(clk, Policy{MaxAttempts: 5, BaseBackoff: 100 * time.Millisecond}, retryable)
		calls := 0
		start := clk.Now()
		err := r.Do(func() error {
			calls++
			if calls < 3 {
				return errTransient
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 3 {
			t.Fatalf("calls = %d, want 3", calls)
		}
		// Deterministic exponential backoff: 100ms + 200ms.
		if got := clk.Now().Sub(start); got != 300*time.Millisecond {
			t.Fatalf("elapsed = %v, want 300ms", got)
		}
	})
}

func TestDoFatalNotRetried(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		r := New(clk, Policy{}, retryable)
		calls := 0
		err := r.Do(func() error {
			calls++
			return errFatal
		})
		if !errors.Is(err, errFatal) {
			t.Fatalf("err = %v, want fatal", err)
		}
		if calls != 1 {
			t.Fatalf("calls = %d, want 1", calls)
		}
	})
}

func TestDoAttemptCap(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		r := New(clk, Policy{MaxAttempts: 3, BaseBackoff: time.Millisecond}, retryable)
		calls := 0
		err := r.Do(func() error {
			calls++
			return errTransient
		})
		if !errors.Is(err, errTransient) {
			t.Fatalf("err = %v, want wrapped transient", err)
		}
		if calls != 3 {
			t.Fatalf("calls = %d, want 3", calls)
		}
	})
}

func TestDoBackoffCapped(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		r := New(clk, Policy{
			MaxAttempts: 6,
			BaseBackoff: time.Second,
			MaxBackoff:  2 * time.Second,
		}, retryable)
		start := clk.Now()
		_ = r.Do(func() error { return errTransient })
		// Backoffs: 1s, 2s, 2s, 2s, 2s = 9s.
		if got := clk.Now().Sub(start); got != 9*time.Second {
			t.Fatalf("elapsed = %v, want 9s", got)
		}
	})
}

func TestDecorrelatedJitterDeterministicAndBounded(t *testing.T) {
	cases := []struct {
		name           string
		attempts       int
		base, maxDelay time.Duration
	}{
		{"base below cap", 8, 50 * time.Millisecond, time.Second},
		// A base above the cap is clamped like the non-jittered schedule:
		// WithRetryPolicy(n, time.Minute) under the executor's 30 s cap.
		{"base above cap", 3, time.Minute, 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			elapsed := func(seed int64) time.Duration {
				clk := vclock.NewVirtual()
				var d time.Duration
				clk.Run(func() {
					r := New(clk, Policy{
						MaxAttempts: tc.attempts,
						BaseBackoff: tc.base,
						MaxBackoff:  tc.maxDelay,
						Jitter:      true,
					}, retryable, WithSeed(seed))
					start := clk.Now()
					_ = r.Do(func() error { return errTransient })
					d = clk.Now().Sub(start)
				})
				return d
			}
			a, b := elapsed(7), elapsed(7)
			if a != b {
				t.Fatalf("same seed, different schedules: %v vs %v", a, b)
			}
			// attempts-1 backoffs, each in [min(base, cap), cap].
			n := time.Duration(tc.attempts - 1)
			if lo := min(tc.base, tc.maxDelay); a < n*lo || a > n*tc.maxDelay {
				t.Fatalf("jittered total %v outside [%v, %v]", a, n*lo, n*tc.maxDelay)
			}
			if tc.base < tc.maxDelay {
				if c := elapsed(8); c == a {
					t.Fatalf("different seeds produced identical schedule %v", c)
				}
			}
		})
	}
}

func TestNilRetrierRunsOnce(t *testing.T) {
	var r *Retrier
	calls := 0
	err := r.Do(func() error {
		calls++
		return errTransient
	})
	if !errors.Is(err, errTransient) || calls != 1 {
		t.Fatalf("nil retrier: err = %v after %d calls, want the op's own error after 1", err, calls)
	}
}

var sinkRetrier *Retrier

// TestJitterGeneratorBuiltOnFirstDraw: New seeds nothing, so a Retrier that
// never jitters pays for no rngSource, and the generator built on the first
// jittered draw yields the schedule an eagerly seeded one would.
func TestJitterGeneratorBuiltOnFirstDraw(t *testing.T) {
	clk := vclock.NewVirtual()
	p := Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Jitter: true}.withDefaults()
	if n := testing.AllocsPerRun(100, func() { sinkRetrier = New(clk, p, retryable) }); n != 1 {
		t.Fatalf("New allocates %v objects, want 1 (the Retrier, no rngSource)", n)
	}
	for _, tc := range []struct {
		name string
		seed int64
		opts []Option
	}{
		{"default seed 0", 0, nil},
		{"WithSeed(42)", 42, []Option{WithSeed(42)}},
	} {
		r := New(clk, p, retryable, tc.opts...)
		if r.rng != nil {
			t.Fatalf("%s: New built the jitter generator before any draw", tc.name)
		}
		eager := rand.New(rand.NewSource(tc.seed))
		got, want := p.BaseBackoff, p.BaseBackoff
		for n := 1; n <= 20; n++ {
			got = r.backoff(n, got)
			want = p.BaseBackoff + time.Duration(eager.Int63n(int64(min(3*want, p.MaxBackoff)-p.BaseBackoff)+1))
			if got != want {
				t.Fatalf("%s: backoff %d = %v, eagerly seeded schedule says %v", tc.name, n, got, want)
			}
		}
	}
}
