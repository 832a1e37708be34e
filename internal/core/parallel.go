package core

import (
	"sync"
	"time"

	"gowren/internal/vclock"
)

// parallelFor runs fn(0..n-1) on a pool of worker tasks registered with the
// clock and blocks (in simulated time) until every call finishes. Errors are
// collected per index; the returned slice is nil when all calls succeed.
// fn must follow the virtual-clock rules: block only via clock primitives.
func parallelFor(clk vclock.Clock, workers, n int, fn func(i int) error) []error {
	return runPool(clk, workers, n, false, fn)
}

// fetchFor is parallelFor for the wait path's round trips, where the caller
// has nothing else to do: the calling task is one of the workers, so a batch
// of one — or a pool of one — runs inline, in index order, with no task and
// no barrier, and a larger batch costs workers-1 tasks.
func fetchFor(clk vclock.Clock, workers, n int, fn func(i int) error) []error {
	return runPool(clk, workers, n, true, fn)
}

func runPool(clk vclock.Clock, workers, n int, callerRuns bool, fn func(i int) error) []error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	var errs []error
	setErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
	}
	if callerRuns && workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				setErr(i, err)
			}
		}
		return errs
	}

	var (
		mu   sync.Mutex
		next int
		done int
	)
	// The barrier is signalled once, by whichever worker finishes the last
	// index, so the caller wakes once rather than after every call.
	evt := vclock.NewEvent(clk)
	work := func() {
		for {
			mu.Lock()
			if next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			err := fn(i)

			mu.Lock()
			if err != nil {
				setErr(i, err)
			}
			done++
			last := done == n
			mu.Unlock()
			if last {
				evt.Signal()
			}
		}
	}
	if callerRuns {
		workers--
	}
	for w := 0; w < workers; w++ {
		clk.Go(work)
	}
	if callerRuns {
		work()
	}
	evt.WaitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done == n
	}, time.Time{})

	mu.Lock()
	defer mu.Unlock()
	return errs
}

// firstErr returns the first non-nil error in errs, or nil.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// serial models a resource that admits one holder at a time — the analogue
// of the Python client's GIL-bound serialization work, which is what keeps
// WAN invocation rates far below what the thread count suggests (§5.1).
// Acquire reserves the next slot and sleeps until the hold completes.
type serial struct {
	clk vclock.Clock

	mu   sync.Mutex
	next time.Time
}

func newSerial(clk vclock.Clock) *serial {
	return &serial{clk: clk}
}

// Acquire reserves hold time on the resource and blocks until it has been
// consumed. A non-positive hold returns immediately.
func (s *serial) Acquire(hold time.Duration) {
	if hold <= 0 {
		return
	}
	s.mu.Lock()
	now := s.clk.Now()
	start := s.next
	if start.Before(now) {
		start = now
	}
	end := start.Add(hold)
	s.next = end
	s.mu.Unlock()
	s.clk.Sleep(end.Sub(now))
}
