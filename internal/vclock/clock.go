// Package vclock provides the time substrate for GoWren's simulated cloud.
//
// Two implementations of the Clock interface are provided:
//
//   - Scaled: the time package run at a constant factor of wall speed;
//     factor 1 is the wall clock. Used by gowren-server, the examples and
//     integration tests that run at small scale in real time.
//   - Virtual: a cooperative discrete-event clock. Time advances only when
//     every registered task is blocked in a clock primitive, which lets the
//     experiment harnesses simulate thousands of concurrent multi-minute
//     serverless functions in milliseconds of wall time.
//
// The contract for Virtual is that all concurrency is created through
// Clock.Go and all blocking goes through Clock.Sleep (directly or via the
// Poll helper). Real CPU work performed between clock calls is
// "instantaneous" in simulated time; simulated durations (compute models,
// network latency, cold starts) are charged explicitly with Sleep.
package vclock

import "time"

// Clock abstracts time and task creation so the same system code can run in
// wall-clock or simulated time.
type Clock interface {
	// Now returns the current (possibly simulated) time.
	Now() time.Time

	// Sleep blocks the calling task for d. Non-positive durations return
	// immediately.
	Sleep(d time.Duration)

	// Go starts fn as a task registered with the clock. On the virtual
	// clock, registration is what allows time to advance while fn blocks;
	// tasks must therefore never block outside clock primitives.
	Go(fn func())

	// Wait blocks the caller (in real time) until every task started with
	// Go has returned.
	Wait()
}

// Poll calls pred repeatedly, sleeping interval between attempts, until pred
// returns true or the deadline (zero means none) passes. It reports whether
// pred succeeded. On a virtual clock polling is essentially free; interval
// only sets the granularity at which simulated time advances.
func Poll(c Clock, pred func() bool, interval time.Duration, deadline time.Time) bool {
	if interval <= 0 {
		interval = time.Millisecond
	}
	for {
		if pred() {
			return true
		}
		if !deadline.IsZero() && !c.Now().Before(deadline) {
			return false
		}
		c.Sleep(interval)
	}
}
