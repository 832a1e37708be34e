package vclock

import (
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// Deadlock detection for Virtual. A simulation is stuck when a task holds
// the clock and the loop stops making progress — no resumes and no advance
// of simulated time — for multiple watchdog intervals of real time. That is
// the signature of a task blocked outside the clock (a bare channel, or a
// mutex another task held across a park), which violates the Virtual
// contract (documented on the type). Genuine CPU-heavy stretches between
// clock calls also pause progress, so pick an interval comfortably above
// the longest expected compute burst.

// WatchdogReport describes a detected stall.
type WatchdogReport struct {
	// Task names the function given to Go (or Run) for the task that
	// holds the clock and never gave it back.
	Task string
}

func (r WatchdogReport) String() string {
	return fmt.Sprintf("vclock: simulation stuck in task %s: it holds the clock and makes no progress — it is likely blocked outside the clock", r.Task)
}

// StartWatchdog begins sampling for deadlock every interval of real time;
// after two consecutive stuck samples it calls onStuck once and stops.
// A nil onStuck panics with the report. The returned stop function halts
// the watchdog (idempotent). Intended for long experiment runs and tests
// of clock-driven code.
//
//gowren:allow reach — fault detection: it turns a task blocked outside the clock into a report instead of a hang
func (v *Virtual) StartWatchdog(interval time.Duration, onStuck func(WatchdogReport)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	if onStuck == nil {
		onStuck = func(r WatchdogReport) { panic(r.String()) }
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		type sample struct {
			holder  *task
			resumes uint64
			now     int64
		}
		var last sample
		strikes := 0
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s := sample{v.holder.Load(), v.resumes.Load(), v.now.Load()}
				if s.holder == nil || s != last {
					last, strikes = s, 0
					continue
				}
				if strikes++; strikes >= 2 {
					// A stuck task never returns to clear its body.
					onStuck(WatchdogReport{Task: runtime.FuncForPC(reflect.ValueOf(s.holder.fn).Pointer()).Name()})
					return
				}
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(done)
		}
	}
}
