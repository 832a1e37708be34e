package vclock

import (
	"fmt"
	"time"
)

// Deadlock detection for Virtual. A simulation is stuck when registered
// tasks still exist but the scheduler stops making progress — no sleeps, no
// wake-ups, no spawns, no exits — for multiple watchdog intervals of real
// time. That is the signature of a task blocked outside the clock, which
// violates the Virtual contract (documented on the type). Genuine CPU-heavy
// stretches between clock calls also pause scheduler progress, so pick an
// interval comfortably above the longest expected compute burst.

// WatchdogReport describes a detected stall.
type WatchdogReport struct {
	Tasks    int // registered tasks still alive
	Sleepers int // tasks parked in Sleep or an Event wait
	Runnable int // tasks the scheduler believes are runnable
}

func (r WatchdogReport) String() string {
	return fmt.Sprintf("vclock: simulation stuck: %d tasks alive (%d nominally runnable, %d sleeping) with no scheduler progress — a task is likely blocked outside the clock", r.Tasks, r.Runnable, r.Sleepers)
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
		var lastEvents uint64
		strikes := 0
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				report, events := v.sample()
				if report.Tasks == 0 || events != lastEvents {
					strikes = 0
					lastEvents = events
					continue
				}
				strikes++
				if strikes >= 2 {
					onStuck(report)
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

// sample inspects the scheduler state and returns the progress counter.
func (v *Virtual) sample() (WatchdogReport, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r := WatchdogReport{
		Tasks:    v.tasks,
		Sleepers: v.parked,
		Runnable: v.active,
	}
	return r, v.events
}
