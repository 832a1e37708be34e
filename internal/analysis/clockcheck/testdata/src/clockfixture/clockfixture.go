// Package clockfixture exercises clockcheck: wall-clock reads must be
// flagged, Clock-routed time must pass, and //gowren:allow must silence.
package clockfixture

import (
	"time"

	"gowren/internal/vclock"
)

// bad uses the time package's clock directly — every site is a finding.
func bad() time.Duration {
	start := time.Now()
	time.Sleep(time.Millisecond)
	<-time.After(time.Millisecond)
	tm := time.NewTimer(time.Second)
	tm.Stop()
	tk := time.NewTicker(time.Second)
	tk.Stop()
	time.AfterFunc(time.Second, func() {})
	return time.Since(start)
}

// good routes every read and block through the injected vclock.Clock;
// clockcheck must accept all of it.
func good(clk vclock.Clock) time.Duration {
	start := clk.Now()
	clk.Sleep(time.Millisecond)
	vclock.Poll(clk, func() bool { return true }, time.Millisecond, clk.Now().Add(time.Second))
	return clk.Now().Sub(start)
}

// goodValues constructs pure time values — not clock reads, not flagged.
func goodValues() time.Time {
	d := 3 * time.Second
	return time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC).Add(d)
}

// allowedTrailing demonstrates the trailing-comment escape hatch.
func allowedTrailing() time.Time {
	return time.Now() //gowren:allow clockcheck — fixture: justified wall-clock read
}

// allowedPreceding demonstrates the preceding-line escape hatch.
func allowedPreceding() {
	//gowren:allow clockcheck — fixture: justified wall-clock sleep
	time.Sleep(time.Millisecond)
}
