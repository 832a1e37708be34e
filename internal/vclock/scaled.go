package vclock

import (
	"sync"
	"time"
)

// Scaled is a real-time Clock that runs faster (or slower) than the wall
// clock by a constant factor: Sleep(d) blocks for d/factor of wall time and
// Now advances factor seconds per wall second. It keeps interactive runs
// responsive while model costs (cold starts, compute charges) remain
// expressed in realistic durations — a middle ground between the wall
// clock and the discrete-event Virtual clock.
type Scaled struct {
	factor float64
	start  time.Time // wall instant of epoch
	epoch  time.Time // reported instant at start
	wg     sync.WaitGroup
}

var _ Clock = (*Scaled)(nil)

// NewScaled returns a clock running factor× wall speed. Factors <= 0 are
// treated as 1.
func NewScaled(factor float64) *Scaled {
	if factor <= 0 {
		factor = 1
	}
	now := time.Now()
	return &Scaled{factor: factor, start: now, epoch: now}
}

// Now returns the scaled time: epoch + wallElapsed × factor.
func (s *Scaled) Now() time.Time {
	wall := time.Since(s.start)
	return s.epoch.Add(time.Duration(float64(wall) * s.factor))
}

// Sleep blocks for d of scaled time (d/factor of wall time).
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(s.wall(d))
}

// wall is the wall time d of scaled time takes: d/factor.
func (s *Scaled) wall(d time.Duration) time.Duration {
	return time.Duration(float64(d) / s.factor)
}

// Go runs fn in a goroutine tracked by Wait.
func (s *Scaled) Go(fn func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn()
	}()
}

// Wait blocks until all goroutines started with Go have returned.
func (s *Scaled) Wait() { s.wg.Wait() }
