package netsim

import (
	"fmt"
	"time"

	"gowren/internal/vclock"
)

// Phase is one scripted degradation window on a link, relative to the
// owning Schedule's epoch. The netsim links model steady-state behaviour
// (latency distributions, Bernoulli loss); phases layer the correlated,
// time-windowed events those draws cannot express — "the transatlantic
// path brownouts from t=10s to t=40s", "the region's uplink partitions for
// a minute" — so whole WAN outage scenarios replay bit-for-bit under a
// fixed seed.
type Phase struct {
	// Start and End bound the window: active when Start <= elapsed < End.
	// End must be greater than Start.
	Start, End time.Duration
	// LatencyFactor multiplies every latency sample while the window is
	// active. Values below 1 (including zero) are treated as 1.
	LatencyFactor float64
	// ExtraLatency is added to every request while the window is active.
	ExtraLatency time.Duration
	// FailureProb raises the link's failure probability to at least this
	// value while the window is active (a brownout).
	FailureProb float64
	// Partition makes every request on the link fail while the window is
	// active — a full network partition. Latency is still charged: the
	// caller observed a timeout, not an instant error.
	Partition bool
}

func (p Phase) validate() error {
	if p.End <= p.Start || p.Start < 0 {
		return fmt.Errorf("netsim: phase window [%v, %v) is empty or negative", p.Start, p.End)
	}
	if p.FailureProb < 0 || p.FailureProb > 1 {
		return fmt.Errorf("netsim: phase failure probability %v out of [0,1]", p.FailureProb)
	}
	if p.LatencyFactor < 0 {
		return fmt.Errorf("netsim: phase latency factor %v negative", p.LatencyFactor)
	}
	if p.ExtraLatency < 0 {
		return fmt.Errorf("netsim: phase extra latency %v negative", p.ExtraLatency)
	}
	return nil
}

// Schedule is a validated sequence of degradation phases anchored on a
// clock. One schedule can drive any number of links (SetSchedule), and each
// link can carry its own schedule, which is how regional outage scenarios
// compose: one schedule partitions region A's path while another inflates
// the client WAN. A nil *Schedule is inert. Schedules are immutable after
// creation and safe for concurrent use.
type Schedule struct {
	clk    vclock.Clock
	epoch  time.Time
	phases []Phase
}

// NewSchedule validates phases and anchors their windows at clk.Now().
// Overlapping windows resolve to the first matching phase in order.
func NewSchedule(clk vclock.Clock, phases []Phase) (*Schedule, error) {
	if clk == nil {
		return nil, fmt.Errorf("netsim: schedule requires a clock")
	}
	for _, p := range phases {
		if err := p.validate(); err != nil {
			return nil, err
		}
	}
	out := make([]Phase, len(phases))
	copy(out, phases)
	return &Schedule{clk: clk, epoch: clk.Now(), phases: out}, nil
}

// active returns the currently active phase, if any.
func (s *Schedule) active() (Phase, bool) {
	if s == nil {
		return Phase{}, false
	}
	elapsed := s.clk.Now().Sub(s.epoch)
	for _, p := range s.phases {
		if elapsed >= p.Start && elapsed < p.End {
			return p, true
		}
	}
	return Phase{}, false
}

// degradeLatency applies the active phase (if any) to a base latency sample.
func (s *Schedule) degradeLatency(d time.Duration) time.Duration {
	p, ok := s.active()
	if !ok {
		return d
	}
	if p.LatencyFactor > 1 {
		d = time.Duration(float64(d) * p.LatencyFactor)
	}
	return d + p.ExtraLatency
}

// failureFloor returns the minimum failure probability imposed by the
// active phase and whether the link is fully partitioned.
func (s *Schedule) failureFloor() (prob float64, partitioned bool) {
	p, ok := s.active()
	if !ok {
		return 0, false
	}
	return p.FailureProb, p.Partition
}
