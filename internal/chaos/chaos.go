// Package chaos schedules deterministic, time-windowed, *correlated*
// faults over the simulated cloud. The netsim links already model
// independent per-request failures (the paper's WAN loss rate); chaos adds
// the failure modes those Bernoulli draws cannot express — "COS is browned
// out from t=10s to t=25s", "the Cloud Functions gateway answers 429 for a
// minute", "containers run slow during the noisy-neighbour window" — so
// experiments and tests can script whole outage scenarios on the virtual
// clock and replay them bit-for-bit under a fixed seed.
//
// A Plan is a list of Fault windows anchored at the moment the plan is
// created (the simulation epoch). The platform consults the plan through
// narrow probes: the storage request path asks StorageFailure per request,
// the FaaS controller asks ControllerDown per invocation and ExecFactor per
// activation. A nil *Plan is inert everywhere, so wiring is unconditional.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
)

// Kind names a fault type.
type Kind string

const (
	// COSBrownout makes object-storage requests fail with
	// cos.ErrRequestFailed at Probability while the window is active —
	// a region-wide storage degradation rather than independent packet
	// loss.
	COSBrownout Kind = "cos-brownout"
	// ControllerOutage makes the FaaS gateway refuse every invocation
	// with a 429 (faas.ErrThrottled) while the window is active.
	ControllerOutage Kind = "controller-outage"
	// SlowContainers multiplies each activation's execution jitter by
	// Factor while the window is active — the noisy-neighbour windows
	// behind the paper's Fig. 3 stragglers.
	SlowContainers Kind = "slow-containers"
	// ExchangeCacheDown kills the memory-tier exchange cache while the
	// window is active: requests fail and the node's contents are lost,
	// so it restarts empty when the window closes. Shuffles must degrade
	// to the COS path, never fail.
	ExchangeCacheDown Kind = "exchange-cache-down"
	// ExchangePeerLoss kills lingering exchange peers while the window is
	// active: direct partition pulls fail and advertised partitions are
	// dropped, forcing reducers onto the COS/recompute fallback.
	ExchangePeerLoss Kind = "exchange-peer-loss"
	// LauncherKill kills the container of any call that is about to launch
	// a downstream stage while the window is active: its own status is
	// committed and it has claimed the stage's fan-in marker, but no
	// invocation leaves. The driver's backstop must launch the stage.
	LauncherKill Kind = "launcher-kill"
)

// Fault is one scripted fault window, relative to the plan epoch.
type Fault struct {
	// Kind selects the fault type. Required.
	Kind Kind
	// Start and End bound the window: active when Start <= elapsed < End.
	// End must be greater than Start.
	Start, End time.Duration
	// Probability is the per-request failure probability of a
	// COSBrownout. Zero selects 0.9 (browned out, not fully down).
	Probability float64
	// Factor is the jitter multiplier of a SlowContainers window. Zero
	// selects 10.
	Factor float64
}

func (f Fault) validate() error {
	switch f.Kind {
	case COSBrownout, ControllerOutage, SlowContainers,
		ExchangeCacheDown, ExchangePeerLoss, LauncherKill:
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
	if f.End <= f.Start || f.Start < 0 {
		return fmt.Errorf("chaos: %s window [%v, %v) is empty or negative", f.Kind, f.Start, f.End)
	}
	if f.Probability < 0 || f.Probability > 1 {
		return fmt.Errorf("chaos: %s probability %v out of [0,1]", f.Kind, f.Probability)
	}
	if f.Factor < 0 {
		return fmt.Errorf("chaos: %s factor %v negative", f.Kind, f.Factor)
	}
	return nil
}

// Plan is a validated fault schedule anchored on a clock. All methods are
// safe for concurrent use and on a nil receiver (inert).
type Plan struct {
	clk    vclock.Clock
	epoch  time.Time
	faults []Fault

	mu  sync.Mutex
	rng *rand.Rand
}

// NewPlan validates faults and anchors their windows at clk.Now(). seed
// drives the brownout failure draws.
func NewPlan(clk vclock.Clock, seed int64, faults []Fault) (*Plan, error) {
	if clk == nil {
		return nil, fmt.Errorf("chaos: plan requires a clock")
	}
	normalized := make([]Fault, len(faults))
	for i, f := range faults {
		if err := f.validate(); err != nil {
			return nil, err
		}
		if f.Kind == COSBrownout && f.Probability == 0 {
			f.Probability = 0.9
		}
		if f.Kind == SlowContainers && f.Factor == 0 {
			f.Factor = 10
		}
		normalized[i] = f
	}
	return &Plan{
		clk:    clk,
		epoch:  clk.Now(),
		faults: normalized,
		rng:    rand.New(rand.NewSource(seed)),
	}, nil
}

// active returns the matching active fault of the given kind, if any.
// Overlapping windows of the same kind resolve to the first in plan order.
func (p *Plan) active(kind Kind) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	elapsed := p.clk.Now().Sub(p.epoch)
	for _, f := range p.faults {
		if f.Kind == kind && elapsed >= f.Start && elapsed < f.End {
			return f, true
		}
	}
	return Fault{}, false
}

// StorageFailure draws one correlated-failure decision for a storage
// request issued now.
func (p *Plan) StorageFailure() bool {
	f, ok := p.active(COSBrownout)
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64() < f.Probability
}

// ControllerDown reports whether the FaaS gateway is refusing invocations
// now.
func (p *Plan) ControllerDown() bool {
	_, ok := p.active(ControllerOutage)
	return ok
}

// CacheDown reports whether the memory-tier exchange cache is dead now.
func (p *Plan) CacheDown() bool {
	_, ok := p.active(ExchangeCacheDown)
	return ok
}

// PeerLost reports whether lingering exchange peers are being killed now.
func (p *Plan) PeerLost() bool {
	_, ok := p.active(ExchangePeerLoss)
	return ok
}

// LauncherKilled reports whether fan-in launchers are being killed now.
func (p *Plan) LauncherKilled() bool {
	_, ok := p.active(LauncherKill)
	return ok
}

// ExecFactor returns the current execution-jitter multiplier (1 outside
// any SlowContainers window).
func (p *Plan) ExecFactor() float64 {
	f, ok := p.active(SlowContainers)
	if !ok {
		return 1
	}
	return f.Factor
}

// WrapStorage returns inner behind the plan's COS-brownout windows: while a
// window is active, requests fail with cos.ErrRequestFailed at the window's
// probability before reaching inner — the fault stage of a cos.Stack, which
// runs under the retry stage so retries observe the brownout like real SDKs
// would. A nil plan returns inner unchanged.
func WrapStorage(inner cos.Client, plan *Plan) cos.Client {
	if plan == nil {
		return inner
	}
	return cos.NewFaulty(inner, plan.StorageFailure)
}
