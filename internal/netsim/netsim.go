// Package netsim models the network paths of the paper's deployment: the
// high-latency WAN between the client machine and the IBM Cloud US-south
// region, and the low-latency network inside the datacenter. Section 5.1 of
// the paper attributes the 38 s vs 8 s invocation-phase gap (Fig. 2) to
// exactly this difference, including the higher failure-and-retry rate on
// the WAN, so both latency and failures are first-class here.
//
// All randomness is drawn from an injected seed so simulations are
// reproducible run to run.
package netsim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// LatencyModel produces per-request latency samples.
type LatencyModel interface {
	// Sample returns one latency draw using r as the randomness source.
	Sample(r *rand.Rand) time.Duration
}

// Constant is a LatencyModel that always returns D.
type Constant struct {
	D time.Duration
}

// Sample implements LatencyModel.
func (c Constant) Sample(*rand.Rand) time.Duration { return c.D }

// Uniform is a LatencyModel drawing uniformly from [Min, Max].
type Uniform struct {
	Min, Max time.Duration
}

// Sample implements LatencyModel.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(r.Int63n(int64(u.Max-u.Min)+1))
}

// LogNormal is a LatencyModel with a lognormal distribution, the shape
// commonly measured for WAN round-trip times: most samples near the median
// with a heavy tail of slow requests.
type LogNormal struct {
	Median time.Duration // exp(mu)
	Sigma  float64       // sigma of the underlying normal
	Cap    time.Duration // optional upper clamp; zero means none
}

// Sample implements LatencyModel.
func (l LogNormal) Sample(r *rand.Rand) time.Duration {
	mu := math.Log(float64(l.Median))
	d := time.Duration(math.Exp(mu + float64(l.Sigma*r.NormFloat64()))) // rounded: no fused multiply-add
	if l.Cap > 0 && d > l.Cap {
		d = l.Cap
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Link models one directional network path: per-request round-trip latency,
// a fixed per-request service overhead, payload transfer time at a given
// bandwidth, and a request failure probability. An optional Schedule layers
// scripted degradation windows (latency inflation, brownouts, full
// partitions) on top of the steady-state model.
type Link struct {
	mu sync.Mutex

	rtt         LatencyModel
	perRequest  time.Duration
	bandwidth   float64 // bytes per second; 0 means infinite
	failureProb float64
	rng         *rand.Rand
	sched       *Schedule // nil means no scripted degradation
}

// LinkConfig configures a Link.
type LinkConfig struct {
	RTT          LatencyModel  // round-trip latency model; nil means zero latency
	PerRequest   time.Duration // fixed service overhead added to every request
	BandwidthBps float64       // payload bytes/second; 0 disables transfer cost
	FailureProb  float64       // probability in [0,1] that a request fails
	Seed         int64         // PRNG seed; the zero seed is valid and deterministic
}

// NewLink returns a Link with the given configuration.
func NewLink(cfg LinkConfig) *Link {
	rtt := cfg.RTT
	if rtt == nil {
		rtt = Constant{}
	}
	return &Link{
		rtt:         rtt,
		perRequest:  cfg.PerRequest,
		bandwidth:   cfg.BandwidthBps,
		failureProb: cfg.FailureProb,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Fork returns a link with l's latency, bandwidth, failure model and
// schedule but its own random stream drawn from seed, so traffic on one
// path does not shift the samples of the other.
func (l *Link) Fork(seed int64) *Link {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Link{
		rtt:         l.rtt,
		perRequest:  l.perRequest,
		bandwidth:   l.bandwidth,
		failureProb: l.failureProb,
		rng:         rand.New(rand.NewSource(seed)),
		sched:       l.sched,
	}
}

// SetSchedule attaches a scripted degradation schedule to the link. All
// subsequent requests consult it: latency samples are inflated, the failure
// probability is floored, and partition phases fail every request. A nil
// schedule restores steady-state behaviour. Attach schedules at wiring
// time, before traffic flows.
func (l *Link) SetSchedule(s *Schedule) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sched = s
}

// RequestCost returns the simulated duration of one request carrying
// payloadBytes, and whether the request fails. A failing request still
// consumes its duration (the caller observed a timeout or error response).
func (l *Link) RequestCost(payloadBytes int64) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.sched.degradeLatency(l.rtt.Sample(l.rng) + l.perRequest)
	if l.bandwidth > 0 && payloadBytes > 0 {
		d += time.Duration(float64(payloadBytes) / l.bandwidth * float64(time.Second))
	}
	floor, partitioned := l.sched.failureFloor()
	if partitioned {
		return d, true
	}
	prob := l.failureProb
	if floor > prob {
		prob = floor
	}
	fail := prob > 0 && l.rng.Float64() < prob
	return d, fail
}

// Latency returns one latency-only sample (no payload, no failure draw).
func (l *Link) Latency() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sched.degradeLatency(l.rtt.Sample(l.rng) + l.perRequest)
}

// Transfer returns the time to move payloadBytes across the link, excluding
// per-request latency. Zero-bandwidth links transfer instantaneously.
func (l *Link) Transfer(payloadBytes int64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bandwidth <= 0 || payloadBytes <= 0 {
		return 0
	}
	return time.Duration(float64(payloadBytes) / l.bandwidth * float64(time.Second))
}

// Fail draws one failure decision for a request on this link.
func (l *Link) Fail() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	floor, partitioned := l.sched.failureFloor()
	if partitioned {
		return true
	}
	prob := l.failureProb
	if floor > prob {
		prob = floor
	}
	if prob <= 0 {
		return false
	}
	return l.rng.Float64() < prob
}

// Profiles for the two paths in the paper's testbed. Constants are
// calibrated in internal/experiments/calibration.go; these are the
// documented defaults.

// WAN returns a link profile for a client in a remote high-latency network
// (the paper's client: an Intel Core i5 laptop far from US-south).
func WAN(seed int64) *Link {
	return NewLink(LinkConfig{
		RTT:          LogNormal{Median: 240 * time.Millisecond, Sigma: 0.35, Cap: 3 * time.Second},
		PerRequest:   60 * time.Millisecond,
		BandwidthBps: 4 << 20, // 4 MiB/s effective upload
		FailureProb:  0.08,
		Seed:         seed,
	})
}

// WANStorage returns the client-to-COS path from the same remote network.
// Object-storage endpoints sustain lower per-request overhead than the
// Cloud Functions API gateway (connection reuse, no action dispatch), which
// is why the paper's invocation phase — not payload staging — dominates the
// remote client's costs.
func WANStorage(seed int64) *Link {
	return NewLink(LinkConfig{
		RTT:          LogNormal{Median: 120 * time.Millisecond, Sigma: 0.25, Cap: 1500 * time.Millisecond},
		PerRequest:   30 * time.Millisecond,
		BandwidthBps: 6 << 20, // 6 MiB/s effective
		FailureProb:  0.02,
		Seed:         seed,
	})
}

// InCloud returns a link profile for traffic inside the datacenter
// (function containers to COS, remote invoker to the controller).
func InCloud(seed int64) *Link {
	return NewLink(LinkConfig{
		RTT:          Uniform{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
		PerRequest:   time.Millisecond,
		BandwidthBps: 100 << 20, // 100 MiB/s
		FailureProb:  0.001,
		Seed:         seed,
	})
}

// MemoryTier returns a link profile for the in-memory exchange cache node
// (a Redis-like instance in the same availability zone as the function
// containers): sub-millisecond round trips, negligible service overhead,
// and roughly an order of magnitude more per-connection bandwidth than the
// shared COS frontend. This gap — not a different protocol — is what the
// fast shuffle tier buys.
func MemoryTier(seed int64) *Link {
	return NewLink(LinkConfig{
		RTT:          Uniform{Min: 100 * time.Microsecond, Max: 300 * time.Microsecond},
		PerRequest:   50 * time.Microsecond,
		BandwidthBps: 1 << 30, // 1 GiB/s
		FailureProb:  0.0005,
		Seed:         seed,
	})
}

// PeerToPeer returns a link profile for direct container-to-container
// transfer inside the datacenter fabric (a reducer pulling a partition
// straight from the map activation that produced it).
func PeerToPeer(seed int64) *Link {
	return NewLink(LinkConfig{
		RTT:          Uniform{Min: 100 * time.Microsecond, Max: 400 * time.Microsecond},
		PerRequest:   100 * time.Microsecond,
		BandwidthBps: 1 << 30, // 1 GiB/s, in-rack
		FailureProb:  0.0005,
		Seed:         seed,
	})
}

// Loopback returns a link with no latency, no failures and infinite
// bandwidth, for unit tests that do not exercise the network model.
func Loopback() *Link {
	return NewLink(LinkConfig{})
}
