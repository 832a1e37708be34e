// Package traffic generates seeded open-loop arrival schedules for
// multi-tenant load experiments. An open-loop generator decides arrival
// times up front from the offered-load model alone — arrivals do not slow
// down when the platform rejects or queues them — which is what makes it
// suitable for overload studies: the platform must shed, not the workload.
//
// The model is an inhomogeneous Poisson process per tenant, realized by
// thinning: tenant shares follow a Zipf distribution over the tenant list
// (first tenant largest), the aggregate rate is modulated by a diurnal
// sinusoid, and per-tenant burst windows multiply the tenant's rate by a
// factor — the noisy-neighbor knob. Everything derives from Config.Seed,
// so the same config always yields the same schedule, bit for bit.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Burst multiplies one tenant's arrival rate by Factor inside [Start, End).
type Burst struct {
	Tenant string
	Start  time.Duration
	End    time.Duration
	// Factor scales the tenant's rate within the window; 10 turns a
	// tenant offering its fair share into a 10× noisy neighbor.
	Factor float64
}

// Config describes the offered load.
type Config struct {
	// Seed drives every random draw; same seed, same schedule.
	Seed int64
	// Tenants lists tenant names in share order: with ZipfS > 0 the
	// first tenant receives the largest share of BaseRate.
	Tenants []string
	// Horizon is the schedule length; arrivals land in [0, Horizon).
	Horizon time.Duration
	// BaseRate is the aggregate arrival rate across all tenants, per
	// second, before diurnal modulation and bursts.
	BaseRate float64
	// ZipfS is the Zipf skew exponent over tenant shares: 0 means equal
	// shares, 1 gives the classic 1/rank falloff.
	ZipfS float64
	// DiurnalAmplitude in [0, 1) modulates the rate as
	// 1 + A·sin(2πt/Horizon); 0 disables the sinusoid.
	DiurnalAmplitude float64
	// Bursts are per-tenant overload windows.
	Bursts []Burst
}

// Arrival is one scheduled invocation.
type Arrival struct {
	At     time.Duration
	Tenant string
}

// Shares returns each tenant's fraction of BaseRate under the Zipf skew,
// in Tenants order. The fractions sum to 1.
func (c Config) Shares() []float64 {
	n := len(c.Tenants)
	shares := make([]float64, n)
	if n == 0 {
		return shares
	}
	var sum float64
	for i := range shares {
		shares[i] = 1 / math.Pow(float64(i+1), c.ZipfS)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// Generate realizes the schedule: one thinned Poisson stream per tenant,
// merged and sorted by (At, Tenant). Each tenant draws from its own
// sub-seeded source, so adding a tenant or a burst window never perturbs
// the other tenants' streams.
func Generate(cfg Config) ([]Arrival, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("traffic: horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.BaseRate <= 0 {
		return nil, fmt.Errorf("traffic: base rate must be positive, got %g", cfg.BaseRate)
	}
	if cfg.DiurnalAmplitude < 0 || cfg.DiurnalAmplitude >= 1 {
		return nil, fmt.Errorf("traffic: diurnal amplitude must be in [0,1), got %g", cfg.DiurnalAmplitude)
	}
	shares := cfg.Shares()
	var out []Arrival
	for i, tenant := range cfg.Tenants {
		rate := cfg.BaseRate * shares[i]
		if rate <= 0 {
			continue
		}
		// Independent per-tenant stream: mix the tenant index into the
		// seed with a splitmix-style constant so adjacent seeds do not
		// produce correlated streams.
		src := rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)))
		out = append(out, thinnedStream(src, tenant, rate, cfg)...)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Tenant < out[b].Tenant
	})
	return out, nil
}

// thinnedStream realizes one tenant's inhomogeneous Poisson process by
// Lewis-Shedler thinning: candidates arrive at the tenant's peak rate and
// survive with probability rate(t)/peak.
func thinnedStream(src *rand.Rand, tenant string, rate float64, cfg Config) []Arrival {
	peak := rate * (1 + cfg.DiurnalAmplitude) * maxBurstFactor(tenant, cfg.Bursts)
	var out []Arrival
	t := time.Duration(0)
	for {
		// Exponential interarrival at the peak rate.
		t += time.Duration(src.ExpFloat64() / peak * float64(time.Second))
		if t >= cfg.Horizon {
			return out
		}
		r := rate * diurnal(t, cfg.Horizon, cfg.DiurnalAmplitude) * burstFactor(tenant, t, cfg.Bursts)
		if src.Float64()*peak < r {
			out = append(out, Arrival{At: t, Tenant: tenant})
		}
	}
}

// diurnal evaluates the sinusoidal modulation at t.
func diurnal(t, period time.Duration, amplitude float64) float64 {
	if amplitude == 0 {
		return 1
	}
	return 1 + float64(amplitude*math.Sin(2*math.Pi*t.Seconds()/period.Seconds())) // rounded: no fused multiply-add
}

// burstFactor multiplies the factors of every burst window covering t.
func burstFactor(tenant string, t time.Duration, bursts []Burst) float64 {
	f := 1.0
	for _, b := range bursts {
		if b.Tenant == tenant && t >= b.Start && t < b.End && b.Factor > 0 {
			f *= b.Factor
		}
	}
	return f
}

// maxBurstFactor bounds the tenant's burst multiplier for the thinning
// envelope.
func maxBurstFactor(tenant string, bursts []Burst) float64 {
	f := 1.0
	for _, b := range bursts {
		if b.Tenant == tenant && b.Factor > 1 {
			f *= b.Factor
		}
	}
	return f
}
