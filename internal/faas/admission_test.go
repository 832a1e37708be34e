package faas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gowren/internal/trace"
	"gowren/internal/vclock"
)

// admitEnv builds a controller with an admission layer and a 1s "busy"
// action, tracing into rec.
func admitEnv(t *testing.T, mutate func(*Config)) (*testEnv, *trace.Recorder) {
	t.Helper()
	rec := trace.New(10000)
	e := newEnv(t, func(cfg *Config) {
		cfg.Trace = rec
		if mutate != nil {
			mutate(cfg)
		}
	})
	e.sleepAction(t, "busy", time.Second)
	return e, rec
}

// outcome tallies the per-tenant results of a batch of invocations.
type outcome struct {
	mu        sync.Mutex
	admitted  map[string]int
	quota     map[string]int
	shed      map[string]int
	throttled map[string]int
}

func newOutcome() *outcome {
	return &outcome{
		admitted:  make(map[string]int),
		quota:     make(map[string]int),
		shed:      make(map[string]int),
		throttled: make(map[string]int),
	}
}

func (o *outcome) record(tenant string, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case err == nil:
		o.admitted[tenant]++
	case errors.Is(err, ErrQuotaExceeded):
		o.quota[tenant]++
	case errors.Is(err, ErrShed):
		o.shed[tenant]++
	case errors.Is(err, ErrThrottled):
		o.throttled[tenant]++
	default:
		panic(fmt.Sprintf("unexpected error class: %v", err))
	}
}

func (o *outcome) get(m map[string]int, tenant string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return m[tenant]
}

// TestAdmissionFairShareUnderFlood checks the tentpole property: a tenant
// flooding the platform cannot starve another tenant's modest load. Tenant
// "flood" dumps 40 one-second invocations into a 2-slot controller; tenant
// "calm" then asks for 4. DWRR alternates the freed slots, so calm's work
// finishes among the first few dispatches instead of behind flood's
// 40-deep backlog.
func TestAdmissionFairShareUnderFlood(t *testing.T) {
	e, _ := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 2
		cfg.Admission = &AdmissionConfig{MaxQueueDelay: time.Hour}
	})
	o := newOutcome()
	var mu sync.Mutex
	var calmLast time.Duration
	e.clk.Run(func() {
		start := e.clk.Now()
		for i := 0; i < 40; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("flood", "busy", nil)
				o.record("flood", err)
			})
		}
		// Let the flood pass the gateway and fill the queue first.
		e.clk.Sleep(500 * time.Millisecond)
		for i := 0; i < 4; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("calm", "busy", nil)
				o.record("calm", err)
				mu.Lock()
				if at := e.clk.Now().Sub(start); at > calmLast {
					calmLast = at
				}
				mu.Unlock()
			})
		}
		if !vclock.Poll(e.clk, func() bool {
			return o.get(o.admitted, "calm") == 4
		}, 10*time.Millisecond, start.Add(time.Hour)) {
			t.Error("calm tenant never fully admitted")
		}
		e.clk.Sleep(45 * time.Second) // drain the flood
	})
	if got := o.get(o.admitted, "flood"); got != 40 {
		t.Fatalf("flood admitted = %d, want 40 (no quota set)", got)
	}
	// With strict FIFO, calm's last admission would wait ~20s behind the
	// flood backlog. Fair sharing admits one calm waiter for every freed
	// slot pair, so all four clear within a few seconds of arriving.
	if calmLast > 8*time.Second {
		t.Fatalf("calm tenant's last admission at %v — starved behind the flood backlog", calmLast)
	}
}

// TestAdmissionNoisyNeighborFairness is the multi-tenant fairness gate:
// eight tenants share a controller whose 40 slots cover every tenant's full
// quota (5/s of one-second calls each, burst 15). Seven offer 4/s on a
// seeded jittered pattern; "tenant-3" offers 50/s, ten times its quota, for
// the whole 20 s horizon. Every in-quota tenant must complete all it offered
// with no rejection, the noisy one must be held to what its bucket can
// issue — quota·horizon plus the burst plus the debt one admission deadline
// allows — and Jain's index over per-tenant goodput satisfaction
// (completed ÷ min(offered, quota·horizon), capped at 1) must reach 0.9.
func TestAdmissionNoisyNeighborFairness(t *testing.T) {
	const (
		tenants = 8
		noisy   = "tenant-3"
		horizon = 20 * time.Second
		rate    = 5.0
		burst   = 15.0
	)
	e, _ := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 40
		cfg.Admission = &AdmissionConfig{Default: TenantQuota{Rate: rate, Burst: burst}}
	})
	rng := rand.New(rand.NewSource(1))
	type arrival struct {
		tenant string
		at     time.Duration
	}
	var schedule []arrival
	offered := make(map[string]int)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		period := 250 * time.Millisecond
		if name == noisy {
			period = 20 * time.Millisecond
		}
		// Gaps uniform in [period/2, 3·period/2): mean rate 1/period.
		for at := time.Duration(0); at < horizon; at += period/2 + time.Duration(rng.Int63n(int64(period))) {
			schedule = append(schedule, arrival{name, at})
			offered[name]++
		}
	}
	o := newOutcome()
	e.clk.Run(func() {
		start := e.clk.Now()
		for _, a := range schedule {
			a := a
			e.clk.Go(func() {
				if d := a.at - e.clk.Now().Sub(start); d > 0 {
					e.clk.Sleep(d)
				}
				_, err := e.ctrl.InvokeTenant(a.tenant, "busy", nil)
				o.record(a.tenant, err)
			})
		}
		e.clk.Sleep(horizon + time.Minute)
	})

	completed := e.ctrl.CompletedByTenant()
	entitled := rate * horizon.Seconds()
	var sum, sumSq float64
	for name, n := range offered {
		done := completed[name]
		if name == noisy {
			// The bucket issues burst + rate·t tokens by time t and lets a
			// caller run it into debt by at most one admission deadline.
			ceiling := burst + rate*(horizon+DefaultMaxQueueDelay).Seconds()
			if float64(done) < entitled || float64(done) > ceiling {
				t.Errorf("%s offered %d, completed %d, want within [%.0f, %.0f]", name, n, done, entitled, ceiling)
			}
			if o.get(o.quota, name) == 0 {
				t.Errorf("%s offered %d and met no quota rejection", name, n)
			}
		} else if done != n {
			t.Errorf("%s offered %d in quota, completed %d (quota %d, shed %d, throttled %d)",
				name, n, done, o.get(o.quota, name), o.get(o.shed, name), o.get(o.throttled, name))
		}
		x := math.Min(1, float64(done)/math.Min(float64(n), entitled))
		sum += x
		sumSq += x * x
	}
	if jain := sum * sum / (tenants * sumSq); jain < 0.9 {
		t.Errorf("Jain index over satisfaction = %.4f, want >= 0.9", jain)
	}
}

// TestAdmissionWeights checks that DWRR deficit credit follows configured
// weights: with both tenants saturating a slow controller, the tenant with
// weight 3 is dispatched ~3× as often.
func TestAdmissionWeights(t *testing.T) {
	e, _ := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 4
		cfg.Admission = &AdmissionConfig{
			MaxQueueDelay: time.Hour,
			Tenants: map[string]TenantQuota{
				"heavy": {Weight: 3},
				"light": {Weight: 1},
			},
		}
	})
	o := newOutcome()
	e.clk.Run(func() {
		for i := 0; i < 60; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("heavy", "busy", nil)
				o.record("heavy", err)
			})
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("light", "busy", nil)
				o.record("light", err)
			})
		}
		// Sample dispatch mix while both queues are still saturated.
		e.clk.Sleep(8 * time.Second)
		heavy, light := o.get(o.admitted, "heavy"), o.get(o.admitted, "light")
		if heavy < 2*light {
			t.Errorf("weighted share not honored mid-run: heavy=%d light=%d", heavy, light)
		}
		e.clk.Sleep(time.Hour) // drain
	})
	if got := o.get(o.admitted, "heavy") + o.get(o.admitted, "light"); got != 120 {
		t.Fatalf("total admitted = %d, want 120", got)
	}
}

// TestAdmissionShedDeadline checks deadline-based shedding: waiters stuck
// past MaxQueueDelay fail with ErrShed and a KindShed trace carrying the
// tenant and reason.
func TestAdmissionShedDeadline(t *testing.T) {
	e, rec := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Admission = &AdmissionConfig{MaxQueueDelay: 2 * time.Second}
	})
	o := newOutcome()
	e.clk.Run(func() {
		// 10 one-second tasks on one slot with a 2s deadline: ~3 run,
		// the rest shed.
		for i := 0; i < 10; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("t", "busy", nil)
				o.record("t", err)
			})
		}
		e.clk.Sleep(time.Minute)
	})
	if shed := o.get(o.shed, "t"); shed == 0 {
		t.Fatal("no invocations shed despite a saturated slot")
	}
	if adm := o.get(o.admitted, "t"); adm == 0 {
		t.Fatal("nothing admitted")
	}
	var shedEvents int
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindShed {
			continue
		}
		shedEvents++
		if !strings.Contains(ev.Detail, "tenant=t") || !strings.Contains(ev.Detail, "reason=shed") {
			t.Fatalf("shed trace missing tenant/reason: %q", ev.Detail)
		}
	}
	if shedEvents != o.get(o.shed, "t") {
		t.Fatalf("shed traces = %d, want %d (one per shed invocation)", shedEvents, o.get(o.shed, "t"))
	}
}

// TestAdmissionQueueFull checks the bounded-queue overload path: arrivals
// beyond QueueLimit are rejected immediately with ErrShed and a throttle
// trace naming the queue-full reason.
func TestAdmissionQueueFull(t *testing.T) {
	e, rec := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Admission = &AdmissionConfig{QueueLimit: 2, MaxQueueDelay: time.Hour}
	})
	o := newOutcome()
	e.clk.Run(func() {
		for i := 0; i < 8; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("t", "busy", nil)
				o.record("t", err)
			})
		}
		e.clk.Sleep(time.Minute)
	})
	if shed := o.get(o.shed, "t"); shed == 0 {
		t.Fatal("no queue-full rejections")
	}
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindThrottle && strings.Contains(ev.Detail, "reason=shed: admission queue full") {
			if !strings.Contains(ev.Detail, "tenant=t") {
				t.Fatalf("queue-full trace missing tenant: %q", ev.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no queue-full throttle trace recorded")
	}
}

// TestAdmissionQuotaReject checks the token-bucket gate: a tenant firing
// far past its burst sees ErrQuotaExceeded, and the trace carries the
// quota reason.
func TestAdmissionQuotaReject(t *testing.T) {
	e, rec := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 100
		cfg.Admission = &AdmissionConfig{
			Default:       TenantQuota{Rate: 1, Burst: 2},
			MaxQueueDelay: time.Second,
		}
	})
	o := newOutcome()
	e.clk.Run(func() {
		for i := 0; i < 10; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.InvokeTenant("t", "busy", nil)
				o.record("t", err)
			})
		}
		e.clk.Sleep(time.Minute)
	})
	// Burst 2 plus ~1 token over the deadline window: most of the 10 are
	// quota rejections.
	if q := o.get(o.quota, "t"); q < 5 {
		t.Fatalf("quota rejections = %d, want ≥ 5", q)
	}
	if a := o.get(o.admitted, "t"); a < 2 {
		t.Fatalf("admitted = %d, want the burst (≥ 2)", a)
	}
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindThrottle && strings.Contains(ev.Detail, "reason=quota") {
			if !strings.Contains(ev.Detail, "tenant=t") || !strings.Contains(ev.Detail, "queued=") {
				t.Fatalf("quota trace missing fields: %q", ev.Detail)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no quota throttle trace recorded")
	}
}

// TestLegacyThrottleTraceDetail checks that a nil Admission — the paper's
// global gate — emits the enriched throttle detail (tenant, queue depth,
// reason).
func TestLegacyThrottleTraceDetail(t *testing.T) {
	e, rec := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
	})
	e.clk.Run(func() {
		for i := 0; i < 3; i++ {
			e.clk.Go(func() {
				_, _ = e.ctrl.InvokeTenant("", "busy", nil)
			})
		}
		e.clk.Sleep(time.Minute)
	})
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindThrottle {
			continue
		}
		if !strings.Contains(ev.Detail, "tenant=default") ||
			!strings.Contains(ev.Detail, "queued=0") ||
			!strings.Contains(ev.Detail, "reason=global") {
			t.Fatalf("legacy throttle detail not enriched: %q", ev.Detail)
		}
		found = true
	}
	if !found {
		t.Fatal("no throttle events recorded")
	}
}

// invokeSchedule is a deterministic batch of staggered invocations; used
// by the backward-compat property test.
type invokeSchedule struct {
	offsets []time.Duration
}

func makeSchedule(seed int64, n int) invokeSchedule {
	rng := rand.New(rand.NewSource(seed))
	s := invokeSchedule{offsets: make([]time.Duration, n)}
	at := time.Duration(0)
	for i := range s.offsets {
		at += time.Duration(rng.Int63n(int64(120 * time.Millisecond)))
		s.offsets[i] = at
	}
	return s
}

// runSchedule replays the schedule against a fresh controller and returns
// the accept/reject outcome per invocation plus each acceptance's error
// text (empty for accepts).
func runSchedule(t *testing.T, s invokeSchedule, mutate func(*Config)) []string {
	t.Helper()
	e := newEnv(t, mutate)
	e.sleepAction(t, "busy", time.Second)
	results := make([]string, len(s.offsets))
	e.clk.Run(func() {
		start := e.clk.Now()
		var wg sync.WaitGroup
		for i, off := range s.offsets {
			i, off := i, off
			wg.Add(1)
			e.clk.Go(func() {
				defer wg.Done()
				if d := off - e.clk.Now().Sub(start); d > 0 {
					e.clk.Sleep(d)
				}
				_, err := e.ctrl.InvokeTenant("", "busy", nil)
				if err != nil {
					results[i] = fmt.Sprintf("%v@%v", err, e.clk.Now().Sub(start))
				} else {
					results[i] = fmt.Sprintf("ok@%v", e.clk.Now().Sub(start))
				}
			})
		}
		e.clk.Sleep(time.Hour)
	})
	return results
}

// TestAdmissionBackwardCompat pins the paper-era gate by value: a nil
// Admission and its spelled-out form, one tenant with no rate quota and
// queueing disabled, must both reproduce what the global 429 gate did —
// same accepts, same rejects, same error text, same virtual timestamps —
// over a seeded schedule of 300 staggered calls against a small concurrency
// limit. The digests are SHA-256 over the 300 result strings joined by
// newlines, recorded at commit 63b1b0c, the last one where InvokeTenant
// carried that gate as a branch of its own.
func TestAdmissionBackwardCompat(t *testing.T) {
	recorded := map[int64]string{
		1:    "3199833a32124cb9bae730adf62009432dc30532164b1c3471fd4d2fc90d6476",
		7:    "698ef2980da9c00509f160fb456cad5ca8219d67105b68566454cc4fde19b48e",
		1234: "7f01dd338f368975b710c67333116db160d6b918b116bf99c6cbdb754b195685",
	}
	for _, seed := range []int64{1, 7, 1234} {
		s := makeSchedule(seed, 300)
		for _, adm := range []*AdmissionConfig{nil, {QueueLimit: -1}} {
			results := runSchedule(t, s, func(cfg *Config) {
				cfg.MaxConcurrent = 8
				cfg.Seed = seed
				cfg.Admission = adm
			})
			sum := sha256.Sum256([]byte(strings.Join(results, "\n")))
			if got := hex.EncodeToString(sum[:]); got != recorded[seed] {
				t.Errorf("seed %d Admission=%+v: digest %s, want %s", seed, adm, got, recorded[seed])
			}
		}
	}
}

// TestAdmissionQueueDepthIntrospection covers QueueDepth/AdmissionQueued.
func TestAdmissionQueueDepthIntrospection(t *testing.T) {
	e, _ := admitEnv(t, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Admission = &AdmissionConfig{MaxQueueDelay: time.Hour}
	})
	e.clk.Run(func() {
		for i := 0; i < 5; i++ {
			e.clk.Go(func() {
				_, _ = e.ctrl.InvokeTenant("t", "busy", nil)
			})
		}
		e.clk.Sleep(500 * time.Millisecond)
		if got := e.ctrl.QueueDepth("t"); got != 4 {
			t.Errorf("QueueDepth = %d, want 4 (1 running, 4 parked)", got)
		}
		if got := e.ctrl.AdmissionQueued(); got != 4 {
			t.Errorf("AdmissionQueued = %d, want 4", got)
		}
		e.clk.Sleep(time.Hour)
	})
	if got := e.ctrl.AdmissionQueued(); got != 0 {
		t.Fatalf("AdmissionQueued after drain = %d, want 0", got)
	}
}
