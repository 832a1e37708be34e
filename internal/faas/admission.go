package faas

import (
	"fmt"
	"sort"
	"time"

	"gowren/internal/trace"
	"gowren/internal/vclock"
)

// DefaultTenant is the tenant invocations without an explicit tenant are
// attributed to. A platform that never configures Admission still records
// it on activations, so per-tenant billing rollups work unconditionally.
const DefaultTenant = "default"

// Admission-layer defaults.
const (
	// DefaultAdmissionQueueLimit bounds each tenant's admission queue.
	DefaultAdmissionQueueLimit = 256
	// DefaultMaxQueueDelay is how long an invocation may sit in admission
	// (token-bucket wait plus queueing) before it is shed.
	DefaultMaxQueueDelay = 2 * time.Second
)

// TenantQuota is one tenant's admission contract.
type TenantQuota struct {
	// Rate is the sustained admission rate in invocations per second,
	// enforced by a per-tenant token bucket. Zero or negative means no
	// rate limit for the tenant.
	Rate float64
	// Burst is the bucket capacity: how many invocations the tenant may
	// fire back-to-back before the sustained rate applies. Zero or
	// negative selects max(Rate, 1).
	Burst float64
	// Weight is the tenant's share in the deficit-weighted round-robin
	// over queued invocations. Zero or negative selects 1.
	Weight int
}

func (q TenantQuota) burst() float64 {
	if q.Burst > 0 {
		return q.Burst
	}
	if q.Rate > 1 {
		return q.Rate
	}
	return 1
}

func (q TenantQuota) weight() float64 {
	if q.Weight > 0 {
		return float64(q.Weight)
	}
	return 1
}

// AdmissionConfig configures the gate in front of the controller:
// per-tenant token buckets (sustained rate + burst) feed a deficit-weighted
// round-robin over bounded per-tenant queues, and overload degrades to
// bounded queueing, then deadline-based shedding — never unbounded memory
// or silent starvation. The paper's platform — one global concurrency
// limit, immediate 429s — is the configuration with no quotas and
// QueueLimit -1, which is what a nil Config.Admission selects.
type AdmissionConfig struct {
	// Default is the quota applied to tenants not listed in Tenants —
	// including DefaultTenant. The zero value means no rate limit and
	// weight 1.
	Default TenantQuota
	// Tenants overrides the quota per tenant name.
	Tenants map[string]TenantQuota
	// QueueLimit bounds each tenant's admission queue; an invocation
	// arriving at a full queue is rejected with ErrShed. Zero selects
	// DefaultAdmissionQueueLimit. Negative disables queueing entirely:
	// an invocation that cannot start immediately is rejected with
	// ErrThrottled.
	QueueLimit int
	// MaxQueueDelay is the admission deadline: the token-bucket wait plus
	// queue time an invocation tolerates before it is shed with ErrShed.
	// Zero selects DefaultMaxQueueDelay.
	MaxQueueDelay time.Duration
}

func (cfg AdmissionConfig) queueLimit() int {
	if cfg.QueueLimit == 0 {
		return DefaultAdmissionQueueLimit
	}
	return cfg.QueueLimit
}

func (cfg AdmissionConfig) maxQueueDelay() time.Duration {
	if cfg.MaxQueueDelay <= 0 {
		return DefaultMaxQueueDelay
	}
	return cfg.MaxQueueDelay
}

func (cfg AdmissionConfig) quotaFor(tenant string) TenantQuota {
	if q, ok := cfg.Tenants[tenant]; ok {
		return q
	}
	return cfg.Default
}

// Waiter dispatch decisions.
const (
	admPending = iota
	admAdmitted
	admShed
)

// admWaiter is one invocation parked in a tenant's admission queue. All
// fields are guarded by Controller.mu; the queued caller parks on evt and
// the dispatcher signals it on every state flip (admitted or shed), so a
// queued invocation costs O(1) scheduler events.
type admWaiter struct {
	tenant   string
	act      *action
	params   []byte
	deadline time.Time
	state    int
	id       string // activation ID once admitted
	evt      *vclock.Event
}

// tenantState is one tenant's token bucket, queue and DWRR credit.
// Guarded by Controller.mu.
type tenantState struct {
	name       string
	quota      TenantQuota
	tokens     float64
	lastRefill time.Time
	queue      []*admWaiter
	deficit    float64
}

// reserve charges the token bucket for one invocation at now. It returns
// the delay the caller must wait for its token to accrue, or ok=false —
// bucket untouched — when that delay would exceed maxWait. Reservations
// may drive the bucket negative, which spaces a burst's overflow at the
// sustained rate, GCRA-style.
func (ts *tenantState) reserve(now time.Time, maxWait time.Duration) (time.Duration, bool) {
	rate := ts.quota.Rate
	if rate <= 0 {
		return 0, true
	}
	ts.tokens += float64(now.Sub(ts.lastRefill).Seconds() * rate) // rounded: no fused multiply-add
	if burst := ts.quota.burst(); ts.tokens > burst {
		ts.tokens = burst
	}
	ts.lastRefill = now
	if ts.tokens >= 1 {
		ts.tokens--
		return 0, true
	}
	wait := time.Duration((1 - ts.tokens) / rate * float64(time.Second))
	if wait > maxWait {
		return 0, false
	}
	ts.tokens--
	return wait, true
}

// admission is the tenant-aware gate state. Guarded by Controller.mu.
type admission struct {
	cfg     AdmissionConfig
	tenants map[string]*tenantState
	// order is the DWRR ring: tenants with queued invocations, sorted by
	// name so dispatch order is a function of simulation state alone.
	order  []string
	cursor int
	queued int // total queued waiters across tenants
}

func newAdmission(cfg AdmissionConfig) *admission {
	// Copy the per-tenant quota map so later caller mutations cannot race
	// the dispatcher.
	tenants := make(map[string]TenantQuota, len(cfg.Tenants))
	for name, q := range cfg.Tenants {
		tenants[name] = q
	}
	cfg.Tenants = tenants
	return &admission{cfg: cfg, tenants: make(map[string]*tenantState)}
}

// tenant returns (creating on first touch) the named tenant's state.
func (a *admission) tenant(name string, now time.Time) *tenantState {
	ts, ok := a.tenants[name]
	if !ok {
		q := a.cfg.quotaFor(name)
		ts = &tenantState{name: name, quota: q, tokens: q.burst(), lastRefill: now}
		a.tenants[name] = ts
	}
	return ts
}

func (a *admission) enqueue(ts *tenantState, w *admWaiter) {
	if len(ts.queue) == 0 {
		a.insertOrder(ts.name)
	}
	ts.queue = append(ts.queue, w)
	a.queued++
}

// insertOrder adds name to the DWRR ring at its sorted position, keeping
// the cursor on the tenant it pointed at.
func (a *admission) insertOrder(name string) {
	idx := sort.SearchStrings(a.order, name)
	if idx < len(a.order) && a.order[idx] == name {
		return
	}
	a.order = append(a.order, "")
	copy(a.order[idx+1:], a.order[idx:])
	a.order[idx] = name
	if idx < a.cursor {
		a.cursor++
	}
}

// removeOrder drops name from the DWRR ring, keeping the cursor on the
// tenant it pointed at (or its successor).
func (a *admission) removeOrder(name string) {
	idx := sort.SearchStrings(a.order, name)
	if idx >= len(a.order) || a.order[idx] != name {
		return
	}
	a.order = append(a.order[:idx], a.order[idx+1:]...)
	if a.cursor > idx {
		a.cursor--
	}
	if a.cursor >= len(a.order) {
		a.cursor = 0
	}
}

// remove unlinks w from its tenant's queue (used by callers shedding
// themselves past the deadline).
func (a *admission) remove(ts *tenantState, w *admWaiter) {
	for i, q := range ts.queue {
		if q == w {
			ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
			a.queued--
			break
		}
	}
	if len(ts.queue) == 0 {
		ts.deficit = 0
		a.removeOrder(ts.name)
	}
}

// hasSlotLocked reports whether the global concurrency limit leaves room
// for one more activation.
func (c *Controller) hasSlotLocked() bool {
	return c.cfg.MaxConcurrent < 0 || c.inflight < c.cfg.MaxConcurrent
}

// admitTenant is the one gate in front of the controller: token-bucket
// rate gate, then the concurrency gate with bounded per-tenant queueing and
// deadline-based shedding. Called after the gateway pipeline and outage
// checks.
func (c *Controller) admitTenant(tenant string, act *action, params []byte) (string, error) {
	a := c.adm
	arrival := c.cfg.Clock.Now()
	deadline := arrival.Add(a.cfg.maxQueueDelay())

	// Rate gate: charge the tenant's bucket; a conforming invocation may
	// first owe a wait that spaces its burst overflow at the sustained
	// rate. A wait that would blow the admission deadline is a quota
	// rejection — the bucket is not charged.
	c.mu.Lock()
	ts := a.tenant(tenant, arrival)
	wait, ok := ts.reserve(arrival, deadline.Sub(arrival))
	if !ok {
		depth := len(ts.queue)
		c.mu.Unlock()
		c.cfg.Trace.Emitf(arrival, trace.KindThrottle, act.spec.Name,
			"tenant=%s queued=%d reason=quota: rate %g/s burst %g exceeded", tenant, depth, ts.quota.Rate, ts.quota.burst())
		return "", fmt.Errorf("faas: invoke %q: tenant %q over quota: %w", act.spec.Name, tenant, ErrQuotaExceeded)
	}
	c.mu.Unlock()
	if wait > 0 {
		c.cfg.Clock.Sleep(wait)
	}

	// Concurrency gate: start immediately when a slot is free and nobody
	// is queued ahead; otherwise queue (bounded) or reject.
	c.mu.Lock()
	if a.queued == 0 && c.hasSlotLocked() {
		id := c.startActivationLocked(tenant, act, params)
		c.mu.Unlock()
		return id, nil
	}
	if a.cfg.QueueLimit < 0 {
		// Queueing disabled: the paper-era immediate 429.
		limit := c.cfg.MaxConcurrent
		c.mu.Unlock()
		c.cfg.Trace.Emitf(c.cfg.Clock.Now(), trace.KindThrottle, act.spec.Name,
			"tenant=%s queued=0 reason=global: inflight at limit %d", tenant, limit)
		return "", fmt.Errorf("faas: invoke %q: %w", act.spec.Name, ErrThrottled)
	}
	if len(ts.queue) >= a.cfg.queueLimit() {
		depth := len(ts.queue)
		c.mu.Unlock()
		c.cfg.Trace.Emitf(c.cfg.Clock.Now(), trace.KindThrottle, act.spec.Name,
			"tenant=%s queued=%d reason=shed: admission queue full", tenant, depth)
		return "", fmt.Errorf("faas: invoke %q: tenant %q admission queue full: %w", act.spec.Name, tenant, ErrShed)
	}
	w := &admWaiter{tenant: tenant, act: act, params: params, deadline: deadline, evt: vclock.NewEvent(c.cfg.Clock)}
	a.enqueue(ts, w)
	// A slot may have freed since the fast-path check; drain opportunistically.
	c.dispatchLocked()
	state, id := w.state, w.id
	c.mu.Unlock()

	if state == admPending {
		w.evt.WaitFor(func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return w.state != admPending
		}, deadline)
		c.mu.Lock()
		if w.state == admPending {
			// Deadline passed while queued: shed ourselves.
			a.remove(ts, w)
			w.state = admShed
			depth := len(ts.queue)
			now := c.cfg.Clock.Now()
			c.mu.Unlock()
			c.cfg.Trace.Emitf(now, trace.KindShed, act.spec.Name,
				"tenant=%s queued=%d reason=shed: %v admission deadline exceeded", tenant, depth, a.cfg.maxQueueDelay())
			return "", fmt.Errorf("faas: invoke %q: tenant %q shed after %v queued: %w",
				act.spec.Name, tenant, a.cfg.maxQueueDelay(), ErrShed)
		}
		state, id = w.state, w.id
		c.mu.Unlock()
	}
	if state == admShed {
		// Shed by the dispatcher's expiry sweep (already traced there).
		return "", fmt.Errorf("faas: invoke %q: tenant %q shed after %v queued: %w",
			act.spec.Name, tenant, a.cfg.maxQueueDelay(), ErrShed)
	}
	return id, nil
}

// dispatchLocked fills free concurrency slots from the admission queues in
// deficit-weighted round-robin order. Called with c.mu held, whenever a
// slot frees (activation completion) or a waiter joins.
func (c *Controller) dispatchLocked() {
	a := c.adm
	now := c.cfg.Clock.Now()
	for a.queued > 0 && c.hasSlotLocked() {
		w := c.nextWaiterLocked(now)
		if w == nil {
			return
		}
		w.state = admAdmitted
		w.id = c.startActivationLocked(w.tenant, w.act, w.params)
		w.evt.Signal()
	}
}

// nextWaiterLocked picks the next invocation to admit: expired waiters are
// shed, then the DWRR ring is scanned from the cursor; a tenant with
// deficit credit pays one unit per dispatch, and a full pass without a
// dispatch replenishes every queued tenant by its weight.
func (c *Controller) nextWaiterLocked(now time.Time) *admWaiter {
	a := c.adm
	c.shedExpiredLocked(now)
	for a.queued > 0 && len(a.order) > 0 {
		n := len(a.order)
		for i := 0; i < n; i++ {
			idx := (a.cursor + i) % n
			ts := a.tenants[a.order[idx]]
			if ts.deficit < 1 {
				continue
			}
			ts.deficit--
			w := ts.queue[0]
			ts.queue = ts.queue[1:]
			a.queued--
			a.cursor = idx
			if len(ts.queue) == 0 {
				ts.deficit = 0
				a.removeOrder(ts.name)
			}
			return w
		}
		for _, name := range a.order {
			ts := a.tenants[name]
			ts.deficit += ts.quota.weight()
		}
	}
	return nil
}

// shedExpiredLocked drops every queued waiter past its admission deadline,
// so the dispatcher never admits an invocation its caller has given up on.
func (c *Controller) shedExpiredLocked(now time.Time) {
	a := c.adm
	names := append([]string(nil), a.order...)
	for _, name := range names {
		ts := a.tenants[name]
		kept := ts.queue[:0]
		for _, w := range ts.queue {
			if now.After(w.deadline) {
				w.state = admShed
				w.evt.Signal()
				a.queued--
				c.cfg.Trace.Emitf(now, trace.KindShed, w.act.spec.Name,
					"tenant=%s queued=%d reason=shed: queued past admission deadline", name, len(kept))
				continue
			}
			kept = append(kept, w)
		}
		ts.queue = kept
		if len(ts.queue) == 0 {
			ts.deficit = 0
			a.removeOrder(name)
		}
	}
}

// QueueDepth reports how many invocations the named tenant has parked in
// admission.
func (c *Controller) QueueDepth(tenant string) int {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.adm.tenants[tenant]
	if !ok {
		return 0
	}
	return len(ts.queue)
}

// AdmissionQueued reports the total number of queued invocations across
// tenants.
func (c *Controller) AdmissionQueued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.adm.queued
}
