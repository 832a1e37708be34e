// Package faas simulates the FaaS platform under IBM-PyWren: IBM Cloud
// Functions, which is Apache OpenWhisk (paper §3). The Controller exposes
// the pieces of the platform the paper's results depend on:
//
//   - asynchronous action invocation through a serialized admission
//     pipeline (the gateway bottleneck that caps in-cloud invocation rates
//     and makes 1,000 invocations take ~8 s even from inside the
//     datacenter — paper §5.1);
//   - a concurrent-invocation limit with 429-style throttling (default
//     1,000, raisable, as §3 describes);
//   - per-invocation memory (512 MB) and execution-time (600 s) limits;
//   - a container pool with Docker-image cold starts: the first activation
//     of an image pays a registry pull, later cold starts pay only the boot
//     cost because the image is cached internally (§3.1), and recently used
//     containers are kept warm;
//   - execution-time jitter modeling the variable resource availability
//     visible as ragged gray lines in the paper's Fig. 3;
//   - activation records with submit/start/end timestamps, from which the
//     experiment harnesses derive concurrency time series.
package faas

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/vclock"
)

// Errors returned by the controller.
var (
	ErrNoSuchAction = errors.New("faas: no such action")
	ErrActionExists = errors.New("faas: action already exists")
	ErrThrottled    = errors.New("faas: too many concurrent invocations (429)")
	// ErrQuotaExceeded rejects an invocation whose tenant is over its
	// token-bucket rate quota (admission layer; retried like any 429, but
	// the tenant's own doing rather than platform load).
	ErrQuotaExceeded = errors.New("faas: tenant rate quota exceeded (429)")
	// ErrShed rejects an invocation dropped by overload protection: its
	// tenant's admission queue was full, or it sat queued past the
	// admission deadline.
	ErrShed         = errors.New("faas: invocation shed under overload (429)")
	ErrMemoryLimit  = errors.New("faas: requested memory exceeds platform limit")
	ErrCrashed      = errors.New("faas: container crashed")
	ErrNoActivation = errors.New("faas: no such activation")
)

// Platform limits mirroring the paper's §3 defaults for IBM Cloud Functions
// at the time of writing.
const (
	DefaultMaxConcurrent = 1000
	DefaultMemoryMB      = 512
	MaxMemoryMB          = 2048
	DefaultTimeout       = 600 * time.Second
)

const (
	// pullBandwidthMBps is the registry pull rate for the first cold start
	// of an image.
	pullBandwidthMBps = 120
	// keepAlive is how long an idle container stays warm.
	keepAlive = 10 * time.Minute
)

// Handler is the code bound to an action. GoWren registers one generic
// runner handler per runtime image (internal/exec); params are opaque bytes.
type Handler func(ctx *runtime.Ctx, params []byte) ([]byte, error)

// Config configures a Controller.
type Config struct {
	Clock    vclock.Clock
	Registry *runtime.Registry
	// Storage is the object-storage client functions see. In-process
	// simulations pass the Store directly so container traffic is charged
	// on the in-cloud link.
	Storage cos.Client

	// MaxConcurrent caps in-flight activations; exceeding it throttles
	// (429). Zero uses DefaultMaxConcurrent; negative means unlimited.
	MaxConcurrent int

	// Admission configures the gate in front of the controller: per-tenant
	// token buckets feed a deficit-weighted round-robin over bounded
	// per-tenant queues, with deadline-based shedding (see
	// AdmissionConfig). MaxConcurrent is the global capacity underneath
	// it. Nil is the paper's platform — one tenant, no queue: a full
	// platform answers ErrThrottled — and equals
	// &AdmissionConfig{QueueLimit: -1}.
	Admission *AdmissionConfig

	// AdmitOverhead is the serialized gateway service time per invocation:
	// the admission pipeline sustains 1/AdmitOverhead invocations/second
	// regardless of caller parallelism. Zero uses a calibrated default.
	AdmitOverhead time.Duration

	// ColdStartBoot is the container boot cost on a cold start, excluding
	// the image pull. Zero uses a sub-second default (paper §5: containers
	// "fast to boot up ... within a sub-second range").
	ColdStartBoot time.Duration
	// WarmStart is the reuse cost of a warm container.
	WarmStart time.Duration

	// ExecJitter adds platform noise to each activation's runtime
	// (scheduling delays, noisy neighbours). Nil means none.
	ExecJitter netsim.LatencyModel
	// CrashProb is the probability an activation dies with ErrCrashed
	// after starting; used by failure-injection tests. Zero disables.
	CrashProb float64

	// Seed feeds the controller's PRNG (jitter, crashes).
	Seed int64

	// Outage, when non-nil, is consulted on every invocation; returning
	// true makes the gateway reject the call with ErrThrottled, modeling a
	// controller outage window (chaos injection). Callers see ordinary
	// 429s and retry through the usual policy.
	Outage func() bool
	// SlowFactor, when non-nil, multiplies each activation's sampled exec
	// jitter; values > 1 model slow-container windows (chaos injection).
	SlowFactor func() float64

	// Trace, when non-nil, records platform events (invocations,
	// throttles, container lifecycle) for post-run inspection.
	Trace *trace.Recorder

	// RetainActivations bounds the completed activation records kept in
	// memory: once more than this many completed activations exist, the
	// oldest completed records are evicted from Activation/Activations
	// lookups, the way a real platform ages out its activation log. The
	// per-tenant completion counters (CompletedByTenant) survive eviction.
	// Zero retains everything — required by waiters that consult records
	// long after completion (the executor's dead-call detection).
	RetainActivations int
}

func (c *Config) applyDefaults() {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = DefaultMaxConcurrent
	}
	if c.AdmitOverhead == 0 {
		c.AdmitOverhead = 5 * time.Millisecond
	}
	if c.ColdStartBoot == 0 {
		c.ColdStartBoot = 450 * time.Millisecond
	}
	if c.WarmStart == 0 {
		c.WarmStart = 8 * time.Millisecond
	}
}

// ActionSpec declares an action: a name bound to a handler executing inside
// a runtime image.
type ActionSpec struct {
	Name     string
	Image    string // runtime image name, resolved through the registry
	Handler  Handler
	MemoryMB int           // zero uses DefaultMemoryMB
	Timeout  time.Duration // zero uses DefaultTimeout; clamped to it
}

// Activation is the record of one function invocation.
type Activation struct {
	ID     string
	Action string
	// Tenant is the (resolved) tenant the invocation was admitted for —
	// DefaultTenant when the caller named none. Billing rolls up by it.
	Tenant string

	SubmitAt time.Time // accepted by the gateway
	StartAt  time.Time // handler entered (container ready)
	EndAt    time.Time // handler returned

	ColdStart bool
	OK        bool
	Error     string
	Result    []byte

	// MemoryMB is the container memory limit, for GB-second billing.
	MemoryMB int

	// LingerUntil, when set, is how long the container stayed resident
	// after completion to serve direct-exchange peer pulls (see
	// LingerActivation); zero for ordinary activations.
	LingerUntil time.Time
}

// Done reports whether the activation has finished.
func (a Activation) Done() bool { return !a.EndAt.IsZero() }

type action struct {
	spec ActionSpec
	img  *runtime.Image
}

// Controller is the simulated FaaS platform.
type Controller struct {
	cfg Config

	mu          sync.Mutex
	actions     map[string]*action
	activations map[string]*Activation
	order       []string // activation IDs in submit order
	// Completed-record aging (Config.RetainActivations): completed IDs in
	// completion order, consumed from completedHead as records age out.
	// completedOK counts successful completions per tenant forever.
	completed     []string
	completedHead int
	completedOK   map[string]int
	inflight      int
	nextActID     uint64
	gatewayFree   time.Time       // next free slot of the serialized admission pipeline
	pulled        map[string]bool // images already cached in the internal registry
	warm          map[string][]warmContainer
	// lingers holds per-activation keep-resident deadlines requested by
	// the exchange layer before the activation completes (direct shuffle
	// transport); consumed at completion time.
	lingers map[string]time.Time
	rng     *rand.Rand

	// adm is the admission state behind admitTenant.
	adm *admission

	spawnerFor func(ctx *runtime.Ctx) runtime.Spawner
}

type warmContainer struct {
	idleSince time.Time
	// residentUntil, when set, pins the container against keepAlive
	// eviction: it is a lingering direct-exchange producer whose partition
	// outputs must stay pullable until the deadline. It remains a normal
	// warm container otherwise — new activations may reuse it (its staged
	// outputs live in the exchange layer, not the activation).
	residentUntil time.Time
}

// New returns a Controller with cfg. Clock, Registry and Storage are
// required.
func New(cfg Config) (*Controller, error) {
	if cfg.Clock == nil {
		return nil, errors.New("faas: config missing clock")
	}
	if cfg.Registry == nil {
		return nil, errors.New("faas: config missing runtime registry")
	}
	if cfg.Storage == nil {
		return nil, errors.New("faas: config missing storage client")
	}
	cfg.applyDefaults()
	adm := AdmissionConfig{QueueLimit: -1}
	if cfg.Admission != nil {
		adm = *cfg.Admission
	}
	c := &Controller{
		cfg:         cfg,
		actions:     make(map[string]*action),
		activations: make(map[string]*Activation),
		completedOK: make(map[string]int),
		pulled:      make(map[string]bool),
		warm:        make(map[string][]warmContainer),
		lingers:     make(map[string]time.Time),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		adm:         newAdmission(adm),
	}
	return c, nil
}

// SetSpawnerFactory installs the hook that equips function contexts with a
// dynamic-composition spawner. The executor layer calls this once at wiring
// time; fn receives the partially built ctx and returns the spawner to
// expose to user code.
func (c *Controller) SetSpawnerFactory(fn func(ctx *runtime.Ctx) runtime.Spawner) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spawnerFor = fn
}

// CreateAction registers spec with the platform, validating limits and the
// runtime image.
func (c *Controller) CreateAction(spec ActionSpec) error {
	if spec.Name == "" {
		return errors.New("faas: action name required")
	}
	if spec.Handler == nil {
		return fmt.Errorf("faas: action %q has no handler", spec.Name)
	}
	if spec.MemoryMB == 0 {
		spec.MemoryMB = DefaultMemoryMB
	}
	if spec.MemoryMB > MaxMemoryMB {
		return fmt.Errorf("faas: action %q requests %d MB: %w", spec.Name, spec.MemoryMB, ErrMemoryLimit)
	}
	if spec.Timeout <= 0 || spec.Timeout > DefaultTimeout {
		spec.Timeout = DefaultTimeout
	}
	img, err := c.cfg.Registry.Pull(spec.Image)
	if err != nil {
		return fmt.Errorf("faas: action %q: %w", spec.Name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.actions[spec.Name]; ok {
		return fmt.Errorf("faas: action %q: %w", spec.Name, ErrActionExists)
	}
	c.actions[spec.Name] = &action{spec: spec, img: img}
	return nil
}

// DeleteAction unregisters an action. In-flight activations finish;
// subsequent invocations fail with ErrNoSuchAction.
func (c *Controller) DeleteAction(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.actions[name]; !ok {
		return fmt.Errorf("faas: delete action %q: %w", name, ErrNoSuchAction)
	}
	delete(c.actions, name)
	delete(c.warm, name)
	return nil
}

// Invoke submits an asynchronous invocation of the named action on behalf
// of the default tenant. The call blocks the caller through the gateway
// admission pipeline (so caller parallelism matters, as it does against
// the real platform), then returns the activation ID while the function
// runs in the background. It returns ErrThrottled when the
// concurrent-invocation limit is reached.
func (c *Controller) Invoke(actionName string, params []byte) (string, error) {
	return c.InvokeTenant("", actionName, params)
}

// InvokeTenant is Invoke on behalf of a named tenant (empty resolves to
// DefaultTenant). The tenant selects the token bucket, queue and DWRR
// share the invocation is admitted under and is recorded on the
// activation for billing rollups; rejections are ErrQuotaExceeded (over
// rate quota), ErrShed (queue full / admission deadline exceeded) or, with
// queueing disabled (a nil Config.Admission), ErrThrottled.
func (c *Controller) InvokeTenant(tenant, actionName string, params []byte) (string, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	c.mu.Lock()
	act, ok := c.actions[actionName]
	if !ok {
		c.mu.Unlock()
		return "", fmt.Errorf("faas: invoke %q: %w", actionName, ErrNoSuchAction)
	}
	// Reserve a slot in the serialized admission pipeline.
	now := c.cfg.Clock.Now()
	slot := c.gatewayFree
	if slot.Before(now) {
		slot = now
	}
	done := slot.Add(c.cfg.AdmitOverhead)
	c.gatewayFree = done
	c.mu.Unlock()

	// Wait out our turn in the pipeline on the caller's task.
	c.cfg.Clock.Sleep(done.Sub(now))

	if c.cfg.Outage != nil && c.cfg.Outage() {
		c.cfg.Trace.Emitf(c.cfg.Clock.Now(), trace.KindThrottle, actionName,
			"tenant=%s queued=%d reason=global: controller outage window", tenant, c.QueueDepth(tenant))
		return "", fmt.Errorf("faas: invoke %q: controller outage: %w", actionName, ErrThrottled)
	}

	return c.admitTenant(tenant, act, params)
}

// startActivationLocked claims a concurrency slot, records the activation
// and starts its execution task. Called with c.mu held, by admitTenant's
// fast path and by the dispatcher.
func (c *Controller) startActivationLocked(tenant string, act *action, params []byte) string {
	c.inflight++
	c.nextActID++
	id := "act-" + strconv.FormatUint(c.nextActID, 10)
	rec := &Activation{ID: id, Action: act.spec.Name, Tenant: tenant, SubmitAt: c.cfg.Clock.Now(), MemoryMB: act.spec.MemoryMB}
	c.activations[id] = rec
	c.order = append(c.order, id)
	c.cfg.Trace.Emit(rec.SubmitAt, trace.KindInvoke, id, act.spec.Name)
	c.cfg.Clock.Go(func() { c.execute(act, rec, params) })
	return id
}

// execute provisions a container and runs the handler, recording the
// activation outcome.
func (c *Controller) execute(act *action, rec *Activation, params []byte) {
	cold, setup := c.provision(act)
	// Emitf boxes its variadic args at the call site even when the recorder
	// is nil, so the per-activation sites guard explicitly to keep the
	// untraced hot path allocation-free.
	if cold {
		if c.cfg.Trace != nil {
			c.cfg.Trace.Emitf(c.cfg.Clock.Now(), trace.KindColdStart, rec.ID, "setup %v", setup)
		}
	} else {
		c.cfg.Trace.Emit(c.cfg.Clock.Now(), trace.KindWarmStart, rec.ID, act.spec.Name)
	}
	c.cfg.Clock.Sleep(setup)

	start := c.cfg.Clock.Now()
	c.mu.Lock()
	rec.StartAt = start
	rec.ColdStart = cold
	crash := c.cfg.CrashProb > 0 && c.rng.Float64() < c.cfg.CrashProb
	var jitter time.Duration
	if c.cfg.ExecJitter != nil {
		jitter = c.cfg.ExecJitter.Sample(c.rng)
	}
	c.mu.Unlock()
	if c.cfg.SlowFactor != nil {
		if f := c.cfg.SlowFactor(); f > 1 {
			jitter = time.Duration(float64(jitter) * f)
		}
	}

	c.cfg.Trace.Emit(start, trace.KindActStart, rec.ID, act.spec.Name)
	ctx := runtime.NewCtx(c.buildCtxConfig(act, rec, cold, start))

	var (
		result []byte
		err    error
	)
	if crash {
		// A crash manifests partway through execution.
		c.cfg.Clock.Sleep(act.spec.Timeout / 10)
		err = ErrCrashed
	} else {
		// Platform noise (scheduling delays, noisy neighbours) lands
		// before user code so it delays everything the function produces
		// — including the status object clients poll for. This is what
		// makes stragglers visible end to end (paper Fig. 3).
		c.cfg.Clock.Sleep(jitter)
		result, err = act.spec.Handler(ctx, params)
	}

	end := c.cfg.Clock.Now()
	if crash {
		c.cfg.Trace.Emit(end, trace.KindCrash, rec.ID, act.spec.Name)
	}
	outcome := "ok"
	if err != nil {
		outcome = "error: " + err.Error()
	}
	if c.cfg.Trace != nil {
		c.cfg.Trace.Emitf(end, trace.KindActEnd, rec.ID, "%s %s after %v", act.spec.Name, outcome, end.Sub(start))
	}
	c.mu.Lock()
	rec.EndAt = end
	if err != nil {
		rec.OK = false
		rec.Error = err.Error()
	} else {
		rec.OK = true
		rec.Result = result
	}
	c.inflight--
	if rec.OK {
		c.completedOK[rec.Tenant]++
	}
	c.retireLocked(rec.ID)
	linger, lingering := c.lingers[rec.ID]
	if lingering {
		delete(c.lingers, rec.ID)
		rec.LingerUntil = linger
	}
	if !crash {
		wc := warmContainer{idleSince: end}
		if lingering && linger.After(end) {
			// The container stays resident serving exchange peer pulls
			// until the linger deadline: it joins the warm pool like any
			// other (reuse does not disturb its staged outputs) but is
			// pinned against keepAlive eviction until the window closes.
			wc.residentUntil = linger
		}
		c.warm[act.spec.Name] = append(c.warm[act.spec.Name], wc)
	}
	// The freed slot goes to the fairest queued invocation, if any.
	c.dispatchLocked()
	c.mu.Unlock()
}

// LingerActivation asks the platform to keep the activation's container
// resident until the given instant after it completes, so it can serve
// direct-exchange partition pulls from reducers. The container still joins
// the warm pool at completion — reuse does not disturb its staged outputs —
// but it is pinned against idle eviction until the window closes. Later
// deadlines extend earlier ones; requests for unknown activations are
// dropped at completion time.
func (c *Controller) LingerActivation(id string, until time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if until.After(c.lingers[id]) {
		c.lingers[id] = until
	}
}

// retireLocked ages out completed activation records once more than
// Config.RetainActivations of them exist. Eviction is oldest-completed
// first; the order slice is compacted lazily when evictions leave it more
// than half dead, keeping both bookkeeping structures O(retained) instead
// of O(all-time).
func (c *Controller) retireLocked(id string) {
	limit := c.cfg.RetainActivations
	if limit <= 0 {
		return
	}
	c.completed = append(c.completed, id)
	for len(c.completed)-c.completedHead > limit {
		old := c.completed[c.completedHead]
		c.completed[c.completedHead] = ""
		c.completedHead++
		delete(c.activations, old)
	}
	if c.completedHead > len(c.completed)/2 {
		c.completed = append(c.completed[:0:0], c.completed[c.completedHead:]...)
		c.completedHead = 0
	}
	if len(c.order) > 2*(len(c.activations)+1) {
		kept := c.order[:0]
		for _, oid := range c.order {
			if _, ok := c.activations[oid]; ok {
				kept = append(kept, oid)
			}
		}
		clear(c.order[len(kept):])
		c.order = kept
	}
}

// CompletedByTenant reports, per tenant, how many activations have finished
// successfully since the controller started. Unlike the activation records
// themselves these counters survive RetainActivations eviction, so load
// generators can account outcomes without retaining a million records.
func (c *Controller) CompletedByTenant() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.completedOK))
	for tenant, n := range c.completedOK {
		out[tenant] = n
	}
	return out
}

func (c *Controller) buildCtxConfig(act *action, rec *Activation, cold bool, start time.Time) runtime.CtxConfig {
	cfg := runtime.CtxConfig{
		Clock:        c.cfg.Clock,
		Storage:      c.cfg.Storage,
		Image:        act.img,
		ActivationID: rec.ID,
		Deadline:     start.Add(act.spec.Timeout),
		ColdStart:    cold,
	}
	c.mu.Lock()
	factory := c.spawnerFor
	c.mu.Unlock()
	if factory != nil {
		ctx := runtime.NewCtx(cfg)
		cfg.Spawner = factory(ctx)
	}
	return cfg
}

// provision finds a warm container for the action or models a cold start.
// It returns whether the start was cold and the setup duration to charge.
func (c *Controller) provision(act *action) (cold bool, setup time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()

	// Evict expired warm containers lazily. idleSince is nondecreasing —
	// containers are appended at completion under c.mu, and simulated time
	// cannot advance while the completing task is runnable — so the expired
	// containers form a prefix of the pool. Trimming that prefix and reusing
	// from the back (most recently idle first) is amortized O(1) per
	// provision, where the old full-pool scan went quadratic once keepAlive
	// let hundreds of thousands of containers accumulate.
	pool := c.warm[act.spec.Name]
	trimmed := 0
	for trimmed < len(pool) && now.Sub(pool[trimmed].idleSince) > keepAlive {
		if pool[trimmed].residentUntil.After(now) {
			// A lingering direct-exchange producer pins itself (and,
			// conservatively, everything behind it) until its window
			// closes; the prefix resumes trimming afterwards.
			break
		}
		trimmed++
	}
	pool = pool[trimmed:]
	if len(pool) > 0 {
		c.warm[act.spec.Name] = pool[:len(pool)-1]
		return false, c.cfg.WarmStart
	}
	if trimmed > 0 {
		// Drop the drained backing array so it does not pin memory.
		c.warm[act.spec.Name] = nil
	}

	setup = c.cfg.ColdStartBoot
	if !c.pulled[act.img.Name()] {
		c.pulled[act.img.Name()] = true
		pull := time.Duration(float64(act.img.SizeMB()) / pullBandwidthMBps * float64(time.Second))
		setup += pull
		c.cfg.Trace.Emitf(now, trace.KindImagePull, act.img.Name(), "%d MB in %v", act.img.SizeMB(), pull)
	}
	// Cold starts are noisy; add up to 20% deterministic-seeded jitter.
	setup += time.Duration(c.rng.Int63n(int64(setup)/5 + 1))
	return true, setup
}

// Activation returns a snapshot of the activation record for id.
func (c *Controller) Activation(id string) (Activation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.activations[id]
	if !ok {
		return Activation{}, fmt.Errorf("faas: activation %q: %w", id, ErrNoActivation)
	}
	return *rec, nil
}

// Activations returns snapshots of all activations in submit order.
func (c *Controller) Activations() []Activation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Activation, 0, len(c.order))
	for _, id := range c.order {
		// Records aged out by RetainActivations leave gaps in the submit
		// order until the next compaction.
		if rec, ok := c.activations[id]; ok {
			out = append(out, *rec)
		}
	}
	return out
}

// InFlight returns the number of currently running activations.
func (c *Controller) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// Actions lists registered action names, sorted.
func (c *Controller) Actions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.actions))
	for n := range c.actions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
