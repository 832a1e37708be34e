package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"gowren/internal/chaos"
	"gowren/internal/cos"
	"gowren/internal/exchange"
	"gowren/internal/faas"
	"gowren/internal/netsim"
	"gowren/internal/retry"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/vclock"
)

// DefaultMetaBucket holds job payloads, statuses and results unless the
// platform is configured otherwise.
const DefaultMetaBucket = "gowren-meta"

// The in-cloud storage schedule: every request a function, runner, invoker
// or fan-in launcher makes through the platform's storage views is retried
// on ErrRequestFailed up to cloudStorageAttempts tries in all,
// cloudStorageBackoff apart. The datacenter link rarely loses a request;
// what exhausts this is a COS brownout, which the schedule rides out for
// 2.3 s before the call fails and recovery takes over.
//
// The executor storage schedule: every request an executor makes through
// its own view — a driver over its client link, a helper executor built
// inside a function over the platform's view below its retry stage — is
// retried up to executorStorageAttempts tries, executorStorageBackoff apart.
// A lost request on the client's WAN path is back within one backoff; the
// schedule rides out 3.45 s of brownout before the operation fails and the
// caller (a status sweep, recovery, the journal's best effort) takes over.
const (
	cloudStorageAttempts = 24
	cloudStorageBackoff  = 100 * time.Millisecond

	executorStorageAttempts = 24
	executorStorageBackoff  = 150 * time.Millisecond
)

// PlatformConfig assembles a simulated cloud: object store, FaaS controller
// and the in-cloud network path connecting them.
type PlatformConfig struct {
	Clock    vclock.Clock
	Registry *runtime.Registry
	// Store is the object-store engine. Functions and remote invokers see
	// it through CloudLink; executors attach their own views.
	Store *cos.Store
	// Backend, when non-nil, replaces Store as the storage plane seen by
	// functions and executors — typically a cos.MultiRegion facade whose
	// region stacks already charge their own links and fault plans, so no
	// additional CloudLink charge is layered on top. Store is still
	// required: it remains the raw engine for bucket bootstrap and for
	// tests that seed data directly.
	Backend cos.Client
	// CloudLink is the in-datacenter network path (functions ↔ COS,
	// invoker ↔ controller). Nil uses netsim.InCloud with Seed.
	CloudLink *netsim.Link
	// Seed feeds default link models and the controller PRNG.
	Seed int64
	// Trace, when non-nil, records platform events for inspection.
	Trace *trace.Recorder
	// Chaos, when non-nil, schedules correlated fault windows on the
	// virtual clock: COS brownouts degrade the in-cloud storage view,
	// controller outages reject invocations with 429s, and slow-container
	// windows stretch activation jitter. Nil disables fault injection.
	Chaos *chaos.Plan
	// RegionZeroPlacement restores the legacy behaviour on a multi-region
	// Backend: calls are still assigned a region (so cross-region traffic
	// is measurable) but every function keeps reading and writing through
	// region 0's view. The zero value — region-aware placement, functions
	// use their own region's view — is the default.
	RegionZeroPlacement bool

	// ExchangeCacheBytes bounds the memory-tier exchange cache node; zero
	// selects exchange.DefaultCacheCapacity.
	ExchangeCacheBytes int64

	// FaaS platform knobs, forwarded to faas.Config.
	MaxConcurrent int
	// Admission configures the gate in front of the controller:
	// per-tenant token buckets, deficit-weighted round-robin over bounded
	// queues, deadline shedding. Nil is one tenant, no queue: a full
	// platform answers ErrThrottled.
	Admission     *faas.AdmissionConfig
	AdmitOverhead time.Duration
	ExecJitter    netsim.LatencyModel
	CrashProb     float64
	ColdStartBoot time.Duration
	WarmStart     time.Duration
}

// Platform is the wired simulated cloud. One Platform hosts any number of
// executors (remote clients and in-cloud sub-executors alike).
type Platform struct {
	clock        vclock.Clock
	registry     *runtime.Registry
	backend      cos.Client
	controller   *faas.Controller
	cloudStorage cos.Client
	// cloudBase is cloudStorage below its retry stage: the chaos-wrapped
	// in-cloud view that helper executors put their own retry stage on.
	cloudBase cos.Client
	cloudLink *netsim.Link
	seed      int64
	chaos     *chaos.Plan
	trace     *trace.Recorder
	exchange  *exchange.Fabric

	// multi is the Backend downcast to the multi-region facade (nil on
	// single-region platforms); regionNames caches its region order for
	// placement hashing, and regionZero pins function views to region 0.
	multi       *cos.MultiRegion
	regionNames []string
	regionZero  bool

	// regionViews caches the per-region storage stacks handed to placed
	// functions, one per region name (built lazily under viewMu).
	viewMu      sync.Mutex
	regionViews map[string]regionView

	// fnLaunchRetry backs fan-in launches (closeFanIn): reducers and the
	// groups of remote invokers alike. A launcher holds a concurrency slot
	// while it asks for more; waiting out a full platform from there can
	// wedge a small cloud with every slot held by a function waiting for a
	// slot. So it retries only briefly and leaves what it could not start to
	// the driver, which waits without holding anything. In-cloud storage
	// needs no retrier of its own: cloudStorage and the region views retry
	// in their cos.Stack (cloudStorageAttempts).
	fnLaunchRetry *retry.Retrier

	// sweeps is the sweep hub of the executors over the platform's own
	// client storage (Config.SharePolls), built over the first one's view.
	sweepsOnce sync.Once
	sweeps     *sweepHub

	// execSeq numbers executors per platform so their derived PRNG seeds
	// are reproducible run to run (the process-global ID counter is not).
	execSeq atomic.Int64

	mu       sync.Mutex
	deployed map[string]string // image name → runner action name
}

// NewPlatform wires a Platform from cfg, creating the meta bucket and the
// remote invoker action, and installing the composability hook that gives
// every function a spawner backed by an in-cloud executor.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.Clock == nil || cfg.Registry == nil || cfg.Store == nil {
		return nil, errors.New("core: platform requires clock, registry and store")
	}
	cloudLink := cfg.CloudLink
	if cloudLink == nil {
		cloudLink = netsim.InCloud(cfg.Seed)
	}
	// Functions see storage through the in-cloud link with the in-cloud
	// retry schedule. A chaos plan slots in below the retry stage, so
	// brownout failures look exactly like ordinary transient request
	// failures to every consumer. A multi-region backend carries its own
	// per-region links and plans and is used as-is.
	backend := cos.Client(cfg.Store)
	if cfg.Backend != nil {
		backend = cfg.Backend
	}
	inner := backend
	if cfg.Backend == nil {
		inner = cos.NewLinked(cfg.Store, cfg.Clock, cloudLink)
	}
	cloudBase := chaos.WrapStorage(inner, cfg.Chaos)
	cloudStorage := cos.Client(cos.NewRetrying(cloudBase, cfg.Clock, cloudStorageAttempts, cloudStorageBackoff))

	var outage func() bool
	var slowFactor func() float64
	if cfg.Chaos != nil {
		outage = cfg.Chaos.ControllerDown
		slowFactor = cfg.Chaos.ExecFactor
	}
	ctrl, err := faas.New(faas.Config{
		Clock:         cfg.Clock,
		Registry:      cfg.Registry,
		Storage:       cloudStorage,
		Trace:         cfg.Trace,
		MaxConcurrent: cfg.MaxConcurrent,
		Admission:     cfg.Admission,
		AdmitOverhead: cfg.AdmitOverhead,
		ExecJitter:    cfg.ExecJitter,
		CrashProb:     cfg.CrashProb,
		ColdStartBoot: cfg.ColdStartBoot,
		WarmStart:     cfg.WarmStart,
		Seed:          cfg.Seed,
		Outage:        outage,
		SlowFactor:    slowFactor,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build controller: %w", err)
	}

	p := &Platform{
		clock:        cfg.Clock,
		registry:     cfg.Registry,
		backend:      backend,
		controller:   ctrl,
		cloudStorage: cloudStorage,
		cloudBase:    cloudBase,
		cloudLink:    cloudLink,
		seed:         cfg.Seed,
		chaos:        cfg.Chaos,
		trace:        cfg.Trace,
		regionZero:   cfg.RegionZeroPlacement,
		regionViews:  make(map[string]regionView),
		deployed:     make(map[string]string),
	}
	if multi, ok := backend.(*cos.MultiRegion); ok {
		p.multi = multi
		p.regionNames = multi.RegionNames()
	}
	p.fnLaunchRetry = retry.New(cfg.Clock, retry.Policy{
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  200 * time.Millisecond,
		Multiplier:  2,
	}, retryableCall)

	// The exchange fabric is always wired (selection is per shuffle stage):
	// its two links get dedicated seed offsets so adding fast-tier traffic
	// never perturbs the draws of the main cloud link, and its chaos probes
	// come from the same plan as everything else. Evicted cache entries
	// spill to COS asynchronously via the platform's storage stack.
	var cacheDown, peerLost func() bool
	if cfg.Chaos != nil {
		cacheDown = cfg.Chaos.CacheDown
		peerLost = cfg.Chaos.PeerLost
	}
	fabric, err := exchange.NewFabric(exchange.Config{
		Clock:         cfg.Clock,
		CacheLink:     netsim.MemoryTier(cfg.Seed + 21),
		PeerLink:      netsim.PeerToPeer(cfg.Seed + 22),
		CacheCapacity: cfg.ExchangeCacheBytes,
		CacheDown:     cacheDown,
		PeerLost:      peerLost,
		Spill:         p.spillShuffleObject,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build exchange fabric: %w", err)
	}
	p.exchange = fabric

	if err := cfg.Store.CreateBucket(DefaultMetaBucket); err != nil && !errors.Is(err, cos.ErrBucketExists) {
		return nil, fmt.Errorf("core: create meta bucket: %w", err)
	}

	ctrl.SetSpawnerFactory(func(ctx *runtime.Ctx) runtime.Spawner {
		image := ""
		if img := ctx.Image(); img != nil {
			image = img.Name()
		}
		return &spawner{platform: p, image: image, deadline: ctx.Deadline()}
	})
	return p, nil
}

// Clock returns the simulation clock.
func (p *Platform) Clock() vclock.Clock { return p.clock }

// Controller returns the FaaS controller.
func (p *Platform) Controller() *faas.Controller { return p.controller }

// Backend returns the storage plane behind every view: the configured
// multi-region facade when one is wired, otherwise the raw store.
func (p *Platform) Backend() cos.Client { return p.backend }

// CloudLink returns the in-datacenter link profile.
func (p *Platform) CloudLink() *netsim.Link { return p.cloudLink }

// MetaBucket returns the job-metadata bucket name.
func (p *Platform) MetaBucket() string { return DefaultMetaBucket }

// Seed returns the platform seed, used to derive per-executor PRNG streams.
func (p *Platform) Seed() int64 { return p.seed }

// nextExecutorSeed derives a fresh deterministic PRNG seed for the next
// executor created against this platform.
func (p *Platform) nextExecutorSeed() int64 {
	return p.seed + p.execSeq.Add(1)*1000003
}

// Exchange returns the fast-tier data-exchange fabric.
func (p *Platform) Exchange() *exchange.Fabric { return p.exchange }

// ExchangeOps returns the fabric-wide exchange accounting snapshot, the
// fast-tier analogue of Executor.StorageOps.
func (p *Platform) ExchangeOps() exchange.OpCounts { return p.exchange.Counts() }

// spillShuffleObject is the write-back path of the memory-tier cache: an
// evicted shuffle partition becomes a COS object under its canonical
// shuffle key, so reducers that miss the cache find it on the baseline
// path. It runs as its own clock task, off the evicting writer's critical
// path, and retries transient failures like any in-cloud storage consumer.
func (p *Platform) spillShuffleObject(key string, data []byte) {
	_, err := p.cloudStorage.Put(DefaultMetaBucket, key, data)
	if p.trace != nil {
		if err != nil {
			p.trace.Emitf(p.clock.Now(), trace.KindExchange, "exchange-cache",
				"spill key=%s bytes=%d failed: %v", key, len(data), err)
		} else {
			p.trace.Emitf(p.clock.Now(), trace.KindExchange, "exchange-cache",
				"spill key=%s bytes=%d", key, len(data))
		}
	}
}

// runnerActionName is the platform action executing staged calls for image.
func runnerActionName(image string) string { return "gowren-runner--" + image }

// invokerActionName is the massive-spawning helper action for image. The
// runner serves it; the separate name keeps invokers out of the runner's
// activation counts.
func invokerActionName(image string) string { return "gowren-invoker--" + image }

// EnsureRuntime deploys the runner and invoker actions for image if not yet
// present — one handler, runnerHandler, serves both — returning the runner
// action name. It corresponds to IBM Cloud Functions pulling a runtime image
// the first time a function uses it.
func (p *Platform) EnsureRuntime(image string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if name, ok := p.deployed[image]; ok {
		return name, nil
	}
	if _, err := p.registry.Pull(image); err != nil {
		return "", fmt.Errorf("core: deploy runtime: %w", err)
	}
	runner := runnerActionName(image)
	if err := p.controller.CreateAction(faas.ActionSpec{
		Name:    runner,
		Image:   image,
		Handler: p.runnerHandler(),
	}); err != nil {
		return "", fmt.Errorf("core: deploy runner for %s: %w", image, err)
	}
	if err := p.controller.CreateAction(faas.ActionSpec{
		Name:    invokerActionName(image),
		Image:   image,
		Handler: p.runnerHandler(),
	}); err != nil {
		return "", fmt.Errorf("core: deploy invoker for %s: %w", image, err)
	}
	p.deployed[image] = runner
	return runner, nil
}

// inCloudExecutor returns a helper executor that runs inside the datacenter,
// for a caller executing in region (empty outside multi-region platforms):
// it talks to storage through that region's view, or the default in-cloud
// view, and to the controller over the cloud link. Its spawned calls are
// admitted under tenant's fair-share quota. The executor puts its own retry
// stage on the view, so it is handed the view below the platform's: one
// retry stage per request, as for every other executor.
func (p *Platform) inCloudExecutor(image, region, tenant string) (*Executor, error) {
	storage := p.cloudBase
	if v, ok := p.viewIn(region); ok {
		storage = v.base
	}
	return NewExecutor(Config{
		Platform:     p,
		Storage:      storage,
		ControlLink:  p.cloudLink,
		RuntimeImage: image,
		Tenant:       tenant,
		// Helper executors (composition spawners) live and die with a
		// parent call; their jobs are not independently resumable and must
		// not write manifests or contend for driver leases.
		DisableJournal: true,
	})
}

// PlaceCall assigns a call to a storage region by hashing its call ID with
// the platform seed. Executor identity deliberately stays out of the hash:
// executor IDs come from a process-global counter, so including them would
// make placement — and therefore the whole simulation — depend on how many
// executors earlier tests created. Hashing only stable inputs keeps a
// job's placement reproducible run to run and across respawns of the same
// call. Single-region platforms place nothing (empty string).
func (p *Platform) PlaceCall(callID string) string {
	if len(p.regionNames) == 0 {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", p.seed, callID)
	return p.regionNames[int(h.Sum64()%uint64(len(p.regionNames)))]
}

// regionView is a region's in-cloud storage view at two heights: base is the
// facade view behind the chaos wrapper, storage the same behind the in-cloud
// retry stage.
type regionView struct {
	base, storage cos.Client
}

// viewIn returns the storage stacks a function placed in region uses:
// the region's facade view (home = region; preferred = region, or region 0
// under legacy placement) behind the same chaos wrapper and retry layer as
// the default in-cloud view. It reports false — caller keeps the default
// view — for an empty or unknown region or a single-region platform.
func (p *Platform) viewIn(region string) (regionView, bool) {
	if region == "" || p.multi == nil {
		return regionView{}, false
	}
	p.viewMu.Lock()
	defer p.viewMu.Unlock()
	if v, ok := p.regionViews[region]; ok {
		return v, true
	}
	pref := region
	if p.regionZero {
		pref = p.regionNames[0]
	}
	view, err := p.multi.View(region, pref)
	if err != nil {
		return regionView{}, false
	}
	base := chaos.WrapStorage(view, p.chaos)
	v := regionView{base: base, storage: cos.NewRetrying(base, p.clock, cloudStorageAttempts, cloudStorageBackoff)}
	p.regionViews[region] = v
	return v, true
}

// placementFor derives the execution context and spawner for a call placed
// in a region and/or owned by a tenant: storage becomes the region's view
// and spawned children inherit both the placement and the tenant. Unplaced
// default-tenant calls keep their context.
func (p *Platform) placementFor(ctx *runtime.Ctx, region, tenant string) *runtime.Ctx {
	v, ok := p.viewIn(region)
	storage := v.storage
	if !ok {
		// Not (or not successfully) region-placed: the context keeps the
		// default storage view and stays unplaced; only a tenant still
		// needs a derived spawner so children inherit its quota.
		region = ""
		if tenant == "" {
			return ctx
		}
	}
	image := ""
	if img := ctx.Image(); img != nil {
		image = img.Name()
	}
	sp := &spawner{platform: p, image: image, deadline: ctx.Deadline(), region: region, tenant: tenant}
	return ctx.WithPlacement(storage, sp)
}
