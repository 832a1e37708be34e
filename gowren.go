// Package gowren is a Go reproduction of IBM-PyWren, the serverless
// data-analytics framework of "Serverless Data Analytics in the IBM Cloud"
// (Sampé, Vernik, Sánchez-Artigas, García-López — Middleware Industry 2018).
//
// It provides the paper's programming model — an executor with CallAsync,
// Map, MapReduce, Wait and GetResult (Table 2) — together with the cloud it
// needs to run on: a from-scratch simulation of IBM Cloud Object Storage
// and IBM Cloud Functions (Apache OpenWhisk), including data discovery and
// partitioning, custom Docker-style runtimes, dynamic function composition,
// and the massive-function-spawning mechanism of §5.1.
//
// The simulated cloud runs either in real time (examples, interactive use)
// or on a discrete-event virtual clock that lets experiments execute
// thousands of concurrent multi-minute functions in milliseconds of wall
// time — which is how the repository regenerates every figure and table of
// the paper's evaluation (see EXPERIMENTS.md).
//
// A minimal program, mirroring the paper's Fig. 1:
//
//	img := gowren.NewImage("quickstart:1", 0)
//	gowren.RegisterFunc(img, "my_function", func(_ *gowren.Ctx, x int) (int, error) {
//		return x + 7, nil
//	})
//	cloud, _ := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}})
//	cloud.Run(func() {
//		exec, _ := cloud.Executor(gowren.WithRuntime("quickstart:1"))
//		exec.Map("my_function", 3, 6, 9)
//		results, _ := gowren.Results[int](exec)
//		fmt.Println(results) // [10 13 16]
//	})
package gowren

import (
	"errors"
	"fmt"
	"time"

	"gowren/internal/chaos"
	"gowren/internal/core"
	"gowren/internal/cos"
	"gowren/internal/exchange"
	"gowren/internal/faas"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Re-exported building blocks. The aliases keep one set of concrete types
// across the public API and the internal engine.
type (
	// Ctx is the execution context passed to user functions.
	Ctx = runtime.Ctx
	// Image is a runtime image bundling registered user functions.
	Image = runtime.Image
	// PartitionReader gives map functions ranged access to their data
	// partition.
	PartitionReader = runtime.PartitionReader
	// Future tracks one asynchronous call.
	Future = core.Future
	// DataSource describes map_reduce input data.
	DataSource = core.DataSource
	// Clock abstracts simulated or wall-clock time.
	Clock = vclock.Clock
	// FuturesRef is a dynamic-composition continuation: return one from a
	// registered function (via Spawn or Chain) and GetResult follows it.
	FuturesRef = wire.FuturesRef
)

// Wait strategies for Executor.Wait (paper §4.2).
const (
	WaitAlways       = core.WaitAlways
	WaitAnyCompleted = core.WaitAnyCompleted
	WaitAllCompleted = core.WaitAllCompleted
)

// Chaos fault-plan building blocks (see internal/chaos): a SimConfig.Chaos
// schedule of time-windowed correlated faults driven by the simulation
// clock.
type (
	// ChaosFault is one scheduled fault window.
	ChaosFault = chaos.Fault
	// ChaosKind names a fault type.
	ChaosKind = chaos.Kind
)

// Chaos fault kinds.
const (
	// ChaosCOSBrownout makes storage requests fail with elevated
	// probability during the window.
	ChaosCOSBrownout = chaos.COSBrownout
	// ChaosControllerOutage makes the FaaS gateway reject invocations
	// with 429s during the window.
	ChaosControllerOutage = chaos.ControllerOutage
	// ChaosSlowContainers multiplies activation jitter during the window.
	ChaosSlowContainers = chaos.SlowContainers
	// ChaosExchangeCacheDown kills the memory-tier exchange cache during
	// the window: fast-tier shuffle ops fail, the node's contents are
	// lost, and shuffles degrade to the COS baseline.
	ChaosExchangeCacheDown = chaos.ExchangeCacheDown
	// ChaosExchangePeerLoss kills lingering direct-exchange peers during
	// the window: partition pulls fail and reducers fall back to
	// COS/recomputation.
	ChaosExchangePeerLoss = chaos.ExchangePeerLoss
	// ChaosLauncherKill kills the container of a call at the moment it
	// would launch a downstream stage (its status committed, the stage's
	// fan-in marker claimed, no invocation sent); the driver's backstop
	// launches the stage instead.
	ChaosLauncherKill = chaos.LauncherKill
)

// Shuffle exchange transports for ShuffleOptions.Exchange (see DESIGN.md,
// "Data exchange tiers"): COS is the default and correctness baseline; the
// fast tiers keep intermediates off the object store and degrade back to
// it transparently on any loss.
const (
	// ExchangeCOS stages every shuffle partition as a COS object.
	ExchangeCOS = wire.ExchangeCOS
	// ExchangeMemory stages partitions in the ephemeral memory-tier cache
	// node (LRU, spill-to-COS on eviction).
	ExchangeMemory = wire.ExchangeMemory
	// ExchangeDirect serves partitions straight from the producing map
	// activation while it lingers.
	ExchangeDirect = wire.ExchangeDirect
)

// Exchange-tier accounting snapshots, the fast-tier analogue of
// Executor.StorageOps (see Cloud.ExchangeOps).
type (
	// ExchangeOpCounts aggregates per-transport exchange traffic plus
	// cache lifecycle counters (evictions, spills, kills, expiries).
	ExchangeOpCounts = exchange.OpCounts
	// ExchangeTransportCounts is one transport's op/byte/outcome counters.
	ExchangeTransportCounts = exchange.TransportCounts
)

// Multi-tenant admission building blocks (see DESIGN.md, "Admission &
// fairness"): SimConfig.Admission arms the controller's tenant-aware gate,
// WithTenant attributes an executor's invocations to a tenant.
type (
	// TenantQuota is one tenant's admission contract: sustained rate,
	// burst, and fair-share weight.
	TenantQuota = faas.TenantQuota
	// AdmissionConfig configures the tenant-aware admission layer:
	// per-tenant token buckets feeding a deficit-weighted round-robin
	// over bounded queues, with deadline-based shedding.
	AdmissionConfig = faas.AdmissionConfig
)

// DefaultTenant is the tenant name invocations fall under when no
// WithTenant option names one.
const DefaultTenant = faas.DefaultTenant

// Admission-layer rejections, re-exported for errors.Is against call and
// GetResult errors.
var (
	// ErrThrottled marks a 429 from the global concurrency gate.
	ErrThrottled = faas.ErrThrottled
	// ErrQuotaExceeded marks an invocation rejected because its tenant is
	// over its token-bucket rate quota.
	ErrQuotaExceeded = faas.ErrQuotaExceeded
	// ErrShed marks an invocation dropped by overload protection: a full
	// admission queue, or queueing past the admission deadline.
	ErrShed = faas.ErrShed
)

// ReplicationMode selects how a multi-region cloud propagates writes (see
// DESIGN.md, "Replication modes").
type ReplicationMode = cos.ReplicationMode

// MultiRegionSnapshot is a point-in-time copy of the multi-region facade's
// counters (failovers, read-repairs, cross-region traffic, async-replication
// queue activity), as returned by Cloud.MultiRegion().Stats().
type MultiRegionSnapshot = cos.MultiRegionSnapshot

const (
	// ReplicationSync acks a PUT only after every reachable region has the
	// object — the strongest durability, paid for on the write critical
	// path. The default.
	ReplicationSync = cos.ReplicationSync
	// ReplicationAsync acks a PUT as soon as the preferred region durably
	// accepts it; replica fan-out happens off the critical path through a
	// bounded catch-up queue, with versioned failover and read-repair as
	// the backstop (a stale replica is never served as current).
	ReplicationAsync = cos.ReplicationAsync
)

// LinkPhase is one scripted WAN degradation window on a network link
// (latency inflation, brownout, or full partition), driven by the
// simulation clock. Use it in RegionSpec.Degrade to script a region's
// network weather.
type LinkPhase = netsim.Phase

// RegionSpec describes one region of a multi-region COS deployment
// (SimConfig.Regions). Each region is an independent failure domain: its
// own store, its own network path, its own fault plan.
type RegionSpec struct {
	// Name identifies the region (e.g. "us-south"); required and unique.
	Name string
	// Chaos schedules fault windows on this region's storage stack only;
	// windows are relative to cloud creation. Only storage-affecting kinds
	// matter here (ChaosCOSBrownout).
	Chaos []ChaosFault
	// Degrade schedules network degradation windows on this region's
	// path: latency inflation, failure-probability floors, and full
	// partitions. Windows are relative to cloud creation.
	Degrade []LinkPhase
}

// Failure-handling errors, re-exported for errors.Is against GetResult and
// Wait results.
var (
	// ErrCallFailed marks a function call that failed permanently.
	ErrCallFailed = core.ErrCallFailed
	// ErrWaitTimeout marks a wait that hit its deadline.
	ErrWaitTimeout = core.ErrWaitTimeout
	// ErrFenced marks a job-state mutation (Respawn, dead-letter replay)
	// rejected because a newer driver attached to the job and bumped the
	// lease epoch in its manifest, or a first launch on a job ID another
	// driver already claimed. The superseded driver may keep reading
	// results.
	ErrFenced = core.ErrFenced
)

// JobInfo summarizes one durable job manifest, as returned by
// Cloud.ListJobs: identity, runtime, and the driver lease the manifest
// carries, which the orphan GC keys on.
type JobInfo = core.JobInfo

// DefaultRuntime is the stock runtime image name.
const DefaultRuntime = runtime.DefaultImage

// NewImage creates a runtime image; sizeMB models the Docker image size
// (zero selects a typical default). Register functions on it, then pass it
// to NewSimCloud (the analogue of pushing to Docker Hub).
func NewImage(name string, sizeMB int) *Image { return runtime.NewImage(name, sizeMB) }

// SimConfig configures a simulated cloud.
type SimConfig struct {
	// RealTime runs the cloud on the wall clock instead of the virtual
	// clock. Use it for interactive examples; experiments use virtual
	// time.
	RealTime bool
	// TimeScale accelerates a RealTime cloud: model costs (cold starts,
	// compute charges) elapse TimeScale× faster than the wall clock while
	// remaining realistic in reported durations. Zero or one keeps true
	// wall speed. Ignored in virtual-time mode.
	TimeScale float64
	// Images are published to the runtime registry. An image named
	// DefaultRuntime becomes the stock runtime; otherwise an empty stock
	// image is created.
	Images []*Image
	// Seed drives every random model in the simulation.
	Seed int64
	// MaxConcurrent is the platform's concurrent-invocation limit
	// (default 1000, as in the paper; negative = unlimited).
	MaxConcurrent int
	// Admission configures the gate in front of the controller:
	// per-tenant token buckets (sustained rate + burst) feed a
	// deficit-weighted round-robin over bounded per-tenant queues, with
	// deadline-based shedding. MaxConcurrent remains the global capacity
	// underneath. Nil is the paper's platform — one tenant, no queue: a
	// full platform answers ErrThrottled.
	Admission *AdmissionConfig
	// Jitter enables per-activation platform noise (the paper's Fig. 3
	// variability). Off by default for deterministic unit use.
	Jitter bool
	// JitterSigma overrides the lognormal sigma of the platform noise
	// (default 0.8 with a 5 s cap). Values above 1 produce the
	// heavy-tailed straggler distributions that speculative execution
	// targets; the cap is lifted to 8 minutes — below the 600 s platform
	// timeout, so a straggler is slow rather than killed.
	JitterSigma float64
	// CrashProb is the probability an activation's container dies
	// mid-execution with no status committed (paper §3 failure model).
	// Zero disables crashes; failure-injection tests and chaos runs set
	// it. Crashed calls are detected client-side from activation records
	// and recovered automatically by GetResult (see RecoveryOptions).
	CrashProb float64
	// Chaos schedules deterministic fault windows on the simulation
	// clock: COS brownouts, controller outages, slow-container windows.
	// Start/End are relative to the cloud's creation time. Empty disables
	// fault injection.
	Chaos []ChaosFault
	// Regions, when non-empty, replaces the single object store with a
	// multi-region COS deployment: every bucket is replicated across all
	// listed regions, each an independent failure domain with its own
	// network path, fault plan, and scripted degradation windows. Reads
	// fail over between regions transparently and stale replicas are
	// read-repaired on the next full read. See DESIGN.md, "Failure
	// domains".
	Regions []RegionSpec
	// Replication selects sync (default) or async write propagation across
	// Regions. Ignored for single-region clouds.
	//
	//gowren:allow reach — TestRegionAsyncPartitionCompletesAndRepairs is async replication's only end-to-end check until bench/ has a regions workload
	Replication ReplicationMode
	// RegionZeroPlacement restores the legacy placement policy: in-cloud
	// functions read and write through the first region regardless of
	// where their call was placed. By default calls are spread across
	// regions by a seeded hash and each function uses its own region's
	// view, which removes almost all cross-region traffic (see
	// DESIGN.md, "Replication modes").
	RegionZeroPlacement bool
	// TraceCapacity, when positive, enables the platform flight recorder
	// with a ring of that many events (see Cloud.Trace).
	TraceCapacity int
	// ExchangeCacheMB bounds the memory-tier exchange cache node used by
	// ShuffleOptions.Exchange = ExchangeMemory (zero selects 256 MB).
	// Overfilling it evicts least-recently-used partitions, which spill to
	// COS asynchronously.
	ExchangeCacheMB int
}

// Cloud is a wired simulated cloud: object store, FaaS platform and
// clock. Create executors against it with Executor.
type Cloud struct {
	clock    vclock.Clock
	virtual  *vclock.Virtual // nil in real-time mode
	registry *runtime.Registry
	store    *cos.Store
	platform *core.Platform
	recorder *trace.Recorder
	seed     int64
	chaos    *chaos.Plan
	multi    *cos.MultiRegion // nil for single-region clouds
}

// NewSimCloud builds a simulated cloud from cfg.
func NewSimCloud(cfg SimConfig) (*Cloud, error) {
	var (
		clk     vclock.Clock
		virtual *vclock.Virtual
	)
	if cfg.RealTime {
		clk = vclock.NewScaled(max(cfg.TimeScale, 1))
	} else {
		virtual = vclock.NewVirtual()
		clk = virtual
	}

	registry := runtime.NewRegistry()
	haveDefault := false
	for _, img := range cfg.Images {
		if img.Name() == DefaultRuntime {
			haveDefault = true
		}
		if err := registry.Publish(img); err != nil {
			return nil, fmt.Errorf("gowren: publish image %s: %w", img.Name(), err)
		}
	}
	if !haveDefault {
		if err := registry.Publish(runtime.NewImage(DefaultRuntime, 0)); err != nil {
			return nil, err
		}
	}

	var recorder *trace.Recorder
	if cfg.TraceCapacity > 0 {
		recorder = trace.New(cfg.TraceCapacity)
	}
	var plan *chaos.Plan
	if len(cfg.Chaos) > 0 {
		var err error
		plan, err = chaos.NewPlan(clk, cfg.Seed, cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("gowren: chaos plan: %w", err)
		}
	}

	// Storage plane: a single in-cloud store, or — when Regions are
	// configured — one independent store per region behind a replicating
	// facade with transparent failover.
	store := cos.NewStore()
	var multi *cos.MultiRegion
	if len(cfg.Regions) > 0 {
		backends := make([]cos.RegionBackend, len(cfg.Regions))
		for i, r := range cfg.Regions {
			if r.Name == "" {
				return nil, fmt.Errorf("gowren: region %d has no name", i)
			}
			rs := cos.NewStore()
			// The meta bucket must exist in every region before the
			// platform starts; create it on the raw engine so no link time
			// is charged outside a simulation task.
			if err := rs.CreateBucket(core.DefaultMetaBucket); err != nil {
				return nil, fmt.Errorf("gowren: region %s: %w", r.Name, err)
			}
			// Each region gets its own datacenter path with a distinct
			// seed, so degradation and jitter are uncorrelated across
			// failure domains.
			link := netsim.InCloud(cfg.Seed + 10 + int64(i))
			if len(r.Degrade) > 0 {
				sched, err := netsim.NewSchedule(clk, r.Degrade)
				if err != nil {
					return nil, fmt.Errorf("gowren: region %s degradation: %w", r.Name, err)
				}
				link.SetSchedule(sched)
			}
			var rplan *chaos.Plan
			if len(r.Chaos) > 0 {
				var err error
				rplan, err = chaos.NewPlan(clk, cfg.Seed+100+int64(i), r.Chaos)
				if err != nil {
					return nil, fmt.Errorf("gowren: region %s chaos plan: %w", r.Name, err)
				}
			}
			backends[i] = cos.RegionBackend{
				Name:   r.Name,
				Client: chaos.WrapStorage(cos.NewLinked(rs, clk, link), rplan),
			}
			if i == 0 {
				store = rs // Cloud.Store() seeds datasets into the first region
			}
		}
		var mopts []cos.MultiRegionOption
		if cfg.Replication == ReplicationAsync {
			mopts = append(mopts, cos.WithAsyncReplication(clk))
		}
		var err error
		multi, err = cos.NewMultiRegion(backends, mopts...)
		if err != nil {
			return nil, fmt.Errorf("gowren: %w", err)
		}
	}

	pcfg := core.PlatformConfig{
		Clock:              clk,
		Registry:           registry,
		Store:              store,
		Seed:               cfg.Seed,
		MaxConcurrent:      cfg.MaxConcurrent,
		Admission:          cfg.Admission,
		CrashProb:          cfg.CrashProb,
		Trace:              recorder,
		Chaos:              plan,
		ExchangeCacheBytes: int64(cfg.ExchangeCacheMB) << 20,
	}
	if multi != nil {
		pcfg.Backend = multi
		pcfg.RegionZeroPlacement = cfg.RegionZeroPlacement
	}
	if cfg.Jitter {
		sigma, cap := 0.8, 5*time.Second
		if cfg.JitterSigma > 0 {
			sigma = cfg.JitterSigma
			if sigma > 1 {
				cap = 8 * time.Minute
			}
		}
		pcfg.ExecJitter = netsim.LogNormal{Median: 300 * time.Millisecond, Sigma: sigma, Cap: cap}
	}
	if cfg.RealTime {
		// Scale platform costs down so interactive runs stay snappy while
		// preserving cold/warm ordering.
		pcfg.AdmitOverhead = 200 * time.Microsecond
		pcfg.ColdStartBoot = 5 * time.Millisecond
		pcfg.WarmStart = 500 * time.Microsecond
		pcfg.CloudLink = netsim.Loopback()
	}
	platform, err := core.NewPlatform(pcfg)
	if err != nil {
		return nil, err
	}
	return &Cloud{
		clock:    clk,
		virtual:  virtual,
		registry: registry,
		store:    store,
		platform: platform,
		recorder: recorder,
		seed:     cfg.Seed,
		chaos:    plan,
		multi:    multi,
	}, nil
}

// Run executes fn inside the simulation: on a virtual clock it becomes the
// root task and Run returns when fn and everything it spawned finish; in
// real-time mode fn just runs. All Cloud/Executor calls must happen inside
// Run (or inside tasks it spawns via Go).
func (c *Cloud) Run(fn func()) {
	if c.virtual != nil {
		c.virtual.Run(fn)
		return
	}
	fn()
}

// Go starts fn as a simulation task (usable from inside Run).
func (c *Cloud) Go(fn func()) { c.clock.Go(fn) }

// Clock returns the cloud's clock.
func (c *Cloud) Clock() Clock { return c.clock }

// Store returns the raw object-store engine, for seeding datasets. On a
// multi-region cloud it is the first region's engine; reads through the
// facade find directly-seeded objects there via failover.
func (c *Cloud) Store() *cos.Store { return c.store }

// MultiRegion returns the replicating storage facade, or nil when
// SimConfig.Regions was empty. Its Stats report failovers, read-repairs
// and write misses observed so far.
func (c *Cloud) MultiRegion() *cos.MultiRegion { return c.multi }

// Platform exposes the wired core platform for advanced integrations and
// the experiment harnesses.
func (c *Cloud) Platform() *core.Platform { return c.platform }

// Trace returns the platform flight recorder, or nil when SimConfig did not
// enable one.
func (c *Cloud) Trace() *trace.Recorder { return c.recorder }

// ExchangeOps returns the fast-tier exchange accounting snapshot: per-
// transport GET/PUT ops, bytes and hit/miss/fallback outcomes, plus cache
// evictions, spills and kill losses. The fast-tier analogue of
// Executor.StorageOps.
func (c *Cloud) ExchangeOps() ExchangeOpCounts { return c.platform.ExchangeOps() }

// ClientProfile selects the network position of an executor's client.
type ClientProfile int

const (
	// ClientInCloud places the client inside the datacenter (e.g. a
	// Watson Studio notebook, as in the paper's §6.4 use case).
	ClientInCloud ClientProfile = iota + 1
	// ClientWAN places the client in a remote high-latency network — the
	// paper's laptop client (§6).
	ClientWAN
	// ClientLoopback removes network costs entirely (unit tests).
	ClientLoopback
)

// ExecutorOption customizes an executor.
type ExecutorOption func(*executorSettings)

type executorSettings struct {
	runtime        string
	tenant         string
	profile        ClientProfile
	massive        bool
	spawnGroup     int
	invokeConc     int
	stageConc      int
	clientOverhead time.Duration
	pollInterval   time.Duration
	storage        cos.Client
}

// WithRuntime selects the runtime image, as in
// pw.ibm_cf_executor(runtime='matplotlib').
func WithRuntime(name string) ExecutorOption {
	return func(s *executorSettings) { s.runtime = name }
}

// WithTenant attributes the executor's invocations to a platform tenant:
// under SimConfig.Admission they are admitted against that tenant's rate
// quota and fair-share weight, and activation records carry the tenant for
// per-tenant billing rollups. The tenant travels in every staged payload,
// so respawns, remote invokers and dynamic compositions inherit it. Empty
// (or unset) means DefaultTenant.
func WithTenant(name string) ExecutorOption {
	return func(s *executorSettings) { s.tenant = name }
}

// WithClientProfile positions the client on the network.
func WithClientProfile(p ClientProfile) ExecutorOption {
	return func(s *executorSettings) { s.profile = p }
}

// WithMassiveSpawning enables the remote-invoker mechanism with the given
// group size (0 = the paper's 100).
func WithMassiveSpawning(groupSize int) ExecutorOption {
	return func(s *executorSettings) {
		s.massive = true
		s.spawnGroup = groupSize
	}
}

// WithInvokeConcurrency sets the client invocation thread-pool size.
func WithInvokeConcurrency(n int) ExecutorOption {
	return func(s *executorSettings) { s.invokeConc = n }
}

// WithStageConcurrency sets the upload/download pool size.
func WithStageConcurrency(n int) ExecutorOption {
	return func(s *executorSettings) { s.stageConc = n }
}

// WithClientOverhead models serialized per-invocation client work (the
// Python GIL effect of §5.1).
func WithClientOverhead(d time.Duration) ExecutorOption {
	return func(s *executorSettings) { s.clientOverhead = d }
}

// WithPollInterval sets the status polling granularity.
func WithPollInterval(d time.Duration) ExecutorOption {
	return func(s *executorSettings) { s.pollInterval = d }
}

// WithStorage overrides the executor's object-storage client entirely —
// e.g. a cos.HTTPClient for a store served over HTTP. The client profile
// then affects only the invocation-API path.
func WithStorage(client cos.Client) ExecutorOption {
	return func(s *executorSettings) { s.storage = client }
}

// Executor creates an executor against this cloud — the analogue of
// pw.ibm_cf_executor(). The default client profile is in-cloud with no
// massive spawning.
func (c *Cloud) Executor(opts ...ExecutorOption) (*Executor, error) {
	cfg, err := c.executorConfig(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewExecutor(cfg)
	if err != nil {
		return nil, err
	}
	return &Executor{inner: inner, clock: c.clock}, nil
}

// Attach rebuilds the executor of a crashed or abandoned driver from the
// job's durable manifest and journal: futures are reconstructed, in-flight
// activations adopted, orphaned calls respawned, and the driver lease in
// the manifest is taken over with a bumped fencing epoch — so if the
// previous driver is in fact still alive, its next mutation fails with
// ErrFenced. Wait and GetResult on the returned executor continue where
// the dead driver left off. Executor options configure the new driver's own client (profile,
// concurrency, retries); the runtime comes from the manifest.
func (c *Cloud) Attach(jobID string, opts ...ExecutorOption) (*Executor, error) {
	cfg, err := c.executorConfig(opts)
	if err != nil {
		return nil, err
	}
	inner, err := core.AttachExecutor(cfg, jobID)
	if err != nil {
		return nil, err
	}
	return &Executor{inner: inner, clock: c.clock}, nil
}

// ListJobs lists the durable job manifests in the meta bucket — every job
// whose driver journaled, whether finished, abandoned, or still driven —
// with the driver lease each carries. Use it to find a job ID to Attach to.
func (c *Cloud) ListJobs() ([]JobInfo, error) {
	return core.ListJobs(c.platform.Backend(), c.platform.MetaBucket())
}

// CleanAbandoned garbage-collects jobs nobody resumed: every job whose
// driver lease was last renewed at least ttl ago is deleted — payloads,
// statuses, results, journal, and the manifest that held the lease. It
// returns the removed job IDs. Live drivers renew their leases while
// waiting, so a generous ttl (minutes and up) never collects a driven job.
func (c *Cloud) CleanAbandoned(ttl time.Duration) ([]string, error) {
	return core.CleanAbandoned(c.platform.Backend(), c.clock, c.platform.MetaBucket(), ttl)
}

// executorConfig assembles the core executor config shared by Executor and
// Attach: network links per client profile, the storage stack, and tuning
// knobs.
func (c *Cloud) executorConfig(opts []ExecutorOption) (core.Config, error) {
	s := executorSettings{profile: ClientInCloud}
	for _, opt := range opts {
		opt(&s)
	}

	var controlLink, storageLink *netsim.Link
	switch s.profile {
	case ClientWAN:
		// The Cloud Functions API gateway and the COS endpoints are
		// distinct paths with distinct costs (netsim.WAN vs
		// netsim.WANStorage).
		controlLink = netsim.WAN(c.seed + 1)
		storageLink = netsim.WANStorage(c.seed + 2)
	case ClientInCloud:
		// The invoke path gets its own stream: sharing the one every
		// activation's storage requests draw from would let the number of
		// in-cloud requests reorder client invocations at the controller.
		controlLink = c.platform.CloudLink().Fork(c.seed + 3)
		storageLink = c.platform.CloudLink()
	case ClientLoopback:
		controlLink = netsim.Loopback()
		storageLink = netsim.Loopback()
	default:
		return core.Config{}, fmt.Errorf("gowren: unknown client profile %d", int(s.profile))
	}

	storage := s.storage
	if storage == nil {
		// The client's own path to storage: the single store, or the
		// multi-region facade. Each region charges its own link below the
		// facade; storageLink here is the client-to-frontend hop.
		backend := cos.Client(c.store)
		if c.multi != nil {
			backend = c.multi
		}
		// A COS brownout degrades the service itself, so the client's view
		// is chaos-wrapped exactly like the in-cloud one (below the
		// executor's retry layer).
		storage = chaos.WrapStorage(cos.NewLinked(backend, c.clock, storageLink), c.chaos)
	}
	return core.Config{
		Platform:          c.platform,
		Storage:           storage,
		ControlLink:       controlLink,
		RuntimeImage:      s.runtime,
		Tenant:            s.tenant,
		InvokeConcurrency: s.invokeConc,
		StageConcurrency:  s.stageConc,
		ClientOverhead:    s.clientOverhead,
		MassiveSpawning:   s.massive,
		SpawnGroupSize:    s.spawnGroup,
		PollInterval:      s.pollInterval,
		SharePolls:        s.storage == nil,
	}, nil
}

// ErrNoResults is returned by typed result helpers when no calls were made.
var ErrNoResults = errors.New("gowren: no results")
