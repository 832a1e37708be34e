// Package exchange is the fast tier of the shuffle data plane: two
// selectable transports that keep MapReduce intermediates off the object
// store. The memory-tier Cache models an ephemeral Redis-like node inside
// the datacenter — bounded capacity, size-aware LRU eviction with
// spill-to-COS, GET/PUT/DEL charged over a netsim link. Peers models
// direct function-to-function transfer: a map activation advertises its
// partitions and lingers for a bounded window while reducers pull straight
// from it over in-cloud links.
//
// Neither transport is durable, and that is the point: every failure mode
// (node killed, entry evicted, peer gone or expired) surfaces as an error
// the shuffle runners translate into a transparent fall back to the COS
// baseline — a COS poll for spilled/fallback objects, then recomputation
// from the staged call payload. Jobs never depend on the fast tier for
// correctness, only for speed.
package exchange

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

// Sentinel errors the shuffle runners branch on when degrading to COS.
var (
	// ErrUnavailable means the node did not answer (killed by chaos, or a
	// transient link failure). Contents may be gone.
	ErrUnavailable = errors.New("exchange: node unavailable")
	// ErrNotFound means the node answered but has no such partition
	// (evicted, flushed, or never written).
	ErrNotFound = errors.New("exchange: partition not found")
	// ErrTooLarge means the entry exceeds the cache's total capacity and
	// was refused outright.
	ErrTooLarge = errors.New("exchange: entry larger than cache capacity")
	// ErrPeerLost means the producing activation was killed while
	// lingering (chaos ExchangePeerLoss).
	ErrPeerLost = errors.New("exchange: lingering peer lost")
	// ErrExpired means the producer's linger window closed before the
	// pull arrived.
	ErrExpired = errors.New("exchange: peer advertisement expired")
)

// TransportCounts is a point-in-time snapshot of one transport's traffic,
// the exchange-tier analogue of cos.OpCounts: requests as they hit the
// simulated wire, plus hit/miss/fallback outcomes.
type TransportCounts struct {
	PutOps    int64 // writes / publishes accepted by the tier
	GetOps    int64 // reads / pulls attempted against the tier
	BytesIn   int64 // bytes written into the tier
	BytesOut  int64 // bytes served by the tier
	Hits      int64 // reads answered from the tier
	Misses    int64 // reads the tier could not answer
	Fallbacks int64 // ops the shuffle rerouted to the COS baseline
}

// transportCounters is the live, concurrently-updated form.
type transportCounters struct {
	putOps, getOps          atomic.Int64
	bytesIn, bytesOut       atomic.Int64
	hits, misses, fallbacks atomic.Int64
}

func (c *transportCounters) snapshot() TransportCounts {
	return TransportCounts{
		PutOps:    c.putOps.Load(),
		GetOps:    c.getOps.Load(),
		BytesIn:   c.bytesIn.Load(),
		BytesOut:  c.bytesOut.Load(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Fallbacks: c.fallbacks.Load(),
	}
}

// OpCounts is the fabric-wide accounting snapshot surfaced through
// Platform.ExchangeOps: per-transport traffic plus the cache's lifecycle
// counters. Benchmarks report these instead of inferring savings.
type OpCounts struct {
	Memory TransportCounts
	Direct TransportCounts

	// Evictions counts cache entries displaced by LRU pressure; Spills
	// and SpillBytes count the async COS backups those evictions
	// scheduled. Flushed counts entries lost outright to a cache kill
	// (no spill — the node's memory is gone). Expired counts peer
	// advertisements that aged out of their linger window.
	Evictions  int64
	Spills     int64
	SpillBytes int64
	Flushed    int64
	Expired    int64
}

// Cache is the ephemeral memory-tier exchange node on the virtual clock.
// Every operation pays one request on the node's netsim link (latency +
// bandwidth) before touching the store, exactly like cos.Stack's link stage
// charges the COS path. The down probe is consulted per request: while it reports
// true the node is dead — requests fail with ErrUnavailable and the
// first such observation drops the node's entire contents, so it comes
// back empty, never stale.
type Cache struct {
	clk      vclock.Clock
	link     *netsim.Link
	capacity int64
	down     func() bool
	spill    func(key string, data []byte)

	mu      sync.Mutex
	used    int64
	lru     *list.List // front = most recently used
	entries map[string]*list.Element

	counts     transportCounters
	evictions  atomic.Int64
	spills     atomic.Int64
	spillBytes atomic.Int64
	flushed    atomic.Int64
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCache returns a cache of capacityBytes. down and spill may be nil
// (never down; evictions discard instead of spilling). spill runs as its
// own clock task, off the writer's critical path.
func NewCache(clk vclock.Clock, link *netsim.Link, capacityBytes int64, down func() bool, spill func(key string, data []byte)) (*Cache, error) {
	if clk == nil || link == nil {
		return nil, fmt.Errorf("exchange: cache requires a clock and a link")
	}
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("exchange: cache capacity %d must be positive", capacityBytes)
	}
	return &Cache{
		clk:      clk,
		link:     link,
		capacity: capacityBytes,
		down:     down,
		spill:    spill,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}, nil
}

// charge pays one request carrying payloadBytes on the node's link and
// reports whether the request failed in flight.
func (c *Cache) charge(payloadBytes int64) bool {
	d, fail := c.link.RequestCost(payloadBytes)
	c.clk.Sleep(d)
	return fail
}

// isDown consults the kill probe and, on the first observation of a dead
// node, drops its contents: a killed cache restarts empty.
func (c *Cache) isDown() bool {
	if c.down == nil || !c.down() {
		return false
	}
	c.mu.Lock()
	if n := len(c.entries); n > 0 {
		c.lru.Init()
		c.entries = make(map[string]*list.Element)
		c.used = 0
		c.flushed.Add(int64(n))
	}
	c.mu.Unlock()
	return true
}

// Put stores data under key, evicting least-recently-used entries until it
// fits. Evicted entries are handed to the spill hook asynchronously.
func (c *Cache) Put(key string, data []byte) error {
	if c.charge(int64(len(data))) {
		return ErrUnavailable
	}
	if c.isDown() {
		return ErrUnavailable
	}
	if int64(len(data)) > c.capacity {
		return ErrTooLarge
	}
	c.counts.putOps.Add(1)
	c.counts.bytesIn.Add(int64(len(data)))
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.used += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
		c.used += int64(len(data))
	}
	var evicted []*cacheEntry
	for c.used > c.capacity {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.used -= int64(len(e.data))
		evicted = append(evicted, e)
	}
	c.mu.Unlock()
	for _, e := range evicted {
		c.evictions.Add(1)
		if c.spill == nil {
			continue
		}
		c.spills.Add(1)
		c.spillBytes.Add(int64(len(e.data)))
		e := e
		c.clk.Go(func() { c.spill(e.key, e.data) })
	}
	return nil
}

// Get returns the entry under key, refreshing its recency.
func (c *Cache) Get(key string) ([]byte, error) {
	c.counts.getOps.Add(1)
	if c.isDown() {
		c.charge(0)
		c.counts.misses.Add(1)
		return nil, ErrUnavailable
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	var data []byte
	if ok {
		data = el.Value.(*cacheEntry).data
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if c.charge(int64(len(data))) {
		c.counts.misses.Add(1)
		return nil, ErrUnavailable
	}
	if !ok {
		c.counts.misses.Add(1)
		return nil, ErrNotFound
	}
	c.counts.hits.Add(1)
	c.counts.bytesOut.Add(int64(len(data)))
	return data, nil
}

// Peers is the direct-transfer registry: partitions a lingering map
// activation is serving, keyed by (executor, call). Publish is free — the
// advertisement rides the producer's status record — while every Pull pays
// one request on the peer-to-peer link. Entries age out after the linger
// window; the lost probe models the producing container being killed,
// which drops every advertised partition at once.
type Peers struct {
	clk    vclock.Clock
	link   *netsim.Link
	linger time.Duration
	lost   func() bool

	mu      sync.Mutex
	entries map[string]*peerEntry
	order   []string // publish order == expiry order (constant linger)

	counts  transportCounters
	expired atomic.Int64
	dropped atomic.Int64
}

type peerEntry struct {
	parts   [][]byte
	expires time.Time
}

// NewPeers returns a registry whose advertisements live for linger.
func NewPeers(clk vclock.Clock, link *netsim.Link, linger time.Duration, lost func() bool) (*Peers, error) {
	if clk == nil || link == nil {
		return nil, fmt.Errorf("exchange: peers require a clock and a link")
	}
	if linger <= 0 {
		return nil, fmt.Errorf("exchange: linger window %v must be positive", linger)
	}
	return &Peers{
		clk:     clk,
		link:    link,
		linger:  linger,
		lost:    lost,
		entries: make(map[string]*peerEntry),
	}, nil
}

func peerKey(execID, callID string) string { return execID + "/" + callID }

// isLost consults the peer-kill probe and, while it reports true, drops
// every advertisement: the lingering containers are gone.
func (p *Peers) isLost() bool {
	if p.lost == nil || !p.lost() {
		return false
	}
	p.mu.Lock()
	if n := len(p.entries); n > 0 {
		p.entries = make(map[string]*peerEntry)
		p.order = p.order[:0]
		p.dropped.Add(int64(n))
	}
	p.mu.Unlock()
	return true
}

// Publish advertises the partitions of one map call, partition index ==
// reducer index, and returns the instant the advertisement (and the
// producing container) expires. Re-publishing the same call — a respawned
// producer — replaces the previous advertisement.
func (p *Peers) Publish(execID, callID string, parts [][]byte) (time.Time, error) {
	if p.isLost() {
		return time.Time{}, ErrPeerLost
	}
	var total int64
	for _, part := range parts {
		total += int64(len(part))
	}
	p.counts.putOps.Add(1)
	p.counts.bytesIn.Add(total)
	now := p.clk.Now()
	expires := now.Add(p.linger)
	p.mu.Lock()
	// Expire from the front of the publish-order queue; constant linger
	// keeps it sorted by expiry, so this is O(expired), not O(entries).
	for len(p.order) > 0 {
		head := p.order[0]
		e, ok := p.entries[head]
		if ok && !now.After(e.expires) {
			break
		}
		if ok {
			delete(p.entries, head)
			p.expired.Add(1)
		}
		p.order = p.order[1:]
	}
	key := peerKey(execID, callID)
	p.entries[key] = &peerEntry{parts: parts, expires: expires}
	p.order = append(p.order, key)
	p.mu.Unlock()
	return expires, nil
}

// Pull fetches partition reducer of the given map call straight from its
// lingering producer.
func (p *Peers) Pull(execID, callID string, reducer int) ([]byte, error) {
	p.counts.getOps.Add(1)
	if p.isLost() {
		p.charge(0)
		p.counts.misses.Add(1)
		return nil, ErrPeerLost
	}
	now := p.clk.Now()
	p.mu.Lock()
	key := peerKey(execID, callID)
	e, ok := p.entries[key]
	var data []byte
	var wasExpired bool
	if ok && now.After(e.expires) {
		delete(p.entries, key)
		p.expired.Add(1)
		ok, wasExpired = false, true
	}
	if ok && reducer >= 0 && reducer < len(e.parts) {
		data = e.parts[reducer]
	} else {
		ok = false
	}
	p.mu.Unlock()
	if p.charge(int64(len(data))) {
		p.counts.misses.Add(1)
		return nil, ErrUnavailable
	}
	if !ok {
		p.counts.misses.Add(1)
		if wasExpired {
			return nil, ErrExpired
		}
		return nil, ErrNotFound
	}
	p.counts.hits.Add(1)
	p.counts.bytesOut.Add(int64(len(data)))
	return data, nil
}

func (p *Peers) charge(payloadBytes int64) bool {
	d, fail := p.link.RequestCost(payloadBytes)
	p.clk.Sleep(d)
	return fail
}

// Config wires a Fabric.
type Config struct {
	Clock vclock.Clock
	// CacheLink and PeerLink carry memory-tier and direct-transfer
	// traffic respectively.
	CacheLink *netsim.Link
	PeerLink  *netsim.Link
	// CacheCapacity bounds the memory-tier node; zero selects 256 MiB.
	CacheCapacity int64
	// CacheDown and PeerLost are the chaos probes; nil means never.
	CacheDown func() bool
	PeerLost  func() bool
	// Spill receives evicted cache entries for the async COS backup.
	Spill func(key string, data []byte)
}

// Fabric bundles the two fast-tier transports behind one wiring point and
// aggregates their accounting.
type Fabric struct {
	Cache *Cache
	Peers *Peers

	spanMu sync.Mutex
	spans  ShuffleSpans
}

// DefaultCacheCapacity is the memory-tier node size when unconfigured.
const DefaultCacheCapacity int64 = 256 << 20

// DefaultLinger is how long a direct-transport producer stays resident to
// serve pulls.
const DefaultLinger = 30 * time.Second

// NewFabric validates cfg, applies defaults and returns the fabric.
func NewFabric(cfg Config) (*Fabric, error) {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	cache, err := NewCache(cfg.Clock, cfg.CacheLink, cfg.CacheCapacity, cfg.CacheDown, cfg.Spill)
	if err != nil {
		return nil, err
	}
	peers, err := NewPeers(cfg.Clock, cfg.PeerLink, DefaultLinger, cfg.PeerLost)
	if err != nil {
		return nil, err
	}
	return &Fabric{Cache: cache, Peers: peers}, nil
}

// NoteFallback records that a shuffle op on the named transport was
// rerouted to the COS baseline (wire.ExchangeMemory / wire.ExchangeDirect;
// other names are ignored).
func (f *Fabric) NoteFallback(transport string) {
	switch transport {
	case "memory":
		f.Cache.counts.fallbacks.Add(1)
	case "direct":
		f.Peers.counts.fallbacks.Add(1)
	}
}

// Counts returns the fabric-wide accounting snapshot.
func (f *Fabric) Counts() OpCounts {
	return OpCounts{
		Memory:     f.Cache.counts.snapshot(),
		Direct:     f.Peers.counts.snapshot(),
		Evictions:  f.Cache.evictions.Load(),
		Spills:     f.Cache.spills.Load(),
		SpillBytes: f.Cache.spillBytes.Load(),
		Flushed:    f.Cache.flushed.Load(),
		Expired:    f.Peers.expired.Load() + f.Peers.dropped.Load(),
	}
}

// ShuffleSpans captures the data-plane windows of shuffle traffic since
// the last Reset: the envelope of map-side partition writes and of
// reduce-side partition reads, on the simulation clock. Benchmarks use
// Write+Read as the shuffle makespan — the time actually spent moving
// intermediate bytes — excluding the status-sweep coordination gap between
// the phases, which is identical across transports.
type ShuffleSpans struct {
	WriteStart, WriteEnd time.Time
	ReadStart, ReadEnd   time.Time
}

// Write returns the map-side envelope duration.
func (s ShuffleSpans) Write() time.Duration {
	if s.WriteStart.IsZero() {
		return 0
	}
	return s.WriteEnd.Sub(s.WriteStart)
}

// Read returns the reduce-side envelope duration.
func (s ShuffleSpans) Read() time.Duration {
	if s.ReadStart.IsZero() {
		return 0
	}
	return s.ReadEnd.Sub(s.ReadStart)
}

// NoteWrite folds one map-side partition write window into the envelope.
// All transports report here, COS included, so A/B comparisons measure the
// same thing.
func (f *Fabric) NoteWrite(start, end time.Time) {
	f.spanMu.Lock()
	if f.spans.WriteStart.IsZero() || start.Before(f.spans.WriteStart) {
		f.spans.WriteStart = start
	}
	if end.After(f.spans.WriteEnd) {
		f.spans.WriteEnd = end
	}
	f.spanMu.Unlock()
}

// NoteRead folds one reduce-side partition fetch window into the envelope.
func (f *Fabric) NoteRead(start, end time.Time) {
	f.spanMu.Lock()
	if f.spans.ReadStart.IsZero() || start.Before(f.spans.ReadStart) {
		f.spans.ReadStart = start
	}
	if end.After(f.spans.ReadEnd) {
		f.spans.ReadEnd = end
	}
	f.spanMu.Unlock()
}

// ResetSpans clears the envelopes before a measured run.
func (f *Fabric) ResetSpans() {
	f.spanMu.Lock()
	f.spans = ShuffleSpans{}
	f.spanMu.Unlock()
}

// Spans returns the current envelopes.
func (f *Fabric) Spans() ShuffleSpans {
	f.spanMu.Lock()
	defer f.spanMu.Unlock()
	return f.spans
}
