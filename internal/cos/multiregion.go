package cos

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gowren/internal/vclock"
)

// Multi-region object storage. The paper's executor treats COS as a single
// always-available endpoint; real deployments replicate the data-exchange
// plane across independent failure domains so a regional brownout or
// partition degrades into transient errors instead of lost data. MultiRegion
// is that replication layer: a Client facade over N independent region
// stacks (each typically a Store behind its own netsim link and chaos plan).
//
// Semantics:
//
//   - in the default ReplicationSync mode, writes replicate synchronously to
//     every region and succeed once at least one region accepts them;
//     regions that missed a write are marked stale for that key;
//   - in ReplicationAsync mode, a write acks as soon as one region (the
//     preferred one when reachable) durably accepts it; the remaining
//     regions catch up off the critical path through a bounded in-facade
//     replication queue drained by per-region workers on the virtual clock
//     (see put); deletes always replicate synchronously;
//   - reads try the preferred region first and fail over, in region order,
//     to any region holding the latest version; a read never serves a stale
//     replica;
//   - full-object reads repair stale replicas in passing (read-repair),
//     re-writing the latest bytes through the stale region's own stack so
//     a still-partitioned region simply stays stale;
//   - listings merge the reachable regions, so statuses committed to a
//     healthy region during another region's outage are always visible;
//   - when every region fails an operation, the facade reports
//     ErrRequestFailed — a transient error that routes into the existing
//     retry/recovery machinery, never silent data loss.
//
// Version bookkeeping lives in the facade (the replication control plane);
// object bytes live only in the region stores. Keys written around the
// facade (e.g. datasets seeded directly into one region's Store) have no
// version record and are served from the first region that has them.
type MultiRegion struct {
	// The facade used directly is its own default view — preferred region
	// 0, no home region (client-side traffic, never cross-region) — so its
	// Client methods are the view's and a placement change in the view
	// logic cannot miss one.
	regionView

	regions   []RegionBackend
	mode      ReplicationMode
	clk       vclock.Clock // required in async mode (catch-up workers)
	qlimit    int          // per-region replication queue bound
	redeliver int          // attempts per catch-up task before it is dropped

	mu       sync.Mutex
	latest   map[string]objVersion // object key → latest committed version
	replicas []map[string]uint64   // per-region committed version
	buckets  map[string]bool       // buckets created through the facade

	qmu          sync.Mutex
	queues       [][]repTask // per-region pending catch-up writes
	workers      []bool      // per-region: a drain worker task is running
	redelivering []int       // per-region: tasks waiting out a redelivery backoff

	stats MultiRegionStats
}

// ReplicationMode selects how MultiRegion propagates writes to non-preferred
// regions.
type ReplicationMode int

const (
	// ReplicationSync (the zero value) replicates every write to every
	// region before acking.
	ReplicationSync ReplicationMode = iota
	// ReplicationAsync acks once the primary region durably accepts the
	// write and catches the remaining regions up off the critical path.
	ReplicationAsync
)

// String implements fmt.Stringer.
func (r ReplicationMode) String() string {
	if r == ReplicationAsync {
		return "async"
	}
	return "sync"
}

// repTask is one queued catch-up write: propagate version v of bucket/key to
// a specific region. The task owns a reference to the committed bytes so
// catch-up succeeds even if the primary region is lost before it drains.
type repTask struct {
	bucket, key string
	k           string // objKey(bucket, key)
	v           uint64
	data        []byte
	attempts    int // delivery attempts already spent (see redeliverOrDrop)
}

// DefaultReplicationQueueLimit bounds each region's catch-up queue. A full
// queue backpressures writers (they block on the virtual clock until the
// region's worker drains a slot), so the facade can never buffer unbounded
// bytes.
const DefaultReplicationQueueLimit = 1024

// DefaultReplicationRedeliveryBudget is the delivery attempts each catch-up
// task gets before its replica is declared stale (dropped to read-repair):
// a failed attempt is re-enqueued with exponential backoff until the budget
// is spent.
const DefaultReplicationRedeliveryBudget = 3

// replicationRedeliveryBackoff is the delay before a failed catch-up task's
// first redelivery; it doubles per attempt.
const replicationRedeliveryBackoff = 50 * time.Millisecond

var _ Client = (*MultiRegion)(nil)

// RegionBackend couples a region name with its client stack — typically
// chaos.WrapStorage(NewLinked(store, clk, regionLink), regionPlan), so the
// region has its own network path and its own fault plan.
type RegionBackend struct {
	Name   string
	Client Client
}

type objVersion struct {
	v       uint64
	deleted bool
	// etag is the content ETag of the latest committed version, maintained
	// so conditional puts (PutIf) can compare against the facade's own
	// control plane instead of racing the region stores.
	etag string
}

// MultiRegionStats counts cross-region events. Counters are cumulative and
// safe to read concurrently.
type MultiRegionStats struct {
	// Failovers counts reads served by a non-preferred region because the
	// preferred one was unreachable or stale.
	Failovers atomic.Int64
	// Repairs counts stale replicas brought current by read-repair.
	Repairs atomic.Int64
	// WriteMisses counts per-region write failures that left a replica
	// stale (the write still succeeded elsewhere).
	WriteMisses atomic.Int64
	// CrossRegionReads counts GET/GetRange/Head requests issued through a
	// region view that were served by a region other than the view's home
	// region. CrossRegionReadBytes sums the body bytes of those reads.
	// Merged listings are excluded: a LIST consults every region by design.
	CrossRegionReads     atomic.Int64
	CrossRegionReadBytes atomic.Int64
	// CrossRegionWrites counts per-region object writes that landed in a
	// region other than the issuing view's home region (replica fan-out in
	// sync mode, primary failover in async mode). CrossRegionWriteBytes
	// sums their payloads. Background catch-up and read-repair traffic is
	// not attributed to any home region and is excluded.
	CrossRegionWrites     atomic.Int64
	CrossRegionWriteBytes atomic.Int64
	// AsyncQueued counts catch-up writes enqueued by async-mode puts;
	// AsyncReplicated counts those that landed, AsyncDropped those that
	// exhausted their redelivery budget (the replica stays stale until
	// read-repair finds it), and AsyncSkipped those that were obsolete by
	// the time the worker reached them — superseded by a newer version or
	// already made current by read-repair. AsyncRedelivered counts failed
	// attempts that were re-enqueued with backoff instead of dropped; a
	// redelivered task is not re-counted as queued, so the ledger
	// Queued = Replicated + Dropped + Skipped still closes once drained.
	AsyncQueued      atomic.Int64
	AsyncReplicated  atomic.Int64
	AsyncDropped     atomic.Int64
	AsyncSkipped     atomic.Int64
	AsyncRedelivered atomic.Int64
	// AsyncBackpressure counts puts that had to wait for queue space.
	AsyncBackpressure atomic.Int64
}

// MultiRegionSnapshot is a point-in-time copy of the facade counters.
type MultiRegionSnapshot struct {
	Failovers, Repairs, WriteMisses                                                       int64
	CrossRegionReads, CrossRegionReadBytes                                                int64
	CrossRegionWrites, CrossRegionWriteBytes                                              int64
	AsyncQueued, AsyncReplicated, AsyncDropped, AsyncSkipped, AsyncBackpressure, AsyncLag int64
	AsyncRedelivered                                                                      int64
}

// MultiRegionOption configures a MultiRegion.
type MultiRegionOption func(*MultiRegion)

// WithAsyncReplication switches the facade to ReplicationAsync: puts ack
// after the primary region accepts them and per-region catch-up workers —
// scheduled on clk, so they obey the virtual-clock contract — propagate the
// committed bytes to the remaining regions off the critical path. Each
// region's queue holds at most DefaultReplicationQueueLimit pending writes;
// writers block on the clock while their target queue is full. Deletes and
// bucket operations still replicate synchronously.
func WithAsyncReplication(clk vclock.Clock) MultiRegionOption {
	return func(m *MultiRegion) {
		m.mode = ReplicationAsync
		m.clk = clk
	}
}

// NewMultiRegion builds a facade over the given regions. Region order is
// the default failover order; region 0 is the default preferred region.
// At least one region is required; names must be unique and non-empty.
func NewMultiRegion(regions []RegionBackend, opts ...MultiRegionOption) (*MultiRegion, error) {
	if len(regions) == 0 {
		return nil, errors.New("cos: multi-region facade requires at least one region")
	}
	seen := make(map[string]bool, len(regions))
	for _, r := range regions {
		if r.Name == "" || r.Client == nil {
			return nil, errors.New("cos: region requires a name and a client")
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("cos: duplicate region name %q", r.Name)
		}
		seen[r.Name] = true
	}
	m := &MultiRegion{
		regions:  append([]RegionBackend(nil), regions...),
		latest:   make(map[string]objVersion),
		replicas: make([]map[string]uint64, len(regions)),
		buckets:  make(map[string]bool),
	}
	for i := range m.replicas {
		m.replicas[i] = make(map[string]uint64)
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.mode == ReplicationAsync {
		if m.clk == nil {
			return nil, errors.New("cos: async replication requires a clock")
		}
		m.qlimit = DefaultReplicationQueueLimit
		m.redeliver = DefaultReplicationRedeliveryBudget
		m.queues = make([][]repTask, len(regions))
		m.workers = make([]bool, len(regions))
		m.redelivering = make([]int, len(regions))
	}
	m.regionView = regionView{m: m, pref: 0, home: -1}
	return m, nil
}

// RegionNames returns the region names in failover order.
func (m *MultiRegion) RegionNames() []string {
	names := make([]string, len(m.regions))
	for i, r := range m.regions {
		names[i] = r.Name
	}
	return names
}

// Stats returns a snapshot of the cross-region counters. AsyncLag is the
// number of catch-up writes still queued at snapshot time.
func (m *MultiRegion) Stats() MultiRegionSnapshot {
	return MultiRegionSnapshot{
		Failovers:             m.stats.Failovers.Load(),
		Repairs:               m.stats.Repairs.Load(),
		WriteMisses:           m.stats.WriteMisses.Load(),
		CrossRegionReads:      m.stats.CrossRegionReads.Load(),
		CrossRegionReadBytes:  m.stats.CrossRegionReadBytes.Load(),
		CrossRegionWrites:     m.stats.CrossRegionWrites.Load(),
		CrossRegionWriteBytes: m.stats.CrossRegionWriteBytes.Load(),
		AsyncQueued:           m.stats.AsyncQueued.Load(),
		AsyncReplicated:       m.stats.AsyncReplicated.Load(),
		AsyncDropped:          m.stats.AsyncDropped.Load(),
		AsyncSkipped:          m.stats.AsyncSkipped.Load(),
		AsyncBackpressure:     m.stats.AsyncBackpressure.Load(),
		AsyncRedelivered:      m.stats.AsyncRedelivered.Load(),
		AsyncLag:              m.queueDepth(),
	}
}

// View returns a Client view for a consumer located in region home whose
// reads start at region pref. All views share one version map, so failover
// and read-repair behave identically regardless of entry point. Requests
// the facade ends up serving from (or writing to) a region other than home
// count toward the CrossRegion* counters. Splitting home from pref exists to measure legacy placement —
// a runner executing in one region but still reading through region 0.
func (m *MultiRegion) View(home, pref string) (Client, error) {
	hi, err := m.regionIndex(home)
	if err != nil {
		return nil, err
	}
	pi, err := m.regionIndex(pref)
	if err != nil {
		return nil, err
	}
	return &regionView{m: m, pref: pi, home: hi}, nil
}

func (m *MultiRegion) regionIndex(name string) (int, error) {
	for i, r := range m.regions {
		if r.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("cos: unknown region %q", name)
}

func objKey(bucket, key string) string { return bucket + "\x00" + key }

// order returns region indices to try: pref first, then the rest in region
// order.
func (m *MultiRegion) order(pref int) []int {
	out := make([]int, 0, len(m.regions))
	out = append(out, pref)
	for i := range m.regions {
		if i != pref {
			out = append(out, i)
		}
	}
	return out
}

// transient reports whether err should trigger failover to another region.
func transientRegionErr(err error) bool {
	return errors.Is(err, ErrRequestFailed)
}

// --- writes ---------------------------------------------------------------

// put replicates one write. pref orders the attempts so the preferred
// region's endpoint is tried first; home attributes cross-region traffic
// (-1 for client-side views outside any region). In async mode the write
// acks after the primary region — the first in failover order that accepts
// it — and the rest catch up via the queue, so the ack costs one region's
// round trip instead of all of them; replicas are stale until their catch-up
// write lands (or, if it is dropped, until read-repair finds them).
func (m *MultiRegion) put(home, pref int, bucket, key string, data []byte) (ObjectMeta, error) {
	async := m.mode == ReplicationAsync
	k := objKey(bucket, key)
	m.mu.Lock()
	v := m.latest[k].v + 1
	m.mu.Unlock()

	meta, wrote, err := m.writeRegions("put", home, pref, bucket, key, data, !async)
	if err != nil {
		return ObjectMeta{}, err
	}
	m.mu.Lock()
	if v > m.latest[k].v || m.latest[k].deleted {
		m.latest[k] = objVersion{v: v, etag: meta.ETag}
	}
	m.markWrittenLocked(k, v, wrote)
	m.mu.Unlock()
	if async {
		// The task owns the committed bytes, so catch-up succeeds even if
		// the primary is lost before the queue drains.
		task := repTask{bucket: bucket, key: key, k: k, v: v, data: data}
		for i := range m.regions {
			if i != wrote[0] {
				m.enqueue(i, task)
			}
		}
	}
	return meta, nil
}

// writeRegions is the region fan-out of put and putIf: it writes data to the
// regions in failover order — every one when all is set, else stopping at
// the first that accepts — and returns the first acceptor's metadata and the
// regions written. A region that is unreachable, or that missed the bucket
// creation (it was down when the facade created it), is a write miss: its
// replica is simply stale and read-repair or catch-up recreates bucket and
// object later. Only when no region accepts does the write fail.
func (m *MultiRegion) writeRegions(op string, home, pref int, bucket, key string, data []byte, all bool) (ObjectMeta, []int, error) {
	var (
		meta         ObjectMeta
		lastErr      error
		sawTransient bool
		wrote        []int
	)
	for _, i := range m.order(pref) {
		got, err := m.regions[i].Client.Put(bucket, key, data)
		if err != nil {
			switch {
			case transientRegionErr(err):
				sawTransient = true
			case errors.Is(err, ErrNoSuchBucket):
			default:
				return ObjectMeta{}, nil, err
			}
			m.stats.WriteMisses.Add(1)
			lastErr = err
			continue
		}
		if len(wrote) == 0 {
			meta = got
		}
		m.countCrossWrite(home, i, len(data))
		wrote = append(wrote, i)
		if !all {
			break
		}
	}
	switch {
	case len(wrote) > 0:
		return meta, wrote, nil
	case !sawTransient && lastErr != nil:
		// Every region agrees the bucket does not exist: a real caller
		// error, not an outage.
		return ObjectMeta{}, nil, fmt.Errorf("%s %s/%s: %w", op, bucket, key, lastErr)
	}
	return ObjectMeta{}, nil, fmt.Errorf("cos: %s %s/%s failed in all %d regions: %w", op, bucket, key, len(m.regions), ErrRequestFailed)
}

// markWrittenLocked records that the regions in wrote hold version v of k.
func (m *MultiRegion) markWrittenLocked(k string, v uint64, wrote []int) {
	for _, i := range wrote {
		if m.replicas[i][k] < v {
			m.replicas[i][k] = v
		}
	}
}

// enqueue appends a catch-up task to region i's queue, blocking on the
// clock while the queue is at its bound, and starts a drain worker for the
// region if none is running. Workers are short-lived clock tasks: they
// exit as soon as their queue empties, so an idle facade keeps no tasks
// registered with the virtual clock.
func (m *MultiRegion) enqueue(i int, t repTask) { m.enqueueTask(i, t, false) }

// enqueueTask is enqueue with redelivery bookkeeping: a redelivered task
// was already counted as queued (the ledger tracks logical catch-up writes,
// not attempts) and releases its slot in the pending-redelivery count once
// it is back on the queue.
func (m *MultiRegion) enqueueTask(i int, t repTask, redelivery bool) {
	backpressured := false
	vclock.Poll(m.clk, func() bool {
		m.qmu.Lock()
		defer m.qmu.Unlock()
		if len(m.queues[i]) >= m.qlimit {
			backpressured = true
			return false
		}
		m.queues[i] = append(m.queues[i], t)
		if redelivery {
			m.redelivering[i]--
		} else {
			m.stats.AsyncQueued.Add(1)
		}
		if !m.workers[i] {
			m.workers[i] = true
			m.clk.Go(func() { m.drainRegion(i) })
		}
		return true
	}, time.Millisecond, time.Time{})
	if backpressured {
		m.stats.AsyncBackpressure.Add(1)
	}
}

// drainRegion is region i's catch-up worker: it pops queued writes in FIFO
// order and lands them through the region's own client stack (so its link
// latency and fault plan apply), then exits when the queue is empty. A
// failed attempt is redelivered with backoff until the task's attempt
// budget runs out (see replicate), so a partitioned region can never wedge
// the queue — the task waits out its backoff off-queue, not at its head.
func (m *MultiRegion) drainRegion(i int) {
	for {
		m.qmu.Lock()
		if len(m.queues[i]) == 0 {
			m.workers[i] = false
			m.qmu.Unlock()
			return
		}
		t := m.queues[i][0]
		m.queues[i] = m.queues[i][1:]
		m.qmu.Unlock()
		m.replicate(i, t)
	}
}

// replicate lands one catch-up write in region i. Tasks superseded by a
// newer committed version (or a tombstone) are skipped rather than risk
// writing stale bytes over a newer replica; the newer version's own
// catch-up task covers the region. A failed attempt consumes one unit of
// the task's redelivery budget: the task is re-enqueued after an
// exponential backoff on the clock, and only a task out of budget is
// dropped — declaring the replica stale until read-repair finds it.
func (m *MultiRegion) replicate(i int, t repTask) {
	m.mu.Lock()
	lv := m.latest[t.k]
	stale := lv.v == t.v && !lv.deleted && m.replicas[i][t.k] < t.v
	m.mu.Unlock()
	if !stale {
		m.stats.AsyncSkipped.Add(1)
		return
	}
	landed, err := m.landReplica(i, t.k, t.bucket, t.key, t.data, t.v)
	switch {
	case err != nil:
		m.redeliverOrDrop(i, t)
	case landed:
		m.stats.AsyncReplicated.Add(1)
	default:
		// Superseded while the write was in flight; the newer version's own
		// catch-up (or the delete's tombstone) covers this region.
		m.stats.AsyncSkipped.Add(1)
	}
}

// landReplica writes version v of bucket/key to region i through the
// region's own stack, so its link and fault plan apply. A region that also
// missed the bucket creation gets the bucket first and the object once
// more. It reports whether v was still the latest once the write landed,
// in which case region i is marked current for k.
func (m *MultiRegion) landReplica(i int, k, bucket, key string, data []byte, v uint64) (bool, error) {
	client := m.regions[i].Client
	if _, err := client.Put(bucket, key, data); err != nil {
		if !errors.Is(err, ErrNoSuchBucket) {
			return false, err
		}
		if cerr := client.CreateBucket(bucket); cerr != nil && !errors.Is(cerr, ErrBucketExists) {
			return false, cerr
		}
		if _, err := client.Put(bucket, key, data); err != nil {
			return false, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.latest[k]; cur.v != v || cur.deleted || m.replicas[i][k] >= v {
		return false, nil
	}
	m.replicas[i][k] = v
	return true, nil
}

// redeliverOrDrop handles one failed catch-up attempt for region i: while
// the task has redelivery budget left it is rescheduled after an
// exponential backoff (50ms, 100ms, ... on the virtual clock) by a
// short-lived clock task; out of budget it is dropped and the replica
// declared stale. Every failed attempt counts as a write miss — the
// replica really did stay stale across it.
func (m *MultiRegion) redeliverOrDrop(i int, t repTask) {
	m.stats.WriteMisses.Add(1)
	t.attempts++
	if t.attempts >= m.redeliver {
		m.stats.AsyncDropped.Add(1)
		return
	}
	m.stats.AsyncRedelivered.Add(1)
	backoff := replicationRedeliveryBackoff << (t.attempts - 1)
	m.qmu.Lock()
	m.redelivering[i]++
	m.qmu.Unlock()
	m.clk.Go(func() {
		m.clk.Sleep(backoff)
		m.enqueueTask(i, t, true)
	})
}

// queueDepth returns the number of catch-up writes still queued.
func (m *MultiRegion) queueDepth() int64 {
	if m.mode != ReplicationAsync {
		return 0
	}
	m.qmu.Lock()
	defer m.qmu.Unlock()
	var n int64
	for i := range m.queues {
		n += int64(len(m.queues[i]))
	}
	return n
}

// Drain blocks on the clock until every queued catch-up write has been
// attempted (landed or dropped). Call it before tearing a simulation down
// or before comparing per-region state in tests; a facade in sync mode
// returns immediately. The deadline (zero means none) bounds the wait.
func (m *MultiRegion) Drain(deadline time.Time) bool {
	if m.mode != ReplicationAsync {
		return true
	}
	return vclock.Poll(m.clk, func() bool {
		m.qmu.Lock()
		defer m.qmu.Unlock()
		for i := range m.queues {
			if len(m.queues[i]) > 0 || m.workers[i] || m.redelivering[i] > 0 {
				return false
			}
		}
		return true
	}, time.Millisecond, deadline)
}

// countCrossWrite attributes one landed object write to the issuing view's
// home region. home < 0 (a client-side view) is never cross-region.
func (m *MultiRegion) countCrossWrite(home, region, payload int) {
	if home < 0 || home == region {
		return
	}
	m.stats.CrossRegionWrites.Add(1)
	m.stats.CrossRegionWriteBytes.Add(int64(payload))
}

// countCrossRead attributes one served read to the issuing view's home
// region.
func (m *MultiRegion) countCrossRead(home, region, body int) {
	if home < 0 || home == region {
		return
	}
	m.stats.CrossRegionReads.Add(1)
	m.stats.CrossRegionReadBytes.Add(int64(body))
}

// delete_ tombstones one key across the regions. Regions that miss the
// delete keep stale bytes, which listings and reads filter out through the
// tombstone; the bytes themselves are reclaimed only if the region sees a
// later delete or overwrite.
func (m *MultiRegion) delete_(pref int, bucket, key string) error {
	k := objKey(bucket, key)
	m.mu.Lock()
	v := m.latest[k].v + 1
	m.mu.Unlock()

	var (
		okAny        bool
		lastErr      error
		sawTransient bool
		wrote        []int
	)
	for _, i := range m.order(pref) {
		if err := m.regions[i].Client.Delete(bucket, key); err != nil {
			switch {
			case transientRegionErr(err):
				sawTransient = true
			case errors.Is(err, ErrNoSuchKey) || errors.Is(err, ErrNoSuchBucket):
				// Nothing to delete in this region; the tombstone below
				// hides any stale copy it may grow back via repair races.
				okAny = true
				wrote = append(wrote, i)
				continue
			default:
				return err
			}
			m.stats.WriteMisses.Add(1)
			lastErr = err
			continue
		}
		okAny = true
		wrote = append(wrote, i)
	}
	if !okAny {
		if !sawTransient && lastErr != nil {
			return fmt.Errorf("delete %s/%s: %w", bucket, key, lastErr)
		}
		return fmt.Errorf("cos: delete %s/%s failed in all %d regions: %w", bucket, key, len(m.regions), ErrRequestFailed)
	}
	m.mu.Lock()
	if v > m.latest[k].v {
		m.latest[k] = objVersion{v: v, deleted: true}
	}
	m.markWrittenLocked(k, v, wrote)
	m.mu.Unlock()
	return nil
}

// putIf is the facade's conditional put. The compare and the version claim
// happen atomically under the control-plane lock, so two racing conditional
// puts serialize there: the loser observes the winner's ETag and fails with
// ErrPreconditionFailed before touching any region. The region fan-out then
// proceeds like a sync put at the claimed version (conditional writes are
// coordination records — small, rare, and worth full replication). If no
// region accepts the bytes the claim is rolled back — provided it is still
// the latest — so a transient outage surfaces as a retryable failure
// rather than a committed phantom version. Keys written through putIf
// should be written exclusively through it: an unconditional Put racing a
// conditional one on the same key can interleave version claims.
func (m *MultiRegion) putIf(home, pref int, bucket, key string, data []byte, ifMatch string) (ObjectMeta, error) {
	k := objKey(bucket, key)
	newTag := contentETag(data)
	m.mu.Lock()
	lv, tracked := m.latest[k]
	cur := ""
	if tracked && !lv.deleted {
		cur = lv.etag
	}
	if cur != ifMatch {
		m.mu.Unlock()
		return ObjectMeta{}, fmt.Errorf("put-if %s/%s: have %q want %q: %w", bucket, key, cur, ifMatch, ErrPreconditionFailed)
	}
	v := lv.v + 1
	m.latest[k] = objVersion{v: v, etag: newTag}
	m.mu.Unlock()

	meta, wrote, err := m.writeRegions("put-if", home, pref, bucket, key, data, true)
	if err != nil {
		m.rollbackClaim(k, lv, v, newTag, tracked)
		return ObjectMeta{}, err
	}
	m.mu.Lock()
	m.markWrittenLocked(k, v, wrote)
	m.mu.Unlock()
	return meta, nil
}

// rollbackClaim withdraws a conditional put's version claim after a total
// write failure, but only while the claim is still the latest — a newer
// writer's claim is never disturbed.
func (m *MultiRegion) rollbackClaim(k string, prev objVersion, v uint64, etag string, wasTracked bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.latest[k]; cur.v == v && cur.etag == etag && !cur.deleted {
		if wasTracked {
			m.latest[k] = prev
		} else {
			delete(m.latest, k)
		}
	}
}

// --- reads ----------------------------------------------------------------

// current reports whether region i holds the latest version of k. Untracked
// keys (written around the facade) are current everywhere.
func (m *MultiRegion) current(i int, k string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	lv, tracked := m.latest[k]
	if !tracked {
		return true
	}
	return m.replicas[i][k] == lv.v
}

// tombstoned reports whether k's latest version is a delete.
func (m *MultiRegion) tombstoned(k string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest[k].deleted
}

// getRange serves a ranged read with failover; full reads (offset 0,
// length < 0) repair stale replicas with the bytes just fetched. home
// attributes cross-region reads (-1 for client-side views).
func (m *MultiRegion) getRange(home, pref int, bucket, key string, offset, length int64) ([]byte, ObjectMeta, error) {
	k := objKey(bucket, key)
	if m.tombstoned(k) {
		return nil, ObjectMeta{}, fmt.Errorf("get %s/%s: %w", bucket, key, ErrNoSuchKey)
	}
	var (
		lastErr error
		sawMiss bool
	)
	for n, i := range m.order(pref) {
		if !m.current(i, k) {
			continue // stale replica; never serve it
		}
		data, meta, err := m.regions[i].Client.GetRange(bucket, key, offset, length)
		if err != nil {
			switch {
			case transientRegionErr(err):
				lastErr = err
				continue
			case errors.Is(err, ErrNoSuchKey) || errors.Is(err, ErrNoSuchBucket):
				// Another region may hold the object (seeded around the
				// facade, or this replica lost it); keep looking.
				sawMiss = true
				lastErr = err
				continue
			default:
				return nil, ObjectMeta{}, err
			}
		}
		if n > 0 {
			m.stats.Failovers.Add(1)
		}
		m.countCrossRead(home, i, len(data))
		if offset == 0 && length < 0 {
			m.repair(k, bucket, key, data)
		}
		return data, meta, nil
	}
	if lastErr == nil {
		// Every region skipped as stale: the object exists but no current
		// replica is known — only possible for keys that were never
		// successfully written, so report it as transient.
		lastErr = ErrRequestFailed
	}
	if sawMiss && !transientRegionErr(lastErr) {
		return nil, ObjectMeta{}, fmt.Errorf("get %s/%s: %w", bucket, key, lastErr)
	}
	return nil, ObjectMeta{}, fmt.Errorf("cos: get %s/%s unreachable in all regions: %w", bucket, key, ErrRequestFailed)
}

// repair pushes the latest bytes of k to every stale region. Failures leave
// the replica stale; a later read retries.
func (m *MultiRegion) repair(k, bucket, key string, data []byte) {
	m.mu.Lock()
	lv, tracked := m.latest[k]
	var stale []int
	if tracked && !lv.deleted {
		for i := range m.regions {
			if m.replicas[i][k] != lv.v {
				stale = append(stale, i)
			}
		}
	}
	m.mu.Unlock()
	for _, i := range stale {
		if landed, err := m.landReplica(i, k, bucket, key, data, lv.v); err == nil && landed {
			m.stats.Repairs.Add(1)
		}
	}
}

// head serves metadata with failover, mirroring getRange without a body.
func (m *MultiRegion) head(home, pref int, bucket, key string) (ObjectMeta, error) {
	k := objKey(bucket, key)
	if m.tombstoned(k) {
		return ObjectMeta{}, fmt.Errorf("head %s/%s: %w", bucket, key, ErrNoSuchKey)
	}
	var lastErr error
	for n, i := range m.order(pref) {
		if !m.current(i, k) {
			continue
		}
		meta, err := m.regions[i].Client.Head(bucket, key)
		if err != nil {
			if transientRegionErr(err) || errors.Is(err, ErrNoSuchKey) || errors.Is(err, ErrNoSuchBucket) {
				lastErr = err
				continue
			}
			return ObjectMeta{}, err
		}
		if n > 0 {
			m.stats.Failovers.Add(1)
		}
		m.countCrossRead(home, i, 0)
		return meta, nil
	}
	if lastErr != nil && !transientRegionErr(lastErr) {
		return ObjectMeta{}, fmt.Errorf("head %s/%s: %w", bucket, key, lastErr)
	}
	return ObjectMeta{}, fmt.Errorf("cos: head %s/%s unreachable in all regions: %w", bucket, key, ErrRequestFailed)
}

// list merges the reachable regions' listings into one page, filtering
// tombstoned keys and preferring metadata from a region holding the latest
// version. Statuses committed to a healthy region during another region's
// outage are therefore always visible to pollers.
func (m *MultiRegion) list(pref int, bucket, prefix, marker string, maxKeys int) (ListResult, error) {
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	type entry struct {
		meta    ObjectMeta
		current bool
	}
	var (
		merged     = make(map[string]entry)
		reachable  bool
		sawBucket  bool
		truncated  bool
		fatalMiss  error
		regionList []int
	)
	regionList = m.order(pref)
	for _, i := range regionList {
		page, err := m.regions[i].Client.List(bucket, prefix, marker, maxKeys)
		if err != nil {
			switch {
			case transientRegionErr(err):
				continue
			case errors.Is(err, ErrNoSuchBucket):
				// The region may simply have missed the bucket creation.
				reachable = true
				fatalMiss = err
				continue
			default:
				return ListResult{}, err
			}
		}
		reachable, sawBucket = true, true
		if page.IsTruncated {
			truncated = true
		}
		for _, om := range page.Objects {
			k := objKey(bucket, om.Key)
			if m.tombstoned(k) {
				continue
			}
			cur := m.current(i, k)
			if prev, ok := merged[k]; ok && (prev.current || !cur) {
				continue
			}
			merged[k] = entry{meta: om, current: cur}
		}
	}
	if !reachable {
		return ListResult{}, fmt.Errorf("cos: list %s unreachable in all regions: %w", bucket, ErrRequestFailed)
	}
	if !sawBucket {
		return ListResult{}, fmt.Errorf("list %s: %w", bucket, fatalMiss)
	}
	// objKeys of one bucket share the bucket prefix, so sorting them orders
	// the result by object key — and keeps the merged listing independent
	// of map iteration order.
	var res ListResult
	for i, k := range slices.Sorted(maps.Keys(merged)) {
		if i == maxKeys {
			truncated = true
			break
		}
		res.Objects = append(res.Objects, merged[k].meta)
	}
	if truncated && len(res.Objects) > 0 {
		res.IsTruncated = true
		res.NextMarker = res.Objects[len(res.Objects)-1].Key
	}
	return res, nil
}

// --- buckets --------------------------------------------------------------

func (m *MultiRegion) createBucket(pref int, name string) error {
	var (
		okAny, existed bool
		lastErr        error
	)
	for _, i := range m.order(pref) {
		err := m.regions[i].Client.CreateBucket(name)
		switch {
		case err == nil:
			okAny = true
		case errors.Is(err, ErrBucketExists):
			existed = true
		case transientRegionErr(err):
			lastErr = err
		default:
			return err
		}
	}
	if !okAny && !existed {
		return fmt.Errorf("cos: create bucket %q failed in all regions: %w", name, lastErr)
	}
	m.mu.Lock()
	m.buckets[name] = true
	m.mu.Unlock()
	if !okAny && existed {
		return fmt.Errorf("create bucket %q: %w", name, ErrBucketExists)
	}
	return nil
}

func (m *MultiRegion) deleteBucket(pref int, name string) error {
	var (
		okAny   bool
		lastErr error
	)
	for _, i := range m.order(pref) {
		err := m.regions[i].Client.DeleteBucket(name)
		switch {
		case err == nil:
			okAny = true
		case transientRegionErr(err):
			lastErr = err
		case errors.Is(err, ErrNoSuchBucket):
			// already absent in this region
		default:
			return err
		}
	}
	if !okAny {
		if lastErr == nil {
			return fmt.Errorf("delete bucket %q: %w", name, ErrNoSuchBucket)
		}
		return fmt.Errorf("cos: delete bucket %q failed in all regions: %w", name, lastErr)
	}
	m.mu.Lock()
	delete(m.buckets, name)
	m.mu.Unlock()
	return nil
}

func (m *MultiRegion) bucketExists(pref int, name string) (bool, error) {
	var lastErr error
	for _, i := range m.order(pref) {
		ok, err := m.regions[i].Client.BucketExists(name)
		if err != nil {
			if transientRegionErr(err) {
				lastErr = err
				continue
			}
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	if lastErr != nil {
		return false, fmt.Errorf("cos: bucket-exists %q unreachable: %w", name, ErrRequestFailed)
	}
	return false, nil
}

func (m *MultiRegion) listBuckets(pref int) ([]string, error) {
	var (
		union     = make(map[string]bool)
		reachable bool
	)
	for _, i := range m.order(pref) {
		names, err := m.regions[i].Client.ListBuckets()
		if err != nil {
			if transientRegionErr(err) {
				continue
			}
			return nil, err
		}
		reachable = true
		for _, n := range names {
			union[n] = true
		}
	}
	if !reachable {
		return nil, fmt.Errorf("cos: list buckets unreachable in all regions: %w", ErrRequestFailed)
	}
	out := make([]string, 0, len(union))
	for n := range union {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// --- Client implementation ------------------------------------------------

// regionView is a Client whose reads prefer a specific region and whose
// cross-region traffic is attributed to a home region (-1 for client-side
// views outside any region).
type regionView struct {
	m    *MultiRegion
	pref int
	home int
}

var _ Client = (*regionView)(nil)

// CreateBucket implements Client.
func (v *regionView) CreateBucket(bucket string) error { return v.m.createBucket(v.pref, bucket) }

// DeleteBucket implements Client.
func (v *regionView) DeleteBucket(bucket string) error { return v.m.deleteBucket(v.pref, bucket) }

// BucketExists implements Client.
func (v *regionView) BucketExists(bucket string) (bool, error) {
	return v.m.bucketExists(v.pref, bucket)
}

// Put implements Client.
func (v *regionView) Put(bucket, key string, data []byte) (ObjectMeta, error) {
	return v.m.put(v.home, v.pref, bucket, key, data)
}

// PutIf implements Client; the compare resolves against the facade-wide
// latest version, so fencing works across regions.
func (v *regionView) PutIf(bucket, key string, data []byte, ifMatch string) (ObjectMeta, error) {
	return v.m.putIf(v.home, v.pref, bucket, key, data, ifMatch)
}

// Get implements Client.
func (v *regionView) Get(bucket, key string) ([]byte, ObjectMeta, error) {
	return v.m.getRange(v.home, v.pref, bucket, key, 0, -1)
}

// GetRange implements Client.
func (v *regionView) GetRange(bucket, key string, offset, length int64) ([]byte, ObjectMeta, error) {
	return v.m.getRange(v.home, v.pref, bucket, key, offset, length)
}

// Head implements Client.
func (v *regionView) Head(bucket, key string) (ObjectMeta, error) {
	return v.m.head(v.home, v.pref, bucket, key)
}

// List implements Client.
func (v *regionView) List(bucket, prefix, marker string, maxKeys int) (ListResult, error) {
	return v.m.list(v.pref, bucket, prefix, marker, maxKeys)
}

// ListBuckets implements Client.
func (v *regionView) ListBuckets() ([]string, error) { return v.m.listBuckets(v.pref) }

// Delete implements Client.
func (v *regionView) Delete(bucket, key string) error { return v.m.delete_(v.pref, bucket, key) }
