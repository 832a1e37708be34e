package cos

import (
	"errors"
	"sync/atomic"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/retry"
	"gowren/internal/vclock"
)

// Stack is the one request path in front of a backend Client. It implements
// the client surface once; every request goes through do, which runs the
// stages that are switched on around the backend call in a fixed order,
// retry → count → fault → link → backend:
//
//   - retry re-issues a request that failed with the transient
//     ErrRequestFailed, as storage SDKs do (NewRetrying);
//   - count keeps per-consumer request counters (NewCounting); below retry,
//     so it counts attempts — requests on the wire;
//   - fault fails the request with ErrRequestFailed when a hook says so
//     (NewFaulty; chaos.WrapStorage passes a plan's brownout draw);
//   - link charges the request on a network link — RTT plus transfer time
//     for the bytes moved — and may lose it (NewLinked). One Store viewed
//     through different links, the executor's WAN path and the functions'
//     in-cloud path, reproduces the client-location effects of §5.1.
//
// Every consumer wants this order: an injected fault must look like an
// ordinary transient failure to retry, and every stage that can fail a
// request does so before the backend mutates anything, so a failed write
// never committed and is safe to retry. Constructors compose by wrapping,
// and one whose stage sits above everything its argument already runs joins
// that argument: NewRetrying(NewCounting(NewFaulty(NewLinked(store, …), …)),
// …) is one Stack and one do per request.
type Stack struct {
	inner Client
	top   stage // the outermost stage switched on

	retr   *retry.Retrier // retry stage; nil means a single attempt
	counts *opCounters    // count stage; nil means off
	fault  func() bool    // fault stage; nil means off
	link   *netsim.Link   // link stage, charged on clk; nil means off
	clk    vclock.Clock
}

var _ Client = (*Stack)(nil)

// WatcherOf returns the Store whose Watch sees c's commits: c itself, or
// the backend behind c's Stack stages, and nil when there is none — an
// HTTPClient or a MultiRegion facade commits somewhere a process cannot
// watch. A watch found through a Stack skips its stages: a watched commit,
// and the body it delivers, are neither a request nor charged on a link,
// which is why waiters use one only on wall-clock-driven clocks.
func WatcherOf(c Client) *Store {
	for {
		switch v := c.(type) {
		case *Store:
			return v
		case *Stack:
			c = v.inner
		default:
			return nil
		}
	}
}

// stage names a stage by its place in the order, outermost first.
type stage int

const (
	stageRetry stage = iota
	stageCount
	stageFault
	stageLink
)

// below returns the Stack a constructor switches stage st on in: a copy of
// inner when inner is a Stack running only stages below st — the fixed order
// is then exactly the wrapping the caller asked for — and a fresh Stack
// around inner otherwise.
func below(st stage, inner Client) *Stack {
	if s, ok := inner.(*Stack); ok && s.top > st {
		c := *s
		c.top = st
		return &c
	}
	return &Stack{inner: inner, top: st}
}

// NewLinked returns a view of inner charged on link using clk.
func NewLinked(inner Client, clk vclock.Clock, link *netsim.Link) *Stack {
	s := below(stageLink, inner)
	s.clk, s.link = clk, link
	return s
}

// NewFaulty returns a view of inner in which a request fails with
// ErrRequestFailed, before reaching inner, whenever fail reports true. fail
// is called once per request and must be safe for concurrent use.
func NewFaulty(inner Client, fail func() bool) *Stack {
	s := below(stageFault, inner)
	s.fault = fail
	return s
}

// NewCounting returns a view of inner that counts every request passing
// through it, including the objects returned by LIST pages. It is the
// client-side twin of Store.Stats: where the store counts what the service
// served, this counts what one consumer asked for — an executor exposes its
// view through Executor.StorageOps. Built under a retry stage it counts
// attempts; built over one, logical operations.
func NewCounting(inner Client) *Stack {
	s := below(stageCount, inner)
	s.counts = new(opCounters)
	return s
}

// NewRetrying returns a view of inner that retries requests failing with the
// simulated transient error ErrRequestFailed, up to attempts total tries
// separated by a fixed backoff; every other error passes through on the
// first observation. The caller names the whole schedule: attempts must be
// at least 1 (1 disables retries) and backoff positive. Callers needing
// exponential or jittered schedules build a retry.Retrier directly.
func NewRetrying(inner Client, clk vclock.Clock, attempts int, backoff time.Duration) *Stack {
	if attempts < 1 || backoff <= 0 {
		panic("cos: NewRetrying needs attempts >= 1 and a positive backoff")
	}
	s := below(stageRetry, inner)
	s.retr = retry.New(clk, retry.Policy{
		MaxAttempts: attempts,
		BaseBackoff: backoff,
		MaxBackoff:  backoff,
		Multiplier:  1, // fixed spacing, as storage SDKs default to
	}, Retryable)
	return s
}

// Retryable reports whether a storage error is worth another try: only the
// simulated transient request failure is.
func Retryable(err error) bool { return errors.Is(err, ErrRequestFailed) }

// opKind is what the stages need to know about a request: which counter it
// bumps, and whether its bytes move before the backend call or after it.
type opKind int

const (
	opBucket opKind = iota // create / delete / exists / list buckets
	opPut                  // Put and PutIf
	opGet                  // Get and GetRange
	opHead
	opList
	opDelete
	numOpKinds
)

type opCounters struct {
	ops           [numOpKinds]atomic.Int64
	objectsListed atomic.Int64
	bytesOut      atomic.Int64
	bytesIn       atomic.Int64
}

// OpCounts is a point-in-time snapshot of a counting view's counters.
type OpCounts struct {
	// PutOps..DeleteOps count object-level requests; conditional puts count
	// as puts.
	PutOps, GetOps, HeadOps, ListOps, DeleteOps int64
	// BucketOps counts bucket-level requests (create/delete/exists/list).
	BucketOps int64
	// ObjectsListed is the total number of object entries returned across
	// every LIST page — the quantity an incremental sweep keeps O(new
	// completions) where a full re-list pays O(total) per poll.
	ObjectsListed int64
	// BytesOut is the total payload bytes sent in PUT requests; BytesIn is
	// the total body bytes received from successful GET/GetRange responses.
	// Listing and metadata traffic is not included — the counters track
	// object data moved, the quantity a placement change shifts between
	// regions.
	BytesOut, BytesIn int64
}

// Counts returns a snapshot of the count stage's counters (zero when the
// stage is off).
func (s *Stack) Counts() OpCounts {
	c := s.counts
	if c == nil {
		return OpCounts{}
	}
	return OpCounts{
		PutOps:        c.ops[opPut].Load(),
		GetOps:        c.ops[opGet].Load(),
		HeadOps:       c.ops[opHead].Load(),
		ListOps:       c.ops[opList].Load(),
		DeleteOps:     c.ops[opDelete].Load(),
		BucketOps:     c.ops[opBucket].Load(),
		ObjectsListed: c.objectsListed.Load(),
		BytesOut:      c.bytesOut.Load(),
		BytesIn:       c.bytesIn.Load(),
	}
}

// do runs one request through the stages. out is the payload the request
// carries to the backend; call issues it and reports what came back — body
// bytes for a GET, entries for a LIST, 0 otherwise.
func (s *Stack) do(kind opKind, out int64, call func() (in int64, err error)) error {
	if s.retr == nil {
		return s.attempt(kind, out, call)
	}
	return s.retr.Do(func() error { return s.attempt(kind, out, call) })
}

// attempt is one request on the wire. Its rng draws come in a fixed order —
// the fault hook's, then the link's latency, transfer and failure draws —
// which same-seed replay depends on.
func (s *Stack) attempt(kind opKind, out int64, call func() (int64, error)) error {
	if c := s.counts; c != nil {
		c.ops[kind].Add(1)
		if out > 0 {
			c.bytesOut.Add(out)
		}
	}
	if s.fault != nil && s.fault() {
		return ErrRequestFailed
	}
	var (
		in  int64
		err error
	)
	if kind == opGet {
		// A download is charged for what came back, so after the backend
		// call: the body, or on a miss the bare round trip (in is 0).
		in, err = call()
		if cerr := s.charge(in); cerr != nil {
			return cerr
		}
	} else {
		// Everything else — uploads above all — is charged, and can be
		// lost on the link, before the backend sees it.
		if cerr := s.charge(out); cerr != nil {
			return cerr
		}
		in, err = call()
	}
	if c := s.counts; c != nil && err == nil {
		switch kind {
		case opGet:
			c.bytesIn.Add(in)
		case opList:
			c.objectsListed.Add(in)
		}
	}
	return err
}

// charge sleeps the link's per-request latency plus the transfer time for
// bytes, and reports a simulated failure if the link injects one.
func (s *Stack) charge(bytes int64) error {
	if s.link == nil {
		return nil
	}
	s.clk.Sleep(s.link.Latency() + s.link.Transfer(bytes))
	if s.link.Fail() {
		return ErrRequestFailed
	}
	return nil
}

// CreateBucket implements Client.
func (s *Stack) CreateBucket(bucket string) error {
	return s.do(opBucket, 0, func() (int64, error) { return 0, s.inner.CreateBucket(bucket) })
}

// DeleteBucket implements Client.
func (s *Stack) DeleteBucket(bucket string) error {
	return s.do(opBucket, 0, func() (int64, error) { return 0, s.inner.DeleteBucket(bucket) })
}

// BucketExists implements Client.
func (s *Stack) BucketExists(bucket string) (ok bool, err error) {
	err = s.do(opBucket, 0, func() (int64, error) {
		ok, err = s.inner.BucketExists(bucket)
		return 0, err
	})
	return ok, err
}

// Put implements Client; the payload is charged as upload.
func (s *Stack) Put(bucket, key string, data []byte) (meta ObjectMeta, err error) {
	err = s.do(opPut, int64(len(data)), func() (int64, error) {
		meta, err = s.inner.Put(bucket, key, data)
		return 0, err
	})
	return meta, err
}

// PutIf implements Client. A conditional put is charged, counted and
// retried like a put: every stage fails before the backend's
// compare-and-swap, so a transient error means the write never committed,
// and ErrPreconditionFailed is not transient.
func (s *Stack) PutIf(bucket, key string, data []byte, ifMatch string) (meta ObjectMeta, err error) {
	err = s.do(opPut, int64(len(data)), func() (int64, error) {
		meta, err = s.inner.PutIf(bucket, key, data, ifMatch)
		return 0, err
	})
	return meta, err
}

// Get implements Client; the body is charged as download.
func (s *Stack) Get(bucket, key string) ([]byte, ObjectMeta, error) {
	return s.download(func() ([]byte, ObjectMeta, error) { return s.inner.Get(bucket, key) })
}

// GetRange implements Client; the body is charged as download.
func (s *Stack) GetRange(bucket, key string, offset, length int64) ([]byte, ObjectMeta, error) {
	return s.download(func() ([]byte, ObjectMeta, error) { return s.inner.GetRange(bucket, key, offset, length) })
}

// download is the body of Get and GetRange: the link can lose a response
// the backend already produced, and a lost response delivers nothing.
func (s *Stack) download(get func() ([]byte, ObjectMeta, error)) (data []byte, meta ObjectMeta, err error) {
	err = s.do(opGet, 0, func() (int64, error) {
		data, meta, err = get()
		return int64(len(data)), err
	})
	if err != nil {
		return nil, ObjectMeta{}, err
	}
	return data, meta, nil
}

// Head implements Client.
func (s *Stack) Head(bucket, key string) (meta ObjectMeta, err error) {
	err = s.do(opHead, 0, func() (int64, error) {
		meta, err = s.inner.Head(bucket, key)
		return 0, err
	})
	return meta, err
}

// List implements Client.
func (s *Stack) List(bucket, prefix, marker string, maxKeys int) (res ListResult, err error) {
	err = s.do(opList, 0, func() (int64, error) {
		res, err = s.inner.List(bucket, prefix, marker, maxKeys)
		return int64(len(res.Objects)), err
	})
	return res, err
}

// ListUntil is the page ListUntil reads, charged and counted as one List of
// the keys kept.
func (s *Stack) ListUntil(bucket, prefix, marker, end string) (res ListResult, err error) {
	err = s.do(opList, 0, func() (int64, error) {
		res, err = ListUntil(s.inner, bucket, prefix, marker, end)
		return int64(len(res.Objects)), err
	})
	return res, err
}

// ListBuckets implements Client.
func (s *Stack) ListBuckets() (names []string, err error) {
	err = s.do(opBucket, 0, func() (int64, error) {
		names, err = s.inner.ListBuckets()
		return 0, err
	})
	return names, err
}

// Delete implements Client.
func (s *Stack) Delete(bucket, key string) error {
	return s.do(opDelete, 0, func() (int64, error) { return 0, s.inner.Delete(bucket, key) })
}
