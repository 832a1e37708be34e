package cos

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is the in-memory object-store engine. It is safe for concurrent use.
// It charges no latency itself: a cos.Stack link stage (NewLinked) puts the
// simulated network in front of it.
type Store struct {
	mu      sync.RWMutex
	buckets map[string]*bucket
	watches []*watch // live Watch subscriptions, guarded by mu
	// gets are the live WatchGets subscriptions, guarded by mu. The slice
	// is replaced, never edited, so a Get may call what it saw under the
	// lock after releasing it.
	gets []*watch

	stats Stats
}

// watch is one Watch subscription.
type watch struct {
	bucket, prefix string
	fn             func(key string, body []byte)
}

var _ Client = (*Store)(nil)

// Stats counts operations and bytes through the store. Counters are
// cumulative and safe to read concurrently.
type Stats struct {
	PutOps    atomic.Int64
	GetOps    atomic.Int64
	HeadOps   atomic.Int64
	ListOps   atomic.Int64
	DeleteOps atomic.Int64
	BytesIn   atomic.Int64
	BytesOut  atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the store counters.
type StatsSnapshot struct {
	PutOps, GetOps, HeadOps, ListOps, DeleteOps int64
	BytesIn, BytesOut                           int64
}

// bucket pairs the object map with an incrementally maintained sorted key
// index. List range-scans the index from a binary-searched start position
// instead of materializing and sorting the full key set per call, which is
// what makes repeated prefix listings over large buckets (the wait path's
// status sweeps) cheap. The index is exact: insert on first Put of a key,
// remove on Delete, no tombstones.
type bucket struct {
	objects map[string]object // by value: a PUT allocates no object beside its body
	keys    []string          // sorted; in sync with objects
}

// insertKey adds key to the sorted index if absent. Appends (keys arriving
// in order, the common case for zero-padded call IDs) are O(1).
func (b *bucket) insertKey(key string) {
	if n := len(b.keys); n == 0 || b.keys[n-1] < key {
		b.keys = append(b.keys, key)
		return
	}
	i := sort.SearchStrings(b.keys, key)
	if i < len(b.keys) && b.keys[i] == key {
		return
	}
	b.keys = append(b.keys, "")
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
}

// removeKey deletes key from the sorted index if present.
func (b *bucket) removeKey(key string) {
	i := sort.SearchStrings(b.keys, key)
	if i < len(b.keys) && b.keys[i] == key {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
	}
}

type object struct {
	meta ObjectMeta
	data []byte    // nil when gen != nil
	gen  Generator // synthetic content
}

// NewStore returns an empty Store.
func NewStore() *Store {
	return &Store{buckets: make(map[string]*bucket)}
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() StatsSnapshot {
	return StatsSnapshot{
		PutOps:    s.stats.PutOps.Load(),
		GetOps:    s.stats.GetOps.Load(),
		HeadOps:   s.stats.HeadOps.Load(),
		ListOps:   s.stats.ListOps.Load(),
		DeleteOps: s.stats.DeleteOps.Load(),
		BytesIn:   s.stats.BytesIn.Load(),
		BytesOut:  s.stats.BytesOut.Load(),
	}
}

// CreateBucket implements Client.
func (s *Store) CreateBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("create bucket %q: %w", name, ErrBucketExists)
	}
	s.buckets[name] = &bucket{objects: make(map[string]object)}
	return nil
}

// DeleteBucket implements Client.
func (s *Store) DeleteBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("delete bucket %q: %w", name, ErrNoSuchBucket)
	}
	if len(b.objects) > 0 {
		return fmt.Errorf("delete bucket %q: %w", name, ErrBucketNotEmpty)
	}
	delete(s.buckets, name)
	return nil
}

// BucketExists implements Client.
func (s *Store) BucketExists(name string) (bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.buckets[name]
	return ok, nil
}

// Put implements Client. The stored object owns a copy of data.
func (s *Store) Put(bucketName, key string, data []byte) (ObjectMeta, error) {
	return s.commit("put", bucketName, key, data, nil)
}

// PutIf implements Client. The compare and the store are atomic under the
// store lock.
func (s *Store) PutIf(bucketName, key string, data []byte, ifMatch string) (ObjectMeta, error) {
	return s.commit("put-if", bucketName, key, data, &ifMatch)
}

// commit is the one write path of Put and PutIf: copy, and — under the
// lock — check ifMatch (nil: unconditional; otherwise the ETag the current
// object must have, "" meaning no object), index the key and store. The
// body copy and its ETag are all a commit allocates: the object is held by
// value in its bucket's map. The copy is the store's own, never written
// again; a watch is handed it, a Get copies out of it.
func (s *Store) commit(op, bucketName, key string, data []byte, ifMatch *string) (ObjectMeta, error) {
	s.stats.PutOps.Add(1)
	s.stats.BytesIn.Add(int64(len(data)))
	body := make([]byte, len(data))
	copy(body, data)
	meta := ObjectMeta{
		Key:          key,
		Size:         int64(len(body)),
		ETag:         contentETag(body),
		LastModified: s.now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectMeta{}, fmt.Errorf("%s %s/%s: %w", op, bucketName, key, ErrNoSuchBucket)
	}
	cur, exists := b.objects[key]
	if ifMatch != nil {
		have := ""
		if exists {
			have = cur.meta.ETag
		}
		if have != *ifMatch {
			return ObjectMeta{}, fmt.Errorf("%s %s/%s: have %q want %q: %w", op, bucketName, key, have, *ifMatch, ErrPreconditionFailed)
		}
	}
	if !exists {
		b.insertKey(key)
	}
	b.objects[key] = object{meta: meta, data: body}
	for _, w := range s.watches {
		if w.bucket == bucketName && strings.HasPrefix(key, w.prefix) {
			w.fn(key, body)
		}
	}
	return meta, nil
}

// Watch reports every Put and PutIf that commits under bucket and prefix to
// fn — its key and the committed body — from the moment Watch returns until
// cancel does. body is the store's own copy, the bytes a later Get would
// copy out: fn may keep it, and neither fn nor anything it hands body to may
// write into it. fn runs in commit order under the store's write lock,
// which makes the watch exact: a refused or failed write delivers nothing,
// and a Delete of the key returns only after every delivery of the writes
// before it. So fn must be quick, and must not call the store or cancel. A
// watch is in-process only — it costs no request and no link time — and a
// commit nobody watches pays nothing for it.
func (s *Store) Watch(bucket, prefix string, fn func(key string, body []byte)) (cancel func()) {
	w := &watch{bucket: bucket, prefix: prefix, fn: fn}
	s.mu.Lock()
	s.watches = append(s.watches, w)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.watches = slices.DeleteFunc(s.watches, func(x *watch) bool { return x == w })
	}
}

// WatchGets reports every body Get and GetRange hand out under bucket and
// prefix to fn — its key and the caller's copy — from the moment WatchGets
// returns until cancel does. fn runs on the reading goroutine, outside the
// store's lock, and must be safe for concurrent use; it must not write into
// body, which belongs to the caller. A read nobody watches pays one slice
// load for it.
//
//gowren:allow reach — the alias guard of TestGoldenRuns (golden_test.go) hashes every meta-bucket body a run reads and fails if any is written after
func (s *Store) WatchGets(bucket, prefix string, fn func(key string, body []byte)) (cancel func()) {
	w := &watch{bucket: bucket, prefix: prefix, fn: fn}
	s.mu.Lock()
	s.gets = append(slices.Clip(s.gets), w)
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.gets = slices.DeleteFunc(slices.Clone(s.gets), func(x *watch) bool { return x == w })
	}
}

// contentETag is the ETag algorithm shared by Store and the multi-region
// facade: hex MD5 of the body, as S3/COS compute for simple puts. Sharing
// it means an ETag read through any layer matches the one a conditional
// put will compare against.
func contentETag(data []byte) string {
	sum := md5.Sum(data)
	var etag [2 * md5.Size]byte
	hex.Encode(etag[:], sum[:])
	return string(etag[:])
}

// PutGenerated stores a synthetic object of the given size whose content is
// produced on demand by gen. It is a simulator-only entry point (not part of
// Client) used by experiment harnesses to host multi-gigabyte datasets
// without materializing them.
func (s *Store) PutGenerated(bucketName, key string, size int64, gen Generator) (ObjectMeta, error) {
	if size < 0 {
		return ObjectMeta{}, fmt.Errorf("put generated %s/%s: negative size %d", bucketName, key, size)
	}
	if gen == nil {
		return ObjectMeta{}, fmt.Errorf("put generated %s/%s: nil generator", bucketName, key)
	}
	meta := ObjectMeta{
		Key:          key,
		Size:         size,
		ETag:         syntheticETag(bucketName, key, size),
		LastModified: s.now(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectMeta{}, fmt.Errorf("put generated %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	if _, exists := b.objects[key]; !exists {
		b.insertKey(key)
	}
	b.objects[key] = object{meta: meta, gen: gen}
	return meta, nil
}

// Get implements Client.
func (s *Store) Get(bucketName, key string) ([]byte, ObjectMeta, error) {
	return s.GetRange(bucketName, key, 0, -1)
}

// GetRange implements Client.
func (s *Store) GetRange(bucketName, key string, offset, length int64) ([]byte, ObjectMeta, error) {
	s.stats.GetOps.Add(1)
	// The lock covers the lookup only. A stored object is never mutated
	// (commit installs a fresh one) and generators are safe for concurrent
	// use, so the copy or the synthesis below does not hold up writers.
	s.mu.RLock()
	obj, err := s.lookupLocked(bucketName, key)
	gets := s.gets
	s.mu.RUnlock()
	if err != nil {
		return nil, ObjectMeta{}, fmt.Errorf("get %s/%s: %w", bucketName, key, err)
	}
	size := obj.meta.Size
	if offset < 0 || (offset > 0 && offset >= size) {
		return nil, ObjectMeta{}, fmt.Errorf("get %s/%s offset=%d size=%d: %w", bucketName, key, offset, size, ErrInvalidRange)
	}
	if length < 0 || length > size-offset {
		length = size - offset
	}
	out := make([]byte, length)
	if obj.gen != nil {
		obj.gen.FillAt(offset, out)
	} else {
		copy(out, obj.data[offset:offset+length])
	}
	for _, w := range gets {
		if w.bucket == bucketName && strings.HasPrefix(key, w.prefix) {
			w.fn(key, out)
		}
	}
	s.stats.BytesOut.Add(length)
	return out, obj.meta, nil
}

// Head implements Client.
func (s *Store) Head(bucketName, key string) (ObjectMeta, error) {
	s.stats.HeadOps.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, err := s.lookupLocked(bucketName, key)
	if err != nil {
		return ObjectMeta{}, fmt.Errorf("head %s/%s: %w", bucketName, key, err)
	}
	return obj.meta, nil
}

// List implements Client.
func (s *Store) List(bucketName, prefix, marker string, maxKeys int) (ListResult, error) {
	s.stats.ListOps.Add(1)
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ListResult{}, fmt.Errorf("list %s: %w", bucketName, ErrNoSuchBucket)
	}
	// Range-scan the sorted index: binary-search the first candidate (past
	// both the prefix's lower bound and the marker) and the end of the
	// prefix's run of keys, then copy at most a page of what lies between.
	start := prefix
	if marker != "" && marker >= start {
		// First key strictly after the marker.
		start = marker + "\x00"
	}
	i := sort.SearchStrings(b.keys, start)
	n := sort.Search(len(b.keys)-i, func(j int) bool { return !strings.HasPrefix(b.keys[i+j], prefix) })
	var res ListResult
	if n == 0 {
		return res, nil
	}
	res.Objects = make([]ObjectMeta, min(n, maxKeys))
	for j := range res.Objects {
		res.Objects[j] = b.objects[b.keys[i+j]].meta
	}
	if n > maxKeys {
		res.IsTruncated = true
		res.NextMarker = res.Objects[maxKeys-1].Key
	}
	return res, nil
}

// ListBuckets implements Client.
func (s *Store) ListBuckets() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.buckets))
	for name := range s.buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Delete implements Client.
func (s *Store) Delete(bucketName, key string) error {
	s.stats.DeleteOps.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("delete %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	if _, exists := b.objects[key]; exists {
		delete(b.objects, key)
		b.removeKey(key)
	}
	return nil
}

// lookupLocked finds an object; callers hold s.mu (read or write).
func (s *Store) lookupLocked(bucketName, key string) (object, error) {
	b, ok := s.buckets[bucketName]
	if !ok {
		return object{}, ErrNoSuchBucket
	}
	obj, ok := b.objects[key]
	if !ok {
		return object{}, ErrNoSuchKey
	}
	return obj, nil
}

// now stamps LastModified, which only the HTTP dialect reports.
func (s *Store) now() time.Time {
	return time.Now() //gowren:allow clockcheck — LastModified is wall time; nothing simulated reads it
}

func syntheticETag(bucket, key string, size int64) string {
	sum := md5.Sum([]byte(fmt.Sprintf("synthetic:%s/%s:%d", bucket, key, size)))
	return hex.EncodeToString(sum[:])
}
