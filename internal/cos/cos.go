// Package cos implements the object-storage substrate of GoWren: an IBM
// Cloud Object Storage (COS) stand-in with buckets, keys, range reads, HEAD
// and paginated LIST — the exact surface IBM-PyWren uses for staging job
// payloads, discovering datasets, partitioning objects and collecting
// results. An in-memory engine (Store) and an HTTP server/client pair
// (Serve/HTTPClient) implement the same Client interface, so the executor
// is oblivious to whether the store is in-process or across a socket.
//
// Objects can be backed by real bytes or by a deterministic content
// generator. Generated objects let the experiment harnesses work with the
// paper's full 1.9 GB dataset without materializing it: range reads
// synthesize exactly the bytes requested.
package cos

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"
)

// Errors reported by Client implementations. HTTP transports map status
// codes back onto these values so errors.Is works across the wire.
var (
	ErrNoSuchBucket   = errors.New("cos: no such bucket")
	ErrNoSuchKey      = errors.New("cos: no such key")
	ErrBucketExists   = errors.New("cos: bucket already exists")
	ErrBucketNotEmpty = errors.New("cos: bucket not empty")
	ErrInvalidRange   = errors.New("cos: invalid range")
	ErrRequestFailed  = errors.New("cos: simulated request failure")
	// ErrPreconditionFailed reports a conditional put whose expectation did
	// not hold: the object changed (or appeared) since the caller read it.
	// It is a terminal outcome, never retried by the SDK-style retry stage.
	ErrPreconditionFailed = errors.New("cos: precondition failed")
)

// ObjectMeta describes a stored object.
type ObjectMeta struct {
	Key          string            `json:"key"`
	Size         int64             `json:"size"`
	ETag         string            `json:"etag"`
	LastModified time.Time         `json:"lastModified"`
	UserMeta     map[string]string `json:"userMeta,omitempty"`
}

// ListResult is one page of a bucket listing, ordered lexicographically by
// key as object stores do.
type ListResult struct {
	Objects     []ObjectMeta `json:"objects"`
	IsTruncated bool         `json:"isTruncated"`
	NextMarker  string       `json:"nextMarker,omitempty"`
}

// DefaultMaxKeys is the page size used when List is called with maxKeys <= 0,
// matching the common object-store default.
const DefaultMaxKeys = 1000

// Client is the object-storage API used throughout GoWren.
type Client interface {
	// CreateBucket creates bucket; ErrBucketExists if it already does.
	CreateBucket(bucket string) error
	// DeleteBucket removes an empty bucket.
	DeleteBucket(bucket string) error
	// BucketExists reports whether bucket exists.
	BucketExists(bucket string) (bool, error)
	// Put stores data under bucket/key, overwriting any previous object.
	Put(bucket, key string, data []byte) (ObjectMeta, error)
	Conditional
	// Get returns the full object body.
	Get(bucket, key string) ([]byte, ObjectMeta, error)
	// GetRange returns length bytes starting at offset; length < 0 means
	// to the end of the object. Reads beyond the end are clamped;
	// offsets at or past the end return ErrInvalidRange.
	GetRange(bucket, key string, offset, length int64) ([]byte, ObjectMeta, error)
	// Head returns object metadata without the body.
	Head(bucket, key string) (ObjectMeta, error)
	// List returns keys under prefix, starting strictly after marker,
	// at most maxKeys per page (DefaultMaxKeys if maxKeys <= 0).
	List(bucket, prefix, marker string, maxKeys int) (ListResult, error)
	// ListBuckets returns all bucket names, sorted.
	ListBuckets() ([]string, error)
	// Delete removes an object; deleting a missing key is not an error,
	// as in S3/COS.
	Delete(bucket, key string) error
}

// Conditional is the compare-and-swap method of Client, named so a wrapper
// can say it forwards it. Real COS/S3 expose it as If-Match / If-None-Match
// preconditions on PUT; GoWren uses it for what real systems do — tiny
// coordination records (the job manifest that holds the driver lease, the
// fan-in launch markers) where last-writer-wins would let two parties both believe
// they own a job. Every backend implements it, so journaling and fencing
// cannot switch off with the transport.
type Conditional interface {
	// PutIf stores data under bucket/key only if the current object's ETag
	// equals ifMatch; an empty ifMatch requires the key to not exist. On a
	// mismatch it returns ErrPreconditionFailed and leaves the object
	// untouched.
	PutIf(bucket, key string, data []byte, ifMatch string) (ObjectMeta, error)
}

// Generator deterministically produces the content of a synthetic object
// for any byte range. Implementations must be safe for concurrent use and
// must return exactly p's length of bytes for in-range reads.
type Generator interface {
	// FillAt fills p with the object's content starting at offset off.
	FillAt(off int64, p []byte)
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(off int64, p []byte)

// FillAt implements Generator.
func (f GeneratorFunc) FillAt(off int64, p []byte) { f(off, p) }

// ListAll drains every page of a listing. It is a convenience for data
// discovery over buckets with more keys than one page.
func ListAll(c Client, bucket, prefix string) ([]ObjectMeta, error) {
	return ListFrom(c, bucket, prefix, "")
}

// ListUntil reads one page of a listing starting strictly after marker and
// keeps only the keys before end: the page is truncated only when the
// listing holds more keys before end than the page did. A Stack trims below
// its counters, so they count only the keys kept; over any other client
// the whole page crosses the wire.
func ListUntil(c Client, bucket, prefix, marker, end string) (ListResult, error) {
	if u, ok := c.(interface {
		ListUntil(bucket, prefix, marker, end string) (ListResult, error)
	}); ok {
		return u.ListUntil(bucket, prefix, marker, end)
	}
	page, err := c.List(bucket, prefix, marker, 0)
	if err != nil {
		return page, err
	}
	if i, _ := slices.BinarySearchFunc(page.Objects, end, func(o ObjectMeta, end string) int {
		return strings.Compare(o.Key, end)
	}); i < len(page.Objects) {
		page.Objects, page.IsTruncated, page.NextMarker = page.Objects[:i], false, ""
	}
	return page, nil
}

// ListFrom drains every page of a listing starting strictly after
// startAfter (the marker semantics of List). It is the primitive behind
// incremental sweeps: a poller that remembers the last key of a contiguous
// already-seen range can resume the listing there instead of re-walking
// the whole prefix, paying O(new keys) per call instead of O(all keys).
func ListFrom(c Client, bucket, prefix, startAfter string) ([]ObjectMeta, error) {
	var out []ObjectMeta
	marker := startAfter
	for {
		page, err := c.List(bucket, prefix, marker, 0)
		if err != nil {
			return nil, fmt.Errorf("list %s/%s after %q: %w", bucket, prefix, startAfter, err)
		}
		out = append(out, page.Objects...)
		if !page.IsTruncated {
			return out, nil
		}
		marker = page.NextMarker
	}
}
