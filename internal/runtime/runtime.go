// Package runtime models IBM Cloud Functions' Docker-based runtimes. In the
// paper, a runtime is a Docker image holding a Python interpreter plus the
// packages a function needs; users build custom images and share them via
// the Docker Hub registry, and IBM-PyWren ships pickled user code that the
// image can import.
//
// Go cannot serialize closures, so GoWren makes the runtime image the unit
// of code distribution for user functions too: an Image bundles named,
// registered Go functions, and a staged call references (image, function
// name). This preserves the behaviours the paper depends on — per-executor
// runtime selection, custom runtimes with extra capabilities, image sharing
// through a registry, and cold-start cost attributed to image size — while
// substituting name-based dispatch for bytecode shipping.
package runtime

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Errors reported by the registry and execution context.
var (
	ErrImageNotFound    = errors.New("runtime: image not found")
	ErrFunctionNotFound = errors.New("runtime: function not found in image")
	ErrFunctionExists   = errors.New("runtime: function already registered")
	ErrImageExists      = errors.New("runtime: image already published")
	ErrDeadlineExceeded = errors.New("runtime: function deadline exceeded")
	ErrNoSpawner        = errors.New("runtime: dynamic composition unavailable in this context")
)

// DefaultImage is the name of the stock runtime, the analogue of the
// python-jessie:3 image IBM Cloud Functions ships with the most common
// packages preinstalled.
const DefaultImage = "gowren-default:1"

// PlainFunc is a user function over an inline JSON argument — the shape
// behind call_async() and map() in the paper's API (Table 2). The returned
// value is JSON-marshaled; returning *wire.FuturesRef instead makes the
// result a composition continuation (paper §4.4).
type PlainFunc func(ctx *Ctx, arg json.RawMessage) (any, error)

// MapPartitionFunc is a map function over a storage partition produced by
// the data partitioner (paper §4.3).
type MapPartitionFunc func(ctx *Ctx, part *PartitionReader) (any, error)

// ReduceFunc aggregates the JSON results of a set of map calls. group is
// the source object key in reducer-one-per-object mode, "" for a global
// reducer.
type ReduceFunc func(ctx *Ctx, group string, partials []json.RawMessage) (any, error)

// KVMapFunc is a shuffle map function: it emits key–value pairs from its
// partition, which the runner hash-partitions across reducers.
type KVMapFunc func(ctx *Ctx, part *PartitionReader) ([]wire.KV, error)

// KVReduceFunc reduces all values of one key; a shuffle reducer calls it
// once per key in its partition.
type KVReduceFunc func(ctx *Ctx, key string, values []json.RawMessage) (any, error)

// Image is a named bundle of registered functions plus simulated image
// properties that drive cold-start cost.
type Image struct {
	name   string
	sizeMB int

	mu sync.RWMutex
	// funcs is the image's one function namespace: each value is a
	// PlainFunc, MapPartitionFunc, ReduceFunc, KVMapFunc or KVReduceFunc,
	// so a name registered under one kind is taken for every kind.
	funcs map[string]any
}

// NewImage creates an empty image. sizeMB models the compressed image size
// pulled on cold start; <= 0 uses a typical small-runtime default.
func NewImage(name string, sizeMB int) *Image {
	if sizeMB <= 0 {
		sizeMB = 180 // python-jessie:3 scale
	}
	return &Image{name: name, sizeMB: sizeMB, funcs: make(map[string]any)}
}

// Name returns the image name.
func (img *Image) Name() string { return img.name }

// SizeMB returns the simulated image size in MB.
func (img *Image) SizeMB() int { return img.sizeMB }

// register adds fn under name unless any kind already holds the name.
func register[F any](img *Image, name string, fn F) error {
	img.mu.Lock()
	defer img.mu.Unlock()
	if _, ok := img.funcs[name]; ok {
		return fmt.Errorf("register %q in %s: %w", name, img.name, ErrFunctionExists)
	}
	img.funcs[name] = fn
	return nil
}

// lookup resolves name as a function of type F; kind names F in the error.
func lookup[F any](img *Image, kind, name string) (F, error) {
	img.mu.RLock()
	fn, ok := img.funcs[name].(F)
	img.mu.RUnlock()
	if !ok {
		return fn, fmt.Errorf("%s function %q in image %s: %w", kind, name, img.name, ErrFunctionNotFound)
	}
	return fn, nil
}

// RegisterPlain adds a plain function under name.
func (img *Image) RegisterPlain(name string, fn PlainFunc) error { return register(img, name, fn) }

// RegisterMapPartition adds a partition map function under name.
func (img *Image) RegisterMapPartition(name string, fn MapPartitionFunc) error {
	return register(img, name, fn)
}

// RegisterReduce adds a reduce function under name.
func (img *Image) RegisterReduce(name string, fn ReduceFunc) error { return register(img, name, fn) }

// RegisterKVMap adds a shuffle map function under name.
func (img *Image) RegisterKVMap(name string, fn KVMapFunc) error { return register(img, name, fn) }

// RegisterKVReduce adds a per-key reduce function under name.
func (img *Image) RegisterKVReduce(name string, fn KVReduceFunc) error {
	return register(img, name, fn)
}

// Plain resolves a plain function.
func (img *Image) Plain(name string) (PlainFunc, error) { return lookup[PlainFunc](img, "plain", name) }

// MapPartition resolves a partition map function.
func (img *Image) MapPartition(name string) (MapPartitionFunc, error) {
	return lookup[MapPartitionFunc](img, "map", name)
}

// Reduce resolves a reduce function.
func (img *Image) Reduce(name string) (ReduceFunc, error) {
	return lookup[ReduceFunc](img, "reduce", name)
}

// KVMap resolves a shuffle map function.
func (img *Image) KVMap(name string) (KVMapFunc, error) {
	return lookup[KVMapFunc](img, "kv-map", name)
}

// KVReduce resolves a per-key reduce function.
func (img *Image) KVReduce(name string) (KVReduceFunc, error) {
	return lookup[KVReduceFunc](img, "kv-reduce", name)
}

// Functions lists every registered function name, sorted.
func (img *Image) Functions() []string {
	img.mu.RLock()
	defer img.mu.RUnlock()
	names := slices.AppendSeq(make([]string, 0, len(img.funcs)), maps.Keys(img.funcs))
	slices.Sort(names)
	return names
}

// Registry is the Docker-Hub analogue: a shared catalogue of published
// images from which the FaaS platform pulls runtimes.
type Registry struct {
	mu     sync.RWMutex
	images map[string]*Image
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]*Image)}
}

// Publish adds an image to the registry; republishing a name is an error
// (images are immutable once shared, like tagged Docker images).
func (r *Registry) Publish(img *Image) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.images[img.Name()]; ok {
		return fmt.Errorf("publish %s: %w", img.Name(), ErrImageExists)
	}
	r.images[img.Name()] = img
	return nil
}

// Pull fetches an image by name.
func (r *Registry) Pull(name string) (*Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[name]
	if !ok {
		return nil, fmt.Errorf("pull %s: %w", name, ErrImageNotFound)
	}
	return img, nil
}

// Spawner is implemented by the executor layer and injected into function
// contexts to enable dynamic composition: code inside a function spawning
// further parallel functions (paper §4.4). The returned FuturesRef can be
// awaited in-function (nested parallelism with local merge) or returned as
// the function result (sequences / fully dynamic compositions, which
// GetResult follows transparently).
type Spawner interface {
	// Spawn stages one invocation of function per element of args and
	// fires them through the platform, returning a reference to the new
	// calls.
	Spawn(function string, args []any) (*wire.FuturesRef, error)
	// Await blocks on the simulation clock until every call in ref has
	// finished, returning their raw JSON results in call order.
	Await(ref *wire.FuturesRef) ([]json.RawMessage, error)
}

// CtxConfig assembles an execution context; it is populated by the FaaS
// container before entering user code.
type CtxConfig struct {
	Clock        vclock.Clock
	Storage      cos.Client
	Image        *Image
	ActivationID string
	Deadline     time.Time
	ColdStart    bool
	Spawner      Spawner
}

// Ctx is the per-invocation execution context passed to user functions. It
// exposes the simulation clock, object storage, limits, and the spawner for
// dynamic composition.
type Ctx struct {
	cfg CtxConfig
}

// NewCtx builds a context from cfg.
func NewCtx(cfg CtxConfig) *Ctx { return &Ctx{cfg: cfg} }

// WithPlacement derives a context for a call placed in a storage region:
// the same activation, clock, image and limits, but reading and writing
// through storage (the region's view) and spawning through spawner (which
// propagates the placement to child calls). A nil storage or spawner keeps
// the parent's. It is applied after the runner decodes its call payload,
// not by the container, because placement travels in the payload.
func (c *Ctx) WithPlacement(storage cos.Client, spawner Spawner) *Ctx {
	cfg := c.cfg
	if storage != nil {
		cfg.Storage = storage
	}
	if spawner != nil {
		cfg.Spawner = spawner
	}
	return &Ctx{cfg: cfg}
}

// Clock returns the simulation clock.
func (c *Ctx) Clock() vclock.Clock { return c.cfg.Clock }

// Storage returns the object-storage client visible to the function.
func (c *Ctx) Storage() cos.Client { return c.cfg.Storage }

// Image returns the runtime image the function executes in; handlers use it
// to resolve registered user functions by name.
func (c *Ctx) Image() *Image { return c.cfg.Image }

// ActivationID returns the platform activation identifier.
func (c *Ctx) ActivationID() string { return c.cfg.ActivationID }

// ColdStart reports whether this invocation paid a container cold start.
func (c *Ctx) ColdStart() bool { return c.cfg.ColdStart }

// Deadline returns the instant at which the platform will consider the
// invocation timed out.
func (c *Ctx) Deadline() time.Time { return c.cfg.Deadline }

// Remaining returns the time left before the deadline.
func (c *Ctx) Remaining() time.Duration {
	if c.cfg.Deadline.IsZero() {
		return time.Duration(1<<63 - 1)
	}
	return c.cfg.Deadline.Sub(c.cfg.Clock.Now())
}

// ChargeCompute advances the simulation clock by d, modeling CPU work of
// that duration inside the function. If the charge would cross the
// deadline, the clock advances only to the deadline and
// ErrDeadlineExceeded is returned; handlers should propagate it.
func (c *Ctx) ChargeCompute(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if !c.cfg.Deadline.IsZero() {
		if rem := c.Remaining(); d >= rem {
			c.cfg.Clock.Sleep(rem)
			return fmt.Errorf("charging %v with %v remaining: %w", d, rem, ErrDeadlineExceeded)
		}
	}
	c.cfg.Clock.Sleep(d)
	return nil
}

// Spawner returns the dynamic-composition spawner, or ErrNoSpawner when the
// context does not support it (e.g. plain unit tests).
func (c *Ctx) Spawner() (Spawner, error) {
	if c.cfg.Spawner == nil {
		return nil, ErrNoSpawner
	}
	return c.cfg.Spawner, nil
}

// PartitionReader gives a map function ranged access to its assigned
// partition without loading more than it asks for.
type PartitionReader struct {
	storage cos.Client
	part    wire.Partition
}

// NewPartitionReader wraps part for reads through storage.
func NewPartitionReader(storage cos.Client, part wire.Partition) *PartitionReader {
	return &PartitionReader{storage: storage, part: part}
}

// Partition returns the partition descriptor.
func (r *PartitionReader) Partition() wire.Partition { return r.part }

// Size returns the partition length in bytes.
func (r *PartitionReader) Size() int64 {
	if r.part.Length >= 0 {
		return r.part.Length
	}
	return r.part.ObjectSize - r.part.Offset
}

// ReadAll fetches the entire partition body.
func (r *PartitionReader) ReadAll() ([]byte, error) {
	data, _, err := r.storage.GetRange(r.part.Bucket, r.part.Key, r.part.Offset, r.part.Length)
	if err != nil {
		return nil, fmt.Errorf("partition read %s/%s: %w", r.part.Bucket, r.part.Key, err)
	}
	return data, nil
}

// ReadBeyond fetches up to length bytes starting immediately after the
// partition's end, clamped to the source object. Map functions use it to
// finish a record that the partitioner split across a chunk boundary.
func (r *PartitionReader) ReadBeyond(length int64) ([]byte, error) {
	end := r.part.Offset + r.Size()
	if max := r.part.ObjectSize - end; length > max {
		length = max
	}
	if length <= 0 {
		return []byte{}, nil
	}
	data, _, err := r.storage.GetRange(r.part.Bucket, r.part.Key, end, length)
	if err != nil {
		return nil, fmt.Errorf("partition read-beyond %s/%s: %w", r.part.Bucket, r.part.Key, err)
	}
	return data, nil
}

// ReadBefore fetches up to length bytes immediately preceding the
// partition's start. Map functions use it to decide whether the partition
// begins on a record boundary (e.g. whether the previous byte is '\n').
func (r *PartitionReader) ReadBefore(length int64) ([]byte, error) {
	if length > r.part.Offset {
		length = r.part.Offset
	}
	if length <= 0 {
		return []byte{}, nil
	}
	data, _, err := r.storage.GetRange(r.part.Bucket, r.part.Key, r.part.Offset-length, length)
	if err != nil {
		return nil, fmt.Errorf("partition read-before %s/%s: %w", r.part.Bucket, r.part.Key, err)
	}
	return data, nil
}

// ReadAt fetches length bytes starting at off *within* the partition.
// Reads are clamped to the partition bounds.
func (r *PartitionReader) ReadAt(off, length int64) ([]byte, error) {
	if off < 0 || off > r.Size() {
		return nil, fmt.Errorf("partition read at %d of %d: %w", off, r.Size(), cos.ErrInvalidRange)
	}
	if max := r.Size() - off; length < 0 || length > max {
		length = max
	}
	if length == 0 {
		return []byte{}, nil
	}
	data, _, err := r.storage.GetRange(r.part.Bucket, r.part.Key, r.part.Offset+off, length)
	if err != nil {
		return nil, fmt.Errorf("partition read %s/%s: %w", r.part.Bucket, r.part.Key, err)
	}
	return data, nil
}
