package gowren

import (
	"encoding/json"
	"slices"
	"strings"
	"time"

	"gowren/internal/core"
	"gowren/internal/cos"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Executor is the public face of the programming model (paper §4): it
// issues asynchronous calls and tracks their futures. Obtain one with
// Cloud.Executor and use it from inside Cloud.Run.
type Executor struct {
	inner *core.Executor
	clock vclock.Clock
}

// ID returns the executor's unique identifier.
func (e *Executor) ID() string { return e.inner.ID() }

// JobID returns the durable job identifier — the handle a later driver
// passes to Cloud.Attach to resume this executor's job after a crash. It is
// the same value as ID; the separate name marks it as the piece worth
// persisting outside the process.
func (e *Executor) JobID() string { return e.inner.ID() }

// Core exposes the underlying engine executor for harness-level access.
func (e *Executor) Core() *core.Executor { return e.inner }

// CallAsync runs one function asynchronously (Table 2: call_async).
func (e *Executor) CallAsync(function string, arg any) (*Future, error) {
	return e.inner.CallAsync(function, arg)
}

// Map runs one invocation of function per argument (Table 2: map).
func (e *Executor) Map(function string, args ...any) ([]*Future, error) {
	return e.inner.Map(function, args)
}

// MapSlice is Map over a prebuilt argument slice.
func (e *Executor) MapSlice(function string, args []any) ([]*Future, error) {
	return e.inner.Map(function, args)
}

// MapReduceOptions re-exports the engine's map_reduce knobs.
type MapReduceOptions = core.MapReduceOptions

// MapReduce runs a full MapReduce flow (Table 2: map_reduce) with automatic
// data discovery and partitioning for storage-backed sources (§4.3).
func (e *Executor) MapReduce(mapFn string, src DataSource, reduceFn string, opts MapReduceOptions) ([]*Future, error) {
	return e.inner.MapReduce(mapFn, src, reduceFn, opts)
}

// Wait applies a wait strategy to the tracked futures (Table 2: wait).
// A zero timeout waits indefinitely (except for WaitAlways, which never
// blocks).
func (e *Executor) Wait(strategy core.WaitStrategy, timeout time.Duration) (done, pending []*Future, err error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = e.clock.Now().Add(timeout)
	}
	return e.inner.Wait(strategy, deadline)
}

// GetResultOptions re-exports the engine's get_result knobs (timeout,
// progress callback).
type GetResultOptions = core.GetResultOptions

// GetResult waits for all tracked calls and returns their raw JSON results
// in call order, following dynamic compositions transparently (Table 2:
// get_result). For typed access use the Results helper.
func (e *Executor) GetResult(opts ...GetResultOptions) ([]json.RawMessage, error) {
	var o GetResultOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return e.inner.GetResult(o)
}

// Clean deletes every object the executor staged or produced in the meta
// bucket (PyWren's clean()). Futures become unusable afterwards.
func (e *Executor) Clean() error { return e.inner.Clean() }

// WaitThreshold waits until at least frac (0,1] of the tracked calls have
// completed. A zero timeout waits indefinitely.
func (e *Executor) WaitThreshold(frac float64, timeout time.Duration) (done, pending []*Future, err error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = e.clock.Now().Add(timeout)
	}
	return e.inner.WaitThreshold(frac, deadline)
}

// FailedFutures returns the tracked calls known to have failed (failure
// status or dead activation).
func (e *Executor) FailedFutures() ([]*Future, error) { return e.inner.FailedFutures() }

// Respawn re-invokes failed calls from their staged payloads, recovering
// from transient platform failures such as container crashes. GetResult
// performs this automatically (see RecoveryOptions); Respawn remains for
// manual recovery flows.
func (e *Executor) Respawn(futures []*Future) error { return e.inner.Respawn(futures) }

// RecoveryOptions tune GetResult's automatic re-execution of failed calls
// (GetResultOptions.Recovery). The zero value selects the defaults.
type RecoveryOptions = core.RecoveryOptions

// DeadLetter records one call automatic recovery gave up on.
type DeadLetter = core.DeadLetter

// PartialError reports permanently failed calls when GetResult runs with
// PartialResults; it unwraps to the per-call errors.
type PartialError = core.PartialError

// DeadLetters returns the calls automatic recovery abandoned across this
// executor's GetResult calls.
func (e *Executor) DeadLetters() []DeadLetter { return e.inner.DeadLetters() }

// PersistedDeadLetters reads the durable dead-letter records this executor
// wrote to the meta bucket — they survive the in-memory list (and, in a
// real deployment, the client process).
func (e *Executor) PersistedDeadLetters() ([]DeadLetter, error) {
	return e.inner.PersistedDeadLetters()
}

// ReplayDeadLetters re-stages every dead-lettered call as a fresh tracked
// job, clearing the in-memory list and the durable records. Use it after
// the underlying outage heals; collect the returned futures with
// GetResult as usual.
func (e *Executor) ReplayDeadLetters() ([]*Future, error) {
	return e.inner.ReplayDeadLetters()
}

// JobStats counts the executor's staged/produced objects in storage.
type JobStats = core.JobStats

// Stats returns the executor's storage footprint.
func (e *Executor) Stats() (JobStats, error) { return e.inner.Stats() }

// Results waits for exec's tracked calls and decodes every result into T.
func Results[T any](exec *Executor, opts ...GetResultOptions) ([]T, error) {
	raws, err := exec.GetResult(opts...)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(raws))
	for i, raw := range raws {
		if err := wire.Unmarshal(raw, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Result waits for a single tracked call and decodes it into T. It errors
// if the executor tracked more than one call.
func Result[T any](exec *Executor, opts ...GetResultOptions) (T, error) {
	var zero T
	results, err := Results[T](exec, opts...)
	if err != nil {
		return zero, err
	}
	if len(results) != 1 {
		return zero, ErrNoResults
	}
	return results[0], nil
}

// Data-source constructors for MapReduce.

// FromValues maps over inline values.
func FromValues(values ...any) DataSource { return core.InlineValues(values) }

// FromKeys names dataset objects explicitly.
func FromKeys(bucket string, keys ...string) DataSource {
	return core.ObjectKeys{Bucket: bucket, Keys: keys}
}

// FromBuckets triggers automatic data discovery over whole buckets (§4.3).
func FromBuckets(buckets ...string) DataSource { return core.Buckets(buckets) }

// Partition describes one byte range assigned to a map executor.
type Partition = wire.Partition

// PlanPartitions runs data discovery and partitioning without launching a
// job — useful to inspect how a chunk size translates into executors
// (Table 3's concurrency column).
func PlanPartitions(storage cos.Client, src DataSource, chunkBytes int64) ([]Partition, error) {
	return core.PlanPartitions(storage, src, chunkBytes)
}

// Composition helpers usable inside registered functions.

// Spawn fans function out over args from inside a running function and
// returns a continuation reference. Returning the reference from the
// function makes GetResult follow it transparently (§4.4).
func Spawn(ctx *Ctx, function string, args []any) (*wire.FuturesRef, error) {
	sp, err := ctx.Spawner()
	if err != nil {
		return nil, err
	}
	return sp.Spawn(function, args)
}

// SpawnAwait fans function out over args, waits in-function for the
// children, and decodes their results — the nested-parallelism shape used
// by algorithms that merge child results locally (e.g. mergesort).
func SpawnAwait[T any](ctx *Ctx, function string, args []any) ([]T, error) {
	sp, err := ctx.Spawner()
	if err != nil {
		return nil, err
	}
	ref, err := sp.Spawn(function, args)
	if err != nil {
		return nil, err
	}
	raws, err := sp.Await(ref)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(raws))
	for i, raw := range raws {
		if err := wire.Unmarshal(raw, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Chain invokes the next function of a sequence on arg and returns the
// continuation the current function should return, so the client receives
// the final value of the chain (§4.4 sequences).
func Chain(ctx *Ctx, next string, arg any) (*wire.FuturesRef, error) {
	sp, err := ctx.Spawner()
	if err != nil {
		return nil, err
	}
	ref, err := sp.Spawn(next, []any{arg})
	if err != nil {
		return nil, err
	}
	ref.Combine = wire.CombineSingle
	return ref, nil
}

// ShuffleOptions re-exports the keyed-shuffle MapReduce knobs.
type ShuffleOptions = core.ShuffleOptions

// MapReduceShuffle runs a keyed MapReduce with an object-storage shuffle:
// the map function emits KV pairs, the platform hash-partitions them
// across NumReducers reduce executors, and the reduce function runs once
// per key. Each reducer future resolves to a []KeyResult sorted by key.
// This generalizes the paper's reducer-per-object mode to arbitrary keys,
// addressing the shuffle challenge its related-work section highlights.
func (e *Executor) MapReduceShuffle(mapFn string, src DataSource, reduceFn string, opts ShuffleOptions) ([]*Future, error) {
	return e.inner.MapReduceShuffle(mapFn, src, reduceFn, opts)
}

// ShuffleResults waits for a shuffle job's reducers and merges their
// sorted key results into one global key-sorted slice.
func ShuffleResults(exec *Executor, opts ...GetResultOptions) ([]KeyResult, error) {
	partitions, err := Results[[]KeyResult](exec, opts...)
	if err != nil {
		return nil, err
	}
	var out []KeyResult
	for _, p := range partitions {
		out = append(out, p...)
	}
	// Keys are unique across reducers, so an unstable sort is exact.
	slices.SortFunc(out, func(a, b KeyResult) int { return strings.Compare(a.Key, b.Key) })
	return out, nil
}

// GetResultSpeculative is GetResult with straggler mitigation: once most of
// the job has completed, lingering calls are re-invoked from their staged
// payloads, in rounds one straggler period apart. The client keeps the first status it fetches, but both attempts
// write their status and result, so storage ends with the later attempt's
// (ROADMAP.md, "One commit protocol for every attempt"). Functions must be
// idempotent (GoWren jobs are: results are pure functions of the staged
// payload).
func (e *Executor) GetResultSpeculative(opts GetResultOptions) ([]json.RawMessage, error) {
	return e.inner.GetResultSpeculative(opts)
}
