package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"gowren/internal/faas"
	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// inlineThreshold is the largest record that rides inside another instead
// of beside it, in both directions of a call. A staged payload line of at
// most this size travels in the invoke parameters beside its ref, so the
// runner reads no payload; a serialized ResultEnvelope of at most this size
// is embedded in the status record, so the record line carries it. A larger
// envelope spills into the same status object, after the line (see
// wire.StatusObject): a call commits with one PUT and is collected with one
// GET either way, and the line stays small enough for a head-range read.
// 8 KiB keeps either record comfortably inside one request while covering
// the paper's workloads, whose arguments and per-call outputs are small.
const inlineThreshold = 8 << 10

// invokeParams is what an invocation of the call staged at ref carries: the
// ref, and the staged line too when it is at most inlineThreshold bytes.
func invokeParams(ref wire.ObjectRef, line []byte) []byte {
	if len(line) > inlineThreshold {
		line = nil
	}
	return wire.InvokeParams(ref, line)
}

// runnerHandler returns the generic action handler that executes staged
// calls: the server side of the paper's Fig. 1. It takes the CallPayload
// from the invoke parameters (or, for a call that did not ride inline, from
// COS), dispatches to the user function registered in the runtime image,
// and commits the call's status object, its result inside, back to COS with
// one PUT of one buffer (commitObject). The status write is the commit point
// clients poll for.
func (p *Platform) runnerHandler() faas.Handler {
	return func(ctx *runtime.Ctx, params []byte) ([]byte, error) {
		payload, err := p.loadPayload(ctx, params)
		if err != nil {
			return nil, fmt.Errorf("core: runner load payload: %w", err)
		}
		// The payload carries the call's region placement and tenant; from
		// here on the function reads and writes through its own region's
		// view (a payload that did not ride inline was read through the
		// default view — the region is only known once the payload is
		// decoded) and anything it spawns is admitted as its tenant.
		ctx = p.placementFor(ctx, payload.Region, payload.Tenant)

		started := ctx.Clock().Now()
		value, runErr := p.dispatch(ctx, payload)
		ended := ctx.Clock().Now()

		// A shuffle map returns its value wrapped with the exchange
		// advertisement (and, on COS, its frames); unwrap it so the ad and
		// the frames ride the status object and the envelope sees the plain
		// value (same pattern as the *wire.FuturesRef unwrap in envelopeFor).
		var (
			exchangeAd *wire.ExchangeAd
			frames     *framePlan
		)
		if sr, ok := value.(*shuffleMapResult); ok {
			exchangeAd, frames = sr.ad, sr.frames
			value = sr.value
		}

		key := statusKey(payload.ExecutorID, payload.CallID)
		rec := wire.StatusRecord{
			ExecutorID:   payload.ExecutorID,
			CallID:       payload.CallID,
			ActivationID: ctx.ActivationID(),
			ColdStart:    ctx.ColdStart(),
			SubmitUnixNs: started.UnixNano(),
			StartUnixNs:  started.UnixNano(),
			EndUnixNs:    ended.UnixNano(),
			ResultRef:    wire.ObjectRef{Bucket: payload.MetaBucket, Key: key},
			Exchange:     exchangeAd,
		}
		line, object := commitObject(&rec, value, runErr, frames)
		putStart := ctx.Clock().Now()
		meta, err := ctx.Storage().Put(payload.MetaBucket, key, object)
		if err != nil {
			// Without a status the client can never observe completion;
			// surface the failure at the platform level instead.
			return nil, fmt.Errorf("core: runner commit status: %w", err)
		}
		if frames != nil {
			p.exchange.NoteWrite(putStart, ctx.Clock().Now())
		}
		if len(object) > len(line) {
			// The activation record keeps its result: the line alone, not
			// the buffer of frames or spilled envelope behind it.
			line = bytes.Clone(line)
		}
		if payload.FanIn != nil {
			// The call is committed either way; a failure here only shows
			// in the activation record, and the driver's backstop launches
			// what this call could not.
			committed := rec // a copy: only a fan-in moves a record to the heap
			own := committedStatus{rec: &committed, line: int64(len(line)), etag: meta.ETag}
			if err := p.closeFanIn(ctx, payload, own); err != nil {
				return nil, err
			}
		}
		return line, nil
	}
}

// commitObject completes rec — which names the status object in ResultRef —
// with the call's outcome and lays out the object that commits it, in one
// buffer (wire.StatusObject): value's envelope rides the record line, or
// spills after it when its encoding is larger than inlineThreshold, and a
// COS shuffle map's frames are written in place behind the line.
func commitObject(rec *wire.StatusRecord, value any, runErr error, frames *framePlan) (line, object []byte) {
	var env *wire.ResultEnvelope
	if runErr != nil {
		rec.Error = runErr.Error()
	} else {
		rec.OK = true
		e := envelopeFor(value)
		env = &e
	}
	n := 0
	if frames != nil {
		n = frames.size
	}
	line, object = wire.StatusObject(rec, env, inlineThreshold, n)
	if frames != nil {
		frames.write(object[len(line)+1:][:n])
	}
	return line, object
}

// envelopeFor wraps a user function's return value. Returning a
// *wire.FuturesRef turns the result into a composition continuation.
func envelopeFor(value any) wire.ResultEnvelope {
	if ref, ok := value.(*wire.FuturesRef); ok && ref != nil {
		return wire.ResultEnvelope{Kind: wire.ResultFutures, Futures: ref}
	}
	raw, err := wire.Marshal(value)
	if err != nil {
		// Caller checked serializability; nil value fallback keeps the
		// invariant that envelopeFor always produces an envelope.
		raw = json.RawMessage("null")
	}
	return wire.ResultEnvelope{Kind: wire.ResultValue, Value: raw}
}

// dispatch runs the user (or helper) function named by the payload.
func (p *Platform) dispatch(ctx *runtime.Ctx, payload *wire.CallPayload) (any, error) {
	switch payload.Kind {
	case wire.KindPlain:
		fn, err := ctx.Image().Plain(payload.Function)
		if err != nil {
			return nil, err
		}
		return fn(ctx, payload.Arg)
	case wire.KindMapPartition:
		fn, err := ctx.Image().MapPartition(payload.Function)
		if err != nil {
			return nil, err
		}
		reader := runtime.NewPartitionReader(ctx.Storage(), *payload.Partition)
		return fn(ctx, reader)
	case wire.KindReduce:
		fn, err := ctx.Image().Reduce(payload.Function)
		if err != nil {
			return nil, err
		}
		partials, err := p.awaitMapPartials(ctx, payload.Reduce)
		if err != nil {
			return nil, err
		}
		return fn(ctx, payload.Reduce.GroupKey, partials)
	case wire.KindShuffleMap:
		return p.runShuffleMap(ctx, payload)
	case wire.KindShuffleReduce:
		return p.runShuffleReduce(ctx, payload)
	case wire.KindInvoker:
		return nil, nil // a remote invoker's work is its fan-in (closeFanIn)
	default:
		return nil, fmt.Errorf("core: runner cannot dispatch kind %s", payload.Kind)
	}
}

// awaitMapPartials fetches the value of every map call feeding this
// reducer, one status GET each: a spilled value rides its status object.
// Launched by its group's fan-in it finds them all committed; an
// activation started earlier falls into the paper's §4.3 semantics at the
// first missing status: "The reduce function will wait for all the partial
// results before processing them."
func (p *Platform) awaitMapPartials(ctx *runtime.Ctx, spec *wire.ReduceSpec) ([]json.RawMessage, error) {
	inputs := &inputBarrier{
		ctx: ctx, who: "reduce", inputs: spec.MapCallIDs,
		ns: nsKey{bucket: spec.MetaBucket, execID: spec.ExecutorID},
	}
	partials := make([]json.RawMessage, len(spec.MapCallIDs))
	for i, callID := range spec.MapCallIDs {
		body, err := inputs.get(spec.MetaBucket, statusKey(spec.ExecutorID, callID))
		if err != nil {
			return nil, fmt.Errorf("core: reduce fetch map status %s: %w", callID, err)
		}
		rec, err := decodeStatusObject(body)
		if err != nil {
			return nil, err
		}
		if !rec.OK {
			return nil, fmt.Errorf("core: map call %s failed: %s: %w", callID, rec.Error, ErrCallFailed)
		}
		env, err := wire.DecodeEnvelope(rec.Inline)
		if err != nil {
			return nil, err
		}
		if env.Kind != wire.ResultValue {
			return nil, fmt.Errorf("core: map call %s returned a %s envelope; reducers consume plain values", callID, env.Kind)
		}
		partials[i] = env.Value
	}
	return partials, nil
}

// loadPayload decodes the call the invoke parameters name: the staged line
// they carry inline, or else the ref's byte range of a payload batch (the
// whole object, for a ref without a range), read with one GET.
func (p *Platform) loadPayload(ctx *runtime.Ctx, params []byte) (*wire.CallPayload, error) {
	ref, body, err := wire.DecodeParams(params)
	switch {
	case err != nil:
		return nil, err
	case body != nil:
	case ref.Length > 0:
		body, _, err = ctx.Storage().GetRange(ref.Bucket, ref.Key, ref.Offset, ref.Length)
	default:
		body, _, err = ctx.Storage().Get(ref.Bucket, ref.Key)
	}
	if err != nil {
		return nil, err
	}
	return wire.DecodePayload(body)
}

// spawner implements runtime.Spawner over an in-cloud executor, enabling
// dynamic composition from inside functions (§4.4). region is the spawning
// function's storage region ("" outside multi-region platforms): the
// sub-executor's own traffic stays in that region, while the spawned calls
// get their own placement. tenant is the spawning call's tenant, so
// children are admitted under the same fair-share quota as their parent.
type spawner struct {
	platform *Platform
	image    string
	deadline time.Time
	region   string
	tenant   string
}

var _ runtime.Spawner = (*spawner)(nil)

// Spawn stages and fires one invocation per argument and returns a
// reference combining them as a list. Callers building sequences can set
// ref.Combine = wire.CombineSingle before returning the ref.
func (s *spawner) Spawn(function string, args []any) (*wire.FuturesRef, error) {
	image := s.image
	if image == "" {
		image = runtime.DefaultImage
	}
	sub, err := s.platform.inCloudExecutor(image, s.region, s.tenant)
	if err != nil {
		return nil, err
	}
	futures, err := sub.Map(function, args)
	if err != nil {
		return nil, err
	}
	callIDs := make([]string, len(futures))
	actIDs := make([]string, len(futures))
	known := false
	for i, f := range futures {
		callIDs[i] = f.CallID()
		actIDs[i] = f.ActivationID()
		if actIDs[i] != "" {
			known = true
		}
	}
	ref := &wire.FuturesRef{
		MetaBucket: s.platform.MetaBucket(),
		ExecutorID: sub.ID(),
		CallIDs:    callIDs,
		Combine:    wire.CombineList,
	}
	// Carrying the activation IDs lets whoever awaits this ref consult
	// activation records for spawned calls that die without committing a
	// status, instead of hanging until its deadline.
	if known {
		ref.ActivationIDs = actIDs
	}
	return ref, nil
}

// Await blocks until every call in ref committed a status and returns their
// resolved values in order.
func (s *spawner) Await(ref *wire.FuturesRef) ([]json.RawMessage, error) {
	image := s.image
	if image == "" {
		image = runtime.DefaultImage
	}
	sub, err := s.platform.inCloudExecutor(image, s.region, s.tenant)
	if err != nil {
		return nil, err
	}
	r := &resolver{exec: sub, deadline: s.deadline}
	return r.resolveCalls(ref, 0)
}
