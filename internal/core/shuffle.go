package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"gowren/internal/cos"
	"gowren/internal/exchange"
	"gowren/internal/runtime"
	"gowren/internal/trace"
	"gowren/internal/wire"
)

// Keyed-shuffle MapReduce. The paper's related-work section singles out
// data shuffling as "one of the biggest challenges in running MapReduce
// jobs over serverless architectures" and lists object storage among the
// proposed shuffle media; this file implements exactly that — map
// executors hash-partition their emitted key–value pairs and commit them in
// their status objects in COS, and R reduce executors each range-read their
// partition of every map's status through the stage's index, grouping by
// key — plus the fast tiers the follow-up literature argues for: a
// per-stage Exchange selector can route the intermediates through the
// memory-tier cache node or directly between the producing and consuming
// activations (internal/exchange), with COS remaining the default and the
// correctness baseline every fast-tier failure degrades back to.

// ShuffleOptions tune MapReduceShuffle.
type ShuffleOptions struct {
	// ChunkBytes is the map-side partition size (zero = per object).
	ChunkBytes int64
	// NumReducers is the reduce-side parallelism R (default 1).
	NumReducers int
	// Exchange selects the intermediate-data transport: one of
	// wire.ExchangeCOS (default, also the empty string),
	// wire.ExchangeMemory or wire.ExchangeDirect. The fast tiers are
	// best-effort: any miss, eviction, node kill or expired linger window
	// falls back transparently to the COS path (spilled object, short
	// poll, then recomputation from the staged map payload), so results
	// are byte-identical across transports.
	Exchange string
}

// shuffleMapResult carries a shuffle-map call's user-visible value
// together with its exchange advertisement and, on COS, its partition
// frames; the runner unwraps it, embeds the ad in the status record and
// commits the frames after the record line (like the *wire.FuturesRef
// unwrap in envelopeFor). Every transport advertises: on COS the ad's
// partition sizes are the frames' layout, which the stage index is built
// from.
type shuffleMapResult struct {
	value  any
	ad     *wire.ExchangeAd
	frames *framePlan // COS only: written into the status object's buffer
}

// MapReduceShuffle runs a keyed MapReduce: mapFn (a KV map function) over
// the partitioned source, a data-exchange shuffle (COS by default; see
// ShuffleOptions.Exchange), and reduceFn (a per-key reduce function)
// across NumReducers reduce executors. It returns the reducer futures;
// each resolves to a []wire.KeyResult sorted by key.
func (e *Executor) MapReduceShuffle(mapFn string, src DataSource, reduceFn string, opts ShuffleOptions) ([]*Future, error) {
	r := opts.NumReducers
	if r <= 0 {
		r = 1
	}
	if !wire.ValidExchange(opts.Exchange) {
		return nil, fmt.Errorf("core: unknown exchange transport %q", opts.Exchange)
	}
	meta := e.cfg.Platform.MetaBucket()

	parts, err := PlanPartitions(e.cfg.Storage, src, opts.ChunkBytes)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, errors.New("core: shuffle partitioner produced no work")
	}

	mapIDs := e.reserveCallIDs(len(parts))
	mapPayloads := make([]*wire.CallPayload, len(parts))
	for i := range parts {
		part := parts[i]
		mapPayloads[i] = &wire.CallPayload{
			ExecutorID: e.id,
			CallID:     mapIDs[i],
			Runtime:    e.cfg.RuntimeImage,
			Function:   mapFn,
			Kind:       wire.KindShuffleMap,
			Partition:  &part,
			Shuffle:    &wire.ShuffleSpec{NumReducers: r, Exchange: opts.Exchange},
			MetaBucket: meta,
		}
	}
	reduceIDs := e.reserveCallIDs(r)
	reducePayloads := make([]*wire.CallPayload, r)
	for i := 0; i < r; i++ {
		reducePayloads[i] = &wire.CallPayload{
			ExecutorID: e.id,
			CallID:     reduceIDs[i],
			Runtime:    e.cfg.RuntimeImage,
			Function:   reduceFn,
			Kind:       wire.KindShuffleReduce,
			Shuffle: &wire.ShuffleSpec{
				NumReducers: r,
				Reducer:     i,
				MapCallIDs:  mapIDs,
				Exchange:    opts.Exchange,
			},
			MetaBucket: meta,
		}
	}

	// One barrier over the whole map phase: the reducers are staged, the maps
	// launched untracked, and the map that commits the phase's last status
	// starts all R reducers (fanin.go).
	futures, err := e.launchBehind([]stageGate{{inputs: mapPayloads, targets: reducePayloads}}, true, true)
	if err != nil {
		return nil, fmt.Errorf("core: map_reduce_shuffle: %w", err)
	}
	return futures, nil
}

// reducerForKey assigns a key to a reducer partition by FNV-1a hash,
// computed over the string in place.
func reducerForKey(key string, numReducers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numReducers))
}

// framePlan is pass one of framing a shuffle map's output: it hashes every
// key once and sums each reducer's frame size, so the frames' layout — and
// the descriptors a status advertises — are known before any byte is
// written, and a COS map can frame straight into its status object's buffer
// behind the record line (write).
type framePlan struct {
	kvs    []wire.KV
	dest   []int // dest[j] is the reducer of kvs[j]
	sizes  []int // each reducer's frame, magic byte included
	counts []int // each reducer's pairs
	size   int   // the frames in reducer order, one '\n' apart
}

// planFrames hash-partitions kvs into numReducers frames.
func planFrames(kvs []wire.KV, numReducers int) *framePlan {
	p := &framePlan{
		kvs:    kvs,
		dest:   make([]int, len(kvs)),
		sizes:  make([]int, numReducers),
		counts: make([]int, numReducers),
		size:   numReducers - 1, // separators
	}
	for j, kv := range kvs {
		i := reducerForKey(kv.Key, numReducers)
		p.dest[j] = i
		p.sizes[i] += wire.KVFrameSize(kv)
		p.counts[i]++
	}
	for i := range p.sizes {
		p.sizes[i]++ // the magic byte
		p.size += p.sizes[i]
	}
	return p
}

// write appends every pair, in emission order, to its reducer's frame in
// dst, which is p.size bytes: the frames in reducer order, one '\n' apart,
// as a COS map commits them after its record line (wire.ShuffleSpan) and a
// fast tier holds them in a buffer of their own. bodies[r], capped at its
// length, is reducer r's frame.
func (p *framePlan) write(dst []byte) (bodies [][]byte) {
	bodies = make([][]byte, len(p.sizes))
	start := 0
	for i, size := range p.sizes {
		end := start + size
		bodies[i] = wire.AppendKVs(dst[start:start:end], nil)
		if end < len(dst) {
			dst[end] = '\n'
		}
		start = end + 1
	}
	for j, i := range p.dest {
		bodies[i] = wire.AppendKVs(bodies[i], p.kvs[j:j+1])
	}
	return bodies
}

// framePartition frames reducer's pairs alone, in emission order: the
// bytes framePlan.write builds for it, without building the other bodies,
// so a recomputed partition is the producer's byte for byte.
func framePartition(kvs []wire.KV, numReducers, reducer int) []byte {
	size := 0
	for _, kv := range kvs {
		if reducerForKey(kv.Key, numReducers) == reducer {
			size += wire.KVFrameSize(kv)
		}
	}
	body := wire.AppendKVs(make([]byte, 0, 1+size), nil)
	for j, kv := range kvs {
		if reducerForKey(kv.Key, numReducers) == reducer {
			body = wire.AppendKVs(body, kvs[j:j+1])
		}
	}
	return body
}

// normalizeShuffleValues gives every value the bytes encoding/json writes
// for a json.RawMessage, which is what a partition carried when it was a
// JSON array: a nil value becomes null, invalid JSON fails the map, and a
// value with whitespace or a character json escapes is compacted through
// json.Marshal. Values from EmitKV are already in that form (wire.NormalKV)
// and are kept as they are without a scan; of the rest, a plain string is
// told apart in one pass (wire.PlainString) before the general checks.
func normalizeShuffleValues(kvs []wire.KV, numReducers int) error {
	for i, kv := range kvs {
		switch {
		case kv.Normal(), wire.PlainString(kv.Value):
		case kv.Value == nil:
			kvs[i].Value = json.RawMessage("null")
		case !json.Valid(kv.Value):
			_, err := json.Marshal(kv.Value)
			return fmt.Errorf("core: shuffle map serialize partition %d: %w", reducerForKey(kv.Key, numReducers), err)
		case wire.NeedsCompact(kv.Value):
			v, err := json.Marshal(kv.Value)
			if err != nil {
				return fmt.Errorf("core: shuffle map serialize partition %d: %w", reducerForKey(kv.Key, numReducers), err)
			}
			kvs[i].Value = v
		}
	}
	return nil
}

// runShuffleMap executes the map side: run the KV function, hash-partition
// its output, and stage one partition per reducer (always, even when
// empty, so reducers need no existence probes) on the selected exchange
// transport: on COS all of them in the map's status object, which the
// runner writes (so the exchange's COS write span is that PUT's), on a fast
// tier one entry each. Fast-tier refusals — cache down, entry too large,
// peers being killed — degrade to a COS write per partition, so the shuffle
// never depends on the fast tier being alive.
func (p *Platform) runShuffleMap(ctx *runtime.Ctx, payload *wire.CallPayload) (any, error) {
	fn, err := ctx.Image().KVMap(payload.Function)
	if err != nil {
		return nil, err
	}
	reader := runtime.NewPartitionReader(ctx.Storage(), *payload.Partition)
	kvs, err := fn(ctx, reader)
	if err != nil {
		return nil, err
	}
	r := payload.Shuffle.NumReducers
	if err := normalizeShuffleValues(kvs, r); err != nil {
		return nil, err
	}
	plan := planFrames(kvs, r)
	descs := make([]wire.PartitionDescriptor, r)
	for i, size := range plan.sizes {
		descs[i] = wire.PartitionDescriptor{Reducer: i, Bytes: int64(size), Keys: plan.counts[i]}
	}

	transport := payload.Shuffle.Exchange
	if transport == "" {
		transport = wire.ExchangeCOS
	}
	ad := &wire.ExchangeAd{Transport: transport, Partitions: descs}
	value := map[string]any{"emitted": len(kvs), "perReducer": plan.counts}
	if transport == wire.ExchangeCOS {
		return &shuffleMapResult{value: value, ad: ad, frames: plan}, nil
	}
	bodies := plan.write(make([]byte, plan.size))
	writeStart := ctx.Clock().Now()

	switch transport {
	case wire.ExchangeMemory:
		for i, body := range bodies {
			key := wire.ShuffleKey(payload.ExecutorID, payload.CallID, i)
			putErr := p.exchange.Cache.Put(key, body)
			if putErr == nil {
				continue
			}
			// Cache refused (down, transient failure, oversized entry):
			// this partition takes the baseline path right now, so no
			// reducer ever waits on a write that never happened.
			p.exchange.NoteFallback(wire.ExchangeMemory)
			ad.Fallbacks++
			if p.trace != nil {
				p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
					"transport=memory op=put key=%s bytes=%d fallback=%v", key, len(body), putErr)
			}
			if _, err := ctx.Storage().Put(payload.MetaBucket, key, body); err != nil {
				return nil, fmt.Errorf("core: shuffle map write partition %d: %w", i, err)
			}
		}
	case wire.ExchangeDirect:
		expires, pubErr := p.exchange.Peers.Publish(payload.ExecutorID, payload.CallID, bodies)
		if pubErr == nil {
			ad.LingerUntilNs = expires.UnixNano()
			// The producing container stays resident — pinned against
			// idle eviction, though still reusable — until the linger
			// window closes, serving peer pulls.
			p.controller.LingerActivation(ctx.ActivationID(), expires)
		} else {
			// Peers are being killed: every partition degrades to COS.
			p.exchange.NoteFallback(wire.ExchangeDirect)
			ad.Fallbacks = r
			if p.trace != nil {
				p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
					"transport=direct op=publish call=%s fallback=%v", payload.CallID, pubErr)
			}
			for i, body := range bodies {
				key := wire.ShuffleKey(payload.ExecutorID, payload.CallID, i)
				if _, err := ctx.Storage().Put(payload.MetaBucket, key, body); err != nil {
					return nil, fmt.Errorf("core: shuffle map write partition %d: %w", i, err)
				}
			}
		}
	}
	p.exchange.NoteWrite(writeStart, ctx.Clock().Now())
	return &shuffleMapResult{value: value, ad: ad}, nil
}

// Bounds for the COS poll between a fast-tier miss and recomputation: long
// enough to cover an in-flight eviction spill or a producer's synchronous
// fallback write landing, short enough that a dead tier costs the reducer
// a bounded delay, not its deadline. One poll is also what a COS reducer
// gives a missing stage index before rebuilding it.
const (
	shuffleFallbackWait = 2 * time.Second
	shuffleFallbackPoll = 100 * time.Millisecond
	// shuffleTierRetries bounds the quick same-tier retries a reducer pays
	// on ErrUnavailable before declaring the tier gone: a transient link
	// blip recovers in one hop instead of a full fallback poll, while a
	// genuinely dead node fails all retries in a few milliseconds.
	shuffleTierRetries  = 2
	shuffleTierRetryGap = 25 * time.Millisecond
	// shuffleIndexFetchers bounds the map-status GETs a stage-index build
	// keeps in flight, as the executor's default StageConcurrency does.
	shuffleIndexFetchers = 64
)

// exchangeCOS reports whether a shuffle stage exchanges through COS, the
// default transport.
func exchangeCOS(spec *wire.ShuffleSpec) bool {
	return spec.Exchange == "" || spec.Exchange == wire.ExchangeCOS
}

// shuffleIndexed reports whether a shuffle stage's reducers read through a
// stage index: on COS with more than one reducer. With one, a reducer's
// partition is everything its map's status object carries after the line.
func shuffleIndexed(spec *wire.ShuffleSpec) bool {
	return exchangeCOS(spec) && spec.NumReducers > 1
}

// committedStatus is a status object as far as a stage-index build needs
// it: the record, the length of its line — the frames start one byte past
// it — and the object's ETag.
type committedStatus struct {
	rec  *wire.StatusRecord
	line int64
	etag string
}

// statusHeadBytes is the head range a stage-index build reads of a map's
// status object: room for the record line of a map with a few dozen
// reducers, without the frames after it.
const statusHeadBytes = 4 << 10

// readStatusHead reads the record line of the status object at key with a
// ranged GET from its first byte, statusHeadBytes wide and four times wider
// each time a full range holds no line break.
func readStatusHead(storage cos.Client, bucket, key string) (committedStatus, error) {
	for n := int64(statusHeadBytes); ; n *= 4 {
		body, meta, err := storage.GetRange(bucket, key, 0, n)
		if err != nil {
			return committedStatus{}, err
		}
		line := bytes.IndexByte(body, '\n')
		if line < 0 && int64(len(body)) == n {
			continue
		}
		if line < 0 {
			line = len(body)
		}
		rec, _, err := wire.DecodeStatus(body[:line])
		if err != nil {
			return committedStatus{}, err
		}
		return committedStatus{rec: &rec, line: int64(line), etag: meta.ETag}, nil
	}
}

// buildShuffleIndex builds a COS shuffle stage's index from its map
// statuses: the partition sizes each map advertised are the layout of the
// frames after its record line, and the ETag its status was read at pins
// that layout. own, when set, is the calling map's status, already in hand;
// the others' record lines are read in parallel, head ranges only. A failed
// map fails the build.
func (p *Platform) buildShuffleIndex(ctx *runtime.Ctx, bucket, execID string, mapIDs []string, reducers int, own *committedStatus) ([]byte, error) {
	idx := wire.ShuffleIndex{Maps: make([]wire.PayloadSpan, len(mapIDs))}
	errs := fetchFor(ctx.Clock(), shuffleIndexFetchers, len(mapIDs), func(i int) error {
		key := statusKey(execID, mapIDs[i])
		st := own
		if st == nil || st.rec.CallID != mapIDs[i] {
			head, err := readStatusHead(ctx.Storage(), bucket, key)
			if err != nil {
				return fmt.Errorf("map status %s: %w", mapIDs[i], err)
			}
			st = &head
		}
		switch rec := st.rec; {
		case !rec.OK:
			return fmt.Errorf("map call %s failed: %s: %w", mapIDs[i], rec.Error, ErrCallFailed)
		case rec.Exchange == nil || len(rec.Exchange.Partitions) != reducers:
			return fmt.Errorf("map call %s advertises no %d-partition frames", mapIDs[i], reducers)
		}
		idx.Maps[i] = wire.ShuffleSpan(key, st.etag, st.line+1, st.rec.Exchange.Partitions)
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, fmt.Errorf("core: shuffle index: %w", err)
	}
	return wire.Marshal(&idx)
}

// indexShuffleStage runs in the fan-in closer of a COS shuffle's map stage,
// after the claim and before the reducers launch: it builds the stage index
// and writes it, create-only. Reducers that find no index — this closer
// died or failed here — rebuild it the same way (loadShuffleIndex).
func (p *Platform) indexShuffleStage(ctx *runtime.Ctx, gate *fanInGate, payload *wire.CallPayload, own committedStatus) error {
	if payload.Kind != wire.KindShuffleMap || !shuffleIndexed(payload.Shuffle) {
		return nil
	}
	mapIDs := make([]string, gate.spec.Count)
	for i := range mapIDs {
		mapIDs[i] = callIDForSeq(gate.first + i)
	}
	body, err := p.buildShuffleIndex(ctx, gate.bucket, gate.execID, mapIDs, payload.Shuffle.NumReducers, &own)
	if err != nil {
		return err
	}
	_, err = ctx.Storage().PutIf(gate.bucket, wire.ShuffleIndexKey(gate.execID, gate.spec.FirstCallID), body, "")
	if errors.Is(err, cos.ErrPreconditionFailed) {
		return nil // a reducer that started early rebuilt it first
	}
	return err
}

// loadShuffleIndex reads the stage index the fan-in closer wrote. Missing
// before the stage committed, it takes the input barrier and reads again,
// once more after one poll; still missing — the closer never wrote it — it
// rebuilds the index from the map statuses and writes it, create-only, for
// its siblings.
func (p *Platform) loadShuffleIndex(ctx *runtime.Ctx, payload *wire.CallPayload, inputs *inputBarrier) (*wire.ShuffleIndex, error) {
	spec := payload.Shuffle
	key := wire.ShuffleIndexKey(payload.ExecutorID, spec.MapCallIDs[0])
	body, err := inputs.get(payload.MetaBucket, key)
	if errors.Is(err, cos.ErrNoSuchKey) {
		// The stage has committed, and its closer writes the index a few
		// round trips after the last commit: give it one poll to land.
		ctx.Clock().Sleep(shuffleFallbackPoll)
		body, _, err = ctx.Storage().Get(payload.MetaBucket, key)
	}
	if errors.Is(err, cos.ErrNoSuchKey) {
		body, err = p.buildShuffleIndex(ctx, payload.MetaBucket, payload.ExecutorID, spec.MapCallIDs, spec.NumReducers, nil)
		if err == nil {
			_, putErr := ctx.Storage().PutIf(payload.MetaBucket, key, body, "")
			p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
				"transport=cos op=index key=%s rebuilt put=%v", key, putErr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: shuffle reduce index %s: %w", key, err)
	}
	return decodeShuffleIndex(spec, key, body)
}

// decodeShuffleIndex decodes the index at key and checks that it locates
// the stage's maps and partitions.
func decodeShuffleIndex(spec *wire.ShuffleSpec, key string, body []byte) (*wire.ShuffleIndex, error) {
	idx, err := wire.DecodeShuffleIndex(body)
	if err != nil {
		return nil, err
	}
	if len(idx.Maps) != len(spec.MapCallIDs) || idx.Maps[0].Calls() != spec.NumReducers {
		return nil, fmt.Errorf("core: shuffle index %s locates %d maps × %d partitions, want %d × %d",
			key, len(idx.Maps), idx.Maps[0].Calls(), len(spec.MapCallIDs), spec.NumReducers)
	}
	return idx, nil
}

// readMapFrames returns how a COS reducer reads its partition of map m out
// of the map's status object: when R = 1 the frame after the record line of
// the whole object, else its slice, one ranged GET located by the stage
// index. A slice read from another version of a status than the one the
// index pinned — the map ran again after the index was written — makes the
// reducer rebuild the index in memory from the current statuses, with no
// PUT, and read again; a second mismatch fails the reducer.
func (p *Platform) readMapFrames(ctx *runtime.Ctx, payload *wire.CallPayload, inputs *inputBarrier) (func(m int) ([]byte, error), error) {
	spec := payload.Shuffle
	if !shuffleIndexed(spec) {
		return func(m int) ([]byte, error) {
			body, err := inputs.get(payload.MetaBucket, statusKey(payload.ExecutorID, spec.MapCallIDs[m]))
			if err != nil {
				return nil, err
			}
			return wholeMapFrame(body)
		}, nil
	}
	idx, err := p.loadShuffleIndex(ctx, payload, inputs)
	if err != nil {
		return nil, err
	}
	rebuilt := false
	return func(m int) ([]byte, error) {
		for {
			span := idx.Maps[m]
			ref := span.Ref(payload.MetaBucket, spec.Reducer)
			body, meta, err := ctx.Storage().GetRange(ref.Bucket, ref.Key, ref.Offset, ref.Length)
			switch {
			case err == nil && meta.ETag == span.ETag:
				return body, nil
			case err != nil && !errors.Is(err, cos.ErrInvalidRange):
				return nil, err
			case rebuilt:
				return nil, fmt.Errorf("core: status of map %s changed under a rebuilt stage index (ETag %s, index %s)",
					spec.MapCallIDs[m], meta.ETag, span.ETag)
			}
			p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
				"transport=cos op=index map=%s stale etag=%s rebuilt", spec.MapCallIDs[m], span.ETag)
			if idx, err = p.rebuildShuffleIndex(ctx, payload); err != nil {
				return nil, err
			}
			rebuilt = true
		}
	}, nil
}

// rebuildShuffleIndex builds a stage index from the map statuses as they are
// now, for this reducer alone: the stored index is left as it is.
func (p *Platform) rebuildShuffleIndex(ctx *runtime.Ctx, payload *wire.CallPayload) (*wire.ShuffleIndex, error) {
	spec := payload.Shuffle
	body, err := p.buildShuffleIndex(ctx, payload.MetaBucket, payload.ExecutorID, spec.MapCallIDs, spec.NumReducers, nil)
	if err != nil {
		return nil, err
	}
	return decodeShuffleIndex(spec, wire.ShuffleIndexKey(payload.ExecutorID, spec.MapCallIDs[0]), body)
}

// wholeMapFrame cuts the one frame of an R = 1 COS map out of its whole
// status object.
func wholeMapFrame(body []byte) ([]byte, error) {
	rec, rest, err := wire.DecodeStatus(body)
	switch {
	case err != nil:
		return nil, err
	case !rec.OK:
		return nil, fmt.Errorf("map call %s failed: %s: %w", rec.CallID, rec.Error, ErrCallFailed)
	case rec.Exchange == nil || len(rec.Exchange.Partitions) != 1:
		return nil, fmt.Errorf("map call %s advertises no 1-partition frame", rec.CallID)
	}
	if n := rec.Exchange.Partitions[0].Bytes; n >= 0 && n <= int64(len(rest)) {
		return rest[:n], nil
	}
	return nil, fmt.Errorf("map call %s advertises a %d-byte frame in %d bytes", rec.CallID, rec.Exchange.Partitions[0].Bytes, len(rest))
}

// fetchShufflePartition fetches this reducer's partition of one map call
// from the job's fast tier; a miss falls through to shuffleFallback. A miss
// before inputs passed may only mean this activation started before the map
// committed, so it first waits out the stage and asks once more.
func (p *Platform) fetchShufflePartition(ctx *runtime.Ctx, payload *wire.CallPayload, mapID string, inputs *inputBarrier) ([]byte, error) {
	spec := payload.Shuffle
	key := wire.ShuffleKey(payload.ExecutorID, mapID, spec.Reducer)
	tier := func() ([]byte, error) { return p.exchange.Cache.Get(key) }
	if spec.Exchange == wire.ExchangeDirect {
		tier = func() ([]byte, error) { return p.exchange.Peers.Pull(payload.ExecutorID, mapID, spec.Reducer) }
	}
	body, err := p.tierGet(ctx, tier)
	if err != nil && !inputs.passed {
		if err := inputs.await(); err != nil {
			return nil, err
		}
		body, err = p.tierGet(ctx, tier)
	}
	if err != nil {
		return p.shuffleFallback(ctx, payload, mapID, key, err)
	}
	// The tier hands back the buffer it stores, which a later reducer, an
	// eviction spill or a retry reads again: the reducer gets its own copy.
	return bytes.Clone(body), nil
}

// tierGet runs one fast-tier read, absorbing up to shuffleTierRetries
// transient ErrUnavailable failures. Definitive misses (not found, peer
// lost, expired) return immediately — retrying cannot change them.
func (p *Platform) tierGet(ctx *runtime.Ctx, get func() ([]byte, error)) ([]byte, error) {
	body, err := get()
	for attempt := 0; errors.Is(err, exchange.ErrUnavailable) && attempt < shuffleTierRetries; attempt++ {
		ctx.Clock().Sleep(shuffleTierRetryGap)
		body, err = get()
	}
	return body, err
}

// shuffleFallback is the degradation path after a fast-tier miss: poll COS
// for the partition object (an eviction spill or a producer-side fallback
// write may still be landing), then recompute the partition from the
// staged map payload. cause is the fast-tier error, kept for the trace.
func (p *Platform) shuffleFallback(ctx *runtime.Ctx, payload *wire.CallPayload, mapID, key string, cause error) ([]byte, error) {
	spec := payload.Shuffle
	p.exchange.NoteFallback(spec.Exchange)
	if p.trace != nil {
		p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
			"transport=%s op=get key=%s fallback=%v", spec.Exchange, key, cause)
	}
	deadline := ctx.Clock().Now().Add(shuffleFallbackWait)
	if ctxDeadline := ctx.Deadline(); !ctxDeadline.IsZero() && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	for {
		body, _, err := ctx.Storage().Get(payload.MetaBucket, key)
		if err == nil {
			if p.trace != nil {
				p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
					"transport=%s op=get key=%s bytes=%d served=cos", spec.Exchange, key, len(body))
			}
			return body, nil
		}
		if !errors.Is(err, cos.ErrNoSuchKey) {
			return nil, fmt.Errorf("core: shuffle fallback fetch %s: %w", key, err)
		}
		if !ctx.Clock().Now().Add(shuffleFallbackPoll).Before(deadline) {
			break
		}
		ctx.Clock().Sleep(shuffleFallbackPoll)
	}
	body, err := p.recomputeShufflePartition(ctx, payload, mapID)
	if err != nil {
		return nil, err
	}
	if p.trace != nil {
		p.trace.Emitf(ctx.Clock().Now(), trace.KindExchange, ctx.ActivationID(),
			"transport=%s op=get key=%s bytes=%d served=recompute", spec.Exchange, key, len(body))
	}
	return body, nil
}

// recomputeShufflePartition rebuilds this reducer's partition of one map
// call from first principles: load the map call's staged payload, re-run
// its KV function over its source partition, and keep the keys that hash
// to this reducer. The staged payload is durable in COS and the map
// function is pure over its partition, so the result is byte-identical to
// what the producer staged — this is the recomputation-from-payload
// fallback that lets the fast tiers skip synchronous COS backups. The
// reducer's activation pays the map work again, which is the documented
// cost of losing a fast-tier node.
func (p *Platform) recomputeShufflePartition(ctx *runtime.Ctx, payload *wire.CallPayload, mapID string) ([]byte, error) {
	spec := payload.Shuffle
	staged, err := resolvePayloads(ctx.Storage(), payload.MetaBucket, payload.ExecutorID, []string{mapID})
	if err != nil {
		return nil, fmt.Errorf("core: shuffle recompute load payload %s: %w", mapID, err)
	}
	mp, err := wire.DecodePayload(staged[0].body)
	if err != nil {
		return nil, err
	}
	if mp.Kind != wire.KindShuffleMap || mp.Partition == nil {
		return nil, fmt.Errorf("core: shuffle recompute: call %s is not a shuffle map", mapID)
	}
	fn, err := ctx.Image().KVMap(mp.Function)
	if err != nil {
		return nil, err
	}
	reader := runtime.NewPartitionReader(ctx.Storage(), *mp.Partition)
	kvs, err := fn(ctx, reader)
	if err != nil {
		return nil, fmt.Errorf("core: shuffle recompute map %s: %w", mapID, err)
	}
	if err := normalizeShuffleValues(kvs, spec.NumReducers); err != nil {
		return nil, fmt.Errorf("core: shuffle recompute map %s: %w", mapID, err)
	}
	return framePartition(kvs, spec.NumReducers, spec.Reducer), nil
}

// runShuffleReduce executes the reduce side: fetch this reducer's shuffle
// partition of every map call over the job's exchange transport (waiting
// for the map phase only if it started before the phase committed), group by
// key, and call the per-key reduce function over sorted keys.
func (p *Platform) runShuffleReduce(ctx *runtime.Ctx, payload *wire.CallPayload) (any, error) {
	fn, err := ctx.Image().KVReduce(payload.Function)
	if err != nil {
		return nil, err
	}
	spec := payload.Shuffle

	// The shuffle partitions are staged no later than the map status
	// commits (on COS they ride it), so the map statuses (same mechanism as
	// plain reducers) are the barrier on every transport — taken only if a
	// partition, a status or the index turns out to be missing.
	inputs := &inputBarrier{
		ctx: ctx, who: "shuffle reduce", inputs: spec.MapCallIDs,
		ns: nsKey{bucket: payload.MetaBucket, execID: payload.ExecutorID},
	}

	readStart := ctx.Clock().Now()
	var fetch func(m int) ([]byte, error)
	if exchangeCOS(spec) {
		if fetch, err = p.readMapFrames(ctx, payload, inputs); err != nil {
			return nil, err
		}
	} else {
		fetch = func(m int) ([]byte, error) {
			return p.fetchShufflePartition(ctx, payload, spec.MapCallIDs[m], inputs)
		}
	}
	groups := newKVGroups(len(spec.MapCallIDs))
	for m, mapID := range spec.MapCallIDs {
		body, err := fetch(m)
		if err != nil {
			return nil, fmt.Errorf("core: shuffle reduce fetch partition of %s: %w", mapID, err)
		}
		if err := wire.EachKV(body, groups.add); err != nil {
			return nil, fmt.Errorf("core: shuffle reduce partition of %s: %w", mapID, err)
		}
	}
	p.exchange.NoteRead(readStart, ctx.Clock().Now())

	keys := slices.Sorted(maps.Keys(groups.index))
	for _, k := range keys {
		// Defensive: a hash mismatch would silently double-count keys.
		if reducerForKey(k, spec.NumReducers) != spec.Reducer {
			return nil, fmt.Errorf("core: key %q shuffled to wrong reducer %d", k, spec.Reducer)
		}
	}

	out := make([]wire.KeyResult, 0, len(keys))
	for _, k := range keys {
		value, err := fn(ctx, k, groups.values[groups.index[k]])
		if err != nil {
			return nil, fmt.Errorf("core: reduce key %q: %w", k, err)
		}
		raw, err := wire.Marshal(value)
		if err != nil {
			return nil, fmt.Errorf("core: serialize reduced key %q: %w", k, err)
		}
		out = append(out, wire.KeyResult{Key: k, Value: raw})
	}
	return out, nil
}

// kvGroups collects a reducer's values by key. Values alias the partition
// bodies they came from, and so do the strings a typed reducer decodes from
// them: COS reads and recomputation hand back fresh buffers,
// fetchShufflePartition clones fast-tier ones, and nothing writes a body
// once it is grouped. So a reduce function may scribble on its values, and
// keep its strings after the job (TestReducedStringsOutliveTheirJob).
type kvGroups struct {
	// index maps a key to its slot in values. Looking a []byte key up
	// does not allocate, so a key string is made once, with its group.
	index  map[string]int
	values [][]json.RawMessage
	perKey int // capacity of a new group: one value per map call is typical
}

func newKVGroups(perKey int) *kvGroups {
	return &kvGroups{index: make(map[string]int), perKey: perKey}
}

func (g *kvGroups) add(key, value []byte) {
	i, ok := g.index[string(key)]
	if !ok {
		i = len(g.values)
		g.index[string(key)] = i
		g.values = append(g.values, make([]json.RawMessage, 0, g.perKey))
	}
	g.values[i] = append(g.values[i], value)
}
