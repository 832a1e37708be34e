package core

import (
	"fmt"
	"strconv"
	"strings"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

// Payload staging. A launch stages its calls as payload batches — one object
// per launch, framed by wire.JoinPayloads — under
//
//	jobs/{exec}/payload/{firstCallID}+{count}
//
// and hands every call a wire.ObjectRef carrying its byte range. That ref
// travels in the invoke parameters, and nothing on the hot path derives a key
// from a call ID. A line of at most inlineThreshold bytes travels there too
// (invokeParams), so its runner reads nothing; the batch is still staged for
// the invocations that carry the ref alone — Respawn, the fan-in backstop,
// calls above the threshold — whose runner range-GETs its slice.
//
// The batch is staged before the invocations, except in a job's first launch
// when every call rides inline (stagedCalls.deferrable): nobody can read that
// batch before the launch returns, so it is PUT after the invocations with
// the launch record as its last line, and the manifest, created first,
// reserves its key and so its call IDs (Executor.launch).
//
// Readers that know only (executor, call ID) — respawn re-placement,
// dead-letter replay, shuffle recompute — go through resolvePayloads, which
// reads the key names. Futures adopted by Attach take their refs from the
// reserved batch when their launch record came in it (replayJournal), and
// from the resolver otherwise.

// payloadBatchBytes caps one batch object. A WAN client pays per request, not
// per byte, so the cap only exists to keep a single PUT — and the whole-batch
// GET of the resolver — within what one request comfortably carries: 1 MiB is
// ~3,500 plain payloads, and a lost PUT re-sends at most that much.
const payloadBatchBytes = 1 << 20

// payloadBatch is a batch object as its key describes it: the calls
// first … first+count-1 of one executor namespace, one per line.
type payloadBatch struct {
	key   string
	first int
	count int
}

func batchKey(execID string, first, count int) string {
	return jobKey(payloadPrefix, execID, callIDForSeq(first)+"+"+strconv.Itoa(count))
}

func parseBatchKey(key string) (payloadBatch, bool) {
	name := key[strings.LastIndexByte(key, '/')+1:]
	id, n, ok := strings.Cut(name, "+")
	first, err1 := strconv.Atoi(id)
	count, err2 := strconv.Atoi(n)
	if !ok || err1 != nil || err2 != nil || first < 0 || count < 1 {
		return payloadBatch{}, false
	}
	return payloadBatch{key: key, first: first, count: count}, true
}

// stagedCalls is a launch's calls framed for staging: the batch objects to
// PUT, and every call's location and staged line, index-aligned with the
// payloads.
type stagedCalls struct {
	batches []stagedBatch
	refs    []wire.ObjectRef
	lines   [][]byte
}

// stagedBatch is one batch object of a launch.
type stagedBatch struct {
	key  string
	body []byte
}

// stagePayloads uploads the serialized calls as payload batches, retrying
// transient storage failures, and returns each call's location and staged
// line.
func (e *Executor) stagePayloads(payloads []*wire.CallPayload) ([]wire.ObjectRef, [][]byte, error) {
	staged, err := e.framePayloads(payloads)
	if err != nil {
		return nil, nil, err
	}
	if err := e.putBatches(staged.batches); err != nil {
		return nil, nil, err
	}
	return staged.refs, staged.lines, nil
}

// framePayloads serializes the calls into payload batches without writing
// any. Every payload passes through here, so this is also where calls get
// their region placement and tenant. A batch ends where the call IDs stop
// being consecutive or the next payload would push it over payloadBatchBytes.
func (e *Executor) framePayloads(payloads []*wire.CallPayload) (stagedCalls, error) {
	meta := e.cfg.Platform.MetaBucket()
	bodies := make([][]byte, len(payloads))
	seqs := make([]int, len(payloads))
	for i, p := range payloads {
		if p.Region == "" {
			p.Region = e.cfg.Platform.PlaceCall(p.CallID)
		}
		if p.Tenant == "" {
			p.Tenant = e.cfg.Tenant
		}
		if err := p.Validate(); err != nil {
			return stagedCalls{}, fmt.Errorf("core: stage payloads: %w", err)
		}
		seq, err := strconv.Atoi(p.CallID)
		if err != nil || seq < 0 {
			return stagedCalls{}, fmt.Errorf("core: stage payloads: call id %q is not a call sequence", p.CallID)
		}
		seqs[i] = seq
		bodies[i] = wire.MustMarshal(p)
	}

	staged := stagedCalls{refs: make([]wire.ObjectRef, len(payloads)), lines: bodies}
	for start := 0; start < len(payloads); {
		end, size := start+1, len(bodies[start])
		for end < len(payloads) && seqs[end] == seqs[end-1]+1 && size+1+len(bodies[end]) <= payloadBatchBytes {
			size += 1 + len(bodies[end])
			end++
		}
		body, bounds := wire.JoinPayloads(bodies[start:end])
		span := wire.PayloadSpan{Key: batchKey(payloads[start].ExecutorID, seqs[start], end-start), Bounds: bounds}
		for i := start; i < end; i++ {
			staged.refs[i] = span.Ref(meta, i-start)
		}
		staged.batches = append(staged.batches, stagedBatch{key: span.Key, body: body})
		start = end
	}
	return staged, nil
}

// putBatches PUTs batch objects through the stage pool.
func (e *Executor) putBatches(batches []stagedBatch) error {
	meta := e.cfg.Platform.MetaBucket()
	errs := fetchFor(e.clock, e.cfg.StageConcurrency, len(batches), func(i int) error {
		_, err := e.cfg.Storage.Put(meta, batches[i].key, batches[i].body)
		return err
	})
	if err := firstErr(errs); err != nil {
		return fmt.Errorf("core: stage payloads: %w", err)
	}
	return nil
}

// deferrable returns the key of the one batch the calls fit in when every
// call rides its invocation and none carries a fan-in, and "" otherwise:
// then nothing in the cloud reads the batch before the launch returns, and a
// launch that creates the job's manifest may write it after invoking
// (Executor.launch). A fan-in input is excluded because a shuffle reducer
// may recompute it from its payload while the launch is still under way.
func (s stagedCalls) deferrable(payloads []*wire.CallPayload) string {
	if len(s.batches) != 1 {
		return ""
	}
	for i, p := range payloads {
		if p.FanIn != nil || len(s.lines[i]) > inlineThreshold {
			return ""
		}
	}
	return s.batches[0].key
}

// payloadSpans regroups consecutive refs, as stagePayloads returned them, into
// one span per batch they touch.
func payloadSpans(refs []wire.ObjectRef) []wire.PayloadSpan {
	var spans []wire.PayloadSpan
	for _, r := range refs {
		if n := len(spans); n == 0 || spans[n-1].Key != r.Key {
			spans = append(spans, wire.PayloadSpan{Key: r.Key, Bounds: []int64{r.Offset}})
		}
		s := &spans[len(spans)-1]
		s.Bounds = append(s.Bounds, r.Offset+r.Length+1)
	}
	return spans
}

// listPayloadBatches lists the batch objects of an executor namespace, in key
// order. Keys of any other shape are not batches and are skipped.
func listPayloadBatches(storage cos.Client, bucket, execID string) ([]payloadBatch, error) {
	listed, err := cos.ListAll(storage, bucket, jobKey(payloadPrefix, execID, ""))
	if err != nil {
		return nil, err
	}
	batches := make([]payloadBatch, 0, len(listed))
	for _, obj := range listed {
		if b, ok := parseBatchKey(obj.Key); ok {
			batches = append(batches, b)
		}
	}
	return batches, nil
}

// stagedPayload is one call's serialized payload and where it was read from.
type stagedPayload struct {
	ref  wire.ObjectRef
	body []byte
}

// resolvePayloads is the cold path from (executor, call ID) to staged payload
// bytes, for readers that hold no ref: one LIST of the payload prefix (a
// handful of keys), then one whole-object GET per distinct batch — however
// many of its calls are asked for — and the call's line out of it. Launches
// never stage a call twice; should several batches cover one, the narrowest
// wins. It serves the client (the executor's view) and functions (their
// ctx.Storage()) alike; both views retry on their own.
func resolvePayloads(storage cos.Client, bucket, execID string, callIDs []string) ([]stagedPayload, error) {
	batches, err := listPayloadBatches(storage, bucket, execID)
	if err != nil {
		return nil, fmt.Errorf("core: resolve payloads of %s: %w", execID, err)
	}
	bodies := make(map[string][]byte)
	out := make([]stagedPayload, len(callIDs))
	for i, callID := range callIDs {
		seq, err := strconv.Atoi(callID)
		if err != nil {
			seq = -1 // not a call sequence: no batch covers it
		}
		var in *payloadBatch
		for k := range batches {
			if b := &batches[k]; b.first <= seq && seq < b.first+b.count && (in == nil || b.count < in.count) {
				in = b
			}
		}
		if in == nil {
			return nil, fmt.Errorf("core: no staged payload covers call %s/%s: %w", execID, callID, cos.ErrNoSuchKey)
		}
		body, fetched := bodies[in.key]
		if !fetched {
			if body, _, err = storage.Get(bucket, in.key); err != nil {
				return nil, fmt.Errorf("core: resolve payload %s/%s: %w", execID, callID, err)
			}
			bodies[in.key] = body
		}
		line, offset, err := wire.PayloadLine(body, seq-in.first)
		if err != nil {
			return nil, fmt.Errorf("core: resolve payload %s/%s in %s: %w", execID, callID, in.key, err)
		}
		out[i] = stagedPayload{
			ref:  wire.ObjectRef{Bucket: bucket, Key: in.key, Offset: offset, Length: int64(len(line))},
			body: line,
		}
	}
	return out, nil
}

// locatePayloads gives every future that has none — a call adopted by Attach,
// whose driver never staged it — its payload ref, through the resolver.
func (e *Executor) locatePayloads(futures []*Future) error {
	var (
		missing []*Future
		callIDs []string
	)
	for _, f := range futures {
		if f.payload.Key == "" {
			missing = append(missing, f)
			callIDs = append(callIDs, f.callID)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	staged, err := resolvePayloads(e.cfg.Storage, e.cfg.Platform.MetaBucket(), e.id, callIDs)
	if err != nil {
		return err
	}
	for i, f := range missing {
		f.payload = staged[i].ref
	}
	return nil
}
