package wire

import (
	"bytes"
	"fmt"
)

// Payload batches. A launch stages its calls as one object, not one per
// call: the marshalled CallPayloads joined by '\n' (NDJSON without a
// trailing newline, so a batch of one is byte-identical to a lone payload
// and `jq` opens either). encoding/json never emits a raw newline — strings
// escape it and embedded RawMessages are compacted — so '\n' is a safe
// separator. A call is addressed inside its batch by byte range (ObjectRef
// Offset/Length) or by line number (PayloadLine, the recovery path, for
// readers that only know the call ID).
//
// A job's first launch may end its batch with one more line, the launch
// record (AppendLaunch): a JournalRecord, whose string "kind" no CallPayload
// decoder accepts. Readers that take a call's line by its position or byte
// range never reach it.
//
// Invoke parameters use the same framing: the call's ref, then — for a call
// small enough to ride the invocation — '\n' and its staged line
// (InvokeParams). The ref is compact JSON too, so its first '\n' ends it.

// JoinPayloads frames marshalled payloads as one batch body and returns it
// with its len(bodies)+1 line boundaries (see PayloadSpan.Bounds).
func JoinPayloads(bodies [][]byte) (batch []byte, bounds []int64) {
	size := len(bodies)
	for _, b := range bodies {
		size += len(b)
	}
	batch = make([]byte, 0, size)
	bounds = make([]int64, 1, len(bodies)+1)
	for i, b := range bodies {
		if i > 0 {
			batch = append(batch, '\n')
		}
		batch = append(batch, b...)
		bounds = append(bounds, int64(len(batch))+1)
	}
	return batch, bounds
}

// AppendLaunch ends a batch with its launch record: batch, '\n' and rec.
// The calls' lines and byte ranges are unchanged.
func AppendLaunch(batch []byte, rec *JournalRecord) []byte {
	line := MustMarshal(rec)
	out := make([]byte, 0, len(batch)+1+len(line))
	return append(append(append(out, batch...), '\n'), line...)
}

// SplitLaunch cuts a batch that AppendLaunch ended into the line boundaries
// of its calls (as JoinPayloads returned them) and its launch record.
func SplitLaunch(batch []byte) (bounds []int64, rec JournalRecord, err error) {
	cut := bytes.LastIndexByte(batch, '\n')
	if cut < 0 {
		return nil, JournalRecord{}, fmt.Errorf("wire: payload batch has no launch record line")
	}
	if err := Unmarshal(batch[cut+1:], &rec); err != nil {
		return nil, JournalRecord{}, fmt.Errorf("wire: payload batch's last line: %w", err)
	}
	if rec.Kind != JournalLaunch {
		return nil, JournalRecord{}, fmt.Errorf("wire: payload batch ends with a %q record, not a launch record", rec.Kind)
	}
	bounds = []int64{0}
	for start := 0; start <= cut; {
		end := start + bytes.IndexByte(batch[start:cut+1], '\n')
		bounds = append(bounds, int64(end)+1)
		start = end + 1
	}
	return bounds, rec, nil
}

// PayloadSpan locates consecutive staged calls inside one batch object.
type PayloadSpan struct {
	Key string `json:"key"`
	// Bounds are the start offsets of the span's lines plus one closing
	// boundary: call i occupies bytes [Bounds[i], Bounds[i+1]-1), the byte
	// before each next boundary being the separator (or the object's end).
	Bounds []int64 `json:"bounds"`
	// ETag, when set, is the version of the object the bounds describe: a
	// shuffle stage index pins each map's status object with it.
	ETag string `json:"etag,omitempty"`
}

// Calls is the number of calls the span locates.
func (s PayloadSpan) Calls() int { return len(s.Bounds) - 1 }

// Ref addresses the span's i-th call.
func (s PayloadSpan) Ref(bucket string, i int) ObjectRef {
	return ObjectRef{Bucket: bucket, Key: s.Key, Offset: s.Bounds[i], Length: s.Bounds[i+1] - 1 - s.Bounds[i]}
}

func (s PayloadSpan) validate() error {
	if s.Key == "" || len(s.Bounds) < 2 || s.Bounds[0] < 0 {
		return fmt.Errorf("payload span %q with %d boundaries", s.Key, len(s.Bounds))
	}
	for i := 1; i < len(s.Bounds); i++ {
		// No payload is empty. Compared as a difference of ascending
		// non-negative bounds, so no boundary near MaxInt64 can wrap.
		if s.Bounds[i] <= s.Bounds[i-1] || s.Bounds[i]-s.Bounds[i-1] < 2 {
			return fmt.Errorf("payload span %q boundaries %v do not ascend", s.Key, s.Bounds)
		}
	}
	return nil
}

// PayloadLine returns line i of a batch body and its offset, for readers
// that hold a call's position in the batch but no byte range. The line
// aliases batch.
func PayloadLine(batch []byte, i int) (line []byte, offset int64, err error) {
	if i < 0 {
		return nil, 0, fmt.Errorf("wire: payload batch line %d", i)
	}
	start := 0
	for n := 0; ; n++ {
		end := bytes.IndexByte(batch[start:], '\n')
		switch {
		case n == i && end < 0:
			return batch[start:], int64(start), nil
		case n == i:
			return batch[start : start+end], int64(start), nil
		case end < 0:
			return nil, 0, fmt.Errorf("wire: payload batch has %d lines, want line %d", n+1, i)
		}
		start += end + 1
	}
}

// InvokeParams frames the invoke parameters of the call staged at ref: the
// ref alone when line is nil — byte-identical to a marshalled ref — and
// otherwise the ref, '\n' and the call's staged line, which the runner then
// decodes instead of reading it back, in one buffer of exactly their size.
func InvokeParams(ref ObjectRef, line []byte) []byte {
	if line == nil {
		return MustMarshal(ref)
	}
	head, ok := marshalFast(ref, 1+len(line))
	if !ok {
		head = MustMarshal(ref)
	}
	return append(append(head, '\n'), line...)
}

// DecodeParams splits invoke parameters into the call's ref and, when the
// call rides inline, its staged line (nil otherwise; a lone trailing '\n' is
// whitespace). An inline line must be exactly the ref's Length and contain no
// further '\n': a garbled parameter fails rather than run some other call.
// The line aliases params.
func DecodeParams(params []byte) (ref ObjectRef, line []byte, err error) {
	head, line, _ := bytes.Cut(params, []byte{'\n'})
	if ref, err = DecodeRef(head); err != nil {
		return ObjectRef{}, nil, err
	}
	switch {
	case len(line) == 0:
		return ref, nil, nil
	case int64(len(line)) != ref.Length || bytes.IndexByte(line, '\n') >= 0:
		return ObjectRef{}, nil, fmt.Errorf("wire: invoke parameters carry %d inline bytes for a ref of %d", len(line), ref.Length)
	}
	return ref, line, nil
}

// DecodePayload decodes and validates one staged call, whichever way its
// bytes were cut out of a batch. Its strings and Arg alias body.
func DecodePayload(body []byte) (*CallPayload, error) {
	p := new(CallPayload)
	d := newDecoder(body)
	if d.payload(p); !d.done() {
		*p = CallPayload{}
		if err := Unmarshal(body, p); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
