package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestObjectRefWholeObjectBytesUnchanged pins the serialized form of a ref
// without a range: it is what every invoke parameter, spawn target and status
// record carried before refs could address a byte range, and still means the
// whole object.
func TestObjectRefWholeObjectBytesUnchanged(t *testing.T) {
	ref := ObjectRef{Bucket: "gowren-meta", Key: "jobs/exec-000001/payload/00000"}
	const want = `{"bucket":"gowren-meta","key":"jobs/exec-000001/payload/00000"}`
	if got := string(MustMarshal(ref)); got != want {
		t.Fatalf("whole-object ref = %s, want %s", got, want)
	}
	ranged := ObjectRef{Bucket: "b", Key: "k", Offset: 130, Length: 129}
	var back ObjectRef
	if err := Unmarshal(MustMarshal(ranged), &back); err != nil || back != ranged {
		t.Fatalf("ranged ref round trip = %+v (err %v), want %+v", back, err, ranged)
	}
}

// batchFixture is a launch with every awkward byte a payload can carry: an
// argument that is itself multi-line JSON, newlines inside strings, and a
// fan-in spec.
func batchFixture() []*CallPayload {
	fan := fanInPayload()
	return []*CallPayload{
		{ExecutorID: "exec-1", CallID: "00000", Runtime: "default", Function: "add7", Kind: KindPlain,
			Arg: json.RawMessage("{\n  \"text\": \"line one\\nline two\",\n  \"n\": [1,\n 2]\n}"), MetaBucket: "m"},
		{ExecutorID: "exec-1", CallID: "00001", Runtime: "default", Function: "fn\nwith newline", Kind: KindPlain,
			Arg: json.RawMessage(`"\u000a"`), MetaBucket: "m", Tenant: "acme\n"},
		&fan,
		{ExecutorID: "exec-1", CallID: "00004", Runtime: "default", Function: "gowren/spawn", Kind: KindInvoker,
			FanIn: &FanIn{FirstCallID: "00004", Count: 1, FirstTarget: "00000", Targets: 2,
				TargetSpans: []PayloadSpan{{Key: "k", Bounds: []int64{7, 17, 30}}}, Action: "a"},
			MetaBucket: "m"},
	}
}

// TestPayloadBatchRoundTrip: every call comes back identical whether it is cut
// out by byte range (the hot path's ref) or by line number (the resolver), and
// no marshalled payload contains the separator.
func TestPayloadBatchRoundTrip(t *testing.T) {
	in := batchFixture()
	bodies := make([][]byte, len(in))
	for i, p := range in {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		bodies[i] = MustMarshal(p)
		if bytes.IndexByte(bodies[i], '\n') >= 0 {
			t.Fatalf("marshalled payload %d contains a raw newline: %q", i, bodies[i])
		}
	}
	batch, bounds := JoinPayloads(bodies)
	span := PayloadSpan{Key: "jobs/exec-1/payload/00000+4", Bounds: bounds}
	if err := span.validate(); err != nil || span.Calls() != len(in) {
		t.Fatalf("span of %d calls: Calls() = %d, validate = %v", len(in), span.Calls(), err)
	}
	if last := bounds[len(bounds)-1]; last != int64(len(batch))+1 {
		t.Fatalf("closing boundary = %d, want %d (one past the absent final separator)", last, len(batch)+1)
	}
	for i, want := range in {
		ref := span.Ref("m", i)
		byRange, err := DecodePayload(batch[ref.Offset : ref.Offset+ref.Length])
		if err != nil {
			t.Fatalf("call %d by range: %v", i, err)
		}
		line, offset, err := PayloadLine(batch, i)
		if err != nil || offset != ref.Offset || int64(len(line)) != ref.Length {
			t.Fatalf("call %d by line: offset %d len %d err %v, want the ref's %d+%d", i, offset, len(line), err, ref.Offset, ref.Length)
		}
		byLine, err := DecodePayload(line)
		if err != nil {
			t.Fatalf("call %d by line: %v", i, err)
		}
		// The argument was staged compacted; compare it that way.
		var arg bytes.Buffer
		if len(want.Arg) > 0 {
			if err := json.Compact(&arg, want.Arg); err != nil {
				t.Fatal(err)
			}
			cp := *want
			cp.Arg = arg.Bytes()
			want = &cp
		}
		if !reflect.DeepEqual(byRange, want) || !reflect.DeepEqual(byLine, want) {
			t.Fatalf("call %d:\n range=%+v\n  line=%+v\n  want=%+v", i, byRange, byLine, want)
		}
	}
	if _, _, err := PayloadLine(batch, len(in)); err == nil || !strings.Contains(err.Error(), "has 4 lines") {
		t.Fatalf("line past the end: err = %v", err)
	}
	if _, _, err := PayloadLine(batch, -1); err == nil {
		t.Fatal("negative line accepted")
	}

	// A batch of one is the lone payload, byte for byte: what a ref without
	// a range (written before batches existed) points at.
	one, oneBounds := JoinPayloads(bodies[:1])
	if !bytes.Equal(one, bodies[0]) || !reflect.DeepEqual(oneBounds, []int64{0, int64(len(bodies[0])) + 1}) {
		t.Fatalf("batch of one = %q bounds %v", one, oneBounds)
	}
}

// TestInvokeParamsFraming: a ref-only parameter is the marshalled ref, an
// inline one decodes to its ref and the exact staged line, and a garbled one
// fails instead of naming some other call.
func TestInvokeParamsFraming(t *testing.T) {
	line := MustMarshal(&batchFixture()[0])
	ref := ObjectRef{Bucket: "m", Key: "jobs/exec-1/payload/00000+4", Offset: 130, Length: int64(len(line))}
	if got := InvokeParams(ref, nil); !bytes.Equal(got, MustMarshal(ref)) {
		t.Fatalf("ref-only params = %s, want the marshalled ref", got)
	}
	for name, params := range map[string][]byte{
		"ref only":         InvokeParams(ref, nil),
		"trailing newline": append(InvokeParams(ref, nil), '\n'),
		"inline":           InvokeParams(ref, line),
	} {
		back, got, err := DecodeParams(params)
		if err != nil || back != ref {
			t.Errorf("%s: ref = %+v (err %v), want %+v", name, back, err, ref)
		}
		if inline := name == "inline"; inline != (got != nil) || inline && !bytes.Equal(got, line) {
			t.Errorf("%s: inline line = %q", name, got)
		}
	}
	inline := InvokeParams(ref, line)
	for name, params := range map[string][]byte{
		"truncated line":  inline[:len(inline)-1],
		"line too long":   append(bytes.Clone(inline), 'x'),
		"second newline":  append(bytes.Clone(inline), '\n'),
		"two short lines": append(InvokeParams(ObjectRef{Bucket: "m", Key: "k", Length: 3}, []byte("a")), "\nb"...),
		"whole-object":    InvokeParams(ObjectRef{Bucket: "m", Key: "k"}, line),
		"truncated ref":   inline[:10],
	} {
		if back, got, err := DecodeParams(params); err == nil {
			t.Errorf("%s: decoded to %+v with line %q, want an error", name, back, got)
		}
	}
}

// TestInvokeParamsMatchesTwoStep holds InvokeParams to the path it replaced,
// kept here as the oracle: marshal the ref, then copy it, '\n' and the line
// into a second buffer. A plain ref with a line costs one allocation, the
// params buffer, which is exactly the params' size.
func TestInvokeParamsMatchesTwoStep(t *testing.T) {
	twoStep := func(ref ObjectRef, line []byte) []byte {
		head := MustMarshal(ref)
		if line == nil {
			return head
		}
		params := make([]byte, 0, len(head)+1+len(line))
		return append(append(append(params, head...), '\n'), line...)
	}
	line := MustMarshal(&batchFixture()[0])
	plain := ObjectRef{Bucket: "m", Key: "jobs/exec-1/payload/00000+4", Offset: 130, Length: int64(len(line))}
	for _, ref := range []ObjectRef{
		plain,
		{Bucket: "m", Key: "k"},
		{Bucket: "gowren-meta", Key: "jobs/exec-000001/payload/99999+100", Offset: 1 << 40, Length: 8192},
		{Bucket: "m", Key: "a<b>&c", Length: 3},            // escaped by encoding/json
		{Bucket: "m", Key: "quote\"and\\slash", Offset: 7}, // likewise
		{Bucket: "m", Key: "é\u2028", Length: -1},
	} {
		for _, l := range [][]byte{nil, {}, []byte("x"), line} {
			got, want := InvokeParams(ref, l), twoStep(ref, l)
			if !bytes.Equal(got, want) {
				t.Errorf("InvokeParams(%+v, %q) = %q, want %q", ref, l, got, want)
			}
			if l != nil && PlainText(ref.Bucket) && PlainText(ref.Key) && cap(got) != len(got) {
				t.Errorf("InvokeParams(%+v, %q): cap %d, want the length %d", ref, l, cap(got), len(got))
			}
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { InvokeParams(plain, line) }); n > 1 {
		t.Errorf("InvokeParams(plain ref, line): %v allocs, want <= 1", n)
	}
}

func TestDecodePayloadValidates(t *testing.T) {
	if _, err := DecodePayload([]byte(`{"executorId":"e","callId":"c","function":"f","kind":1}`)); err == nil || !strings.Contains(err.Error(), "meta bucket") {
		t.Fatalf("invalid payload decoded: err = %v", err)
	}
	if _, err := DecodePayload([]byte(`{"executorId":"e","callId":`)); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

// launchFixture is the launch record a job's first launch ends its batch
// with.
func launchFixture() *JournalRecord {
	return &JournalRecord{Epoch: 1, Kind: JournalLaunch, Tracked: true, AtUnixNs: 42, Calls: []JournalCall{
		{CallID: "00000", ActivationID: "act-1", Region: "eu\n"},
		{CallID: "00001", ActivationID: "act-2"},
	}}
}

// TestLaunchRecordEndsBatch: a launch record appended to a batch leaves every
// call's byte range and line where it was, never decodes as a call, and
// comes back — with the calls' boundaries — from SplitLaunch.
func TestLaunchRecordEndsBatch(t *testing.T) {
	in := batchFixture()
	bodies := make([][]byte, len(in))
	for i, p := range in {
		bodies[i] = MustMarshal(p)
	}
	batch, bounds := JoinPayloads(bodies)
	rec := launchFixture()
	ended := AppendLaunch(batch, rec)
	if !bytes.HasPrefix(ended, batch) {
		t.Fatalf("AppendLaunch rewrote the calls' bytes")
	}
	for i := range bodies {
		line, offset, err := PayloadLine(ended, i)
		if err != nil || offset != bounds[i] || !bytes.Equal(line, bodies[i]) {
			t.Errorf("line %d = %q at %d (err %v), want call %d at %d", i, line, offset, err, i, bounds[i])
		}
	}
	last, _, err := PayloadLine(ended, len(bodies))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodePayload(last); err == nil {
		t.Errorf("the launch record decoded as a call: %+v", p)
	}
	gotBounds, got, err := SplitLaunch(ended)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBounds, bounds) || !reflect.DeepEqual(&got, rec) {
		t.Errorf("SplitLaunch = %v, %+v; want %v, %+v", gotBounds, got, bounds, rec)
	}
	for name, bad := range map[string][]byte{
		"no record":        batch,
		"respawn record":   AppendLaunch(batch, &JournalRecord{Kind: JournalRespawn}),
		"one line only":    MustMarshal(rec),
		"truncated record": ended[:len(ended)-3],
	} {
		if _, _, err := SplitLaunch(bad); err == nil {
			t.Errorf("%s: SplitLaunch accepted it", name)
		}
	}
}

// FuzzPayloadBatch feeds arbitrary bytes through the resolver's framing and
// the decoder both read paths share. Neither may panic; a line handed back
// must be the bytes at its offset and contain no separator; and a payload
// that decodes must be valid and survive being staged again.
func FuzzPayloadBatch(f *testing.F) {
	bodies := make([][]byte, 0, 4)
	for _, p := range batchFixture() {
		bodies = append(bodies, MustMarshal(p))
	}
	batch, _ := JoinPayloads(bodies)
	for i := -1; i <= len(bodies); i++ {
		f.Add(batch, i)
	}
	ended := AppendLaunch(batch, launchFixture())
	for i := len(bodies) - 1; i <= len(bodies)+1; i++ {
		f.Add(ended, i)
	}
	f.Add([]byte(nil), 0)
	f.Add([]byte("\n\n"), 1)
	f.Add(InvokeParams(ObjectRef{Bucket: "m", Key: "k", Length: int64(len(bodies[0]))}, bodies[0]), 40)
	f.Add([]byte(`{"executorId":"e","callId":"c","function":"f","kind":6,"shuffle":{"numReducers":0},"metaBucket":"m"}`), 0)
	f.Add([]byte(`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m","fanIn":{"firstCallId":"0","count":1,"firstTarget":"1","targets":1,"targetSpans":[{"key":"k","bounds":[5]}],"action":"a"}}`), 0)

	f.Fuzz(func(t *testing.T, data []byte, i int) {
		// The bytes as invoke parameters: whatever decodes carries a line of
		// exactly its ref's length and no separator.
		if ref, inline, err := DecodeParams(data); err == nil && inline != nil &&
			(int64(len(inline)) != ref.Length || bytes.IndexByte(inline, '\n') >= 0) {
			t.Fatalf("params decoded to a %d-byte line for a ref of %d", len(inline), ref.Length)
		}
		line, offset, err := PayloadLine(data, i)
		if err != nil {
			return
		}
		if end := offset + int64(len(line)); offset < 0 || end > int64(len(data)) || !bytes.Equal(data[offset:end], line) {
			t.Fatalf("line %d: offset %d len %d does not address the batch (%d bytes)", i, offset, len(line), len(data))
		}
		if bytes.IndexByte(line, '\n') >= 0 {
			t.Fatalf("line %d contains the separator", i)
		}
		// A batch that ends with a launch record keeps it off every call's
		// line: the boundaries SplitLaunch cuts stop before it, and the
		// record line itself never decodes as a call.
		if bounds, rec, err := SplitLaunch(data); err == nil {
			calls := len(bounds) - 1
			if i < calls && (offset != bounds[i] || int64(len(line)) != bounds[i+1]-1-bounds[i]) {
				t.Fatalf("line %d at %d+%d, but SplitLaunch bounds it %v", i, offset, len(line), bounds[i:i+2])
			}
			if i == calls {
				if p, err := DecodePayload(line); err == nil {
					t.Fatalf("launch record %+v decoded as call %+v", rec, p)
				}
			}
		}
		// The line as its call's invoke parameters, ref-only, inline and cut
		// short at i: each decodes to the ref and the staged bytes (none, for
		// the ref alone, whose runner reads them) or fails.
		ref := ObjectRef{Bucket: "m", Key: "k", Offset: offset, Length: int64(len(line))}
		inline := InvokeParams(ref, line)
		for _, params := range [][]byte{InvokeParams(ref, nil), inline, inline[:min(max(i, 0), len(inline))]} {
			back, got, err := DecodeParams(params)
			if err != nil {
				continue
			}
			if back != ref || got != nil && !bytes.Equal(got, line) {
				t.Fatalf("params %q decoded to %+v and %q, want %+v and the staged line", params, back, got, ref)
			}
		}
		if back, got, err := DecodeParams(inline); err != nil || back != ref || len(line) > 0 && !bytes.Equal(got, line) {
			t.Fatalf("inline params of line %d: %+v, %q, %v", i, back, got, err)
		}
		p, err := DecodePayload(line)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodePayload returned an invalid payload: %v", err)
		}
		if p.FanIn != nil {
			for k := 0; k < p.FanIn.Targets; k++ {
				p.FanIn.Target("m", k) // a validated spec locates every target
			}
		}
		// A line read raw may carry an argument json.Marshal compacts or
		// HTML-escapes, so restaging may rewrite Arg once; after that the
		// staged bytes are a fixed point.
		staged := MustMarshal(p)
		again, bounds := JoinPayloads([][]byte{staged})
		back, err := DecodePayload(again[bounds[0] : bounds[1]-1])
		if err != nil {
			t.Fatalf("restaged payload: %v", err)
		}
		same := *back
		same.Arg = p.Arg
		if !reflect.DeepEqual(&same, p) || !bytes.Equal(MustMarshal(back), staged) {
			t.Fatalf("restaged payload = %+v, want %+v staged as %s", back, p, staged)
		}
	})
}
