package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// The records of the §6.4 job (table3) as its runners read them: a map call
// with its partition and the fan-in that launches its city's reducer, the
// reducer, the invoke parameters naming a payload's byte range, and a map's
// status with its result inlined.
const (
	table3MapPayload    = `{"executorId":"exec-000002","callId":"00000","runtime":"gowren-default:1","function":"tone/analyze-chunk","kind":2,"partition":{"bucket":"airbnb","key":"amsterdam","offset":0,"length":4194304,"index":0,"objectSize":8519936},"fanIn":{"firstCallId":"00000","count":3,"firstTarget":"00062","targets":1,"targetSpans":[{"key":"jobs/exec-000002/payload/00062+33","bounds":[0,275]}],"action":"gowren-runner--gowren-default:1"},"metaBucket":"gowren-meta"}`
	table3ReducePayload = `{"executorId":"exec-000002","callId":"00074","runtime":"gowren-default:1","function":"tone/render-city","kind":3,"reduce":{"metaBucket":"gowren-meta","executorId":"exec-000002","mapCallIds":["00018"],"groupKey":"airbnb/geneva"},"metaBucket":"gowren-meta"}`
	table3Params        = `{"bucket":"gowren-meta","key":"jobs/exec-000002/payload/00000+62","offset":902,"length":452}`
	table3Status        = `{"executorId":"exec-000002","callId":"00002","ok":true,"activationId":"act-5","coldStart":true,"submitUnixNs":1544400004553768697,"startUnixNs":1544400004553768697,"endUnixNs":1544400005433058227,"inline":{"kind":"value","value":{"city":"amsterdam","bytes":131328,"counts":{"good":288,"neutral":150,"bad":75,"records":513},"points":[{"lat":52.3036,"lon":4.9451,"tone":"good"},{"lat":52.4302,"lon":4.9001,"tone":"good"}]}},"resultRef":{"bucket":"","key":""}}`
)

func shuffleReducePayload() *CallPayload {
	return &CallPayload{
		ExecutorID: "exec-000003", CallID: "00008", Runtime: "gowren-default:1", Function: "kvtone/sum",
		Kind:       KindShuffleReduce,
		Shuffle:    &ShuffleSpec{NumReducers: 4, Reducer: 2, MapCallIDs: []string{"00000", "00001", "00002"}, Exchange: ExchangeMemory},
		MetaBucket: "gowren-meta", Region: "us-south", Tenant: "tenant-3",
	}
}

// invokerPayload is a remote invoker of massive spawning: a fan-in of itself
// in front of the 100 calls it launches.
func invokerPayload() *CallPayload {
	return &CallPayload{
		ExecutorID: "exec-000004", CallID: "00100", Runtime: "gowren-default:1", Function: "gowren/spawn",
		Kind: KindInvoker,
		FanIn: &FanIn{
			FirstCallID: "00100", Count: 1, FirstTarget: "00000", Targets: 100,
			TargetSpans: []PayloadSpan{{Key: "jobs/exec-000004/payload/00000+100", Bounds: append([]int64{0}, spanBounds(100, 150)...)}},
			Action:      "gowren-runner--gowren-default:1", Tenant: "tenant-3",
		},
		MetaBucket: "gowren-meta", Tenant: "tenant-3",
	}
}

// spanBounds returns the ends of n framed payloads of size bytes each, as
// a PayloadSpan's bounds after its first.
func spanBounds(n int, size int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i+1) * (size + 1)
	}
	return out
}

// launchMarker is what a remote invoker leaves behind: the claim rewritten
// with the 100 activations it launched.
func launchMarker() *FanInMarker {
	m := &FanInMarker{By: "act-1000", Generation: 1, AtUnixNs: 1544400004553768697, ActivationIDs: make([]string, 100)}
	for i := range m.ActivationIDs {
		m.ActivationIDs[i] = fmt.Sprintf("act-%d", 1001+i)
	}
	return m
}

func shuffleStatus() *StatusRecord {
	return &StatusRecord{
		ExecutorID: "exec-000003", CallID: "00001", OK: true, ActivationID: "act-17",
		SubmitUnixNs: 5, StartUnixNs: 6, EndUnixNs: -7,
		Inline:    json.RawMessage(`{"kind":"value","value":{"emitted":12,"perReducer":[3,3,6]}}`),
		ResultRef: ObjectRef{Bucket: "gowren-meta", Key: "jobs/exec-000003/status/00001", Offset: 1, Length: 2},
		Exchange: &ExchangeAd{Transport: ExchangeDirect, LingerUntilNs: 1544400004553768697, Fallbacks: 1,
			Partitions: []PartitionDescriptor{{0, 40, 3}, {1, 1, 0}, {2, 77, 6}}},
	}
}

// codecRecords are records of every type the fast path takes, each one it
// must take.
func codecRecords(t testing.TB) []any {
	var mapCall, reduce CallPayload
	var status StatusRecord
	var params ObjectRef
	for body, v := range map[string]any{table3MapPayload: &mapCall, table3ReducePayload: &reduce, table3Status: &status, table3Params: &params} {
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatal(err)
		}
	}
	fan := fanInPayload()
	return []any{
		&mapCall, &reduce, shuffleReducePayload(), invokerPayload(), &fan,
		&status, shuffleStatus(), &StatusRecord{ExecutorID: "e", CallID: "c", Error: "core: map call 00003 failed: boom"},
		&ResultEnvelope{Kind: ResultValue, Value: json.RawMessage(`[1,"two",{"three":3}]`)},
		params, ObjectRef{},
		&FanInMarker{By: "driver", Generation: 2, AtUnixNs: 99, ActivationIDs: []string{"act-1", ""}},
		&FanInMarker{By: "act-3", Generation: 1},
		launchMarker(),
		indexFixture(),
	}
}

// checkEncode holds Marshal to json.Marshal on v.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	got, err := Marshal(v)
	want, wantErr := json.Marshal(v)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%T) =\n%s (err %v)\nencoding/json:\n%s (err %v)", v, got, err, want, wantErr)
	}
}

// checkDecode holds the fast decoder of T to encoding/json on data: whatever
// the fast path takes, encoding/json decodes without error to the same value.
// It then holds the encoder to json.Marshal on that value. ok reports
// whether encoding/json decoded data.
func checkDecode[T any](t *testing.T, data []byte, fast func(*decoder, *T)) (want T, ok bool) {
	t.Helper()
	jsonErr := json.Unmarshal(data, &want)
	var got T
	d := newDecoder(data)
	if fast(&d, &got); d.done() && (jsonErr != nil || !reflect.DeepEqual(got, want)) {
		t.Fatalf("fast path decoded %q to\n%+v\nencoding/json to\n%+v (err %v)", data, got, want, jsonErr)
	}
	if jsonErr != nil {
		return want, false
	}
	checkEncode(t, want)
	checkEncode(t, &want)
	return want, true
}

// takesFast reports whether the fast decoder of T takes all of data.
func takesFast[T any](data []byte, fast func(*decoder, *T)) bool {
	var v T
	d := newDecoder(data)
	fast(&d, &v)
	return d.done()
}

func TestRecordCodecMatchesJSON(t *testing.T) {
	for _, v := range codecRecords(t) {
		if _, ok := marshalFast(v, 0); !ok {
			t.Errorf("%T %+v: not on the fast path", v, v)
		}
		checkEncode(t, v)
		data := MustMarshal(v)
		var taken bool
		switch v.(type) {
		case *CallPayload:
			_, _ = checkDecode(t, data, (*decoder).payload)
			taken = takesFast(data, (*decoder).payload)
		case *StatusRecord:
			_, _ = checkDecode(t, data, (*decoder).status)
			taken = takesFast(data, (*decoder).status)
		case *ResultEnvelope:
			_, _ = checkDecode(t, data, (*decoder).envelope)
			taken = takesFast(data, (*decoder).envelope)
		case ObjectRef:
			_, _ = checkDecode(t, data, (*decoder).ref)
			taken = takesFast(data, (*decoder).ref)
		case *ShuffleIndex:
			_, _ = checkDecode(t, data, (*decoder).shuffleIndex)
			taken = takesFast(data, (*decoder).shuffleIndex)
		case *FanInMarker:
			_, _ = checkDecode(t, data, (*decoder).marker)
			taken = takesFast(data, (*decoder).marker)
		}
		if !taken {
			t.Errorf("%s: not decoded on the fast path", data)
		}
	}
	// Whitespace between tokens is JSON too.
	spaced := []byte(" {\n\t\"kind\" : \"value\" ,\r\"value\": [1, 2] } ")
	if !takesFast(spaced, (*decoder).envelope) {
		t.Errorf("%q: not decoded on the fast path", spaced)
	}
	_, _ = checkDecode(t, spaced, (*decoder).envelope)
}

// TestRecordCodecFallsBack: whatever the fast path does not take still
// decodes (or fails) exactly as encoding/json decodes it, and a value that
// needs escaping or compacting is still written as encoding/json writes it.
func TestRecordCodecFallsBack(t *testing.T) {
	for _, body := range []string{
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m","unknown":1}`,
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m","kind":3}`,
		`{"executorId":"e","callId":"c","function":"f","Kind":1,"metaBucket":"m"}`,
		`{"executorId":"e","callId":"c\n","function":"f","kind":1,"metaBucket":"m"}`,
		`{"executorId":"é","callId":"c","function":"<f>","kind":1,"metaBucket":"m"}`,
		`{"executorId":"e","callId":"c","function":"f","kind":1.0,"metaBucket":"m"}`,
		`{"executorId":"e","callId":"c","function":"f","kind":99999999999999999999,"metaBucket":"m"}`,
		`{"executorId":null,"callId":"c","function":"f","kind":1,"metaBucket":"m","partition":null}`,
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m","arg":null}`,
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m","arg":[1, 2]}`,
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m"} x`,
		`{"executorId":"e","callId":"c","function":"f","kind":1,"metaBucket":"m",}`,
		`null`,
	} {
		want, ok := checkDecode(t, []byte(body), (*decoder).payload)
		got, err := DecodePayload([]byte(body))
		if ok && want.Validate() == nil {
			if err != nil || !reflect.DeepEqual(*got, want) {
				t.Errorf("%s: DecodePayload = %+v (err %v), want %+v", body, got, err, want)
			}
		} else if err == nil {
			t.Errorf("%s: DecodePayload accepted what encoding/json or Validate refuse", body)
		}
	}
	for _, body := range []string{
		`{"kind":"futures","futures":{"metaBucket":"m","executorId":"sub","callIds":["00000"],"combine":"single"}}`,
		`{"kind":"value","value":"a<b"}`,
	} {
		want, _ := checkDecode(t, []byte(body), (*decoder).envelope)
		if got, err := DecodeEnvelope([]byte(body)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeEnvelope = %+v (err %v), want %+v", body, got, err, want)
		}
	}
	for _, v := range []any{
		&StatusRecord{Error: `core: call "00001" failed`},
		&StatusRecord{Error: "core: <nil>"},
		&StatusRecord{Error: "a & b"},
		&StatusRecord{Error: "bad\nthing"},
		&StatusRecord{Error: "café"},
		&CallPayload{Function: "x>y"},
		&StatusRecord{Inline: json.RawMessage(`{"kind": "value"}`)},
		&StatusRecord{Inline: json.RawMessage(`{"kind":"value","value":" "}`)},
		&ResultEnvelope{Kind: ResultValue, Value: json.RawMessage(`{"broken"`)},
		&ResultEnvelope{Kind: ResultFutures, Futures: &FuturesRef{CallIDs: []string{"a"}}},
		(*CallPayload)(nil),
		&ShuffleIndex{},
	} {
		checkEncode(t, v)
	}
}

// TestRecordCodecAllocs pins what the platform pays per record on its hot
// path: the pointers and slices the record holds, and no copy of the body.
func TestRecordCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	status, params, inline := []byte(table3Status), []byte(table3Params), []byte(`{"kind":"value","value":50}`)
	marker := MustMarshal(launchMarker())
	mapCall, reduce := []byte(table3MapPayload), []byte(table3ReducePayload)
	records := codecRecords(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"DecodeStatus", 0, func() { _, _, err := DecodeStatus(status); must(err) }},
		{"DecodeEnvelope", 0, func() { _, err := DecodeEnvelope(inline); must(err) }},
		{"DecodeRef", 0, func() { _, err := DecodeRef(params); must(err) }},
		{"DecodePayload(map with fan-in)", 5, func() { _, err := DecodePayload(mapCall); must(err) }},
		{"DecodePayload(reduce)", 3, func() { _, err := DecodePayload(reduce); must(err) }},
		{"DecodeMarker(100 launches)", 1, func() { _, err := DecodeMarker(marker); must(err) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n > tc.max {
			t.Errorf("%s: %v allocs, want <= %v", tc.name, n, tc.max)
		}
	}
	for _, v := range records {
		want := 1.0
		if _, ok := v.(ObjectRef); ok {
			want = 2 // boxing the value into Marshal's argument is one
		}
		if n := testing.AllocsPerRun(100, func() { MustMarshal(v) }); n > want {
			t.Errorf("Marshal(%T): %v allocs, want <= %v", v, n, want)
		}
	}
}

// FuzzCallPayloadCodec holds the payload codec to encoding/json, kept here as
// the oracle: on arbitrary bytes the fast path decodes only what
// encoding/json decodes, to the same value; DecodePayload fails exactly when
// encoding/json or Validate does; and whatever decodes is written back as
// json.Marshal writes it.
func FuzzCallPayloadCodec(f *testing.F) {
	for _, v := range codecRecords(f) {
		if p, ok := v.(*CallPayload); ok {
			f.Add(MustMarshal(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := checkDecode(t, data, (*decoder).payload)
		got, err := DecodePayload(data)
		switch {
		case ok && want.Validate() == nil:
			if err != nil || !reflect.DeepEqual(*got, want) {
				t.Fatalf("DecodePayload = %+v (err %v), want %+v", got, err, want)
			}
		case err == nil:
			t.Fatalf("DecodePayload accepted %q, which encoding/json or Validate refuse", data)
		}
	})
}

// TestPlainTextMatchesTable holds the word-at-a-time PlainText to the
// plainByte table: every byte value at every position of strings up to 24
// bytes long, and every pair of byte values side by side inside a word and
// across two, where a carry between bytes would show.
func TestPlainTextMatchesTable(t *testing.T) {
	check := func(s []byte) {
		if want := tablePlain(s); PlainText(string(s)) != want {
			t.Fatalf("PlainText(%q) = %v, the table says %v", s, !want, want)
		}
	}
	for n := 1; n <= 24; n++ {
		for pos := 0; pos < n; pos++ {
			for c := 0; c < 256; c++ {
				s := bytes.Repeat([]byte{'x'}, n)
				s[pos] = byte(c)
				check(s)
			}
		}
	}
	for _, pos := range []int{3, 7} {
		for c := 0; c < 256; c++ {
			for d := 0; d < 256; d++ {
				s := []byte("0123456789abcdef")
				s[pos], s[pos+1] = byte(c), byte(d)
				check(s)
			}
		}
	}
}

// tablePlain is PlainText one table load per byte.
func tablePlain(s []byte) bool {
	for _, c := range s {
		if !plainByte[c] {
			return false
		}
	}
	return true
}

// FuzzStatusRecordCodec does the same for status records, and — on the same
// bytes — for result envelopes and object refs. It also holds PlainString,
// the shuffle map's one-pass check, to json.Valid and NeedsCompact: a value
// it takes is valid and json.Marshal writes it back unchanged; and it holds
// PlainText to the plainByte table.
func FuzzStatusRecordCodec(f *testing.F) {
	for _, v := range codecRecords(f) {
		if r, ok := v.(*StatusRecord); ok {
			f.Add(MustMarshal(r))
		}
	}
	for _, s := range []string{`"plain"`, `""`, `"a b"`, `"<&>"`, `"\u00e9"`, `"é"`, `"\""`, `"`, `"x"y"`} {
		f.Add([]byte(s))
	}
	cases, inlineMax := statusObjectCases()
	for _, c := range cases {
		rec := c.rec
		line, object := StatusObject(&rec, c.env, inlineMax, len(c.frames))
		if len(c.frames) > 0 {
			copy(object[len(line)+1:], c.frames)
		}
		f.Add(object)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if plain := tablePlain(data); PlainText(string(data)) != plain {
			t.Fatalf("PlainText(%q) = %v, the table says %v", data, !plain, plain)
		}
		if PlainString(data) {
			if !json.Valid(data) {
				t.Fatalf("PlainString took %q, which is not valid JSON", data)
			}
			if NeedsCompact(data) {
				if back, err := json.Marshal(json.RawMessage(data)); err != nil || !bytes.Equal(back, data) {
					t.Fatalf("PlainString took %q, which json.Marshal writes as %q (err %v)", data, back, err)
				}
			}
		}
		line, after, cut := bytes.Cut(data, []byte{'\n'})
		rec, ok := checkDecode(t, line, (*decoder).status)
		got, rest, err := DecodeStatus(data)
		if (err == nil) != ok || ok && !reflect.DeepEqual(got, rec) {
			t.Fatalf("DecodeStatus = %+v (err %v), want %+v", got, err, rec)
		}
		if ok && (!bytes.Equal(rest, after) || cut != (rest != nil)) {
			t.Fatalf("DecodeStatus rest = %q, want %q", rest, after)
		}
		env, ok := checkDecode(t, data, (*decoder).envelope)
		if got, err := DecodeEnvelope(data); (err == nil) != ok || ok && !reflect.DeepEqual(got, env) {
			t.Fatalf("DecodeEnvelope = %+v (err %v), want %+v", got, err, env)
		}
		ref, ok := checkDecode(t, data, (*decoder).ref)
		if got, err := DecodeRef(data); (err == nil) != ok || ok && got != ref {
			t.Fatalf("DecodeRef = %+v (err %v), want %+v", got, err, ref)
		}
	})
}

// FuzzFanInMarkerCodec does the same for fan-in launch markers, which every
// driver backstop and massive-spawned job reads.
func FuzzFanInMarkerCodec(f *testing.F) {
	for _, v := range codecRecords(f) {
		if m, ok := v.(*FanInMarker); ok {
			f.Add(MustMarshal(m))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		marker, ok := checkDecode(t, data, (*decoder).marker)
		if got, err := DecodeMarker(data); (err == nil) != ok || ok && !reflect.DeepEqual(got, marker) {
			t.Fatalf("DecodeMarker = %+v (err %v), want %+v", got, err, marker)
		}
	})
}

// TestStatusObjectLayout: a status object is its record line and, after it,
// a shuffle map's frames and a spilled envelope; the record locates the
// envelope inside its own object, and the line is the record alone, at the
// head of the one buffer the object is. Frame sizes up to 1,200 bytes carry
// the envelope's offset across digit boundaries, where its own digits
// lengthen the line it is written in.
func TestStatusObjectLayout(t *testing.T) {
	env := &ResultEnvelope{Kind: ResultValue, Value: json.RawMessage(`"` + strings.Repeat("x", 100) + `"`)}
	envBody := MustMarshal(env)
	for n := 0; n <= 1200; n++ {
		frames := bytes.Repeat([]byte{'f'}, n)
		rec := &StatusRecord{ExecutorID: "e", CallID: "00001", OK: true, ResultRef: ObjectRef{Bucket: "b", Key: "jobs/e/status/00001"}}
		line, object := StatusObject(rec, env, len(envBody)-1, n)
		copy(object[len(line)+1:][:n], frames)
		if !bytes.Equal(line, MustMarshal(rec)) || !bytes.HasPrefix(object, append(bytes.Clone(line), '\n')) {
			t.Fatalf("%d frame bytes: line %q does not open object %q", n, line, object)
		}
		if &line[0] != &object[0] || cap(object) != len(object) {
			t.Fatalf("%d frame bytes: line and object are not one buffer of the object's size", n)
		}
		got, rest, err := DecodeStatus(object)
		if err != nil || !reflect.DeepEqual(got, *rec) {
			t.Fatalf("%d frame bytes: DecodeStatus = %+v (err %v), want %+v", n, got, err, *rec)
		}
		if n > 0 && !bytes.Equal(rest[:n], frames) {
			t.Fatalf("%d frame bytes: the frames do not follow the line", n)
		}
		spilled, err := SpilledEnvelope(&got, object)
		if err != nil || !bytes.Equal(spilled, envBody) {
			t.Fatalf("%d frame bytes: spilled envelope = %q (err %v), want %q", n, spilled, err, envBody)
		}
		if _, err := SpilledEnvelope(&got, object[:len(object)-1]); err == nil {
			t.Fatalf("%d frame bytes: a truncated object's envelope was accepted", n)
		}
	}
	rec := &StatusRecord{ExecutorID: "e", CallID: "00002", OK: true, ResultRef: ObjectRef{Bucket: "b", Key: "jobs/e/status/00002"}}
	line, object := StatusObject(rec, &ResultEnvelope{Kind: ResultValue, Value: json.RawMessage("1")}, 8<<10, 0)
	if !bytes.Equal(line, object) || bytes.IndexByte(object, '\n') >= 0 {
		t.Fatalf("a record without bulk: line %q, object %q; want the record alone", line, object)
	}
	if got, rest, err := DecodeStatus(object); err != nil || rest != nil || string(got.Inline) != `{"kind":"value","value":1}` || got.ResultRef != (ObjectRef{}) {
		t.Fatalf("a record without bulk decodes to %+v with rest %q (err %v)", got, rest, err)
	}
}

// twoStepStatusObject is the commit StatusObject replaced, kept as its
// oracle: the runner marshalled the envelope, put it in rec.Inline when it
// was at most inlineMax bytes and otherwise named the status object in
// rec.ResultRef, and the writer marshalled the record until the spill's
// offset agreed with it, then copied the line, the frames and the spilled
// envelope into a new buffer.
func twoStepStatusObject(rec *StatusRecord, env *ResultEnvelope, inlineMax int, at ObjectRef, frames []byte) (line, object []byte) {
	var spilled []byte
	if env != nil {
		body := MustMarshal(env)
		if len(body) <= inlineMax {
			rec.Inline = body
		} else {
			rec.ResultRef, spilled = at, body
		}
	}
	bulk := 0
	if len(frames) > 0 {
		bulk = 1 + len(frames)
	}
	if len(spilled) == 0 {
		line = MustMarshal(rec)
	} else {
		rec.ResultRef.Offset, rec.ResultRef.Length = 0, int64(len(spilled))
		for {
			line = MustMarshal(rec)
			off := int64(len(line) + bulk + 1)
			if off == rec.ResultRef.Offset {
				break
			}
			rec.ResultRef.Offset = off
		}
		bulk += 1 + len(spilled)
	}
	if bulk == 0 {
		return line, line
	}
	object = append(make([]byte, 0, len(line)+bulk), line...)
	if len(frames) > 0 {
		object = append(append(object, '\n'), frames...)
	}
	if len(spilled) > 0 {
		object = append(append(object, '\n'), spilled...)
	}
	return line, object
}

// statusObjectCase is one commit the writer must lay out as the two-step
// path did.
type statusObjectCase struct {
	name   string
	rec    StatusRecord // ResultRef is filled in from the case's key
	env    *ResultEnvelope
	frames []byte
}

// statusObjectCases are the commits the oracle test and the status fuzz
// seeds share: inline values, one exactly at the threshold and one byte
// over it, frames beside either, a failed call, a composition, values that
// need compacting or escaping, and a record only encoding/json writes.
func statusObjectCases() (cases []statusObjectCase, inlineMax int) {
	const limit = 8 << 10 // the runner's inlineThreshold
	value := func(v string) *ResultEnvelope { return &ResultEnvelope{Kind: ResultValue, Value: json.RawMessage(v)} }
	// sized is a string value whose envelope is n bytes.
	sized := func(n int) *ResultEnvelope {
		return value(`"` + strings.Repeat("x", n-len(MustMarshal(value(`""`)))) + `"`)
	}
	rec := StatusRecord{ExecutorID: "exec-000001", CallID: "00042", ActivationID: "act-7", ColdStart: true,
		SubmitUnixNs: 1544400004553768697, StartUnixNs: 1544400004553768697, EndUnixNs: 1544400005433058227}
	ok := rec
	ok.OK = true
	shuffled := ok
	shuffled.Exchange = &ExchangeAd{Transport: ExchangeCOS, Partitions: []PartitionDescriptor{{0, 12, 2}, {1, 1, 0}}}
	frames := []byte("\xf5\x01a\x011\x01b\x012\n\xf5")
	failed := rec
	failed.Error = `core: call "00042" failed: <nil> & more`
	odd := ok
	odd.ActivationID = "act<7>"
	return []statusObjectCase{
		{"small int", ok, value("42"), nil},
		{"small object", ok, value(`{"a":[1,"two"],"b":null}`), nil},
		{"null", ok, value("null"), nil},
		{"at the threshold", ok, sized(limit), nil},
		{"one byte over", ok, sized(limit + 1), nil},
		{"far over", ok, sized(2 * limit), nil},
		{"frames, inline", shuffled, value(`{"emitted":2,"perReducer":[2,0]}`), frames},
		{"frames, spilled", shuffled, sized(3 * limit), frames},
		{"failed", failed, nil, nil},
		{"failed with frames", failed, nil, frames},
		{"composition", ok, &ResultEnvelope{Kind: ResultFutures, Futures: &FuturesRef{MetaBucket: "m", ExecutorID: "sub", CallIDs: []string{"00000", "00001"}, Combine: CombineList}}, nil},
		{"value with <", ok, value(`"a<b"`), nil},
		{"value with spaces", ok, value(`{"a": [1, 2]}`), nil},
		{"spilled value with spaces", ok, value(`[` + strings.Repeat(`1, `, limit) + `1]`), nil},
		{"encoding/json-only value", ok, value("\"\u2028\""), nil},
		{"encoding/json-only record, inline", odd, value("42"), nil},
		{"encoding/json-only record, spilled", odd, sized(limit + 1), frames},
	}, limit
}

// TestStatusObjectMatchesTwoStep holds the one-pass writer to the two-step
// commit it replaced: the same line and the same object, byte for byte.
func TestStatusObjectMatchesTwoStep(t *testing.T) {
	cases, inlineMax := statusObjectCases()
	at := ObjectRef{Bucket: "gowren-meta", Key: "jobs/exec-000001/status/00042"}
	for _, c := range cases {
		old := c.rec
		wantLine, wantObject := twoStepStatusObject(&old, c.env, inlineMax, at, c.frames)
		rec := c.rec
		rec.ResultRef = at
		line, object := StatusObject(&rec, c.env, inlineMax, len(c.frames))
		if len(c.frames) > 0 {
			copy(object[len(line)+1:], c.frames)
		}
		if !bytes.Equal(line, wantLine) || !bytes.Equal(object, wantObject) {
			t.Errorf("%s: StatusObject wrote\n%q\n%q\nthe two-step path\n%q\n%q", c.name, line, object, wantLine, wantObject)
		}
		if cap(object) != len(object) {
			t.Errorf("%s: a %d-byte object in a %d-byte buffer", c.name, len(object), cap(object))
		}
	}
}

// TestDecodedStringsAliasBody: every string and RawMessage a decoder returns
// lies inside the body it decoded — nothing is copied out of it.
func TestDecodedStringsAliasBody(t *testing.T) {
	check := func(name string, body []byte, v any) {
		t.Helper()
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
		hi := lo + uintptr(len(body))
		inside := func(p unsafe.Pointer, n int) bool {
			return n == 0 || uintptr(p) >= lo && uintptr(p)+uintptr(n) <= hi
		}
		strs := 0
		var walk func(reflect.Value)
		walk = func(v reflect.Value) {
			switch v.Kind() {
			case reflect.String:
				strs++
				if s := v.String(); !inside(unsafe.Pointer(unsafe.StringData(s)), len(s)) {
					t.Errorf("%s: string %q lies outside the body", name, s)
				}
			case reflect.Slice:
				if v.Type().Elem().Kind() == reflect.Uint8 {
					if !inside(v.UnsafePointer(), v.Len()) {
						t.Errorf("%s: %s %q lies outside the body", name, v.Type(), v.Bytes())
					}
					return
				}
				for i := range v.Len() {
					walk(v.Index(i))
				}
			case reflect.Pointer:
				if !v.IsNil() {
					walk(v.Elem())
				}
			case reflect.Struct:
				for i := range v.NumField() {
					if v.Type().Field(i).IsExported() {
						walk(v.Field(i))
					}
				}
			}
		}
		walk(reflect.ValueOf(v))
		if strs == 0 {
			t.Errorf("%s: no string decoded", name)
		}
	}
	for _, v := range codecRecords(t) {
		body := MustMarshal(v)
		var (
			got any
			err error
		)
		switch v.(type) {
		case *CallPayload:
			got, err = DecodePayload(body)
		case *StatusRecord:
			var rec StatusRecord
			rec, _, err = DecodeStatus(body)
			got = rec
		case *ResultEnvelope:
			got, err = DecodeEnvelope(body)
		case ObjectRef:
			got, err = DecodeRef(body)
		case *FanInMarker:
			got, err = DecodeMarker(body)
		case *ShuffleIndex:
			got, err = DecodeShuffleIndex(body)
		}
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if v != (ObjectRef{}) {
			check(fmt.Sprintf("%T", v), body, got)
		}
	}
}
