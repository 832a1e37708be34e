package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
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
		if _, ok := marshalFast(v); !ok {
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
// path: the body's one string copy and the pointers the record holds.
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
		{"DecodeStatus", 1, func() { _, _, err := DecodeStatus(status); must(err) }},
		{"DecodeEnvelope", 0, func() { _, err := DecodeEnvelope(inline); must(err) }},
		{"DecodeRef", 1, func() { _, err := DecodeRef(params); must(err) }},
		{"DecodePayload(map with fan-in)", 6, func() { _, err := DecodePayload(mapCall); must(err) }},
		{"DecodePayload(reduce)", 4, func() { _, err := DecodePayload(reduce); must(err) }},
		{"DecodeMarker(100 launches)", 2, func() { _, err := DecodeMarker(marker); must(err) }},
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
// envelope inside its own object, and the line is the record alone. Frame
// sizes up to 1,200 bytes carry the envelope's offset across digit
// boundaries, where its own digits lengthen the line it is written in.
func TestStatusObjectLayout(t *testing.T) {
	env := []byte(`{"kind":"value","value":"` + string(bytes.Repeat([]byte{'x'}, 100)) + `"}`)
	for n := 0; n <= 1200; n++ {
		frames := bytes.Repeat([]byte{'f'}, n)
		rec := &StatusRecord{ExecutorID: "e", CallID: "00001", OK: true, ResultRef: ObjectRef{Bucket: "b", Key: "jobs/e/status/00001"}}
		line, object := StatusObject(rec, frames, env)
		if !bytes.Equal(line, MustMarshal(rec)) || !bytes.HasPrefix(object, append(line, '\n')) {
			t.Fatalf("%d frame bytes: line %q does not open object %q", n, line, object)
		}
		got, rest, err := DecodeStatus(object)
		if err != nil || !reflect.DeepEqual(got, *rec) {
			t.Fatalf("%d frame bytes: DecodeStatus = %+v (err %v), want %+v", n, got, err, *rec)
		}
		if n > 0 && !bytes.Equal(rest[:n], frames) {
			t.Fatalf("%d frame bytes: the frames do not follow the line", n)
		}
		spilled, err := SpilledEnvelope(&got, object)
		if err != nil || !bytes.Equal(spilled, env) {
			t.Fatalf("%d frame bytes: spilled envelope = %q (err %v), want %q", n, spilled, err, env)
		}
		if _, err := SpilledEnvelope(&got, object[:len(object)-1]); err == nil {
			t.Fatalf("%d frame bytes: a truncated object's envelope was accepted", n)
		}
	}
	rec := &StatusRecord{ExecutorID: "e", CallID: "00002", OK: true, Inline: json.RawMessage(`{"kind":"value","value":1}`)}
	line, object := StatusObject(rec, nil, nil)
	if !bytes.Equal(line, object) || bytes.IndexByte(object, '\n') >= 0 {
		t.Fatalf("a record without bulk: line %q, object %q; want the record alone", line, object)
	}
	if _, rest, err := DecodeStatus(object); err != nil || rest != nil {
		t.Fatalf("a record without bulk decodes with rest %q (err %v)", rest, err)
	}
}
