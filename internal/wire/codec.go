package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unsafe"
)

// Hand-written codecs for the records the platform itself writes and reads on
// every call: CallPayload, StatusRecord, ResultEnvelope, ObjectRef,
// FanInMarker and ShuffleIndex. They write and read exactly the JSON
// encoding/json does — the tests use it as their oracle — without its
// reflection, and they only take the records they fully understand: an
// unknown, duplicate or differently cased key, a string with a byte that
// needs escaping (see plainByte), null where a string, number or object belongs,
// a number that is not a plain in-range integer, or a composition envelope
// (FuturesRef) sends the whole record through encoding/json instead.
// Correctness never depends on the fast path.
//
// Decoded strings and the RawMessage fields (CallPayload.Arg,
// StatusRecord.Inline, ResultEnvelope.Value) alias the body: the strings
// through unsafe.String, so decoding copies nothing. The body is a GET's copy
// (cos.Store and the HTTP client hand out a fresh one on every Get and
// GetRange), an HTTP request body, invoke parameters or a copy of a body the
// store pushed, and nobody writes to any of these once it is decoded. A
// decoded string keeps its whole body alive, as a RawMessage already did.

// plainByte[c] reports whether encoding/json writes byte c of a string as
// itself: printable ASCII other than the quote, the backslash and the three
// bytes it HTML-escapes.
var plainByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// PlainString reports whether v is a JSON string of plain bytes: '"', bytes
// encoding/json writes as themselves, '"'. Such a value is valid JSON that
// json.Marshal writes back unchanged, which this one scan tells without
// json.Valid and NeedsCompact.
func PlainString(v []byte) bool {
	return len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' && PlainText(unsafe.String(&v[1], len(v)-2))
}

// PlainText reports whether every byte of s is plain (plainByte), eight at a
// time: for an ASCII word w, byte by byte w+0x60 has its top bit set from
// 0x20 up, w+0x01 from 0x7f up, and x+0x7f unless x is 0, where x is
// w^'\\', (w|4)^'&' (zero for '"' and '&') or (w|2)^'>' (for '<' and '>'),
// with no carry between bytes. A non-ASCII byte fails s through high.
func PlainText(s string) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	ok, high := uint64(tops), uint64(0)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		high |= w
		ok &= (w + 0x60*ones) &^ (w + ones) & (w ^ '\\'*ones + 0x7f*ones) &
			((w | 4*ones) ^ '&'*ones + 0x7f*ones) & ((w | 2*ones) ^ '>'*ones + 0x7f*ones)
	}
	if ok&tops != tops || high&tops != 0 {
		return false
	}
	for ; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// NeedsCompact reports whether json.Marshal would rewrite a valid JSON value:
// it drops whitespace and escapes '<', '>', '&', U+2028 and U+2029 (whose
// UTF-8 starts with 0xE2).
func NeedsCompact(v []byte) bool {
	for _, c := range v {
		switch c {
		case ' ', '\t', '\n', '\r', '<', '>', '&', 0xE2:
			return true
		}
	}
	return false
}

// marshalFast encodes v if it is a platform record the fast path takes, in
// two passes over the same code: the first measures (and checks every
// string and RawMessage), the second writes into a buffer of exactly that
// size, with room for spare more bytes the caller appends.
func marshalFast(v any, spare int) ([]byte, bool) {
	e := encoder{ok: true}
	e.record(v)
	if !e.ok {
		return nil, false
	}
	e = encoder{buf: make([]byte, 0, e.n+spare), ok: true}
	e.record(v)
	return e.buf, true
}

// encoder writes one record, or — with buf nil — only counts its bytes.
type encoder struct {
	buf []byte
	n   int
	ok  bool // false once a value needs what only encoding/json does
}

// record encodes v if it is a platform record, and otherwise clears ok.
func (e *encoder) record(v any) {
	switch v := v.(type) {
	case *CallPayload:
		if v != nil {
			e.payload(v)
			return
		}
	case *StatusRecord:
		if v != nil {
			e.status(v, nil)
			return
		}
	case *ResultEnvelope:
		if v != nil {
			e.envelope(v)
			return
		}
	case ObjectRef:
		e.ref(v)
		return
	case *FanInMarker:
		if v != nil {
			e.marker(v)
			return
		}
	case *ShuffleIndex:
		if v != nil {
			list(e, `{"maps":`, v.Maps, e.span)
			e.lit("}")
			return
		}
	}
	e.ok = false
}

func (e *encoder) lit(s string) {
	e.n += len(s)
	if e.buf != nil {
		e.buf = append(e.buf, s...)
	}
}

func (e *encoder) quote(s string) {
	if e.buf == nil {
		e.ok = e.ok && PlainText(s)
	}
	e.lit(`"`)
	e.lit(s)
	e.lit(`"`)
}

func (e *encoder) num(v int64) {
	var digits [20]byte
	b := strconv.AppendInt(digits[:0], v, 10)
	e.n += len(b)
	if e.buf != nil {
		e.buf = append(e.buf, b...)
	}
}

// Field writers. Every key literal carries its leading comma (or the opening
// brace, for a struct's first field, which no record omits).

func (e *encoder) str(key, s string) {
	e.lit(key)
	e.quote(s)
}

func (e *encoder) optStr(key, s string) {
	if s != "" {
		e.str(key, s)
	}
}

func (e *encoder) int(key string, v int64) {
	e.lit(key)
	e.num(v)
}

func (e *encoder) optInt(key string, v int64) {
	if v != 0 {
		e.int(key, v)
	}
}

func (e *encoder) bool(key string, v bool) {
	e.lit(key)
	if v {
		e.lit("true")
	} else {
		e.lit("false")
	}
}

// raw writes an omitempty RawMessage verbatim, which is what encoding/json
// writes only for valid JSON it would not compact.
func (e *encoder) raw(key string, m json.RawMessage) {
	if len(m) == 0 {
		return
	}
	if e.buf == nil && (NeedsCompact(m) || !json.Valid(m)) {
		e.ok = false
	}
	e.lit(key)
	e.n += len(m)
	if e.buf != nil {
		e.buf = append(e.buf, m...)
	}
}

// list writes a slice field; a nil slice is null, as encoding/json writes it.
// elem is a method value on e: passing e itself to a function value would
// move it to the heap.
func list[T any](e *encoder, key string, s []T, elem func(T)) {
	e.lit(key)
	if s == nil {
		e.lit("null")
		return
	}
	e.lit("[")
	for i, v := range s {
		if i > 0 {
			e.lit(",")
		}
		elem(v)
	}
	e.lit("]")
}

func (e *encoder) payload(p *CallPayload) {
	e.str(`{"executorId":`, p.ExecutorID)
	e.str(`,"callId":`, p.CallID)
	e.str(`,"runtime":`, p.Runtime)
	e.str(`,"function":`, p.Function)
	e.int(`,"kind":`, int64(p.Kind))
	e.raw(`,"arg":`, p.Arg)
	if q := p.Partition; q != nil {
		e.str(`,"partition":{"bucket":`, q.Bucket)
		e.str(`,"key":`, q.Key)
		e.int(`,"offset":`, q.Offset)
		e.int(`,"length":`, q.Length)
		e.int(`,"index":`, int64(q.Index))
		e.int(`,"objectSize":`, q.ObjectSize)
		e.lit("}")
	}
	if r := p.Reduce; r != nil {
		e.str(`,"reduce":{"metaBucket":`, r.MetaBucket)
		e.str(`,"executorId":`, r.ExecutorID)
		list(e, `,"mapCallIds":`, r.MapCallIDs, e.quote)
		e.optStr(`,"groupKey":`, r.GroupKey)
		e.lit("}")
	}
	if s := p.Shuffle; s != nil {
		e.int(`,"shuffle":{"numReducers":`, int64(s.NumReducers))
		e.int(`,"reducer":`, int64(s.Reducer))
		if len(s.MapCallIDs) > 0 {
			list(e, `,"mapCallIds":`, s.MapCallIDs, e.quote)
		}
		e.optStr(`,"exchange":`, s.Exchange)
		e.lit("}")
	}
	if f := p.FanIn; f != nil {
		e.str(`,"fanIn":{"firstCallId":`, f.FirstCallID)
		e.int(`,"count":`, int64(f.Count))
		e.str(`,"firstTarget":`, f.FirstTarget)
		e.int(`,"targets":`, int64(f.Targets))
		list(e, `,"targetSpans":`, f.TargetSpans, e.span)
		e.str(`,"action":`, f.Action)
		e.optStr(`,"tenant":`, f.Tenant)
		e.lit("}")
	}
	e.str(`,"metaBucket":`, p.MetaBucket)
	e.optStr(`,"region":`, p.Region)
	e.optStr(`,"tenant":`, p.Tenant)
	e.lit("}")
}

func (e *encoder) span(s PayloadSpan) {
	e.str(`{"key":`, s.Key)
	list(e, `,"bounds":`, s.Bounds, e.num)
	e.optStr(`,"etag":`, s.ETag)
	e.lit("}")
}

func (e *encoder) ref(r ObjectRef) {
	e.str(`{"bucket":`, r.Bucket)
	e.str(`,"key":`, r.Key)
	e.optInt(`,"offset":`, r.Offset)
	e.optInt(`,"length":`, r.Length)
	e.lit("}")
}

// status writes r, with env — when set — encoded as its inline field in
// place of r.Inline, as StatusObject writes a call's result.
func (e *encoder) status(r *StatusRecord, env *ResultEnvelope) {
	e.str(`{"executorId":`, r.ExecutorID)
	e.str(`,"callId":`, r.CallID)
	e.bool(`,"ok":`, r.OK)
	e.optStr(`,"error":`, r.Error)
	e.str(`,"activationId":`, r.ActivationID)
	e.bool(`,"coldStart":`, r.ColdStart)
	e.int(`,"submitUnixNs":`, r.SubmitUnixNs)
	e.int(`,"startUnixNs":`, r.StartUnixNs)
	e.int(`,"endUnixNs":`, r.EndUnixNs)
	if env != nil {
		e.lit(`,"inline":`)
		e.envelope(env)
	} else {
		e.raw(`,"inline":`, r.Inline)
	}
	e.lit(`,"resultRef":`)
	e.ref(r.ResultRef)
	if x := r.Exchange; x != nil {
		e.str(`,"exchange":{"transport":`, x.Transport)
		e.optInt(`,"lingerUntilNs":`, x.LingerUntilNs)
		if len(x.Partitions) > 0 {
			list(e, `,"partitions":`, x.Partitions, e.descriptor)
		}
		e.optInt(`,"fallbacks":`, int64(x.Fallbacks))
		e.lit("}")
	}
	e.lit("}")
}

func (e *encoder) descriptor(p PartitionDescriptor) {
	e.int(`{"reducer":`, int64(p.Reducer))
	e.int(`,"bytes":`, p.Bytes)
	e.int(`,"keys":`, int64(p.Keys))
	e.lit("}")
}

func (e *encoder) envelope(env *ResultEnvelope) {
	e.ok = e.ok && env.Futures == nil // compositions are rare: encoding/json writes them
	e.str(`{"kind":`, env.Kind)
	e.raw(`,"value":`, env.Value)
	e.lit("}")
}

func (e *encoder) marker(m *FanInMarker) {
	e.str(`{"by":`, m.By)
	e.int(`,"generation":`, int64(m.Generation))
	e.int(`,"atUnixNs":`, m.AtUnixNs)
	if len(m.ActivationIDs) > 0 {
		list(e, `,"activationIds":`, m.ActivationIDs, e.quote)
	}
	e.lit("}")
}

// decoder reads one record; ok turns false at the first byte the fast path
// does not take, and the caller then hands the whole body to encoding/json.
type decoder struct {
	b  []byte
	i  int
	ok bool
}

func newDecoder(body []byte) decoder { return decoder{b: body, ok: true} }

// unmarshalFresh is the slow path of the value-returning decoders: encoding/json
// into a zero value, which is what the fast path decodes into too.
func unmarshalFresh[T any](body []byte) (T, error) {
	v := new(T)
	if err := Unmarshal(body, v); err != nil {
		var zero T
		return zero, err
	}
	return *v, nil
}

// StatusObject lays out the one object that commits a call, in one buffer of
// exactly its size: rec's record line; when the call has frames, '\n' and
// frames bytes left for the caller to fill with a COS shuffle map's partition
// frames (object[len(line)+1:][:frames]); and, when env — the call's result
// envelope, nil for a failed call — encodes to more than inlineMax bytes,
// '\n' and env. A smaller env rides the line's inline field instead, encoded
// there directly. On entry rec.ResultRef names the status object itself; a
// spilled env keeps that name and gains its byte range, an offset written in
// the line it follows, so the line is measured until its length agrees with
// it (its digits move it at most twice); otherwise it is cleared. One pass
// measures and one writes. An env or a record the fast encoder does not take
// (a composition, a string that needs escaping) goes through encoding/json,
// which writes the same bytes in the same place. line is the record alone,
// the head of object.
func StatusObject(rec *StatusRecord, env *ResultEnvelope, inlineMax, frames int) (line, object []byte) {
	var slowEnv []byte // env as encoding/json writes it, when the fast encoder does not take it
	size := 0
	if env != nil {
		m := encoder{ok: true}
		if m.envelope(env); m.ok {
			size = m.n
		} else {
			v := *env // a copy, so that only this path moves an envelope to the heap
			slowEnv = MustMarshal(&v)
			size = len(slowEnv)
		}
	}
	spill := size > inlineMax
	inline := env // what the line encodes as its inline field
	switch {
	case spill:
		rec.ResultRef.Offset, rec.ResultRef.Length = 0, int64(size)
		inline = nil
	case slowEnv != nil:
		rec.ResultRef, rec.Inline, inline = ObjectRef{}, slowEnv, nil
	default:
		rec.ResultRef = ObjectRef{}
	}
	var slowLine []byte // the line as encoding/json writes it, when the fast encoder does not take rec
	measure := func() int {
		m := encoder{ok: true}
		if m.status(rec, inline); m.ok {
			return m.n
		}
		if inline != nil {
			e := *env
			rec.Inline, inline = MustMarshal(&e), nil
		}
		v := *rec
		slowLine = MustMarshal(&v)
		return len(slowLine)
	}
	bulk := 0
	if frames > 0 {
		bulk = 1 + frames
	}
	n := measure()
	for spill {
		off := int64(n + bulk + 1)
		if off == rec.ResultRef.Offset {
			break
		}
		rec.ResultRef.Offset = off
		n = measure()
	}
	total := n + bulk
	if spill {
		total += 1 + size
	}
	w := encoder{buf: make([]byte, 0, total), ok: true}
	if slowLine != nil {
		w.buf = append(w.buf, slowLine...)
	} else {
		w.status(rec, inline)
	}
	if frames > 0 {
		w.lit("\n")
		w.buf = w.buf[:len(w.buf)+frames]
	}
	if spill {
		w.lit("\n")
		if slowEnv != nil {
			w.buf = append(w.buf, slowEnv...)
		} else {
			w.envelope(env)
		}
	}
	return w.buf[:n:n], w.buf
}

// DecodeStatus decodes a status object's record, its first line, and returns
// the bytes after the line's '\n' (nil when the object is the record alone).
// body may be a head range of the object: only the line must be whole. The
// record and rest alias body.
func DecodeStatus(body []byte) (rec StatusRecord, rest []byte, err error) {
	line, rest, _ := bytes.Cut(body, []byte{'\n'})
	d := newDecoder(line)
	if d.status(&rec); d.done() {
		return rec, rest, nil
	}
	rec, err = unmarshalFresh[StatusRecord](line)
	return rec, rest, err
}

// SpilledEnvelope returns the envelope a whole status object body carries
// after rec, its decoded line, as rec.ResultRef locates it. It fails when
// the range does not lie after the line inside body.
func SpilledEnvelope(rec *StatusRecord, body []byte) ([]byte, error) {
	ref := rec.ResultRef
	line := bytes.IndexByte(body, '\n')
	if line < 0 || ref.Length <= 0 || ref.Offset <= int64(line) || ref.Offset > int64(len(body)) || ref.Length > int64(len(body))-ref.Offset {
		return nil, fmt.Errorf("wire: status of call %s locates its %d-byte result at %d, outside its %d-byte object",
			rec.CallID, ref.Length, ref.Offset, len(body))
	}
	return body[ref.Offset : ref.Offset+ref.Length], nil
}

// DecodeEnvelope decodes a result envelope. Kind and Value alias body.
func DecodeEnvelope(body []byte) (ResultEnvelope, error) {
	var env ResultEnvelope
	d := newDecoder(body)
	if d.envelope(&env); d.done() {
		return env, nil
	}
	return unmarshalFresh[ResultEnvelope](body)
}

// DecodeRef decodes an object ref, the parameters of every runner and
// invoker activation.
func DecodeRef(body []byte) (ObjectRef, error) {
	var ref ObjectRef
	d := newDecoder(body)
	if d.ref(&ref); d.done() {
		return ref, nil
	}
	return unmarshalFresh[ObjectRef](body)
}

// DecodeMarker decodes a fan-in launch marker; its strings alias body.
func DecodeMarker(body []byte) (FanInMarker, error) {
	var m FanInMarker
	d := newDecoder(body)
	if d.marker(&m); d.done() {
		return m, nil
	}
	return unmarshalFresh[FanInMarker](body)
}

func (d *decoder) fail() { d.ok = false }

// done reports whether the record decoded and nothing but whitespace follows.
func (d *decoder) done() bool {
	d.ws()
	return d.ok && d.i == len(d.b)
}

func (d *decoder) ws() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// next consumes c if it is the next byte past whitespace.
func (d *decoder) next(c byte) bool {
	d.ws()
	if d.ok && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *decoder) expect(c byte) {
	if !d.next(c) {
		d.fail()
	}
}

// quoted returns the bounds of the string at the cursor, whose bytes must
// all be plain.
func (d *decoder) quoted() (start, end int) {
	d.expect('"')
	start = d.i
	for d.ok && d.i < len(d.b) && plainByte[d.b[d.i]] {
		d.i++
	}
	end = d.i
	if d.i < len(d.b) && d.b[d.i] == '"' { // right here: any other byte is not plain
		d.i++
	} else {
		d.fail()
	}
	return start, end
}

func (d *decoder) str() string { return d.text(d.quoted()) }

// text returns bytes [start, end) of the body as a string that aliases them.
func (d *decoder) text(start, end int) string {
	if !d.ok || start == end {
		return ""
	}
	return unsafe.String(&d.b[start], end-start)
}

func (d *decoder) int() int64 {
	d.ws()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var u uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		u = u*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	switch n := d.i - start; {
	case n == 0 || n > 19 || u > limit || (n > 1 && d.b[start] == '0'):
		d.fail()
		return 0
	case neg:
		return -int64(u)
	}
	return int64(u)
}

// intN is int for an int field, which encoding/json range-checks against
// the platform's int.
func (d *decoder) intN() int {
	v := d.int()
	if int64(int(v)) != v {
		d.fail()
	}
	return int(v)
}

func (d *decoder) bool() bool {
	d.ws()
	for _, lit := range [...]string{"false", "true"} {
		if end := d.i + len(lit); end <= len(d.b) && string(d.b[d.i:end]) == lit {
			d.i = end
			return lit == "true"
		}
	}
	d.fail()
	return false
}

// skip moves the cursor past one value, trusting its brackets and skipping
// over string escapes: raw checks what it skipped with json.Valid, and
// arrayLen's elements are parsed properly afterwards.
func (d *decoder) skip() {
	d.ws()
	start, depth := d.i, 0
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case depth == 0 && d.i > start && (c == ',' || c == '}' || c == ']' || isSpace(c)):
			return
		case c == '"':
			for d.i++; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
				if d.b[d.i] == '\\' {
					d.i++
				}
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			if depth == 0 {
				d.fail()
				return
			}
			depth--
		}
	}
	if d.i > len(d.b) || d.i == start {
		d.i = len(d.b)
		d.fail()
	}
}

// raw returns the value at the cursor as a RawMessage aliasing the body; its
// capacity ends with it, so an append cannot scribble on what follows.
func (d *decoder) raw() json.RawMessage {
	d.ws()
	start := d.i
	d.skip()
	if !d.ok || !json.Valid(d.b[start:d.i]) {
		d.fail()
		return nil
	}
	return d.b[start:d.i:d.i]
}

// arrayLen counts the elements of the array at the cursor without moving it.
func (d *decoder) arrayLen() int {
	at, n := d.i, 0
	d.expect('[')
	if !d.next(']') {
		for d.ok {
			d.skip()
			n++
			if !d.next(',') {
				break
			}
		}
	}
	d.i = at
	return n
}

// array decodes the array at the cursor into a slice sized up front; like
// encoding/json it returns an empty, non-nil slice for []. elem is a method
// value on d, as list's is on its encoder.
func array[T any](d *decoder, elem func(*T)) []T {
	s := make([]T, d.arrayLen())
	d.expect('[')
	for i := range s {
		if i > 0 {
			d.expect(',')
		}
		if !d.ok {
			return nil
		}
		elem(&s[i])
	}
	d.expect(']')
	return s
}

// object calls field for every key of the object at the cursor, with the
// cursor on its value; field returns false for a key it does not know. A
// repeated key takes the record off the fast path, since encoding/json
// merges a repeat into what the first occurrence decoded.
func (d *decoder) object(field func(key []byte) bool) {
	d.expect('{')
	if d.next('}') {
		return
	}
	var seen [16][]byte
	for n := 0; d.ok; n++ {
		start, end := d.quoted()
		key := d.b[start:end]
		if n == len(seen) { // more keys than any record has
			d.fail()
			return
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				d.fail()
				return
			}
		}
		seen[n] = key
		d.expect(':')
		if !d.ok || !field(key) {
			d.fail()
			return
		}
		if !d.next(',') {
			d.expect('}')
			return
		}
	}
}

func (d *decoder) strInto(s *string) { *s = d.str() }
func (d *decoder) intInto(v *int64)  { *v = d.int() }

func (d *decoder) payload(p *CallPayload) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "executorId":
			p.ExecutorID = d.str()
		case "callId":
			p.CallID = d.str()
		case "runtime":
			p.Runtime = d.str()
		case "function":
			p.Function = d.str()
		case "kind":
			p.Kind = CallKind(d.intN())
		case "arg":
			p.Arg = d.raw()
		case "partition":
			p.Partition = new(Partition)
			d.partition(p.Partition)
		case "reduce":
			p.Reduce = new(ReduceSpec)
			d.reduce(p.Reduce)
		case "shuffle":
			p.Shuffle = new(ShuffleSpec)
			d.shuffle(p.Shuffle)
		case "fanIn":
			p.FanIn = new(FanIn)
			d.fanIn(p.FanIn)
		case "metaBucket":
			p.MetaBucket = d.str()
		case "region":
			p.Region = d.str()
		case "tenant":
			p.Tenant = d.str()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) partition(p *Partition) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "bucket":
			p.Bucket = d.str()
		case "key":
			p.Key = d.str()
		case "offset":
			p.Offset = d.int()
		case "length":
			p.Length = d.int()
		case "index":
			p.Index = d.intN()
		case "objectSize":
			p.ObjectSize = d.int()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) reduce(r *ReduceSpec) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "metaBucket":
			r.MetaBucket = d.str()
		case "executorId":
			r.ExecutorID = d.str()
		case "mapCallIds":
			r.MapCallIDs = array(d, d.strInto)
		case "groupKey":
			r.GroupKey = d.str()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) shuffle(s *ShuffleSpec) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "numReducers":
			s.NumReducers = d.intN()
		case "reducer":
			s.Reducer = d.intN()
		case "mapCallIds":
			s.MapCallIDs = array(d, d.strInto)
		case "exchange":
			s.Exchange = d.str()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) fanIn(f *FanIn) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "firstCallId":
			f.FirstCallID = d.str()
		case "count":
			f.Count = d.intN()
		case "firstTarget":
			f.FirstTarget = d.str()
		case "targets":
			f.Targets = d.intN()
		case "targetSpans":
			f.TargetSpans = array(d, d.span)
		case "action":
			f.Action = d.str()
		case "tenant":
			f.Tenant = d.str()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) span(s *PayloadSpan) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "key":
			s.Key = d.str()
		case "bounds":
			s.Bounds = array(d, d.intInto)
		case "etag":
			s.ETag = d.str()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) ref(r *ObjectRef) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "bucket":
			r.Bucket = d.str()
		case "key":
			r.Key = d.str()
		case "offset":
			r.Offset = d.int()
		case "length":
			r.Length = d.int()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) status(r *StatusRecord) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "executorId":
			r.ExecutorID = d.str()
		case "callId":
			r.CallID = d.str()
		case "ok":
			r.OK = d.bool()
		case "error":
			r.Error = d.str()
		case "activationId":
			r.ActivationID = d.str()
		case "coldStart":
			r.ColdStart = d.bool()
		case "submitUnixNs":
			r.SubmitUnixNs = d.int()
		case "startUnixNs":
			r.StartUnixNs = d.int()
		case "endUnixNs":
			r.EndUnixNs = d.int()
		case "inline":
			r.Inline = d.raw()
		case "resultRef":
			d.ref(&r.ResultRef)
		case "exchange":
			r.Exchange = new(ExchangeAd)
			d.exchange(r.Exchange)
		default:
			return false
		}
		return true
	})
}

func (d *decoder) exchange(x *ExchangeAd) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "transport":
			x.Transport = d.str()
		case "lingerUntilNs":
			x.LingerUntilNs = d.int()
		case "partitions":
			x.Partitions = array(d, d.descriptor)
		case "fallbacks":
			x.Fallbacks = d.intN()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) descriptor(p *PartitionDescriptor) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "reducer":
			p.Reducer = d.intN()
		case "bytes":
			p.Bytes = d.int()
		case "keys":
			p.Keys = d.intN()
		default:
			return false
		}
		return true
	})
}

func (d *decoder) envelope(env *ResultEnvelope) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "kind":
			env.Kind = d.str()
		case "value":
			env.Value = d.raw()
		default: // "futures" included: encoding/json decodes compositions
			return false
		}
		return true
	})
}

func (d *decoder) marker(m *FanInMarker) {
	d.object(func(key []byte) bool {
		switch string(key) {
		case "by":
			m.By = d.str()
		case "generation":
			m.Generation = d.intN()
		case "atUnixNs":
			m.AtUnixNs = d.int()
		case "activationIds":
			m.ActivationIDs = array(d, d.strInto)
		default:
			return false
		}
		return true
	})
}

func (d *decoder) shuffleIndex(idx *ShuffleIndex) {
	d.object(func(key []byte) bool {
		if string(key) != "maps" {
			return false
		}
		idx.Maps = array(d, d.span)
		return true
	})
}
