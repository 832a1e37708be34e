package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// kvFixture has an empty key, an empty value, a value whose length needs a
// two-byte uvarint and bytes that are not UTF-8.
func kvFixture() []KV {
	return []KV{
		{Key: "apple", Value: json.RawMessage("1")},
		{Key: "", Value: json.RawMessage(`"empty key"`)},
		{Key: "nil value"},
		{Key: "long", Value: json.RawMessage(`"` + string(bytes.Repeat([]byte("x"), 300)) + `"`)},
		{Key: "\xff\x00", Value: json.RawMessage(`{"a":[1,2]}`)},
	}
}

// collectKVs reads a frame back into KVs, copying what EachKV aliases.
func collectKVs(body []byte) ([]KV, error) {
	var out []KV
	err := EachKV(body, func(k, v []byte) {
		out = append(out, KV{Key: string(k), Value: bytes.Clone(v)})
	})
	return out, err
}

func TestKVFrameRoundTrip(t *testing.T) {
	kvs := kvFixture()
	body := AppendKVs(nil, kvs)
	size := 1
	for _, kv := range kvs {
		size += KVFrameSize(kv)
	}
	if len(body) != size {
		t.Fatalf("frame is %d bytes, KVFrameSize sums to %d", len(body), size)
	}
	got, err := collectKVs(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(kvs) {
		t.Fatalf("read %d pairs back, wrote %d", len(got), len(kvs))
	}
	for i := range kvs {
		if got[i].Key != kvs[i].Key || !bytes.Equal(got[i].Value, kvs[i].Value) {
			t.Fatalf("pair %d = %q:%q, want %q:%q", i, got[i].Key, got[i].Value, kvs[i].Key, kvs[i].Value)
		}
	}
	// Appending pair by pair builds the same frame as one call.
	var one []byte
	for i := range kvs {
		one = AppendKVs(one, kvs[i:i+1])
	}
	if !bytes.Equal(one, body) {
		t.Fatalf("pairwise frame %q differs from %q", one, body)
	}
	// A value may not be extended into the next pair's bytes.
	if err := EachKV(body, func(_, v []byte) {
		if cap(v) != len(v) {
			t.Fatalf("value %q has room to grow into the frame", v)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKVFrameRejectsForeignBodies(t *testing.T) {
	full := AppendKVs(nil, kvFixture())
	for name, body := range map[string][]byte{
		"nothing":         nil,
		"json partition":  MustMarshal([]KV{{Key: "a", Value: json.RawMessage("1")}}),
		"json null":       []byte("null"),
		"truncated value": full[:len(full)-1],
		"truncated len":   {kvFrameMagic, 0x80},
		"len overrun":     {kvFrameMagic, 5, 'a'},
		"key without val": {kvFrameMagic, 1, 'a'},
	} {
		err := EachKV(body, func(_, _ []byte) {})
		if !errors.Is(err, errKVFrame) {
			t.Errorf("%s: EachKV err = %v, want a malformed-frame error", name, err)
		}
	}
	if got, err := collectKVs(AppendKVs(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty partition = %v, %v", got, err)
	}
}

// FuzzKVFrame: arbitrary bytes never panic EachKV nor hand fn a slice
// outside the body, and pairs cut from the same bytes (NUL-separated key,
// value, key, …) read back from their frame exactly as written.
func FuzzKVFrame(f *testing.F) {
	f.Add(AppendKVs(nil, kvFixture()))
	f.Add([]byte("k\x00v\x00\x00\x00only key"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = EachKV(data, func(k, v []byte) {
			if !within(data, k) || !within(data, v) {
				t.Fatalf("EachKV handed out a slice outside the %d-byte body", len(data))
			}
		})
		var kvs []KV
		fields := bytes.Split(data, []byte{0})
		for i := 0; i+1 < len(fields); i += 2 {
			kvs = append(kvs, KV{Key: string(fields[i]), Value: fields[i+1]})
		}
		got, err := collectKVs(AppendKVs(nil, kvs))
		if err != nil {
			t.Fatalf("frame of %d pairs does not read: %v", len(kvs), err)
		}
		if len(got) != len(kvs) || (len(kvs) > 0 && !reflect.DeepEqual(normalize(got), normalize(kvs))) {
			t.Fatalf("round trip = %v, want %v", got, kvs)
		}
	})
}

// within reports whether s lies inside body's backing array, bounded by its
// length.
func within(body, s []byte) bool {
	if len(s) == 0 {
		return true
	}
	for off := 0; off+len(s) <= len(body); off++ {
		if &body[off] == &s[0] {
			return true
		}
	}
	return false
}

// normalize maps empty values to nil so that DeepEqual compares content.
func normalize(kvs []KV) []KV {
	out := make([]KV, len(kvs))
	for i, kv := range kvs {
		out[i] = kv
		if len(kv.Value) == 0 {
			out[i].Value = nil
		}
	}
	return out
}
