package wire

import (
	"reflect"
	"strings"
	"testing"
)

// indexFixture is the index of a two-map, three-reducer COS shuffle whose
// second map emitted nothing for reducer 1: that frame is the magic byte
// alone. Each map's frames start after its status record's line.
func indexFixture() *ShuffleIndex {
	return &ShuffleIndex{Maps: []PayloadSpan{
		ShuffleSpan("jobs/exec-1/status/00000", "etag-0", 312, []PartitionDescriptor{{0, 10, 1}, {1, 4, 1}, {2, 7, 1}}),
		ShuffleSpan("jobs/exec-1/status/00001", "etag-1", 298, []PartitionDescriptor{{0, 5, 1}, {1, 1, 0}, {2, 9, 2}}),
	}}
}

// TestShuffleIndexLocatesFrames: the span a map's line length and
// descriptors give cuts every frame back out of the status object that
// carries them after its record line, and the index survives the round trip
// through its encoding.
func TestShuffleIndexLocatesFrames(t *testing.T) {
	frames := [][]byte{AppendKVs(nil, []KV{{Key: "a", Value: []byte("1")}}), AppendKVs(nil, nil), AppendKVs(nil, kvFixture())}
	descs := make([]PartitionDescriptor, len(frames))
	for i, f := range frames {
		descs[i] = PartitionDescriptor{Reducer: i, Bytes: int64(len(f))}
	}
	joined, bounds := JoinPayloads(frames)
	rec := &StatusRecord{ExecutorID: "exec-1", CallID: "00007", OK: true, Exchange: &ExchangeAd{Transport: ExchangeCOS, Partitions: descs}}
	line, object := StatusObject(rec, nil, 0, len(joined))
	copy(object[len(line)+1:], joined)
	span := ShuffleSpan("jobs/exec-1/status/00007", "e", int64(len(line))+1, descs)
	for i := range bounds {
		bounds[i] += int64(len(line)) + 1
	}
	if !reflect.DeepEqual(span.Bounds, bounds) {
		t.Fatalf("span bounds = %v, want the batch bounds after the line %v", span.Bounds, bounds)
	}
	for i, f := range frames {
		ref := span.Ref("meta", i)
		if got := object[ref.Offset : ref.Offset+ref.Length]; !reflect.DeepEqual(got, f) {
			t.Errorf("frame %d = %q, want %q", i, got, f)
		}
	}
	in := indexFixture()
	got, err := DecodeShuffleIndex(MustMarshal(in))
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip = %+v (err %v), want %+v", got, err, in)
	}
	if key := ShuffleIndexKey("exec-1", "00000"); key != "jobs/exec-1/shuffle/index/00000" {
		t.Errorf("index key = %s", key)
	}
}

func TestDecodeShuffleIndexRejects(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"maps":[]}`, "no map"},
		{`{"maps":[{"key":"k","bounds":[0,2,1]}]}`, "do not ascend"},
		{`{"maps":[{"key":"k","bounds":[0,1]}]}`, "do not ascend"}, // an empty frame
		{`{"maps":[{"key":"k","bounds":[0,9223372036854775807,-9223372036854775807]}]}`, "do not ascend"},
		{`{"maps":[{"key":"a","bounds":[0,3,6]},{"key":"b","bounds":[0,4]}]}`, "1 partitions"},
		{`{"maps":[{"key":"","bounds":[0,3]}]}`, "boundaries"},
		{`{"maps":`, "unmarshal"},
	} {
		if _, err := DecodeShuffleIndex([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.body, err, tc.want)
		}
	}
}

// FuzzShuffleIndex feeds arbitrary bytes to the decoder every COS reducer
// runs on its stage index. It must decode or fail cleanly, and a decoded
// index may hand out only non-empty, ascending ranges inside the status
// object each span describes, after the first bound, and must survive being
// written again. Its codec is
// held to encoding/json as the record codecs are (codec_test.go).
func FuzzShuffleIndex(f *testing.F) {
	f.Add(MustMarshal(indexFixture()))
	f.Add([]byte(`{"maps":[{"key":"k","bounds":[0,9223372036854775807,-5]}]}`))
	f.Add([]byte(`{"maps":[{"key":"a","bounds":[0,3,6]},{"key":"b","bounds":[0,4]}]}`))
	f.Add([]byte(`{"maps":[{"key":"a","bounds":[300,303,306],"etag":"x"},{"key":"b","bounds":[2,4,9]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = checkDecode(t, data, (*decoder).shuffleIndex)
		idx, err := DecodeShuffleIndex(data)
		if err != nil {
			return
		}
		parts := idx.Maps[0].Calls()
		for m, s := range idx.Maps {
			if s.Calls() != parts {
				t.Fatalf("map %d locates %d partitions, map 0 %d", m, s.Calls(), parts)
			}
			size := s.Bounds[parts] - 1 // no separator after the last frame
			next := s.Bounds[0]
			for r := range parts {
				ref := s.Ref("b", r)
				if ref.Length < 1 || ref.Offset < next || ref.Offset+ref.Length > size {
					t.Fatalf("map %d partition %d: range %d+%d, want a non-empty range in [%d, %d)",
						m, r, ref.Offset, ref.Length, next, size)
				}
				next = ref.Offset + ref.Length
			}
		}
		back, err := DecodeShuffleIndex(MustMarshal(idx))
		if err != nil || !reflect.DeepEqual(back, idx) {
			t.Fatalf("rewritten index = %+v (err %v), want %+v", back, err, idx)
		}
	})
}
