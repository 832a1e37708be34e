package wire

import "fmt"

// One shuffle object per map, and it is the map's status. On the COS
// transport a map call commits its R partition frames in its status object,
// after the record line (StatusObject): in reducer order and joined the way
// JoinPayloads joins payloads, one separator byte between frames, none after
// the last. Frame r of a map therefore sits at a PayloadSpan's r-th range,
// which starts one byte past the line. The span follows from the line's
// length and the frame sizes the map advertises in its record (ShuffleSpan);
// the stage's fan-in closer gathers every map's span into one ShuffleIndex,
// and each reducer reads its slice of every map's status with one ranged
// GET.

// ShuffleIndexKey is where the index of the shuffle stage whose first map
// call is firstMapCallID lives. It is written once, create-only.
func ShuffleIndexKey(execID, firstMapCallID string) string {
	return "jobs/" + execID + "/shuffle/index/" + firstMapCallID
}

// ShuffleSpan locates a map call's partitions inside its status object key,
// whose frames start at byte start, from the partition descriptors it
// advertised, which are indexed by reducer. etag pins the object version the
// span describes.
func ShuffleSpan(key, etag string, start int64, parts []PartitionDescriptor) PayloadSpan {
	bounds := make([]int64, 1, len(parts)+1)
	bounds[0] = start
	for _, p := range parts {
		bounds = append(bounds, bounds[len(bounds)-1]+p.Bytes+1)
	}
	return PayloadSpan{Key: key, Bounds: bounds, ETag: etag}
}

// ShuffleIndex is the stage index of a COS shuffle: one span per map call,
// in map order, each pinned to the ETag of the status object it was read
// from. Reducer r reads Maps[m].Ref(bucket, r) of every map m.
type ShuffleIndex struct {
	Maps []PayloadSpan `json:"maps"`
}

// DecodeShuffleIndex decodes and validates a stage index. Every span must
// ascend with no empty frame and locate as many partitions as every other
// span, so each range a decoded index hands out is non-empty and lies inside
// the status object the span describes, after its record line.
func DecodeShuffleIndex(body []byte) (*ShuffleIndex, error) {
	idx := new(ShuffleIndex)
	d := newDecoder(body)
	if d.shuffleIndex(idx); !d.done() {
		*idx = ShuffleIndex{}
		if err := Unmarshal(body, idx); err != nil {
			return nil, err
		}
	}
	if len(idx.Maps) == 0 {
		return nil, fmt.Errorf("wire: shuffle index locates no map")
	}
	for i, s := range idx.Maps {
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("wire: shuffle index map %d: %w", i, err)
		}
		if s.Calls() != idx.Maps[0].Calls() {
			return nil, fmt.Errorf("wire: shuffle index map %d: %d partitions, want %d",
				i, s.Calls(), idx.Maps[0].Calls())
		}
	}
	return idx, nil
}
