package wire

import "fmt"

// One shuffle object per map. On the COS transport a map call writes its R
// partition frames as one object, in reducer order and joined the way
// JoinPayloads joins payloads: one separator byte between frames, none after
// the last. Frame r of a map therefore sits at a PayloadSpan's r-th range,
// and with R = 1 the object is the frame itself. The span follows from the
// frame sizes the map advertises in its status record (ShuffleSpan); the
// stage's fan-in closer gathers every map's span into one ShuffleIndex, and
// each reducer reads its slice of every map object with one ranged GET.

// ShuffleMapKey is the object a COS-transport map call writes its partitions
// to.
func ShuffleMapKey(execID, mapCallID string) string {
	return "jobs/" + execID + "/shuffle/map/" + mapCallID
}

// ShuffleIndexKey is where the index of the shuffle stage whose first map
// call is firstMapCallID lives. It is written once, create-only.
func ShuffleIndexKey(execID, firstMapCallID string) string {
	return "jobs/" + execID + "/shuffle/index/" + firstMapCallID
}

// ShuffleSpan locates a map call's partitions inside its map object key from
// the partition descriptors it advertised, which are indexed by reducer.
func ShuffleSpan(key string, parts []PartitionDescriptor) PayloadSpan {
	bounds := make([]int64, 1, len(parts)+1)
	for _, p := range parts {
		bounds = append(bounds, bounds[len(bounds)-1]+p.Bytes+1)
	}
	return PayloadSpan{Key: key, Bounds: bounds}
}

// ShuffleIndex is the stage index of a COS shuffle: one span per map call,
// in map order. Reducer r reads Maps[m].Ref(bucket, r) of every map m.
type ShuffleIndex struct {
	Maps []PayloadSpan `json:"maps"`
}

// DecodeShuffleIndex decodes and validates a stage index. Every span must
// start at its object's first byte, ascend with no empty frame, and locate
// as many partitions as every other span, so each range a decoded index
// hands out is non-empty and lies inside the map object the span describes.
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
		if s.Bounds[0] != 0 || s.Calls() != idx.Maps[0].Calls() {
			return nil, fmt.Errorf("wire: shuffle index map %d: %d partitions from byte %d, want %d from byte 0",
				i, s.Calls(), s.Bounds[0], idx.Maps[0].Calls())
		}
	}
	return idx, nil
}
