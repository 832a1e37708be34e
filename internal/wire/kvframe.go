package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A shuffle partition travels as a KV frame, not as JSON: one magic byte,
// then for every pair uvarint(len key), key, uvarint(len value), value. The
// values stay the JSON the map function emitted; only the container is
// binary, so a reducer groups them by slicing the body instead of decoding
// it. The magic byte is neither '[' nor 'n', so a JSON partition (or any
// other body) is refused loudly rather than misread.
const kvFrameMagic = 0xF5

// errKVFrame is wrapped by every malformed-frame error EachKV returns.
var errKVFrame = errors.New("wire: malformed KV frame")

// KVFrameSize is the number of bytes kv adds to a frame.
func KVFrameSize(kv KV) int {
	return uvarintLen(len(kv.Key)) + len(kv.Key) + uvarintLen(len(kv.Value)) + len(kv.Value)
}

// AppendKVs appends kvs to dst as a frame; a nil or empty dst starts one
// with the magic byte, so AppendKVs(nil, nil) is the empty partition.
func AppendKVs(dst []byte, kvs []KV) []byte {
	if len(dst) == 0 {
		dst = append(dst, kvFrameMagic)
	}
	for _, kv := range kvs {
		dst = binary.AppendUvarint(dst, uint64(len(kv.Key)))
		dst = append(dst, kv.Key...)
		dst = binary.AppendUvarint(dst, uint64(len(kv.Value)))
		dst = append(dst, kv.Value...)
	}
	return dst
}

// EachKV calls fn with every pair of a frame, in order. key and value alias
// body: fn must copy what it keeps past body's lifetime or mutation. A
// wrong magic byte or a truncated pair is an error; fn is not called for
// anything after it.
func EachKV(body []byte, fn func(key, value []byte)) error {
	if len(body) == 0 || body[0] != kvFrameMagic {
		return fmt.Errorf("%w: no frame header", errKVFrame)
	}
	for rest := body[1:]; len(rest) > 0; {
		key, after, err := cutField(rest)
		if err != nil {
			return fmt.Errorf("%w: key at byte %d: %v", errKVFrame, len(body)-len(rest), err)
		}
		value, after, err := cutField(after)
		if err != nil {
			return fmt.Errorf("%w: value at byte %d: %v", errKVFrame, len(body)-len(rest), err)
		}
		fn(key, value)
		rest = after
	}
	return nil
}

// cutField splits one uvarint-length-prefixed field off the front of b.
func cutField(b []byte) (field, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, errors.New("bad length prefix")
	}
	if n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("length %d overruns the %d bytes left", n, len(b)-w)
	}
	end := w + int(n)
	return b[w:end:end], b[end:], nil
}

func uvarintLen(n int) int {
	w := 1
	for ; n >= 0x80; n >>= 7 {
		w++
	}
	return w
}
