package gowren

import (
	"encoding/json"
	"fmt"
	"unsafe"

	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// RegisterFunc registers a typed plain function on an image. The argument
// and result cross the wire as JSON, so I and O must be JSON-serializable.
// This is GoWren's substitute for PyWren pickling arbitrary closures: code
// ships inside runtime images, addressed by name (see DESIGN.md §3).
func RegisterFunc[I, O any](img *Image, name string, fn func(ctx *Ctx, arg I) (O, error)) error {
	if fn == nil {
		return fmt.Errorf("gowren: register %q: nil function", name)
	}
	return img.RegisterPlain(name, func(ctx *Ctx, raw json.RawMessage) (any, error) {
		var arg I
		if len(raw) > 0 {
			if err := wire.Unmarshal(raw, &arg); err != nil {
				return nil, fmt.Errorf("gowren: %s: decode argument: %w", name, err)
			}
		}
		return fn(ctx, arg)
	})
}

// RegisterComposerFunc registers a plain function that returns a dynamic
// composition (a *FuturesRef from Spawn or Chain) instead of a value.
func RegisterComposerFunc[I any](img *Image, name string, fn func(ctx *Ctx, arg I) (*wire.FuturesRef, error)) error {
	return RegisterFunc(img, name, fn)
}

// RegisterMapFunc registers a typed map function over storage partitions,
// used by MapReduce with storage-backed data sources.
func RegisterMapFunc[O any](img *Image, name string, fn func(ctx *Ctx, part *PartitionReader) (O, error)) error {
	if fn == nil {
		return fmt.Errorf("gowren: register %q: nil function", name)
	}
	return img.RegisterMapPartition(name, func(ctx *Ctx, part *runtime.PartitionReader) (any, error) {
		return fn(ctx, part)
	})
}

// RegisterReduceFunc registers a typed reduce function. P is the map
// functions' result type; group is the source object key in
// reducer-one-per-object mode ("" for a global reducer).
func RegisterReduceFunc[P, O any](img *Image, name string, fn func(ctx *Ctx, group string, partials []P) (O, error)) error {
	if fn == nil {
		return fmt.Errorf("gowren: register %q: nil function", name)
	}
	return img.RegisterReduce(name, func(ctx *Ctx, group string, raws []json.RawMessage) (any, error) {
		partials := make([]P, len(raws))
		for i, raw := range raws {
			if err := wire.Unmarshal(raw, &partials[i]); err != nil {
				return nil, fmt.Errorf("gowren: %s: decode partial %d: %w", name, i, err)
			}
		}
		return fn(ctx, group, partials)
	})
}

// KV is one key–value pair emitted by a shuffle map function; build them
// with EmitKV.
type KV = wire.KV

// KeyResult is one reduced key produced by a shuffle reducer.
type KeyResult = wire.KeyResult

// EmitKV builds a key–value pair, marshaling the value as JSON. A string
// value arrives unboxed, and one whose bytes JSON carries verbatim is quoted
// without encoding/json, in one allocation; anything else is boxed once.
func EmitKV[V any](key string, value V) (KV, error) {
	if s, ok := any(value).(string); ok && wire.PlainText(s) {
		raw := make([]byte, len(s)+2)
		raw[0], raw[len(raw)-1] = '"', '"'
		copy(raw[1:], s)
		return wire.NormalKV(key, raw), nil
	}
	raw, err := wire.Marshal(value)
	if err != nil {
		return KV{}, fmt.Errorf("gowren: emit %q: %w", key, err)
	}
	return wire.NormalKV(key, raw), nil
}

// RegisterKVMapFunc registers a shuffle map function: it emits key–value
// pairs from its partition, which the platform shuffles across reducers
// through object storage.
func RegisterKVMapFunc(img *Image, name string, fn func(ctx *Ctx, part *PartitionReader) ([]KV, error)) error {
	if fn == nil {
		return fmt.Errorf("gowren: register %q: nil function", name)
	}
	return img.RegisterKVMap(name, func(ctx *Ctx, part *runtime.PartitionReader) ([]wire.KV, error) {
		return fn(ctx, part)
	})
}

// RegisterKVReduceFunc registers a typed per-key reduce function for
// shuffle jobs. V is the map functions' value type.
func RegisterKVReduceFunc[V, O any](img *Image, name string, fn func(ctx *Ctx, key string, values []V) (O, error)) error {
	if fn == nil {
		return fmt.Errorf("gowren: register %q: nil function", name)
	}
	return img.RegisterKVReduce(name, func(ctx *Ctx, key string, raws []json.RawMessage) (any, error) {
		values := make([]V, len(raws))
		for i, raw := range raws {
			// A plain quoted string bound for a string aliases the bytes
			// between the quotes: nothing writes a partition body once its
			// reducer has read it (see core's kvGroups), and a typed reducer
			// never sees the bytes. Everything else pays encoding/json.
			if sp, ok := any(&values[i]).(*string); ok && wire.PlainString(raw) {
				*sp = unsafe.String(&raw[1], len(raw)-2)
			} else if err := wire.Unmarshal(raw, &values[i]); err != nil {
				return nil, fmt.Errorf("gowren: %s: decode value %d of key %q: %w", name, i, key, err)
			}
		}
		return fn(ctx, key, values)
	})
}
