// Package wire defines the serialized envelopes GoWren stages in object
// storage: call payloads (the analogue of IBM-PyWren pickling user code and
// data into IBM COS), status records, and result envelopes. These are
// JSON: self-describing, diffable in tests, and sufficient because user
// functions are addressed by registered name rather than by shipped
// bytecode (see internal/runtime for the substitution rationale). The
// records the platform writes and reads on every call have hand-written
// codecs (codec.go) that produce and accept exactly what encoding/json
// does, checked against it by fuzzing, and fall back to it for anything
// they do not recognise; user values go through encoding/json. Shuffle
// partitions, which no human reads and every reducer scans, are a binary
// KV frame instead (kvframe.go), and on COS one object per map holds them
// all, located through a stage index (shuffleindex.go).
package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// CallKind discriminates the runner behaviour for a staged call.
type CallKind int

// Call kinds. Plain calls carry an inline argument; MapPartition calls carry
// a storage partition to read; Reduce calls aggregate map partials; Invoker
// calls are the massive-function-spawning helpers, which run nothing and
// only close a fan-in of one (their FanIn) to launch their group from inside
// the cloud; ShuffleMap/ShuffleReduce are the two sides of the keyed-shuffle
// MapReduce extension.
const (
	KindPlain CallKind = iota + 1
	KindMapPartition
	KindReduce
	KindInvoker
	KindShuffleMap
	KindShuffleReduce
)

func (k CallKind) String() string {
	switch k {
	case KindPlain:
		return "plain"
	case KindMapPartition:
		return "map-partition"
	case KindReduce:
		return "reduce"
	case KindInvoker:
		return "invoker"
	case KindShuffleMap:
		return "shuffle-map"
	case KindShuffleReduce:
		return "shuffle-reduce"
	default:
		return fmt.Sprintf("CallKind(%d)", int(k))
	}
}

// ObjectRef addresses one object in storage, or — with Length set — Length
// bytes of it starting at Offset. A ref without a range marshals to exactly
// {"bucket":…,"key":…} and means the whole object.
type ObjectRef struct {
	Bucket string `json:"bucket"`
	Key    string `json:"key"`
	Offset int64  `json:"offset,omitempty"`
	Length int64  `json:"length,omitempty"`
}

// Partition describes a byte range of a stored object assigned to one map
// executor. Offset/Length of (0, -1) means the whole object.
type Partition struct {
	Bucket     string `json:"bucket"`
	Key        string `json:"key"`
	Offset     int64  `json:"offset"`
	Length     int64  `json:"length"`
	Index      int    `json:"index"`      // ordinal among the job's partitions
	ObjectSize int64  `json:"objectSize"` // total size of the source object
}

// ReduceSpec tells a reduce executor which map partials to wait for.
type ReduceSpec struct {
	// MetaBucket is the bucket holding job metadata (payloads, statuses).
	MetaBucket string `json:"metaBucket"`
	// ExecutorID identifies the job whose map phase feeds this reducer.
	ExecutorID string `json:"executorId"`
	// MapCallIDs are the map calls whose results this reducer consumes.
	MapCallIDs []string `json:"mapCallIds"`
	// GroupKey is the source object key when running one reducer per
	// object (the paper's reducer_one_per_object mode); empty for a
	// global reducer.
	GroupKey string `json:"groupKey,omitempty"`
}

// KV is one key–value pair emitted by a shuffle map function.
type KV struct {
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v"`
	// normal marks a Value NormalKV built. A Value replaced later keeps the
	// mark unchecked: frames are length-prefixed, reducers refuse bad JSON.
	normal bool
}

// NormalKV returns the pair key, value, where value is the bytes
// encoding/json writes for the emitted value, as EmitKV builds them.
func NormalKV(key string, value []byte) KV { return KV{Key: key, Value: value, normal: true} }

// Normal reports whether kv came from NormalKV, so its value needs no check.
func (kv KV) Normal() bool { return kv.normal }

// Exchange transports for shuffle intermediates. COS is the default and
// the correctness baseline; the fast tiers bypass the object-store round
// trip and degrade back to it (spill or recompute) when their node dies.
const (
	// ExchangeCOS stages every map's partitions in COS (the paper's only
	// data path), after the record line of the map's own status object.
	ExchangeCOS = "cos"
	// ExchangeMemory stages partitions in the ephemeral memory-tier cache
	// node, spilling to COS on eviction.
	ExchangeMemory = "memory"
	// ExchangeDirect keeps partitions inside the producing map activation,
	// which lingers so reducers can pull from it peer-to-peer.
	ExchangeDirect = "direct"
)

// ValidExchange reports whether name is a known exchange transport. The
// empty string is valid and means ExchangeCOS.
func ValidExchange(name string) bool {
	switch name {
	case "", ExchangeCOS, ExchangeMemory, ExchangeDirect:
		return true
	}
	return false
}

// ShuffleSpec configures the shuffle side-channel of a keyed MapReduce
// job. Map executors hash-partition their emitted KVs into NumReducers
// partitions; reducer r reads partition r of every map call. On COS a map
// commits them in its status object, after the record line, and a reducer
// finds its slice through the stage's ShuffleIndex; the fast tiers hold
// them per partition, and their COS spills and fallbacks use ShuffleKey.
type ShuffleSpec struct {
	// NumReducers is the reduce-side parallelism R.
	NumReducers int `json:"numReducers"`
	// Reducer is this call's partition index (reduce side only).
	Reducer int `json:"reducer"`
	// MapCallIDs are the map calls feeding the shuffle (reduce side).
	MapCallIDs []string `json:"mapCallIds,omitempty"`
	// Exchange selects the intermediate-data transport (Exchange*
	// constants). Empty means ExchangeCOS.
	Exchange string `json:"exchange,omitempty"`
}

// PartitionDescriptor advertises one shuffle partition a map call produced:
// which reducer it belongs to, and its size in keys and serialized bytes.
type PartitionDescriptor struct {
	Reducer int   `json:"reducer"`
	Bytes   int64 `json:"bytes"`
	Keys    int   `json:"keys"`
}

// ExchangeAd is the advertisement every shuffle-map call embeds in its
// status record: where its partitions live, how big they are, and — for
// the direct transport — until when the producing activation lingers to
// serve peer pulls. On COS the partition sizes are the layout of the frames
// that follow the record line in the map's status object (ShuffleSpan),
// which is what the stage index is built from; fast-tier
// reducers locate partitions from the spec alone and read the ad only in
// tests and traces.
type ExchangeAd struct {
	// Transport is the exchange transport the partitions were written to.
	Transport string `json:"transport"`
	// LingerUntilNs is when the producing activation stops serving peer
	// pulls (direct transport only), in ns on the simulation clock.
	LingerUntilNs int64 `json:"lingerUntilNs,omitempty"`
	// Partitions describes the produced partitions, indexed by reducer.
	Partitions []PartitionDescriptor `json:"partitions,omitempty"`
	// Fallbacks counts partitions this map wrote straight to COS because
	// the fast tier refused them (node down, entry too large).
	Fallbacks int `json:"fallbacks,omitempty"`
}

// ShuffleKey is where a fast-tier partition for one reducer lands in COS:
// a cache eviction spill or a map's fallback write.
func ShuffleKey(execID, mapCallID string, reducer int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(reducer), 10)
	return "jobs/" + execID + "/shuffle/" + "00000"[min(len(d), 5):] + string(d) + "/" + mapCallID
}

// KeyResult is one reduced key with its value, the output unit of a
// shuffle reducer.
type KeyResult struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// FanIn is a completion-triggered stage barrier, carried by every call of
// the group it closes: once the calls FirstCallID … FirstCallID+Count-1 have
// all committed a status, whichever of them notices first claims the group's
// launch marker with a create-if-absent put and invokes the staged calls
// FirstTarget … FirstTarget+Targets-1. The downstream stage therefore starts
// when its inputs exist, and nothing is billed for waiting on them. Both
// ranges are contiguous zero-padded call IDs in the carrying call's own
// executor namespace; the spec grows by one offset per target, nothing per
// input. A remote invoker of massive spawning is the group of one: Count 1,
// its own call ID, and the calls it spawns as targets.
type FanIn struct {
	// FirstCallID and Count bound the group whose statuses gate the launch.
	FirstCallID string `json:"firstCallId"`
	Count       int    `json:"count"`
	// FirstTarget and Targets bound the staged calls that depend on the
	// whole group.
	FirstTarget string `json:"firstTarget"`
	Targets     int    `json:"targets"`
	// TargetSpans locate the targets' staged payloads, in target order: one
	// span per payload batch the range touches (one, unless the stager's
	// size cap split it).
	TargetSpans []PayloadSpan `json:"targetSpans"`
	// Action and Tenant are what every target is invoked as.
	Action string `json:"action"`
	Tenant string `json:"tenant,omitempty"`
}

func (f *FanIn) validate() error {
	switch {
	case f.FirstCallID == "" || f.Count < 1:
		return fmt.Errorf("wire: fan-in spec with an empty call range")
	case f.FirstTarget == "" || f.Targets < 1:
		return fmt.Errorf("wire: fan-in spec without targets")
	case f.Action == "":
		return fmt.Errorf("wire: fan-in spec without an action to invoke")
	}
	located := 0
	for _, s := range f.TargetSpans {
		if err := s.validate(); err != nil {
			return fmt.Errorf("wire: fan-in spec: %w", err)
		}
		located += s.Calls()
	}
	if located != f.Targets {
		return fmt.Errorf("wire: fan-in spec locates %d of its %d targets", located, f.Targets)
	}
	return nil
}

// Target returns the staged payload of the spec's i-th target.
func (f *FanIn) Target(bucket string, i int) ObjectRef {
	for _, s := range f.TargetSpans {
		if i < s.Calls() {
			return s.Ref(bucket, i)
		}
		i -= s.Calls()
	}
	panic(fmt.Sprintf("wire: fan-in target %d out of range", i)) // a validated spec locates every target
}

// FanInMarker is the body of a fan-in launch marker. Creating it is the
// claim (exactly one claimant per generation wins); the winner rewrites it
// with the activation IDs it launched, so whoever drives the job can probe
// those activations like any it invoked itself.
type FanInMarker struct {
	// By names the claimant: the launching call's activation ID, or
	// "driver" for the client-side backstop.
	By string `json:"by"`
	// Generation counts claims: 1 for the first, +1 for every takeover of a
	// marker whose launch never happened.
	Generation int   `json:"generation"`
	AtUnixNs   int64 `json:"atUnixNs"`
	// ActivationIDs are indexed like the spec's target range; "" marks a
	// target this claimant did not (or could not) launch.
	ActivationIDs []string `json:"activationIds,omitempty"`
}

// CallPayload is the unit staged in storage per invocation: which function
// to run, in which runtime, on what input. It corresponds to the
// "Serialize + Put in COS" step of the paper's Fig. 1.
type CallPayload struct {
	ExecutorID string          `json:"executorId"`
	CallID     string          `json:"callId"`
	Runtime    string          `json:"runtime"`
	Function   string          `json:"function"`
	Kind       CallKind        `json:"kind"`
	Arg        json.RawMessage `json:"arg,omitempty"`
	Partition  *Partition      `json:"partition,omitempty"`
	Reduce     *ReduceSpec     `json:"reduce,omitempty"`
	Shuffle    *ShuffleSpec    `json:"shuffle,omitempty"`
	// FanIn, when set, makes this call one input of a stage barrier: after
	// committing its status the runner checks the group and, if it is the
	// one that completes it, launches the downstream stage. Plain calls
	// carry none and their payloads are byte-identical to before.
	FanIn *FanIn `json:"fanIn,omitempty"`
	// MetaBucket is where the runner writes the call's status object.
	MetaBucket string `json:"metaBucket"`
	// Region names the storage region the call is placed in. A runner
	// executing a placed call reads and writes through that region's view
	// of the multi-region facade instead of the default (region 0) one.
	// Empty means the platform has a single-region storage plane.
	Region string `json:"region,omitempty"`
	// Tenant attributes the call to a platform tenant for fair-share
	// admission and billing. It travels in the payload so respawns,
	// remote invokers and composition spawns inherit the originating
	// executor's tenant. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Validate checks structural invariants of the payload.
func (p *CallPayload) Validate() error {
	switch {
	case p.ExecutorID == "":
		return fmt.Errorf("wire: payload missing executor id")
	case p.CallID == "":
		return fmt.Errorf("wire: payload missing call id")
	case p.Function == "":
		return fmt.Errorf("wire: payload missing function name")
	case p.MetaBucket == "":
		return fmt.Errorf("wire: payload missing meta bucket")
	}
	switch p.Kind {
	case KindPlain:
	case KindMapPartition:
		if p.Partition == nil {
			return fmt.Errorf("wire: map-partition payload missing partition")
		}
	case KindReduce:
		if p.Reduce == nil {
			return fmt.Errorf("wire: reduce payload missing reduce spec")
		}
	case KindInvoker:
		if p.FanIn == nil || p.FanIn.Count != 1 || p.FanIn.FirstCallID != p.CallID {
			return fmt.Errorf("wire: invoker payload must carry a fan-in of itself alone")
		}
	case KindShuffleMap:
		if p.Partition == nil {
			return fmt.Errorf("wire: shuffle-map payload missing partition")
		}
		if p.Shuffle == nil || p.Shuffle.NumReducers < 1 {
			return fmt.Errorf("wire: shuffle-map payload missing shuffle spec")
		}
		if !ValidExchange(p.Shuffle.Exchange) {
			return fmt.Errorf("wire: unknown exchange transport %q", p.Shuffle.Exchange)
		}
	case KindShuffleReduce:
		if p.Shuffle == nil || p.Shuffle.NumReducers < 1 || len(p.Shuffle.MapCallIDs) == 0 {
			return fmt.Errorf("wire: shuffle-reduce payload missing shuffle spec")
		}
		if p.Shuffle.Reducer < 0 || p.Shuffle.Reducer >= p.Shuffle.NumReducers {
			return fmt.Errorf("wire: shuffle-reduce partition %d out of range", p.Shuffle.Reducer)
		}
		if !ValidExchange(p.Shuffle.Exchange) {
			return fmt.Errorf("wire: unknown exchange transport %q", p.Shuffle.Exchange)
		}
	default:
		return fmt.Errorf("wire: unknown call kind %d", int(p.Kind))
	}
	if p.FanIn != nil {
		return p.FanIn.validate()
	}
	return nil
}

// FuturesRef points at calls spawned dynamically by a function; a result
// envelope carrying one tells GetResult to keep following the composition
// (paper §4.4).
type FuturesRef struct {
	MetaBucket string   `json:"metaBucket"`
	ExecutorID string   `json:"executorId"`
	CallIDs    []string `json:"callIds"`
	// ActivationIDs are the platform activation IDs of the referenced
	// calls, index-aligned with CallIDs when known (direct invocation).
	// They let a composition wait consult activation records for calls
	// that died without committing a status, exactly as the client's own
	// status sweep does. Empty or missing entries mean unknown.
	ActivationIDs []string `json:"activationIds,omitempty"`
	// Combine declares how the downstream results collapse into one value:
	// "list" returns them as a JSON array (nested map), "single" expects
	// exactly one call and returns its value (sequences).
	Combine string `json:"combine"`
}

// Result envelope kinds.
const (
	ResultValue   = "value"
	ResultFutures = "futures"
)

// Combine modes for FuturesRef.
const (
	// CombineList resolves the referenced calls into a JSON array.
	CombineList = "list"
	// CombineSingle expects exactly one referenced call and resolves to
	// its value (sequential compositions).
	CombineSingle = "single"
)

// ResultEnvelope wraps a function's return value. Kind "futures" makes the
// composition visible to the client so GetResult can transparently wait for
// the continuation.
type ResultEnvelope struct {
	Kind    string          `json:"kind"`
	Value   json.RawMessage `json:"value,omitempty"`
	Futures *FuturesRef     `json:"futures,omitempty"`
}

// StatusRecord is the record the runner commits when an invocation finishes;
// clients poll for it instead of holding connections open, exactly as
// IBM-PyWren polls COS. It is the first line of the call's status object,
// which is the call's only object (StatusObject): whatever else the call
// commits rides the same PUT after the line.
type StatusRecord struct {
	ExecutorID string `json:"executorId"`
	CallID     string `json:"callId"`
	OK         bool   `json:"ok"`
	Error      string `json:"error,omitempty"`

	ActivationID string `json:"activationId"`
	ColdStart    bool   `json:"coldStart"`

	// Timestamps in nanoseconds on the simulation clock.
	SubmitUnixNs int64 `json:"submitUnixNs"`
	StartUnixNs  int64 `json:"startUnixNs"`
	EndUnixNs    int64 `json:"endUnixNs"`

	// Inline, when non-empty, is the call's serialized ResultEnvelope
	// embedded directly in the record. The runner inlines results whose
	// envelope serializes under its threshold; larger ones spill to the
	// status object's bytes after the line, located by ResultRef.
	Inline json.RawMessage `json:"inline,omitempty"`

	// ResultRef locates a spilled envelope: the status object's own bucket
	// and key, and the byte range after the record line that holds it. It
	// is the zero value when the result is inlined (or the call failed).
	ResultRef ObjectRef `json:"resultRef"`

	// Exchange is the partition advertisement of a shuffle-map call on any
	// transport; nil for every other kind.
	Exchange *ExchangeAd `json:"exchange,omitempty"`
}

// Marshal encodes v as JSON. The platform's own records take the hand-written
// encoders in codec.go, which write the same bytes; anything else, and any
// record they do not take, goes through encoding/json.
func Marshal(v any) ([]byte, error) {
	if data, ok := marshalFast(v, 0); ok {
		return data, nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal %T: %w", v, err)
	}
	return data, nil
}

// Unmarshal decodes JSON data into v with encoding/json. Platform records
// have their own decoders: DecodePayload, DecodeStatus, DecodeEnvelope,
// DecodeRef and DecodeShuffleIndex.
func Unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: unmarshal %T: %w", v, err)
	}
	return nil
}

// MustMarshal is Marshal for values that cannot fail (fixed struct shapes);
// it panics on error and is reserved for internal envelopes.
func MustMarshal(v any) []byte {
	data, err := Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
