package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCallPayloadRoundTrip(t *testing.T) {
	in := CallPayload{
		ExecutorID: "exec-1",
		CallID:     "00001",
		Runtime:    "default",
		Function:   "add7",
		Kind:       KindPlain,
		Arg:        json.RawMessage(`3`),
		MetaBucket: "gowren-meta",
	}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out CallPayload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

// selfFanIn is a remote invoker's fan-in: the group of one, callID, gating
// two staged calls.
func selfFanIn(callID string) *FanIn {
	return &FanIn{
		FirstCallID: callID, Count: 1, FirstTarget: "00000", Targets: 2,
		TargetSpans: []PayloadSpan{{Key: "jobs/e/payload/00000+2", Bounds: []int64{0, 120, 240}}},
		Action:      "gowren-runner--r",
	}
}

func TestCallPayloadValidate(t *testing.T) {
	valid := func() CallPayload {
		return CallPayload{
			ExecutorID: "e", CallID: "c", Runtime: "r", Function: "f",
			Kind: KindPlain, MetaBucket: "m",
		}
	}
	tests := []struct {
		name    string
		mutate  func(*CallPayload)
		wantErr string
	}{
		{"valid plain", func(p *CallPayload) {}, ""},
		{"missing executor", func(p *CallPayload) { p.ExecutorID = "" }, "executor id"},
		{"missing call", func(p *CallPayload) { p.CallID = "" }, "call id"},
		{"missing function", func(p *CallPayload) { p.Function = "" }, "function name"},
		{"missing meta bucket", func(p *CallPayload) { p.MetaBucket = "" }, "meta bucket"},
		{"unknown kind", func(p *CallPayload) { p.Kind = 0 }, "unknown call kind"},
		{"map without partition", func(p *CallPayload) { p.Kind = KindMapPartition }, "missing partition"},
		{"reduce without spec", func(p *CallPayload) { p.Kind = KindReduce }, "missing reduce spec"},
		{"invoker without spec", func(p *CallPayload) { p.Kind = KindInvoker }, "fan-in of itself alone"},
		{"invoker gating another call", func(p *CallPayload) {
			p.Kind = KindInvoker
			p.FanIn = selfFanIn("d")
		}, "fan-in of itself alone"},
		{"map with partition", func(p *CallPayload) {
			p.Kind = KindMapPartition
			p.Partition = &Partition{Bucket: "b", Key: "k", Length: -1}
		}, ""},
		{"reduce with spec", func(p *CallPayload) {
			p.Kind = KindReduce
			p.Reduce = &ReduceSpec{MetaBucket: "m", ExecutorID: "e"}
		}, ""},
		{"invoker with spec", func(p *CallPayload) {
			p.Kind = KindInvoker
			p.FanIn = selfFanIn("c")
		}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := valid()
			tt.mutate(&p)
			err := p.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestCallKindString(t *testing.T) {
	if KindPlain.String() != "plain" || KindMapPartition.String() != "map-partition" ||
		KindReduce.String() != "reduce" || KindInvoker.String() != "invoker" {
		t.Fatal("kind strings wrong")
	}
	if got := CallKind(99).String(); got != "CallKind(99)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestStatusRecordRoundTripProperty(t *testing.T) {
	f := func(execID, callID string, ok bool, submit, start, end int64) bool {
		in := StatusRecord{
			ExecutorID:   execID,
			CallID:       callID,
			OK:           ok,
			SubmitUnixNs: submit,
			StartUnixNs:  start,
			EndUnixNs:    end,
			ResultRef:    ObjectRef{Bucket: "b", Key: callID},
		}
		data, err := Marshal(&in)
		if err != nil {
			return false
		}
		var out StatusRecord
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResultEnvelopeFutures(t *testing.T) {
	env := ResultEnvelope{
		Kind: ResultFutures,
		Futures: &FuturesRef{
			MetaBucket: "m", ExecutorID: "sub", CallIDs: []string{"a", "b"}, Combine: "list",
		},
	}
	data := MustMarshal(&env)
	var out ResultEnvelope
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != ResultFutures || out.Futures == nil || len(out.Futures.CallIDs) != 2 {
		t.Fatalf("round trip lost futures: %+v", out)
	}
}

func TestUnmarshalErrorMentionsType(t *testing.T) {
	var p CallPayload
	err := Unmarshal([]byte(`{`), &p)
	if err == nil || !strings.Contains(err.Error(), "CallPayload") {
		t.Fatalf("error %v should mention target type", err)
	}
}

func TestShufflePayloadValidation(t *testing.T) {
	base := func(kind CallKind) CallPayload {
		return CallPayload{
			ExecutorID: "e", CallID: "c", Runtime: "r", Function: "f",
			Kind: kind, MetaBucket: "m",
		}
	}
	sm := base(KindShuffleMap)
	if err := sm.Validate(); err == nil {
		t.Fatal("shuffle-map without partition accepted")
	}
	sm.Partition = &Partition{Bucket: "b", Key: "k", Length: -1}
	if err := sm.Validate(); err == nil {
		t.Fatal("shuffle-map without shuffle spec accepted")
	}
	sm.Shuffle = &ShuffleSpec{NumReducers: 2}
	if err := sm.Validate(); err != nil {
		t.Fatalf("valid shuffle-map rejected: %v", err)
	}

	sr := base(KindShuffleReduce)
	if err := sr.Validate(); err == nil {
		t.Fatal("shuffle-reduce without spec accepted")
	}
	sr.Shuffle = &ShuffleSpec{NumReducers: 2, Reducer: 2, MapCallIDs: []string{"a"}}
	if err := sr.Validate(); err == nil {
		t.Fatal("out-of-range reducer accepted")
	}
	sr.Shuffle.Reducer = 1
	if err := sr.Validate(); err != nil {
		t.Fatalf("valid shuffle-reduce rejected: %v", err)
	}
}

// TestShuffleKeyLayout holds ShuffleKey to the fmt layout it replaced, at
// reducers inside and beyond the five-digit pad and with empty IDs, and to
// one allocation.
func TestShuffleKeyLayout(t *testing.T) {
	if key := ShuffleKey("exec-7", "00042", 3); key != "jobs/exec-7/shuffle/00003/00042" {
		t.Fatalf("shuffle key = %q", key)
	}
	for _, tc := range []struct {
		exec, mapCall string
		reducer       int
	}{
		{"exec-7", "00042", 0}, {"exec-7", "00042", 9}, {"e", "m", 12345}, {"e", "m", 99999},
		{"e", "m", 100000}, {"e", "m", 1234567}, {"", "00001", 5}, {"exec", "", 5}, {"", "", 0},
		{"exec-with-a-long-identifier-0123456789", "call-0123456789", math.MaxInt},
	} {
		want := fmt.Sprintf("jobs/%s/shuffle/%05d/%s", tc.exec, tc.reducer, tc.mapCall)
		if got := ShuffleKey(tc.exec, tc.mapCall, tc.reducer); got != want {
			t.Errorf("ShuffleKey(%q, %q, %d) = %q, want %q", tc.exec, tc.mapCall, tc.reducer, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { ShuffleKey(tc.exec, tc.mapCall, tc.reducer) }); n > 1 {
			t.Errorf("ShuffleKey(%q, %q, %d): %v allocs, want <= 1", tc.exec, tc.mapCall, tc.reducer, n)
		}
	}
}

func TestKVAndKeyResultRoundTrip(t *testing.T) {
	kv := KV{Key: "word", Value: json.RawMessage(`5`)}
	data := MustMarshal(kv)
	var back KV
	if err := Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key != "word" || string(back.Value) != "5" {
		t.Fatalf("kv round trip = %+v", back)
	}
	kr := KeyResult{Key: "k", Value: json.RawMessage(`{"n":1}`)}
	data = MustMarshal(kr)
	var krBack KeyResult
	if err := Unmarshal(data, &krBack); err != nil {
		t.Fatal(err)
	}
	if krBack.Key != "k" {
		t.Fatalf("key result round trip = %+v", krBack)
	}
}

func TestNewKindStrings(t *testing.T) {
	if KindShuffleMap.String() != "shuffle-map" || KindShuffleReduce.String() != "shuffle-reduce" {
		t.Fatal("shuffle kind strings wrong")
	}
}

func fanInPayload() CallPayload {
	return CallPayload{
		ExecutorID: "exec-1", CallID: "00003", Runtime: "default", Function: "tone",
		Kind:       KindMapPartition,
		Partition:  &Partition{Bucket: "b", Key: "k", Length: -1},
		MetaBucket: "gowren-meta",
		FanIn: &FanIn{
			FirstCallID: "00000", Count: 14,
			FirstTarget: "00468", Targets: 1,
			TargetSpans: []PayloadSpan{{Key: "jobs/exec-1/payload/00468+33", Bounds: []int64{0, 301}}},
			Action:      "gowren-runner--default", Tenant: "acme",
		},
	}
}

func TestFanInRoundTrip(t *testing.T) {
	in := fanInPayload()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out CallPayload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in.FanIn, out.FanIn)
	}
}

func TestFanInValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*FanIn)
		wantErr string
	}{
		{"no first call", func(f *FanIn) { f.FirstCallID = "" }, "empty call range"},
		{"zero count", func(f *FanIn) { f.Count = 0 }, "empty call range"},
		{"no first target", func(f *FanIn) { f.FirstTarget = "" }, "without targets"},
		{"zero targets", func(f *FanIn) { f.Targets = 0 }, "without targets"},
		{"no action", func(f *FanIn) { f.Action = "" }, "without an action"},
		{"targets not located", func(f *FanIn) { f.TargetSpans = nil }, "locates 0 of its 1 targets"},
		{"span locates too many", func(f *FanIn) { f.TargetSpans[0].Bounds = []int64{0, 301, 640} }, "locates 2 of its 1 targets"},
		{"span without key", func(f *FanIn) { f.TargetSpans[0].Key = "" }, "payload span"},
		{"span not ascending", func(f *FanIn) { f.TargetSpans[0].Bounds = []int64{301, 301} }, "do not ascend"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := fanInPayload()
			tt.mutate(p.FanIn)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
			}
		})
	}
}

// TestPlainPayloadBytesUnchanged pins the serialized form of a plain Map
// payload: calls that close no stage barrier carry no trace of the fan-in
// field, so their staged objects (and every byte count downstream) are what
// they were before it existed.
func TestPlainPayloadBytesUnchanged(t *testing.T) {
	p := CallPayload{
		ExecutorID: "exec-000001", CallID: "00000", Runtime: "gowren-default:1", Function: "add7",
		Kind: KindPlain, Arg: json.RawMessage(`3`), MetaBucket: "gowren-meta",
	}
	const want = `{"executorId":"exec-000001","callId":"00000","runtime":"gowren-default:1","function":"add7","kind":1,"arg":3,"metaBucket":"gowren-meta"}`
	if got := string(MustMarshal(&p)); got != want {
		t.Fatalf("plain payload =\n%s\nwant\n%s", got, want)
	}
	// Riding the invocation, the payload is the staged line byte for byte,
	// one '\n' after its ref.
	ref := ObjectRef{Bucket: "gowren-meta", Key: "jobs/exec-000001/payload/00000+1", Length: int64(len(want))}
	params := InvokeParams(ref, []byte(want))
	if got, head := string(params), string(MustMarshal(ref)); got != head+"\n"+want {
		t.Fatalf("inline invoke params =\n%s\nwant\n%s\n%s", got, head, want)
	}
}
