package gowren_test

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"gowren"
)

// stringFastPathSeeds are the strings encoding/json treats specially: HTML
// characters, the JavaScript line separators, invalid UTF-8, control bytes,
// DEL, quotes and backslashes, next to plain ASCII.
var stringFastPathSeeds = []string{
	"", "plain ascii ~!@#$%^*()", "<script>", "a&b", "x>y",
	"  and  ", "\xff\xfe", "bad \xc3 tail", "\x00\x01\x1f", "\x7f",
	`say "hi"`, `back\slash`, "tab\there", "é ünïcode", `A`,
}

// TestEmitKVStringMatchesMarshal: the string fast path of EmitKV emits
// exactly the bytes json.Marshal does.
func TestEmitKVStringMatchesMarshal(t *testing.T) {
	for _, s := range stringFastPathSeeds {
		checkEmitKV(t, s)
	}
}

// word is a string type of its own, which EmitKV marshals instead of
// quoting.
type word string

// FuzzKVStringFastPaths checks both string fast paths against encoding/json:
// EmitKV against json.Marshal, for strings and for values of other types
// built from the input, and the typed reduce decode against json.Unmarshal
// into a string, on the marshalled string and on the string merely quoted
// (escapes, invalid UTF-8, stray quotes).
func FuzzKVStringFastPaths(f *testing.F) {
	for i, s := range stringFastPathSeeds {
		f.Add(s, int64(i)-3, float64(i)/7, i%2 == 0)
	}
	f.Add(`\n\t\"\\\/`, int64(math.MinInt64), math.Inf(1), true)
	f.Add(`😀 é \ud800`, int64(math.MaxInt64), math.NaN(), false)
	f.Add(`unterminated \`, int64(0), -0.0, true)
	f.Add("null", int64(1)<<53+1, 1e21, false) // null: what a nil KV value reaches the reducer as

	decode := stringReduceDecoder(f)
	f.Fuzz(func(t *testing.T, s string, n int64, x float64, b bool) {
		checkEmitKV(t, s)
		checkEmitKV(t, word(s))
		checkEmitKV(t, n)
		checkEmitKV(t, x)
		checkEmitKV(t, b)
		checkEmitKV[any](t, nil)
		checkEmitKV[any](t, s)
		checkEmitKV(t, struct {
			S string  `json:"s"`
			N int64   `json:"n,omitempty"`
			X float64 `json:"x"`
			B bool
		}{s, n, x, b})
		checkEmitKV(t, strings.Fields(s))
		checkEmitKV(t, map[string]int{s: int(n), "<k>": 1})
		marshalled, _ := json.Marshal(s)
		for _, raw := range [][]byte{marshalled, []byte(`"` + s + `"`), []byte(s)} {
			var want string
			wantErr := json.Unmarshal(raw, &want)
			got, err := decode(raw)
			if (err != nil) != (wantErr != nil) || got != want {
				t.Fatalf("decode %q = %q (err %v), json.Unmarshal = %q (err %v)", raw, got, err, want, wantErr)
			}
		}
	})
}

// checkEmitKV fails unless EmitKV writes v as json.Marshal does, failing
// where it fails (NaN and the infinities).
func checkEmitKV[V any](t *testing.T, v V) {
	t.Helper()
	kv, err := gowren.EmitKV("k", v)
	want, wantErr := json.Marshal(v)
	if (err != nil) != (wantErr != nil) || string(kv.Value) != string(want) {
		t.Fatalf("EmitKV(%#v) = %s (err %v), json.Marshal = %s (err %v)", v, kv.Value, err, want, wantErr)
	}
}

// TestKVStringAllocs pins what a plain string costs the platform: one
// allocation to emit (its quoted bytes) and none per value to reduce, since
// the decoded string aliases the partition body.
func TestKVStringAllocs(t *testing.T) {
	s := strings.Repeat("x", 1024)
	if n := testing.AllocsPerRun(100, func() { _, _ = gowren.EmitKV("k", s) }); n != 1 {
		t.Errorf("EmitKV of a plain string: %v allocs, want 1", n)
	}

	raw := json.RawMessage(`"` + s + `"`)
	reduce := stringReduceFunc(t)
	allocs := func(values int) float64 {
		raws := slices.Repeat([]json.RawMessage{raw}, values)
		return testing.AllocsPerRun(100, func() {
			if _, err := reduce(nil, "k", raws); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(65); many != one {
		t.Errorf("reducing 65 plain strings: %v allocs, 1 string: %v; want no allocation per value", many, one)
	}
}

// stringReduceFunc registers a string-valued KV reduce function that hands
// back its decoded values, and returns it as the platform calls it.
func stringReduceFunc(tb testing.TB) func(*gowren.Ctx, string, []json.RawMessage) (any, error) {
	img := gowren.NewImage(gowren.DefaultRuntime, 0)
	err := gowren.RegisterKVReduceFunc(img, "identity", func(_ *gowren.Ctx, _ string, values []string) ([]string, error) {
		return values, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	fn, err := img.KVReduce("identity")
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// stringReduceDecoder decodes one raw value through stringReduceFunc.
func stringReduceDecoder(tb testing.TB) func(raw []byte) (string, error) {
	fn := stringReduceFunc(tb)
	return func(raw []byte) (string, error) {
		out, err := fn(nil, "k", []json.RawMessage{raw})
		if err != nil {
			return "", err
		}
		return out.([]string)[0], nil
	}
}

// TestReducedStringsOutliveTheirJob: a string reducer's values alias the
// partition bodies they were decoded from, so a reducer may keep them. Two
// 16×4 shuffles with different values run on one cloud, first one then the
// other, and Clean follows; every value either reducer kept must still read
// as emitted, on COS and on the memory tier. Pooling or reusing a partition
// body after its reducer has read it fails here.
func TestReducedStringsOutliveTheirJob(t *testing.T) {
	const maps, reducers, keys = 16, 4, 8
	emitted := func(job, m, k int) string {
		v := fmt.Sprintf("job%d-map%02d-key%d-", job, m, k) + strings.Repeat(string(rune('a'+job)), 40+m*k)
		if k == 0 {
			v += "<&>" // not plain: decoded through encoding/json, not aliased
		}
		return v
	}
	for _, tier := range []string{gowren.ExchangeCOS, gowren.ExchangeMemory} {
		t.Run(tier, func(t *testing.T) {
			var mu sync.Mutex
			var kept []string
			img := gowren.NewImage(gowren.DefaultRuntime, 0)
			err := gowren.RegisterKVMapFunc(img, "alias/emit", func(_ *gowren.Ctx, part *gowren.PartitionReader) ([]gowren.KV, error) {
				data, err := part.ReadAll()
				if err != nil {
					return nil, err
				}
				var job, m int
				if _, err := fmt.Sscanf(string(data), "%d %d", &job, &m); err != nil {
					return nil, err
				}
				var out []gowren.KV
				for k := 0; k < keys; k++ {
					kv, err := gowren.EmitKV(fmt.Sprintf("key%d", k), emitted(job, m, k))
					if err != nil {
						return nil, err
					}
					out = append(out, kv)
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = gowren.RegisterKVReduceFunc(img, "alias/keep", func(_ *gowren.Ctx, _ string, values []string) (int, error) {
				mu.Lock()
				defer mu.Unlock()
				kept = append(kept, values...)
				return len(values), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := gowren.NewSimCloud(gowren.SimConfig{Images: []*gowren.Image{img}})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for job := 1; job <= 2; job++ {
				bucket := fmt.Sprintf("docs%d", job)
				if err := cloud.Store().CreateBucket(bucket); err != nil {
					t.Fatal(err)
				}
				for m := 0; m < maps; m++ {
					if _, err := cloud.Store().Put(bucket, fmt.Sprintf("doc-%02d", m), fmt.Appendf(nil, "%d %d", job, m)); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < keys; k++ {
						want = append(want, emitted(job, m, k))
					}
				}
			}
			cloud.Run(func() {
				var execs []*gowren.Executor
				for job := 1; job <= 2; job++ {
					exec, err := cloud.Executor()
					if err != nil {
						t.Error(err)
						return
					}
					execs = append(execs, exec)
					opts := gowren.ShuffleOptions{NumReducers: reducers, Exchange: tier}
					if _, err := exec.MapReduceShuffle("alias/emit", gowren.FromBuckets(fmt.Sprintf("docs%d", job)), "alias/keep", opts); err != nil {
						t.Error(err)
						return
					}
					if _, err := gowren.ShuffleResults(exec); err != nil {
						t.Error(err)
						return
					}
				}
				for _, exec := range execs {
					if err := exec.Clean(); err != nil {
						t.Error(err)
					}
				}
			})
			slices.Sort(kept)
			slices.Sort(want)
			if !slices.Equal(kept, want) {
				t.Fatalf("kept %d values, emitted %d; they differ", len(kept), len(want))
			}
		})
	}
}
