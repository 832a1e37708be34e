package gowren_test

import (
	"encoding/json"
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
		checkEmitKVString(t, s)
	}
}

// FuzzKVStringFastPaths checks both string fast paths against encoding/json:
// EmitKV against json.Marshal, and the typed reduce decode against
// json.Unmarshal into a string, on the marshalled string and on the string
// merely quoted (escapes, invalid UTF-8, stray quotes).
func FuzzKVStringFastPaths(f *testing.F) {
	for _, s := range stringFastPathSeeds {
		f.Add(s)
	}
	f.Add(`\n\t\"\\\/`)
	f.Add(`😀 é \ud800`)
	f.Add(`unterminated \`)
	f.Add("null") // what a nil KV value reaches the reducer as

	decode := stringReduceDecoder(f)
	f.Fuzz(func(t *testing.T, s string) {
		checkEmitKVString(t, s)
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

func checkEmitKVString(t *testing.T, s string) {
	t.Helper()
	kv, err := gowren.EmitKV("k", s)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(s)
	if string(kv.Value) != string(want) {
		t.Fatalf("EmitKV(%q).Value = %s, json.Marshal = %s", s, kv.Value, want)
	}
}

// stringReduceDecoder registers a string-valued KV reduce function that hands
// back its decoded values, and returns a decoder of one raw value through it.
func stringReduceDecoder(tb testing.TB) func(raw []byte) (string, error) {
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
	return func(raw []byte) (string, error) {
		out, err := fn(nil, "k", []json.RawMessage{raw})
		if err != nil {
			return "", err
		}
		return out.([]string)[0], nil
	}
}
