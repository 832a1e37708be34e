package core

import (
	"slices"
	"testing"
)

// doneSetIDs are the call IDs FuzzDoneSet draws from: padded sequences, and
// IDs that are not — wrong widths, signs, letters — which the set must keep
// apart from every padded one.
var doneSetIDs = func() []string {
	ids := make([]string, 0, 32)
	for seq := range 24 {
		ids = append(ids, callIDForSeq(seq))
	}
	return append(ids, "1", "000001", "+0001", "-0000", "0000a", "abcde", "100000", "")
}()

// FuzzDoneSet applies a sequence of record and forget calls, one byte each
// (bit 5 forgets, the low five bits pick an ID of doneSetIDs), and after
// each checks has, after, firstUncommitted and harvest against a plain map
// of the IDs recorded and not since forgotten. The seeds are in
// testdata/fuzz/FuzzDoneSet.
func FuzzDoneSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		const prefix = "jobs/ex/status/"
		var (
			d       doneSet
			oracle  = make(map[string]bool)
			seen    uint64
			pending = make([]*Future, len(doneSetIDs))
		)
		for i, id := range doneSetIDs {
			pending[i] = &Future{callID: id}
		}
		for step, op := range ops {
			id := doneSetIDs[int(op&0x1f)%len(doneSetIDs)]
			if op&0x20 != 0 {
				d.forget(id)
				if oracle[id] {
					// A respawn puts the call back among the pending.
					pending = append(pending, &Future{callID: id})
				}
				delete(oracle, id)
			} else if fresh := d.record(id); fresh == oracle[id] {
				t.Fatalf("step %d: record(%q) = %v with the call done = %v", step, id, fresh, oracle[id])
			} else {
				oracle[id] = true
			}

			for _, id := range doneSetIDs {
				if d.has(id) != oracle[id] {
					t.Fatalf("step %d: has(%q) = %v, want %v", step, id, d.has(id), oracle[id])
				}
			}
			frontier := 0
			for oracle[callIDForSeq(frontier)] {
				frontier++
			}
			want := ""
			if frontier > 0 {
				want = prefix + callIDForSeq(frontier-1)
			}
			if got := d.after(prefix); got != want {
				t.Fatalf("step %d: after = %q, want %q", step, got, want)
			}
			for from := range 26 {
				for _, end := range []int{from, from + 1, from + 3, 26} {
					want := from
					for want < end && oracle[callIDForSeq(want)] {
						want++
					}
					if got := d.firstUncommitted(from, end); got != want {
						t.Fatalf("step %d: firstUncommitted(%d, %d) = %d, want %d", step, from, end, got, want)
					}
				}
			}
			before := slices.Clone(pending)
			var done []*Future
			done, pending = d.harvest(&seen, pending)
			var wantDone, wantKept []*Future
			for _, p := range before {
				if oracle[p.callID] {
					wantDone = append(wantDone, p)
				} else {
					wantKept = append(wantKept, p)
				}
			}
			if !slices.Equal(done, wantDone) || !slices.Equal(pending, wantKept) {
				t.Fatalf("step %d: harvest split %d pending into %d done and %d kept, want %d and %d",
					step, len(before), len(done), len(pending), len(wantDone), len(wantKept))
			}
		}
	})
}
