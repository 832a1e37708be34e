package core

import (
	"fmt"
	"testing"
)

// TestKeyHelpersUnchanged pins one key of each helper byte for byte: the
// helpers build keys by concatenation, and every key already in a bucket —
// a journal being replayed, a status a sweep resumes after — must still
// match what they produce.
func TestKeyHelpersUnchanged(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{jobKey(statusPrefix, "exec-000007", "00042"), "jobs/exec-000007/status/00042"},
		{statusListPrefix("exec-000007"), "jobs/exec-000007/status/"},
		{manifestKey("exec-000007"), "manifests/exec-000007"},
		{journalKey("exec-000007", 3, 17), "jobs/exec-000007/journal/000003-000017"},
		{journalKey("exec-000007", 1234567, 7654321), "jobs/exec-000007/journal/1234567-7654321"},
		{journalListPrefix("exec-000007"), "jobs/exec-000007/journal/"},
		{callIDForSeq(0), "00000"},
		{callIDForSeq(42), "00042"},
		{callIDForSeq(99999), "99999"},
		{callIDForSeq(100000), "100000"},
		{callIDForSeq(1234567), "1234567"},
		{callIDForSeq(-3), "-0003"},
	} {
		if c.got != c.want {
			t.Errorf("key = %q, want %q", c.got, c.want)
		}
	}
	// And against the fmt verbs they replace, over the padding boundaries.
	for _, n := range []int{0, 1, 9, 10, 999, 1000, 99999, 100000, 1 << 40, -1, -99999} {
		if got, want := callIDForSeq(n), fmt.Sprintf("%0*d", callIDWidth, n); got != want {
			t.Errorf("callIDForSeq(%d) = %q, want %q", n, got, want)
		}
		if got, want := journalKey("e", uint64(n*n), n), fmt.Sprintf("jobs/%s/%s/%06d-%06d", "e", journalPrefix, uint64(n*n), n); got != want {
			t.Errorf("journalKey(e, %d, %d) = %q, want %q", n*n, n, got, want)
		}
	}
	if got, want := journalKey("e", ^uint64(0), 0), "jobs/e/journal/18446744073709551615-000000"; got != want {
		t.Errorf("journalKey(max epoch) = %q, want %q", got, want)
	}
}

// sprintfCallID is the oracle reserveCallIDs must match byte for byte.
func sprintfCallID(seq int) string { return fmt.Sprintf("%05d", seq) }

// TestReserveCallIDs holds reserveCallIDs to the fmt oracle across the
// width's growth, and pins its cost: the slice and one string per ID. A
// boxed int above 255 would add one allocation per ID.
func TestReserveCallIDs(t *testing.T) {
	exec := newEnv(t, nil).executor(t, nil)
	for _, start := range []int{0, 99_999, 100_000} {
		exec.nextID = start
		for i, got := range exec.reserveCallIDs(2) {
			if want := sprintfCallID(start + i); got != want {
				t.Errorf("call ID %d = %q, want %q", start+i, got, want)
			}
		}
	}
	exec.nextID = 256
	const n = 8
	if got := testing.AllocsPerRun(100, func() { exec.reserveCallIDs(n) }); got != n+1 {
		t.Errorf("reserveCallIDs(%d) allocates %v times, want %d", n, got, n+1)
	}
}
