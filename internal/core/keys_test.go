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
