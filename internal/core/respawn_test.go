package core

import "testing"

func TestRespawnLedgerOnePerTick(t *testing.T) {
	l := newRespawnLedger()
	f := &Future{}
	l.advance()
	if got := l.reserve([]*Future{f}, 4); len(got) != 1 {
		t.Fatalf("first reservation denied")
	}
	// Same tick, other path: denied.
	if got := l.reserve([]*Future{f}, 4); len(got) != 0 {
		t.Fatalf("double respawn granted within one tick")
	}
	l.advance()
	if got := l.reserve([]*Future{f}, 4); len(got) != 1 {
		t.Fatalf("next-tick reservation denied")
	}
	if got := l.n[f]; got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestRespawnLedgerLifetimeCap(t *testing.T) {
	l := newRespawnLedger()
	f := &Future{}
	for i := 0; i < 3; i++ {
		l.advance()
		if got := l.reserve([]*Future{f}, 3); len(got) != 1 {
			t.Fatalf("reservation %d denied under cap", i)
		}
	}
	l.advance()
	if got := l.reserve([]*Future{f}, 3); len(got) != 0 {
		t.Fatal("reservation granted past the lifetime cap")
	}
}

func TestRespawnLedgerFiltersPerFuture(t *testing.T) {
	l := newRespawnLedger()
	a, b := &Future{}, &Future{}
	l.advance()
	if got := l.reserve([]*Future{a}, 2); len(got) != 1 {
		t.Fatal("a denied")
	}
	// b is fresh this tick; a was already respawned.
	got := l.reserve([]*Future{a, b}, 2)
	if len(got) != 1 || got[0] != b {
		t.Fatalf("mixed reservation = %v, want just b", got)
	}
}

func TestRespawnLimitSharedBudget(t *testing.T) {
	opts := RecoveryOptions{}.withDefaults()
	if got := respawnLimit(opts); got != DefaultRecoveryAttempts+1 {
		t.Fatalf("respawn limit = %d, want recovery attempts + 1 speculative copy", got)
	}
}
