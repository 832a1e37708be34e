package core

import "sync"

// respawnLedger coordinates the two automatic re-execution paths — failure
// recovery (recover.go) and straggler speculation (speculate.go). Both ride
// the same staged-payload Respawn machinery, and before the ledger existed
// they kept separate budgets: a call that failed and was respawned by
// recovery inside one poll tick was immediately pending again, so the
// speculation branch of the same tick could respawn it a second time. The
// ledger makes a reservation mandatory before any automatic respawn, with
// two rules:
//
//   - at most one automatic respawn per future per poll tick, whichever
//     path gets there first;
//   - a shared lifetime cap across both paths, so recovery attempts and
//     speculative copies draw from one budget instead of stacking.
//
// Manual Respawn calls are deliberately exempt: an explicit user action
// should not be silently filtered.
type respawnLedger struct {
	mu   sync.Mutex
	tick uint64
	n    map[*Future]int    // lifetime automatic respawns
	last map[*Future]uint64 // tick of the most recent reservation
}

func newRespawnLedger() *respawnLedger {
	return &respawnLedger{n: make(map[*Future]int), last: make(map[*Future]uint64)}
}

// advance opens a new poll tick. The wait loop calls it once per sweep, so
// "one respawn per tick" matches one recovery step plus one speculation
// check.
func (l *respawnLedger) advance() {
	l.mu.Lock()
	l.tick++
	l.mu.Unlock()
}

// reserve filters futures down to those allowed to respawn now, recording a
// reservation for each one returned. limit caps lifetime automatic
// respawns per future across both paths.
func (l *respawnLedger) reserve(fs []*Future, limit int) []*Future {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []*Future
	for _, f := range fs {
		if l.n[f] >= limit {
			continue
		}
		if t, ok := l.last[f]; ok && t == l.tick {
			continue // the other path already respawned this call this tick
		}
		l.n[f]++
		l.last[f] = l.tick
		out = append(out, f)
	}
	return out
}

// seed preloads f's lifetime automatic-respawn count. Attach uses it to
// carry a dead driver's journaled respawns into the new ledger, so a
// crash-looping driver cannot grant each incarnation a fresh budget for the
// same call.
func (l *respawnLedger) seed(f *Future, n int) {
	l.mu.Lock()
	if n > l.n[f] {
		l.n[f] = n
	}
	l.mu.Unlock()
}

// respawnLimit is the shared automatic-respawn budget per call for a
// collection running with opts: the recovery attempt cap plus one
// speculative copy.
func respawnLimit(opts RecoveryOptions) int { return opts.MaxAttempts + 1 }
