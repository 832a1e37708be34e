package core

// doneSet is one status namespace's done-set: the calls a LIST or the watch
// has shown a committed status for. Call IDs are zero-padded, so status keys
// sort in call order and the set is a contiguous frontier — every call below
// it is done — plus the completions cached out of order above it. Keys go in
// (record, forget) and answers come out (has, after, firstUncommitted,
// harvest); it has no lock and no clock: the hub's lock guards it, and
// outside the sweep it is read through sweepCoordinator.withDone.
type doneSet struct {
	// nextSeq is the frontier: every call sequence below it is done.
	nextSeq int
	// afterKey is after's key as of frontier afterSeq.
	afterKey string
	afterSeq int
	// ahead holds the done sequences above the frontier (out-of-order
	// completions, bounded by the job's completion skew).
	ahead map[int]bool
	// odd holds done call IDs that do not parse as padded sequences
	// (foreign writers); they never move the frontier.
	odd map[string]bool
	// version counts changes to the set (see harvest).
	version uint64
}

// record adds callID to the set, reporting whether it is new there, and
// moves the frontier over the run of done calls it completes.
func (d *doneSet) record(callID string) bool {
	if d.has(callID) {
		return false
	}
	if d.ahead == nil {
		d.ahead, d.odd = make(map[int]bool), make(map[string]bool)
	}
	d.version++
	switch seq, numeric := callSeq(callID); {
	case !numeric:
		d.odd[callID] = true
	case seq == d.nextSeq:
		for d.nextSeq++; d.ahead[d.nextSeq]; d.nextSeq++ {
			delete(d.ahead, d.nextSeq)
		}
	default:
		d.ahead[seq] = true
	}
	return true
}

// forget withdraws callID from the set — a respawn deleted its status, so
// the next sweep must see the call again. Forgetting a call below the
// frontier rolls the frontier back to it; the calls in between stay done,
// cached ahead of it, so only the forgotten key is listed again.
func (d *doneSet) forget(callID string) {
	d.version++
	seq, numeric := callSeq(callID)
	switch {
	case !numeric:
		delete(d.odd, callID)
	case seq >= d.nextSeq:
		delete(d.ahead, seq)
	default: // the frontier is past 0: a record made the maps
		for j := seq + 1; j < d.nextSeq; j++ {
			d.ahead[j] = true
		}
		d.nextSeq = seq
	}
}

// has reports whether callID is done.
func (d *doneSet) has(callID string) bool {
	if seq, numeric := callSeq(callID); numeric {
		return seq < d.nextSeq || d.ahead[seq]
	}
	return d.odd[callID]
}

// after returns the key a LIST of the namespace's status prefix starts
// after: the frontier's status key, or "" while call 0 is not done. The key
// is kept until the frontier moves, so a tick that found nothing new builds
// no string.
func (d *doneSet) after(prefix string) string {
	if d.nextSeq == 0 {
		return ""
	}
	if d.afterSeq != d.nextSeq {
		d.afterKey, d.afterSeq = prefix+callIDForSeq(d.nextSeq-1), d.nextSeq
	}
	return d.afterKey
}

// firstUncommitted returns the lowest call sequence in [from, end) that is
// not done, or end when they all are. A caller that keeps the result as its
// next from pays O(newly committed) over a whole job rather than O(range)
// per look.
func (d *doneSet) firstUncommitted(from, end int) int {
	for from < end {
		switch {
		case from < d.nextSeq:
			from = min(d.nextSeq, end)
		case d.ahead[from], len(d.odd) > 0 && d.odd[callIDForSeq(from)]:
			from++
		default:
			return from
		}
	}
	return from
}

// harvest splits a waiter's pending calls into the done ones and the rest
// (kept reuses pending's storage), in one pass — and in no pass at all while
// the set is still at the version *seen the waiter last harvested at, which
// is what makes a poll tick cost O(newly completed) rather than O(pending).
func (d *doneSet) harvest(seen *uint64, pending []*Future) (done, kept []*Future) {
	if d.version == *seen {
		return nil, pending
	}
	*seen = d.version
	kept = pending[:0]
	for _, p := range pending {
		if d.has(p.callID) {
			done = append(done, p)
		} else {
			kept = append(kept, p)
		}
	}
	return done, kept
}
