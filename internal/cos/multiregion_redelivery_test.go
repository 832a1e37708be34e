package cos

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/vclock"
)

// failNPuts fails the first n object Puts against the wrapped client with a
// transient error — a region that stays flaky for a bounded stretch, unlike
// flakyRegion's manual down switch (which races against the catch-up worker
// under the virtual clock).
type failNPuts struct {
	Client
	left atomic.Int64
}

func (f *failNPuts) Put(bucket, key string, data []byte) (ObjectMeta, error) {
	if f.left.Add(-1) >= 0 {
		return ObjectMeta{}, ErrRequestFailed
	}
	return f.Client.Put(bucket, key, data)
}

func redeliveryRegions(t *testing.T, clk vclock.Clock, budget int) (*MultiRegion, *failNPuts, *Store) {
	t.Helper()
	sa, sb := NewStore(), NewStore()
	fb := &failNPuts{Client: sb}
	m, err := NewMultiRegion([]RegionBackend{
		{Name: "us-south", Client: sa},
		{Name: "eu-gb", Client: fb},
	}, WithAsyncReplication(clk))
	if err != nil {
		t.Fatal(err)
	}
	m.redeliver = budget
	return m, fb, sb
}

func TestAsyncRedeliveryLandsThroughFlakiness(t *testing.T) {
	// With the default budget of 3 a catch-up write survives two transient
	// failures: redelivered twice with exponential backoff, landed on the
	// third attempt, ledger closed with nothing dropped.
	clk := vclock.NewVirtual()
	m, fb, sb := redeliveryRegions(t, clk, DefaultReplicationRedeliveryBudget)
	fb.left.Store(2)
	start := clk.Now()
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Put("b", "k", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
	})
	if got, _, err := sb.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("flaky region after drain: %q, %v", got, err)
	}
	st := m.Stats()
	if st.AsyncQueued != 1 || st.AsyncReplicated != 1 || st.AsyncDropped != 0 {
		t.Fatalf("stats = %+v, want 1 queued, 1 replicated, 0 dropped", st)
	}
	if st.AsyncRedelivered != 2 || st.WriteMisses != 2 {
		t.Fatalf("stats = %+v, want 2 redeliveries and 2 write misses", st)
	}
	// The two backoffs (50ms, then 100ms) must have elapsed on the clock.
	if got := clk.Now().Sub(start); got < 150*time.Millisecond {
		t.Fatalf("drain finished after %v, want ≥ 150ms of backoff", got)
	}
}

func TestAsyncRedeliveryBudgetOneDropsImmediately(t *testing.T) {
	// Budget 1 restores the old single-attempt behavior: the first failure
	// drops the task, the replica stays stale until read-repair.
	clk := vclock.NewVirtual()
	m, fb, sb := redeliveryRegions(t, clk, 1)
	fb.left.Store(1)
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Put("b", "k", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
		if _, _, err := sb.Get("b", "k"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("dropped catch-up still landed: err = %v", err)
		}
		st := m.Stats()
		if st.AsyncQueued != 1 || st.AsyncDropped != 1 || st.AsyncRedelivered != 0 {
			t.Errorf("stats = %+v, want 1 queued, 1 dropped, 0 redelivered", st)
		}
		// Read-repair remains the backstop for the stale replica.
		if got, _, err := m.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
			t.Errorf("facade read: %q, %v", got, err)
		}
	})
	if got, _, err := sb.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("read-repair did not land: %q, %v", got, err)
	}
}
