package cos

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"gowren/internal/vclock"
)

// slowClient delays every Put by d on the clock — a region whose ingest path
// is slow enough for catch-up queues to fill.
type slowClient struct {
	Client
	clk vclock.Clock
	d   time.Duration
}

func (s *slowClient) Put(bucket, key string, data []byte) (ObjectMeta, error) {
	s.clk.Sleep(s.d)
	return s.Client.Put(bucket, key, data)
}

func asyncTwoRegions(t *testing.T, clk vclock.Clock) (*MultiRegion, *flakyRegion, *flakyRegion, *Store, *Store) {
	t.Helper()
	sa, sb := NewStore(), NewStore()
	ra, rb := newFlakyRegion(sa), newFlakyRegion(sb)
	m, err := NewMultiRegion([]RegionBackend{
		{Name: "us-south", Client: ra},
		{Name: "eu-gb", Client: rb},
	}, WithAsyncReplication(clk))
	if err != nil {
		t.Fatal(err)
	}
	return m, ra, rb, sa, sb
}

func TestAsyncReplicationRequiresClock(t *testing.T) {
	s := NewStore()
	_, err := NewMultiRegion([]RegionBackend{{Name: "a", Client: s}}, WithAsyncReplication(nil))
	if err == nil {
		t.Fatal("async facade without a clock accepted")
	}
}

func TestAsyncPutAcksAfterPrimaryAndCatchesUp(t *testing.T) {
	clk := vclock.NewVirtual()
	m, _, _, sa, sb := asyncTwoRegions(t, clk)
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Put("b", "k", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		// The ack means the primary (preferred) region has the bytes, with
		// no round-trip to the second region on the critical path.
		if got, _, err := sa.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
			t.Errorf("primary region after ack: %q, %v", got, err)
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
	})
	if got, _, err := sb.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("second region after drain: %q, %v", got, err)
	}
	st := m.Stats()
	if st.AsyncQueued != 1 || st.AsyncReplicated != 1 || st.AsyncDropped != 0 || st.AsyncLag != 0 {
		t.Fatalf("stats = %+v, want 1 queued, 1 replicated", st)
	}
}

func TestAsyncPrimaryFailoverThenReadRepair(t *testing.T) {
	clk := vclock.NewVirtual()
	m, ra, _, sa, sb := asyncTwoRegions(t, clk)
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		// Preferred region down: the primary write fails over to eu-gb and
		// the catch-up back to us-south is dropped (one attempt, no retry).
		ra.down = true
		if _, err := m.Put("b", "k", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if got, _, err := sb.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
			t.Errorf("failover primary: %q, %v", got, err)
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
		st := m.Stats()
		if st.AsyncDropped != 1 {
			t.Errorf("dropped = %d, want 1 (catch-up to downed region)", st.AsyncDropped)
		}
		// Region recovers. A full read through the facade must not serve the
		// stale (absent) us-south replica: it fails over and read-repairs.
		ra.down = false
		got, _, err := m.Get("b", "k")
		if err != nil || !bytes.Equal(got, []byte("v1")) {
			t.Errorf("read after recovery: %q, %v", got, err)
		}
	})
	if got, _, err := sa.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("us-south after read-repair: %q, %v", got, err)
	}
	st := m.Stats()
	if st.Failovers == 0 || st.Repairs != 1 {
		t.Fatalf("stats = %+v, want failovers > 0 and 1 repair", st)
	}
}

func TestAsyncSupersededCatchupSkipped(t *testing.T) {
	clk := vclock.NewVirtual()
	m, _, rb, _, sb := asyncTwoRegions(t, clk)
	var task1, task2 repTask
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		// eu-gb down: both versions commit to us-south only, both catch-up
		// attempts drop, leaving eu-gb stale at version 0.
		rb.down = true
		if _, err := m.Put("b", "k", []byte("v1")); err != nil {
			t.Error(err)
			return
		}
		if _, err := m.Put("b", "k", []byte("v2")); err != nil {
			t.Error(err)
			return
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
	})
	k := objKey("b", "k")
	task1 = repTask{bucket: "b", key: "k", k: k, v: 1, data: []byte("v1")}
	task2 = repTask{bucket: "b", key: "k", k: k, v: 2, data: []byte("v2")}
	rb.down = false
	skippedBefore := m.Stats().AsyncSkipped
	// A stale catch-up task must never overwrite: replaying version 1 after
	// version 2 committed is skipped outright.
	m.replicate(1, task1)
	if _, _, err := sb.Get("b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("superseded catch-up wrote to region: err = %v", err)
	}
	m.replicate(1, task2)
	if got, _, err := sb.Get("b", "k"); err != nil || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("current catch-up did not land: %q, %v", got, err)
	}
	// Replaying the landed task is idempotent.
	m.replicate(1, task2)
	st := m.Stats()
	if st.AsyncReplicated != 1 {
		t.Fatalf("replicated = %d, want 1", st.AsyncReplicated)
	}
	// The superseded and idempotent replays both count as skipped.
	if got := st.AsyncSkipped - skippedBefore; got != 2 {
		t.Fatalf("skipped = %d, want 2", got)
	}
}

func TestAsyncBackpressureBoundsQueue(t *testing.T) {
	clk := vclock.NewVirtual()
	sa, sb := NewStore(), NewStore()
	m, err := NewMultiRegion([]RegionBackend{
		{Name: "us-south", Client: sa},
		{Name: "eu-gb", Client: &slowClient{Client: sb, clk: clk, d: 10 * time.Millisecond}},
	}, WithAsyncReplication(clk))
	if err != nil {
		t.Fatal(err)
	}
	m.qlimit = 1
	const n = 4
	clk.Run(func() {
		if err := m.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			if _, err := m.Put("b", string(rune('a'+i)), []byte("x")); err != nil {
				t.Error(err)
				return
			}
		}
		if !m.Drain(time.Time{}) {
			t.Error("drain did not complete")
		}
	})
	st := m.Stats()
	if st.AsyncQueued != n || st.AsyncReplicated != n {
		t.Fatalf("stats = %+v, want %d queued and replicated", st, n)
	}
	if st.AsyncBackpressure == 0 {
		t.Fatalf("no backpressure recorded with queue limit 1 and a slow region")
	}
}

func TestDrainIsImmediateInSyncMode(t *testing.T) {
	m, _, _, _, _ := twoRegions(t)
	if !m.Drain(time.Time{}) {
		t.Fatal("sync-mode drain did not return true")
	}
}

func TestViewCrossRegionAccounting(t *testing.T) {
	m, _, _, sa, _ := twoRegions(t)
	if err := m.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	// Seed around the facade so only us-south holds the object.
	if _, err := sa.Put("b", "k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// A legacy-placement view: the consumer lives in eu-gb but reads
	// through us-south, so the serve is cross-region traffic.
	legacy, err := m.View("eu-gb", "us-south")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := legacy.Get("b", "k"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.CrossRegionReads != 1 || st.CrossRegionReadBytes != 5 {
		t.Fatalf("cross-region reads = %d (%d bytes), want 1 (5 bytes)", st.CrossRegionReads, st.CrossRegionReadBytes)
	}
	// Writes through a home view fan out in sync mode; the replica landing
	// in the other region is the cross-region write.
	home, err := m.View("eu-gb", "eu-gb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Put("b", "k2", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.CrossRegionWrites != 1 || st.CrossRegionWriteBytes != 3 {
		t.Fatalf("cross-region writes = %d (%d bytes), want 1 (3 bytes)", st.CrossRegionWrites, st.CrossRegionWriteBytes)
	}
}
