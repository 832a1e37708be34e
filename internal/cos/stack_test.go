package cos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

func TestLinkedChargesPerView(t *testing.T) {
	clk := vclock.NewVirtual()
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	slow := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{
		RTT: netsim.Constant{D: 100 * time.Millisecond},
	}))
	fast := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{
		RTT: netsim.Constant{D: time.Millisecond},
	}))

	measure := func(c Client) time.Duration {
		start := clk.Now()
		clk.Run(func() {
			if _, err := c.Put("b", "k", []byte("v")); err != nil {
				t.Error(err)
			}
			if _, _, err := c.Get("b", "k"); err != nil {
				t.Error(err)
			}
		})
		return clk.Now().Sub(start)
	}
	slowD := measure(slow)
	fastD := measure(fast)
	if slowD != 200*time.Millisecond {
		t.Fatalf("slow view elapsed = %v, want 200ms", slowD)
	}
	if fastD != 2*time.Millisecond {
		t.Fatalf("fast view elapsed = %v, want 2ms", fastD)
	}
}

func TestLinkedTransferCharged(t *testing.T) {
	clk := vclock.NewVirtual()
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	c := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{
		BandwidthBps: 1 << 20, // 1 MiB/s
	}))
	start := clk.Now()
	clk.Run(func() {
		if _, err := c.Put("b", "big", make([]byte, 1<<20)); err != nil {
			t.Error(err)
		}
	})
	if got := clk.Now().Sub(start); got != time.Second {
		t.Fatalf("upload time = %v, want 1s", got)
	}
}

func TestLinkedFailureInjection(t *testing.T) {
	clk := vclock.NewVirtual()
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	c := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{FailureProb: 1}))
	clk.Run(func() {
		if _, err := c.Put("b", "k", []byte("v")); !errors.Is(err, ErrRequestFailed) {
			t.Errorf("err = %v, want ErrRequestFailed", err)
		}
	})
	// The failed request must not have reached the inner store.
	if _, _, err := store.Get("b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("inner store has the object despite link failure: err=%v", err)
	}
}

func TestCountingCountsRequestsAndListedObjects(t *testing.T) {
	store := NewStore()
	c := NewCounting(store)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Put("b", fmt.Sprintf("k/%05d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("b", "k/00000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Head("b", "k/00001"); err != nil {
		t.Fatal(err)
	}
	listed, err := ListAll(c, "b", "k/")
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 5 {
		t.Fatalf("listed %d objects, want 5", len(listed))
	}
	got := c.Counts()
	want := OpCounts{PutOps: 5, GetOps: 1, HeadOps: 1, ListOps: 1, BucketOps: 1, ObjectsListed: 5,
		BytesOut: 5, BytesIn: 1}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
}

// failFirst is a fault hook that fails the first n requests it sees and
// counts every one, so a test reads attempts off the wire.
type failFirst struct {
	left, calls atomic.Int64
}

func (f *failFirst) hook() bool {
	f.calls.Add(1)
	return f.left.Add(-1) >= 0
}

// flakyStore returns an empty store behind a fault stage failing the first n
// requests.
func flakyStore(n int64) (*Store, *failFirst, *Stack) {
	store, f := NewStore(), new(failFirst)
	f.left.Store(n)
	return store, f, NewFaulty(store, f.hook)
}

func TestRetryingRecoversTransientFailures(t *testing.T) {
	clk := vclock.NewVirtual()
	store, _, fl := flakyStore(2)
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	r := NewRetrying(fl, clk, 4, 50*time.Millisecond)
	start := clk.Now()
	clk.Run(func() {
		if _, err := r.Put("b", "k", []byte("v")); err != nil {
			t.Errorf("put after retries: %v", err)
		}
	})
	// Two failures → two backoffs of 50ms each.
	if got := clk.Now().Sub(start); got != 100*time.Millisecond {
		t.Fatalf("backoff time = %v, want 100ms", got)
	}
}

func TestRetryingGivesUpEventually(t *testing.T) {
	clk := vclock.NewVirtual()
	_, fails, fl := flakyStore(1000)
	r := NewRetrying(fl, clk, 3, 10*time.Millisecond)
	clk.Run(func() {
		if _, _, err := r.Get("b", "k"); !errors.Is(err, ErrRequestFailed) {
			t.Errorf("err = %v, want ErrRequestFailed after exhausting retries", err)
		}
	})
	if got := fails.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

func TestRetryingPassesThroughPermanentErrors(t *testing.T) {
	clk := vclock.NewVirtual()
	store, fails, fl := flakyStore(0) // no failures armed
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	r := NewRetrying(fl, clk, 5, time.Millisecond)
	clk.Run(func() {
		if _, _, err := r.Get("b", "missing"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("err = %v, want ErrNoSuchKey without retries", err)
		}
	})
	if got := fails.calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on permanent error)", got)
	}
}

func TestRetryingHonorsSmallExplicitValues(t *testing.T) {
	// attempts == 1 is a caller choice meaning "no retries" and must not
	// be rewritten to the default.
	clk := vclock.NewVirtual()
	_, fails, fl := flakyStore(1000)
	r := NewRetrying(fl, clk, 1, time.Millisecond)
	clk.Run(func() {
		if _, _, err := r.Get("b", "k"); !errors.Is(err, ErrRequestFailed) {
			t.Errorf("err = %v, want ErrRequestFailed", err)
		}
	})
	if got := fails.calls.Load(); got != 1 {
		t.Fatalf("attempts = %d, want exactly 1", got)
	}
}

func TestRetryingRejectsUnnamedSchedule(t *testing.T) {
	// There are no defaults: a zero attempt count or backoff is a caller
	// bug, not a request for some other schedule.
	clk := vclock.NewVirtual()
	_, _, fl := flakyStore(0)
	for _, s := range []struct {
		attempts int
		backoff  time.Duration
	}{{0, time.Millisecond}, {4, 0}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRetrying(%d, %v) did not panic", s.attempts, s.backoff)
				}
			}()
			NewRetrying(fl, clk, s.attempts, s.backoff)
		}()
	}
}

func TestCountingPutIfCounts(t *testing.T) {
	s := NewStore()
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	c := NewCounting(s)
	if _, err := c.PutIf("b", "k", []byte("abc"), ""); err != nil {
		t.Fatal(err)
	}
	got := c.Counts()
	if got.PutOps != 1 || got.BytesOut != 3 {
		t.Fatalf("counts = %+v, want 1 put op, 3 bytes out", got)
	}
}

func TestRetryingPutIfRetriesTransientOnly(t *testing.T) {
	clk := vclock.NewVirtual()
	store, fails, fl := flakyStore(2)
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	r := NewRetrying(fl, clk, 4, 50*time.Millisecond)
	clk.Run(func() {
		if _, err := r.PutIf("b", "k", []byte("v"), ""); err != nil {
			t.Errorf("put-if after retries: %v", err)
		}
	})
	if got := fails.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two transient failures, then success)", got)
	}
	// ErrPreconditionFailed classifies as fatal: exactly one attempt, error
	// surfaced unchanged.
	fails.calls.Store(0)
	clk.Run(func() {
		if _, err := r.PutIf("b", "k", []byte("v2"), "bogus"); !errors.Is(err, ErrPreconditionFailed) {
			t.Errorf("err = %v, want ErrPreconditionFailed", err)
		}
	})
	if got := fails.calls.Load(); got != 1 {
		t.Fatalf("precondition failure retried: %d attempts, want 1", got)
	}
}

// TestLinkedChargePlacement pins where the link stage sits around the
// backend call: an upload is charged — and can be lost — before the backend
// sees it, a download after the backend produced it, and a miss still costs
// its round trip.
func TestLinkedChargePlacement(t *testing.T) {
	clk := vclock.NewVirtual()
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	lossy := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{FailureProb: 1}))
	clk.Run(func() {
		if _, err := lossy.Put("b", "k2", []byte("v")); !errors.Is(err, ErrRequestFailed) {
			t.Errorf("put err = %v, want ErrRequestFailed", err)
		}
		if data, _, err := lossy.Get("b", "k"); !errors.Is(err, ErrRequestFailed) || data != nil {
			t.Errorf("get = %q, %v, want no data and ErrRequestFailed", data, err)
		}
	})
	after := store.Stats()
	if after.PutOps != before.PutOps {
		t.Errorf("a put lost on the link reached the backend")
	}
	if after.GetOps != before.GetOps+1 {
		t.Errorf("backend served %d gets, want 1: a download is lost after the backend call", after.GetOps-before.GetOps)
	}

	slow := NewLinked(store, clk, netsim.NewLink(netsim.LinkConfig{RTT: netsim.Constant{D: 100 * time.Millisecond}}))
	start := clk.Now()
	clk.Run(func() {
		if _, _, err := slow.Get("b", "missing"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("err = %v, want ErrNoSuchKey", err)
		}
	})
	if got := clk.Now().Sub(start); got != 100*time.Millisecond {
		t.Fatalf("a miss cost %v, want one 100ms round trip", got)
	}
}

// TestCountingBelowRetryCountsAttempts: built under the retry stage the
// counters see every request on the wire; built over it, logical operations.
func TestCountingBelowRetryCountsAttempts(t *testing.T) {
	clk := vclock.NewVirtual()
	store, _, fl := flakyStore(2)
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	below := NewCounting(fl)
	above := NewCounting(NewRetrying(below, clk, 4, time.Millisecond))
	clk.Run(func() {
		if _, err := above.Put("b", "k", []byte("abc")); err != nil {
			t.Errorf("put after retries: %v", err)
		}
	})
	if got := below.Counts(); got.PutOps != 3 || got.BytesOut != 9 {
		t.Errorf("below retry: %+v, want 3 put attempts, 9 bytes out", got)
	}
	if got := above.Counts(); got.PutOps != 1 || got.BytesOut != 3 {
		t.Errorf("above retry: %+v, want 1 put, 3 bytes out", got)
	}
}

// TestStackConstructorsJoinInStageOrder: constructors called inside-out in
// the fixed stage order build one Stack; any other nesting wraps, so the
// result always runs the stages in the order the caller wrote.
func TestStackConstructorsJoinInStageOrder(t *testing.T) {
	clk := vclock.NewVirtual()
	store := NewStore()
	if s := fullStack(store); s.inner != Client(store) {
		t.Fatalf("retry(count(fault(link(store)))) wraps %T, want the store itself", s.inner)
	}
	linked := NewLinked(store, clk, netsim.Loopback())
	retrying := NewRetrying(linked, clk, 2, time.Millisecond)
	if linked.retr != nil {
		t.Fatal("joining a stage changed the stack it was built from")
	}
	for name, s := range map[string]*Stack{
		"count over retry": NewCounting(retrying),
		"link over link":   NewLinked(linked, clk, netsim.Loopback()),
		"fault over count": NewFaulty(NewCounting(store), func() bool { return false }),
	} {
		if _, nested := s.inner.(*Stack); !nested {
			t.Errorf("%s: joined the inner stack, want it wrapped", name)
		}
	}
}

// TestStackAddsNoAllocs is the gate on the request path's shape: a request
// through all four stages allocates exactly what the bare engine does. It
// fails if the op description or a stage closure escapes to the heap.
func TestStackAddsNoAllocs(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	body := []byte("0123456789abcdef")
	meta, err := store.Put("b", "k", body)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(c Client) map[string]func() {
		return map[string]func(){
			"Put":   func() { _, _ = c.Put("b", "k", body) },
			"PutIf": func() { _, _ = c.PutIf("b", "k", body, meta.ETag) },
			"Get":   func() { _, _, _ = c.Get("b", "k") },
			"Head":  func() { _, _ = c.Head("b", "k") },
			"List":  func() { _, _ = c.List("b", "", "", 0) },
		}
	}
	bare, stacked := ops(store), ops(fullStack(store))
	for _, name := range []string{"Put", "PutIf", "Get", "Head", "List"} {
		want := testing.AllocsPerRun(200, bare[name])
		if got := testing.AllocsPerRun(200, stacked[name]); got != want {
			t.Errorf("%s: %v allocs through the stack, %v on the bare store", name, got, want)
		}
	}
}
