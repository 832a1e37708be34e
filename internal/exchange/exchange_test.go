package exchange

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

func newTestCache(t *testing.T, clk *vclock.Virtual, capacity int64, down func() bool, spill func(string, []byte)) *Cache {
	t.Helper()
	c, err := NewCache(clk, netsim.Loopback(), capacity, down, spill)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCacheLRUEvictionSpillsInOrder(t *testing.T) {
	clk := vclock.NewVirtual()
	var mu sync.Mutex
	var spilled []string
	spillData := map[string][]byte{}
	c := newTestCache(t, clk, 100, nil, func(key string, data []byte) {
		mu.Lock()
		spilled = append(spilled, key)
		spillData[key] = data
		mu.Unlock()
	})
	clk.Run(func() {
		// Three 40-byte entries in a 100-byte cache: inserting "c" must
		// evict exactly the least recently used entry.
		for _, k := range []string{"a", "b"} {
			if err := c.Put(k, bytes.Repeat([]byte(k), 40)); err != nil {
				t.Fatal(err)
			}
		}
		// Touch "a" so "b" becomes the LRU victim.
		if _, err := c.Get("a"); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("c", bytes.Repeat([]byte("c"), 40)); err != nil {
			t.Fatal(err)
		}
	})
	if len(spilled) != 1 || spilled[0] != "b" {
		t.Fatalf("spilled = %v, want [b]", spilled)
	}
	if !bytes.Equal(spillData["b"], bytes.Repeat([]byte("b"), 40)) {
		t.Fatalf("spill handed back wrong bytes for b")
	}
	if len(c.entries) != 2 || c.used != 80 {
		t.Fatalf("len=%d used=%d after eviction, want 2/80", len(c.entries), c.used)
	}
	clk.Run(func() {
		if _, err := c.Get("b"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(b) after eviction = %v, want ErrNotFound", err)
		}
		if data, err := c.Get("a"); err != nil || len(data) != 40 {
			t.Fatalf("Get(a) = %d bytes, %v", len(data), err)
		}
	})
	counts := c.counts.snapshot()
	if counts.PutOps != 3 || counts.Hits != 2 || counts.Misses != 1 {
		t.Fatalf("counters = %+v", counts)
	}
	if c.evictions.Load() != 1 || c.spills.Load() != 1 || c.spillBytes.Load() != 40 {
		t.Fatalf("evictions=%d spills=%d spillBytes=%d", c.evictions.Load(), c.spills.Load(), c.spillBytes.Load())
	}
}

func TestCacheUpdateReplacesInPlace(t *testing.T) {
	clk := vclock.NewVirtual()
	c := newTestCache(t, clk, 100, nil, nil)
	clk.Run(func() {
		if err := c.Put("k", make([]byte, 60)); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("k", make([]byte, 30)); err != nil {
			t.Fatal(err)
		}
	})
	if len(c.entries) != 1 || c.used != 30 {
		t.Fatalf("len=%d used=%d after in-place update, want 1/30", len(c.entries), c.used)
	}
}

func TestCacheRejectsOversizedEntry(t *testing.T) {
	clk := vclock.NewVirtual()
	c := newTestCache(t, clk, 64, nil, nil)
	clk.Run(func() {
		if err := c.Put("big", make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Put oversized = %v, want ErrTooLarge", err)
		}
	})
	if len(c.entries) != 0 {
		t.Fatalf("oversized entry was admitted")
	}
}

func TestCacheKillFlushesContents(t *testing.T) {
	clk := vclock.NewVirtual()
	down := false
	c := newTestCache(t, clk, 1<<20, func() bool { return down }, nil)
	clk.Run(func() {
		if err := c.Put("k", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		down = true
		if _, err := c.Get("k"); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Get while down = %v, want ErrUnavailable", err)
		}
		if err := c.Put("other", []byte("x")); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Put while down = %v, want ErrUnavailable", err)
		}
		// The node restarts empty: previously resident entries are gone,
		// not stale.
		down = false
		if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get after restart = %v, want ErrNotFound", err)
		}
	})
	if c.flushed.Load() != 1 {
		t.Fatalf("flushed = %d, want 1", c.flushed.Load())
	}
	if c.used != 0 {
		t.Fatalf("used = %d after flush", c.used)
	}
}

func newTestPeers(t *testing.T, clk *vclock.Virtual, linger time.Duration, lost func() bool) *Peers {
	t.Helper()
	p, err := NewPeers(clk, netsim.Loopback(), linger, lost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPeersPublishPullAndExpiry(t *testing.T) {
	clk := vclock.NewVirtual()
	p := newTestPeers(t, clk, 10*time.Second, nil)
	clk.Run(func() {
		expires, err := p.Publish("exec", "call-1", [][]byte{[]byte("r0"), []byte("r1")})
		if err != nil {
			t.Fatal(err)
		}
		if got := expires.Sub(clk.Now()); got != 10*time.Second {
			t.Fatalf("linger = %v, want 10s", got)
		}
		data, err := p.Pull("exec", "call-1", 1)
		if err != nil || string(data) != "r1" {
			t.Fatalf("Pull = %q, %v", data, err)
		}
		// Out-of-range reducer index and unknown call are misses, not
		// panics.
		if _, err := p.Pull("exec", "call-1", 2); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Pull reducer 2 = %v, want ErrNotFound", err)
		}
		if _, err := p.Pull("exec", "ghost", 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Pull unknown call = %v, want ErrNotFound", err)
		}
		// Past the linger window the advertisement ages out.
		clk.Sleep(11 * time.Second)
		if _, err := p.Pull("exec", "call-1", 0); !errors.Is(err, ErrExpired) {
			t.Fatalf("Pull after linger = %v, want ErrExpired", err)
		}
	})
	if len(p.entries) != 0 {
		t.Fatalf("live ads = %d after expiry", len(p.entries))
	}
	if p.expired.Load() != 1 {
		t.Fatalf("expired = %d, want 1", p.expired.Load())
	}
}

func TestPeersPublishSweepsExpiredQueue(t *testing.T) {
	clk := vclock.NewVirtual()
	p := newTestPeers(t, clk, time.Second, nil)
	clk.Run(func() {
		for i := 0; i < 5; i++ {
			if _, err := p.Publish("exec", fmt.Sprintf("old-%d", i), [][]byte{[]byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
		clk.Sleep(2 * time.Second)
		if _, err := p.Publish("exec", "fresh", [][]byte{[]byte("y")}); err != nil {
			t.Fatal(err)
		}
	})
	if len(p.entries) != 1 {
		t.Fatalf("live ads = %d after sweep, want 1", len(p.entries))
	}
	if p.expired.Load() != 5 {
		t.Fatalf("expired = %d, want 5", p.expired.Load())
	}
}

func TestPeersLossDropsAllAdvertisements(t *testing.T) {
	clk := vclock.NewVirtual()
	lost := false
	p := newTestPeers(t, clk, time.Minute, func() bool { return lost })
	clk.Run(func() {
		for i := 0; i < 3; i++ {
			if _, err := p.Publish("exec", fmt.Sprintf("call-%d", i), [][]byte{[]byte("x")}); err != nil {
				t.Fatal(err)
			}
		}
		lost = true
		if _, err := p.Pull("exec", "call-0", 0); !errors.Is(err, ErrPeerLost) {
			t.Fatalf("Pull while lost = %v, want ErrPeerLost", err)
		}
		// The kill is not a pause: the containers are gone, so recovery
		// does not resurrect their advertisements.
		lost = false
		if _, err := p.Pull("exec", "call-1", 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Pull after loss = %v, want ErrNotFound", err)
		}
	})
	if len(p.entries) != 0 {
		t.Fatalf("live ads = %d after loss", len(p.entries))
	}
	if p.dropped.Load() != 3 {
		t.Fatalf("dropped = %d, want 3", p.dropped.Load())
	}
}

func TestFabricCountsAndFallbacks(t *testing.T) {
	clk := vclock.NewVirtual()
	f, err := NewFabric(Config{
		Clock:     clk,
		CacheLink: netsim.Loopback(),
		PeerLink:  netsim.Loopback(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Cache.capacity != DefaultCacheCapacity {
		t.Fatalf("default capacity = %d", f.Cache.capacity)
	}
	if f.Peers.linger != DefaultLinger {
		t.Fatalf("default linger = %v", f.Peers.linger)
	}
	clk.Run(func() {
		if err := f.Cache.Put("k", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Cache.Get("k"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Peers.Publish("e", "c", [][]byte{[]byte("wxyz")}); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Peers.Pull("e", "c", 0); err != nil {
			t.Fatal(err)
		}
	})
	f.NoteFallback("memory")
	f.NoteFallback("direct")
	f.NoteFallback("cos") // ignored: COS is the baseline, not a fast tier
	got := f.Counts()
	if got.Memory.PutOps != 1 || got.Memory.GetOps != 1 || got.Memory.Hits != 1 ||
		got.Memory.BytesIn != 3 || got.Memory.BytesOut != 3 || got.Memory.Fallbacks != 1 {
		t.Fatalf("memory counts = %+v", got.Memory)
	}
	if got.Direct.PutOps != 1 || got.Direct.GetOps != 1 || got.Direct.Hits != 1 ||
		got.Direct.BytesIn != 4 || got.Direct.BytesOut != 4 || got.Direct.Fallbacks != 1 {
		t.Fatalf("direct counts = %+v", got.Direct)
	}
}

func TestShuffleSpansEnvelope(t *testing.T) {
	clk := vclock.NewVirtual()
	f, err := NewFabric(Config{Clock: clk, CacheLink: netsim.Loopback(), PeerLink: netsim.Loopback()})
	if err != nil {
		t.Fatal(err)
	}
	base := clk.Now()
	at := func(d time.Duration) time.Time { return base.Add(d) }
	// Overlapping windows fold into one envelope per phase.
	f.NoteWrite(at(2*time.Second), at(5*time.Second))
	f.NoteWrite(at(1*time.Second), at(3*time.Second))
	f.NoteRead(at(10*time.Second), at(11*time.Second))
	f.NoteRead(at(10500*time.Millisecond), at(12*time.Second))
	spans := f.Spans()
	if spans.Write() != 4*time.Second {
		t.Fatalf("write envelope = %v, want 4s", spans.Write())
	}
	if spans.Read() != 2*time.Second {
		t.Fatalf("read envelope = %v, want 2s", spans.Read())
	}
	f.ResetSpans()
	if got := f.Spans(); got != (ShuffleSpans{}) {
		t.Fatalf("spans after reset = %+v", got)
	}
}

func TestNewFabricValidation(t *testing.T) {
	clk := vclock.NewVirtual()
	if _, err := NewFabric(Config{Clock: clk, PeerLink: netsim.Loopback()}); err == nil {
		t.Fatal("fabric without cache link accepted")
	}
	if _, err := NewCache(clk, netsim.Loopback(), -1, nil, nil); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewPeers(clk, netsim.Loopback(), -time.Second, nil); err == nil {
		t.Fatal("negative linger accepted")
	}
}
