package cos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.CreateBucket("data"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBucketLifecycle(t *testing.T) {
	s := NewStore()
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateBucket("b"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("duplicate create err = %v, want ErrBucketExists", err)
	}
	ok, err := s.BucketExists("b")
	if err != nil || !ok {
		t.Fatalf("BucketExists = %v,%v want true,nil", ok, err)
	}
	ok, err = s.BucketExists("nope")
	if err != nil || ok {
		t.Fatalf("BucketExists(nope) = %v,%v want false,nil", ok, err)
	}
	if _, err := s.Put("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBucket("b"); !errors.Is(err, ErrBucketNotEmpty) {
		t.Fatalf("delete non-empty err = %v, want ErrBucketNotEmpty", err)
	}
	if err := s.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBucket("b"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("delete missing bucket err = %v, want ErrNoSuchBucket", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newTestStore(t)
	body := []byte("hello object world")
	meta, err := s.Put("data", "greeting", body)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != int64(len(body)) || meta.ETag == "" {
		t.Fatalf("bad meta %+v", meta)
	}
	got, gotMeta, err := s.Get("data", "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body mismatch: %q", got)
	}
	if gotMeta.ETag != meta.ETag {
		t.Fatalf("etag changed between put and get")
	}
}

func TestPutCopiesCallerBuffer(t *testing.T) {
	s := newTestStore(t)
	buf := []byte("immutable?")
	if _, err := s.Put("data", "k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _, err := s.Get("data", "k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'i' {
		t.Fatal("store aliased the caller's buffer")
	}
}

func TestGetMissing(t *testing.T) {
	s := newTestStore(t)
	if _, _, err := s.Get("data", "absent"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("err = %v, want ErrNoSuchKey", err)
	}
	if _, _, err := s.Get("nobucket", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v, want ErrNoSuchBucket", err)
	}
	if _, err := s.Head("data", "absent"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("head err = %v, want ErrNoSuchKey", err)
	}
}

func TestGetRangeSemantics(t *testing.T) {
	s := newTestStore(t)
	body := []byte("0123456789")
	if _, err := s.Put("data", "d", body); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name        string
		off, length int64
		want        string
		wantErr     error
	}{
		{"full via -1", 0, -1, "0123456789", nil},
		{"middle", 3, 4, "3456", nil},
		{"to end", 7, -1, "789", nil},
		{"clamped", 8, 100, "89", nil},
		{"empty at start", 0, 0, "", nil},
		{"offset at size", 10, 1, "", ErrInvalidRange},
		{"offset past size", 11, 1, "", ErrInvalidRange},
		{"negative offset", -1, 5, "", ErrInvalidRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, _, err := s.GetRange("data", "d", tt.off, tt.length)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("err = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tt.want {
				t.Fatalf("got %q, want %q", got, tt.want)
			}
		})
	}
}

func TestGetRangeEquivalenceProperty(t *testing.T) {
	s := newTestStore(t)
	rng := rand.New(rand.NewSource(11))
	body := make([]byte, 4096)
	rng.Read(body)
	if _, err := s.Put("data", "blob", body); err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, lenRaw uint16) bool {
		off := int64(offRaw) % int64(len(body))
		length := int64(lenRaw) % 1024
		got, _, err := s.GetRange("data", "blob", off, length)
		if err != nil {
			return false
		}
		end := off + length
		if end > int64(len(body)) {
			end = int64(len(body))
		}
		return bytes.Equal(got, body[off:end])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratedObject(t *testing.T) {
	s := newTestStore(t)
	// Content: byte i has value i % 251, verifiable at any offset.
	gen := GeneratorFunc(func(off int64, p []byte) {
		for i := range p {
			p[i] = byte((off + int64(i)) % 251)
		}
	})
	const size = int64(10 << 20)
	meta, err := s.PutGenerated("data", "big", size, gen)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Size != size {
		t.Fatalf("size = %d, want %d", meta.Size, size)
	}
	got, _, err := s.GetRange("data", "big", size-5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("tail read length = %d", len(got))
	}
	for i, b := range got {
		want := byte((size - 5 + int64(i)) % 251)
		if b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
	// HEAD must not materialize anything and still report the size.
	hm, err := s.Head("data", "big")
	if err != nil || hm.Size != size {
		t.Fatalf("head = %+v, %v", hm, err)
	}
}

func TestPutGeneratedValidation(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.PutGenerated("data", "k", -1, GeneratorFunc(func(int64, []byte) {})); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := s.PutGenerated("data", "k", 1, nil); err == nil {
		t.Fatal("nil generator accepted")
	}
	if _, err := s.PutGenerated("nobucket", "k", 1, GeneratorFunc(func(int64, []byte) {})); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v, want ErrNoSuchBucket", err)
	}
}

func TestListPaginationAndPrefix(t *testing.T) {
	s := newTestStore(t)
	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("logs/%03d", i)
		if _, err := s.Put("data", key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Put("data", fmt.Sprintf("other/%d", i), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}

	var all []ObjectMeta
	marker := ""
	pages := 0
	for {
		res, err := s.List("data", "logs/", marker, 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		all = append(all, res.Objects...)
		if !res.IsTruncated {
			break
		}
		marker = res.NextMarker
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3", pages)
	}
	if len(all) != 25 {
		t.Fatalf("listed %d keys, want 25", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatalf("listing not sorted: %q then %q", all[i-1].Key, all[i].Key)
		}
	}

	helper, err := ListAll(s, "data", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(helper) != 30 {
		t.Fatalf("ListAll = %d keys, want 30", len(helper))
	}
}

func TestListMissingBucket(t *testing.T) {
	s := NewStore()
	if _, err := s.List("nope", "", "", 0); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v, want ErrNoSuchBucket", err)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	s := newTestStore(t)
	if err := s.Delete("data", "never-existed"); err != nil {
		t.Fatalf("deleting missing key should succeed, got %v", err)
	}
}

func TestOverwriteUpdatesMeta(t *testing.T) {
	s := newTestStore(t)
	m1, err := s.Put("data", "k", []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Put("data", "k", []byte("twotwo"))
	if err != nil {
		t.Fatal(err)
	}
	if m1.ETag == m2.ETag {
		t.Fatal("etag did not change on overwrite")
	}
	if m2.Size != 6 {
		t.Fatalf("size = %d, want 6", m2.Size)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := newTestStore(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d/%d", g, i)
				if _, err := s.Put("data", key, []byte(key)); err != nil {
					errCh <- err
					return
				}
				got, _, err := s.Get("data", key)
				if err != nil {
					errCh <- err
					return
				}
				if string(got) != key {
					errCh <- fmt.Errorf("read back %q for key %q", got, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	res, err := ListAll(s, "data", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 400 {
		t.Fatalf("listed %d objects, want 400", len(res))
	}
}

func TestStoreChargesSimulatedLatency(t *testing.T) {
	clk := vclock.NewVirtual()
	link := netsim.NewLink(netsim.LinkConfig{
		RTT:          netsim.Constant{D: 10 * time.Millisecond},
		BandwidthBps: 1 << 20, // 1 MiB/s
	})
	s := NewLinked(NewStore(), clk, link)
	start := clk.Now()
	clk.Run(func() {
		if err := s.CreateBucket("b"); err != nil {
			t.Error(err)
			return
		}
		if _, err := s.Put("b", "k", make([]byte, 1<<20)); err != nil {
			t.Error(err)
			return
		}
		if _, _, err := s.Get("b", "k"); err != nil {
			t.Error(err)
			return
		}
	})
	// create (10ms) + put (10ms + 1s transfer) + get (10ms + 1s transfer)
	want := 30*time.Millisecond + 2*time.Second
	if got := clk.Now().Sub(start); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestStoreInjectedFailures(t *testing.T) {
	clk := vclock.NewVirtual()
	link := netsim.NewLink(netsim.LinkConfig{FailureProb: 1.0, Seed: 1})
	s := NewLinked(NewStore(), clk, link)
	clk.Run(func() {
		if err := s.CreateBucket("b"); !errors.Is(err, ErrRequestFailed) {
			t.Errorf("err = %v, want ErrRequestFailed", err)
		}
	})
}

func TestStatsCounters(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Put("data", "k", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("data", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Head("data", "k"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PutOps != 1 || st.GetOps != 1 || st.HeadOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesIn != 4 || st.BytesOut != 4 {
		t.Fatalf("byte counters = in %d out %d, want 4/4", st.BytesIn, st.BytesOut)
	}
}

func TestListBuckets(t *testing.T) {
	s := NewStore()
	names, err := s.ListBuckets()
	if err != nil || len(names) != 0 {
		t.Fatalf("empty store buckets = %v, %v", names, err)
	}
	for _, b := range []string{"zeta", "alpha", "mid"} {
		if err := s.CreateBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	names, err = s.ListBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("buckets = %v, want sorted [alpha mid zeta]", names)
	}
}

func TestGeneratedObjectConcurrentReads(t *testing.T) {
	s := newTestStore(t)
	gen := GeneratorFunc(func(off int64, p []byte) {
		for i := range p {
			p[i] = byte((off + int64(i)) % 97)
		}
	})
	const size = int64(1 << 20)
	if _, err := s.PutGenerated("data", "g", size, gen); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(2)
		// Writers to other keys run while the reads render: GetRange fills
		// outside the store lock.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Put("data", fmt.Sprintf("w%d", w), []byte{byte(i)}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				off := int64((w*50 + i) * 1000 % (1 << 19))
				data, _, err := s.GetRange("data", "g", off, 256)
				if err != nil {
					errCh <- err
					return
				}
				for j, b := range data {
					if b != byte((off+int64(j))%97) {
						errCh <- fmt.Errorf("corrupt read at %d+%d", off, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPutDuringGeneratedRead: a generated read renders outside the store
// lock, so a Put — even one replacing the object being read — goes through
// while the synthesis runs, and the read still returns the object it looked
// up.
func TestPutDuringGeneratedRead(t *testing.T) {
	s := newTestStore(t)
	var (
		lockFree bool
		putErr   error
	)
	gen := GeneratorFunc(func(off int64, p []byte) {
		if !lockFree && s.mu.TryLock() {
			s.mu.Unlock()
			lockFree = true
			_, putErr = s.Put("data", "g", []byte("replaced"))
		}
		for i := range p {
			p[i] = byte((off + int64(i)) % 97)
		}
	})
	if _, err := s.PutGenerated("data", "g", 4096, gen); err != nil {
		t.Fatal(err)
	}
	data, _, err := s.GetRange("data", "g", 100, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !lockFree {
		t.Fatal("generator ran with the store lock held")
	}
	if putErr != nil {
		t.Fatalf("put during generated read: %v", putErr)
	}
	for j, b := range data {
		if b != byte((100+j)%97) {
			t.Fatalf("in-flight read saw the replacement at byte %d", j)
		}
	}
	if now, _, err := s.Get("data", "g"); err != nil || string(now) != "replaced" {
		t.Fatalf("after the read: %q, %v; want the replacement", now, err)
	}
}
