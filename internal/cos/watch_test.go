package cos

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreWatchDeliversCommits pins what a watch reports: one delivery per
// successful Put or PutIf under its bucket and prefix, and nothing for a
// refused conditional put, a write to a missing bucket, a key under another
// prefix or bucket, or anything after cancel.
func TestStoreWatchDeliversCommits(t *testing.T) {
	store := NewStore()
	for _, b := range []string{"b", "other"} {
		if err := store.CreateBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	record := func(key string, _ []byte) { got = append(got, key) }
	cancel := store.Watch("b", "jobs/x/status/", record)
	// A watch on a bucket that does not exist sees the failed write as
	// nothing.
	cancelMissing := store.Watch("missing", "", record)
	defer cancelMissing()

	put := func(bucket, key string) {
		t.Helper()
		if _, err := store.Put(bucket, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	put("b", "jobs/x/status/00000")
	put("b", "jobs/x/status/00000") // an overwrite is a commit too
	put("b", "jobs/x/result/00000") // another prefix
	put("b", "jobs/y/status/00000") // another executor's prefix
	put("other", "jobs/x/status/00001")
	if _, err := store.Put("missing", "jobs/x/status/00002", nil); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("put to a missing bucket: %v", err)
	}
	meta, err := store.PutIf("b", "jobs/x/status/00003", []byte("v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.PutIf("b", "jobs/x/status/00003", []byte("v2"), ""); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("refused PutIf: %v", err)
	}
	if _, err := store.PutIf("b", "jobs/x/status/00003", []byte("v2"), meta.ETag); err != nil {
		t.Fatal(err)
	}
	want := []string{"jobs/x/status/00000", "jobs/x/status/00000", "jobs/x/status/00003", "jobs/x/status/00003"}
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}

	cancel()
	cancel() // idempotent
	put("b", "jobs/x/status/00004")
	if !slices.Equal(got, want) {
		t.Fatalf("delivered %q after cancel, want %q", got[len(want):], []string(nil))
	}
}

// TestStoreWatchOrdersDeliveryBeforeDelete pins the guarantee a waiter's
// done-set rests on: a write's delivery is made before the write returns,
// so once a Delete of the key returns no delivery of an earlier write of it
// can still arrive.
func TestStoreWatchOrdersDeliveryBeforeDelete(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	present := map[string]bool{}
	cancel := store.Watch("b", "", func(key string, _ []byte) { present[key] = true })
	defer cancel()
	if _, err := store.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !present["k"] {
		t.Fatal("the write returned before its delivery")
	}
	if err := store.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	delete(present, "k") // what a waiter does once the Delete returns
	if present["k"] {
		t.Fatal("a delivery landed after the Delete returned")
	}
}

// TestStoreWatchConcurrentWriters: writers racing each other and a second
// watch's arming and cancel still get exactly one delivery per commit.
func TestStoreWatchConcurrentWriters(t *testing.T) {
	const writers, puts = 4, 50
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	cancel := store.Watch("b", "s/", func(string, []byte) { delivered.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if _, err := store.Put("b", fmt.Sprintf("s/%d-%d", w, i), nil); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			store.Watch("b", "s/", func(string, []byte) {})()
		}
	}()
	wg.Wait()
	cancel()
	if got := delivered.Load(); got != writers*puts {
		t.Fatalf("delivered %d commits, want %d", got, writers*puts)
	}
}

// TestStoreUnwatchedPutAllocs gates the cost of watching on writes nobody
// watches: Put and PutIf allocate the body copy and its ETag — the object
// is held by value — and nothing for the watch.
func TestStoreUnwatchedPutAllocs(t *testing.T) {
	const want = 2
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	body := []byte("0123456789abcdef")
	meta, err := store.Put("b", "jobs/x/status/00000", body)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = store.Put("b", "jobs/x/status/00000", body) }); got != want {
		t.Errorf("unwatched Put: %v allocs, want %d", got, want)
	}
	if got := testing.AllocsPerRun(200, func() {
		m, _ := store.PutIf("b", "jobs/x/status/00000", body, meta.ETag)
		meta = m
	}); got != want {
		t.Errorf("unwatched PutIf: %v allocs, want %d", got, want)
	}
}

// TestStoreWatchDeliversBody: a delivery carries the committed body — the
// bytes a Get returns — and that body is the store's own copy, so the
// writer reusing its buffer after Put or PutIf returns changes neither.
func TestStoreWatchDeliversBody(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	cancel := store.Watch("b", "s/", func(key string, body []byte) { got[key] = body })
	defer cancel()
	buf := []byte("first status")
	if _, err := store.Put("b", "s/0", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXXXXXX")
	buf2 := []byte("second status")
	if _, err := store.PutIf("b", "s/1", buf2, ""); err != nil {
		t.Fatal(err)
	}
	clear(buf2)
	for key, want := range map[string]string{"s/0": "first status", "s/1": "second status"} {
		if string(got[key]) != want {
			t.Errorf("delivered body of %s = %q, want %q", key, got[key], want)
		}
		stored, _, err := store.Get("b", key)
		if err != nil {
			t.Fatal(err)
		}
		if string(stored) != string(got[key]) {
			t.Errorf("delivered body of %s = %q, Get returns %q", key, got[key], stored)
		}
	}
}

// TestStoreWatchedPutAllocs: delivering the body costs a watched commit no
// allocation — it is the copy the store makes anyway — so a watched Put or
// PutIf allocates what an unwatched one does.
func TestStoreWatchedPutAllocs(t *testing.T) {
	const want = 2
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	var last []byte
	cancel := store.Watch("b", "jobs/x/status/", func(_ string, body []byte) { last = body })
	defer cancel()
	body := []byte("0123456789abcdef")
	meta, err := store.Put("b", "jobs/x/status/00000", body)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = store.Put("b", "jobs/x/status/00000", body) }); got != want {
		t.Errorf("watched Put: %v allocs, want %d", got, want)
	}
	if got := testing.AllocsPerRun(200, func() {
		m, _ := store.PutIf("b", "jobs/x/status/00000", body, meta.ETag)
		meta = m
	}); got != want {
		t.Errorf("watched PutIf: %v allocs, want %d", got, want)
	}
	if string(last) != string(body) {
		t.Errorf("last delivered body = %q, want %q", last, body)
	}
}

// TestStoreWatchGets: a GET watch sees the very body each Get and GetRange
// under its bucket and prefix hands out, and nothing once cancelled.
func TestStoreWatchGets(t *testing.T) {
	store := NewStore()
	for _, b := range []string{"a", "b"} {
		if err := store.CreateBucket(b); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"s/0", "x/0"} {
			if _, err := store.Put(b, key, []byte(b+"/"+key)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var seen []string
	var last []byte
	cancel := store.WatchGets("a", "s/", func(key string, body []byte) {
		seen = append(seen, key+"="+string(body))
		last = body
	})
	got, _, err := store.Get("a", "s/0")
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &last[0] {
		t.Error("the watch was handed another buffer than the caller")
	}
	for _, read := range []func() ([]byte, ObjectMeta, error){
		func() ([]byte, ObjectMeta, error) { return store.GetRange("a", "s/0", 2, 2) },
		func() ([]byte, ObjectMeta, error) { return store.Get("a", "x/0") },
		func() ([]byte, ObjectMeta, error) { return store.Get("b", "s/0") },
	} {
		if _, _, err := read(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, _, err := store.Get("a", "s/0"); err != nil {
		t.Fatal(err)
	}
	if want := "[s/0=a/s/0 s/0=s/]"; fmt.Sprint(seen) != want {
		t.Errorf("watched GETs = %v, want %s", seen, want)
	}
}

// TestWatcherOf checks which clients reach a watch: the store and any Stack
// over it do; the HTTP transport and the multi-region facade, and stacks
// over them, do not.
func TestWatcherOf(t *testing.T) {
	store := NewStore()
	multi, err := NewMultiRegion([]RegionBackend{{Name: "a", Client: NewStore()}})
	if err != nil {
		t.Fatal(err)
	}
	httpc := NewHTTPClient("http://127.0.0.1:1", &http.Client{})
	for _, tc := range []struct {
		name string
		c    Client
		want *Store
	}{
		{"Store", store, store},
		{"Stack", fullStack(store), store},
		{"HTTPClient", httpc, nil},
		{"Stack/HTTPClient", fullStack(httpc), nil},
		{"MultiRegion", multi, nil},
		{"Stack/MultiRegion", fullStack(multi), nil},
	} {
		if got := WatcherOf(tc.c); got != tc.want {
			t.Errorf("WatcherOf(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
