package cos

import (
	"fmt"
	"testing"
)

func TestListFromResumesAfterMarker(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := store.Put("b", fmt.Sprintf("k/%05d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCounting(store)
	out, err := ListFrom(c, "b", "k/", "k/00006")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d keys after marker, want 3", len(out))
	}
	if out[0].Key != "k/00007" || out[2].Key != "k/00009" {
		t.Fatalf("unexpected range: %s .. %s", out[0].Key, out[len(out)-1].Key)
	}
	if n := c.Counts().ObjectsListed; n != 3 {
		t.Fatalf("objects listed = %d, want 3", n)
	}
}

// TestListFromMarkerAtFrontier pins the sweep coordinator's contract: a
// marker equal to an existing key — the done-frontier — yields exactly the
// keys strictly after it, even when the marker sits on a page boundary.
func TestListFromMarkerAtFrontier(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	n := DefaultMaxKeys + 3
	key := func(i int) string { return fmt.Sprintf("k/%06d", i) }
	for i := 0; i < n; i++ {
		if _, err := store.Put("b", key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Marker exactly on the last key of the first full page.
	out, err := ListFrom(store, "b", "k/", key(DefaultMaxKeys-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d keys after page-boundary marker, want 3", len(out))
	}
	if out[0].Key != key(DefaultMaxKeys) || out[2].Key != key(n-1) {
		t.Fatalf("unexpected range: %s .. %s", out[0].Key, out[len(out)-1].Key)
	}
	// Marker exactly on the last key of the whole prefix: nothing after it.
	out, err = ListFrom(store, "b", "k/", key(n-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d keys after final-key marker, want 0", len(out))
	}
}

// TestListFromMarkerPastLastKey: a marker sorting beyond every key in the
// prefix (a frontier that outran storage, e.g. after a Clean) is an empty
// listing, not an error.
func TestListFromMarkerPastLastKey(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := store.Put("b", fmt.Sprintf("k/%06d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ListFrom(store, "b", "k/", "k/zzzzzz")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d keys after past-the-end marker, want 0", len(out))
	}
}

func TestListFromPaginates(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	// More keys than one default page so ListFrom must follow NextMarker.
	n := DefaultMaxKeys + 7
	for i := 0; i < n; i++ {
		if _, err := store.Put("b", fmt.Sprintf("k/%06d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ListFrom(store, "b", "k/", fmt.Sprintf("k/%06d", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n-3 {
		t.Fatalf("got %d keys, want %d", len(out), n-3)
	}
}

// TestListUntilStopsAtEnd: one page, cut before end, truncated only when
// keys before end were left for a later page; a Stack counts only the keys
// it kept.
func TestListUntilStopsAtEnd(t *testing.T) {
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	n := DefaultMaxKeys + 7
	for i := 0; i < n; i++ {
		if _, err := store.Put("b", fmt.Sprintf("k/%06d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCounting(store)
	page, err := ListUntil(c, "b", "k/", "k/000002", "k/000010")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Objects) != 7 || page.Objects[0].Key != "k/000003" || page.Objects[6].Key != "k/000009" || page.IsTruncated {
		t.Fatalf("page = %d keys (truncated %v), want k/000003..k/000009, not truncated", len(page.Objects), page.IsTruncated)
	}
	if got := c.Counts(); got.ListOps != 1 || got.ObjectsListed != 7 {
		t.Fatalf("counted %d LISTs of %d objects, want 1 of 7", got.ListOps, got.ObjectsListed)
	}
	// The end lies past the page: the page is cut by its size, not by end.
	page, err = ListUntil(store, "b", "k/", "", "k/999999")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Objects) != DefaultMaxKeys || !page.IsTruncated {
		t.Fatalf("page = %d keys (truncated %v), want a full page, truncated", len(page.Objects), page.IsTruncated)
	}
}
