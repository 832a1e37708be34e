package cos

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The sorted key index must be observationally identical to a
// sort-per-call listing of the object map. These tests drive a Store and a
// second one whose List is the reference below through the same operation
// sequences and compare every page.

// naiveStore is the reference oracle: a Store whose List ignores the key
// index and materializes, sorts and filters every key of the object map on
// each call. It sees every object however it was committed, which is how
// TestIndexRandomizedEquivalence caught a PutIf that forgot the index.
type naiveStore struct{ *Store }

func (n naiveStore) List(bucketName, prefix, marker string, maxKeys int) (ListResult, error) {
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	b, ok := n.buckets[bucketName]
	if !ok {
		return ListResult{}, fmt.Errorf("list %s: %w", bucketName, ErrNoSuchBucket)
	}
	var keys []string
	for _, k := range slices.Sorted(maps.Keys(b.objects)) {
		if len(prefix) > 0 && (len(k) < len(prefix) || k[:len(prefix)] != prefix) {
			continue
		}
		if marker != "" && k <= marker {
			continue
		}
		keys = append(keys, k)
	}
	var res ListResult
	for i, k := range keys {
		if i == maxKeys {
			res.IsTruncated = true
			res.NextMarker = res.Objects[len(res.Objects)-1].Key
			break
		}
		res.Objects = append(res.Objects, b.objects[k].meta)
	}
	return res, nil
}

// lister is what the page-draining helper needs of either store.
type lister interface {
	List(bucketName, prefix, marker string, maxKeys int) (ListResult, error)
}

func newIndexPair(t *testing.T, bucketName string) (indexed *Store, naive naiveStore) {
	t.Helper()
	indexed = NewStore()
	naive = naiveStore{NewStore()}
	for _, s := range []*Store{indexed, naive.Store} {
		if err := s.CreateBucket(bucketName); err != nil {
			t.Fatalf("create bucket: %v", err)
		}
	}
	return indexed, naive
}

// pageShape is the part of a ListResult both stores must agree on. The two
// stores stamp objects with their own wall-clock LastModified, so metadata
// is compared by key, not byte for byte.
type pageShape struct {
	Keys        []string
	IsTruncated bool
	NextMarker  string
}

func shapeOf(res ListResult) pageShape {
	p := pageShape{IsTruncated: res.IsTruncated, NextMarker: res.NextMarker}
	for _, obj := range res.Objects {
		p.Keys = append(p.Keys, obj.Key)
	}
	return p
}

// listPages drains a full listing page by page with the given page size.
func listPages(t *testing.T, s lister, bucketName, prefix string, pageSize int) []string {
	t.Helper()
	var keys []string
	marker := ""
	for {
		res, err := s.List(bucketName, prefix, marker, pageSize)
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		for _, obj := range res.Objects {
			keys = append(keys, obj.Key)
		}
		if !res.IsTruncated {
			return keys
		}
		marker = res.NextMarker
	}
}

// TestIndexInsertDeleteInterleavings drives put/delete/overwrite
// interleavings, including re-inserting deleted keys, and checks the index
// path lists exactly what the naive path does after every step.
func TestIndexInsertDeleteInterleavings(t *testing.T) {
	indexed, naive := newIndexPair(t, "b")
	steps := []struct {
		op  string // "put" or "del"
		key string
	}{
		{"put", "m"},
		{"put", "c"},
		{"put", "x"},
		{"put", "c"}, // overwrite: no duplicate index entry
		{"del", "m"},
		{"del", "m"}, // delete of absent key: no-op
		{"put", "m"}, // re-insert a deleted key
		{"put", "a"},
		{"del", "x"},
		{"put", "x"},
		{"del", "a"},
		{"del", "c"},
		{"put", "b"},
	}
	for i, st := range steps {
		for _, s := range []*Store{indexed, naive.Store} {
			var err error
			switch st.op {
			case "put":
				_, err = s.Put("b", st.key, []byte(st.key))
			case "del":
				err = s.Delete("b", st.key)
			}
			if err != nil {
				t.Fatalf("step %d %s %q: %v", i, st.op, st.key, err)
			}
		}
		got := listPages(t, indexed, "b", "", 2)
		want := listPages(t, naive, "b", "", 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after step %d (%s %q): indexed %v, naive %v", i, st.op, st.key, got, want)
		}
	}
}

// TestIndexListFromResume checks marker resume at an exact existing key and
// at keys that are absent (deleted between pages, or never present).
func TestIndexListFromResume(t *testing.T) {
	indexed, naive := newIndexPair(t, "b")
	for i := 0; i < 10; i += 2 { // even keys only: key-0, key-2, ...
		key := fmt.Sprintf("key-%d", i)
		for _, s := range []*Store{indexed, naive.Store} {
			if _, err := s.Put("b", key, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	markers := []string{
		"",      // from the start
		"key-4", // exact existing key: resume strictly after it
		"key-3", // absent key between neighbors
		"a",     // before every key
		"key-9", // after every key (empty page, not truncated)
	}
	for _, marker := range markers {
		for _, prefix := range []string{"", "key-", "nope-"} {
			got, gerr := indexed.List("b", prefix, marker, 2)
			want, werr := naive.List("b", prefix, marker, 2)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("marker %q prefix %q: errors diverge: %v vs %v", marker, prefix, gerr, werr)
			}
			if !reflect.DeepEqual(shapeOf(got), shapeOf(want)) {
				t.Fatalf("marker %q prefix %q: indexed %+v, naive %+v", marker, prefix, shapeOf(got), shapeOf(want))
			}
		}
	}
}

// TestIndexTombstoneInterleavings exercises the linked tombstone layer over
// both listing paths: deletes there write tombstone objects into the same
// bucket, a foreign-writer pattern the index must track like any other key.
func TestIndexTombstoneInterleavings(t *testing.T) {
	indexed, naive := newIndexPair(t, "b")
	ops := func(s *Store, l lister) []string {
		if err := s.Delete("b", "ghost"); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"a", "a.tomb", "b", "b.tomb"} {
			if _, err := s.Put("b", k, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete("b", "a.tomb"); err != nil {
			t.Fatal(err)
		}
		return listPages(t, l, "b", "", 3)
	}
	got, want := ops(indexed, indexed), ops(naive.Store, naive)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tombstone interleaving: indexed %v, naive %v", got, want)
	}
}

// TestIndexRandomizedEquivalence fuzzes both paths with the same seeded
// operation stream over a small key universe (to force collisions,
// overwrites and re-inserts) and compares listings with random prefixes,
// markers and page sizes after every operation.
func TestIndexRandomizedEquivalence(t *testing.T) {
	indexed, naive := newIndexPair(t, "b")
	rng := rand.New(rand.NewSource(42))
	universe := make([]string, 40)
	for i := range universe {
		universe[i] = fmt.Sprintf("%c%02d", 'a'+byte(i%4), rng.Intn(20))
	}
	for step := 0; step < 800; step++ {
		key := universe[rng.Intn(len(universe))]
		op := rng.Intn(4)
		for _, s := range []*Store{indexed, naive.Store} {
			var err error
			switch op {
			case 0:
				err = s.Delete("b", key)
			case 1:
				// Conditional on the key's current state: a create when it
				// is absent, a replace of exactly this version otherwise.
				cur, _ := s.Head("b", key)
				_, err = s.PutIf("b", key, []byte{byte(step)}, cur.ETag)
			default:
				_, err = s.Put("b", key, []byte{byte(step)})
			}
			if err != nil {
				t.Fatalf("step %d op %d on %q: %v", step, op, key, err)
			}
		}
		prefix := ""
		if rng.Intn(2) == 0 {
			prefix = string([]byte{'a' + byte(rng.Intn(5))})
		}
		marker := ""
		if rng.Intn(2) == 0 {
			marker = universe[rng.Intn(len(universe))]
		}
		pageSize := 1 + rng.Intn(7)
		got, gerr := indexed.List("b", prefix, marker, pageSize)
		want, werr := naive.List("b", prefix, marker, pageSize)
		if gerr != nil || werr != nil {
			t.Fatalf("step %d: list errors %v / %v", step, gerr, werr)
		}
		if !reflect.DeepEqual(shapeOf(got), shapeOf(want)) {
			t.Fatalf("step %d (prefix %q marker %q page %d): indexed %+v, naive %+v",
				step, prefix, marker, pageSize, shapeOf(got), shapeOf(want))
		}
	}
}
