package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"gowren/internal/cos"
	"gowren/internal/wire"
)

func TestPartitionObjectsPerObjectGranularity(t *testing.T) {
	objs := []locatedObject{
		{Bucket: "b", Key: "a", Size: 10},
		{Bucket: "b", Key: "b", Size: 0},
		{Bucket: "b", Key: "c", Size: 1 << 20},
	}
	parts := partitionObjects(objs, 0)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3 (one per object)", len(parts))
	}
	for i, p := range parts {
		if p.Offset != 0 || p.Length != objs[i].Size || p.Index != i {
			t.Fatalf("partition %d = %+v", i, p)
		}
	}
}

func TestPartitionObjectsChunking(t *testing.T) {
	objs := []locatedObject{{Bucket: "b", Key: "obj", Size: 2500}}
	parts := partitionObjects(objs, 1000)
	if len(parts) != 3 {
		t.Fatalf("partitions = %d, want 3", len(parts))
	}
	wantLens := []int64{1000, 1000, 500}
	for i, p := range parts {
		if p.Offset != int64(i)*1000 || p.Length != wantLens[i] {
			t.Fatalf("partition %d = %+v", i, p)
		}
		if p.ObjectSize != 2500 {
			t.Fatalf("partition %d object size = %d", i, p.ObjectSize)
		}
	}
}

// TestPartitionCoverageProperty checks the fundamental partitioner
// invariant: for any object sizes and chunk size, the partitions of each
// object tile [0, size) exactly — no gaps, no overlaps — and indexes are
// dense and ordered.
func TestPartitionCoverageProperty(t *testing.T) {
	f := func(sizesRaw []uint32, chunkRaw uint16) bool {
		if len(sizesRaw) > 20 {
			sizesRaw = sizesRaw[:20]
		}
		objs := make([]locatedObject, len(sizesRaw))
		for i, s := range sizesRaw {
			objs[i] = locatedObject{Bucket: "b", Key: fmt.Sprintf("o%02d", i), Size: int64(s % 100000)}
		}
		chunk := int64(chunkRaw%5000) - 100 // exercise negative/zero too
		parts := partitionObjects(objs, chunk)

		covered := make(map[string]int64)
		for i, p := range parts {
			if p.Index != i {
				return false
			}
			if p.Offset != covered[p.Key] {
				return false // out of order or gap within object
			}
			if p.Length < 0 || (chunk > 0 && p.Length > chunk && p.Length != p.ObjectSize) {
				// A partition longer than the chunk is only legal when
				// chunking is disabled (chunk <= 0).
				if chunk > 0 {
					return false
				}
			}
			covered[p.Key] += p.Length
		}
		for _, obj := range objs {
			if covered[obj.Key] != obj.Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionCountMatchesCeilDivision(t *testing.T) {
	f := func(sizeRaw uint32, chunkRaw uint16) bool {
		size := int64(sizeRaw % 1000000)
		chunk := int64(chunkRaw%10000) + 1
		parts := partitionObjects([]locatedObject{{Bucket: "b", Key: "k", Size: size}}, chunk)
		want := (size + chunk - 1) / chunk
		if want == 0 {
			want = 1 // empty objects still get one (empty) partition
		}
		return int64(len(parts)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoverObjectKeys(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("d", "x", make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	objs, err := discoverObjects(store, ObjectKeys{Bucket: "d", Keys: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Size != 42 {
		t.Fatalf("objs = %+v", objs)
	}
	if _, err := discoverObjects(store, ObjectKeys{Bucket: "d", Keys: []string{"missing"}}); !errors.Is(err, cos.ErrNoSuchKey) {
		t.Fatalf("err = %v, want ErrNoSuchKey", err)
	}
	if _, err := discoverObjects(store, ObjectKeys{}); err == nil {
		t.Fatal("empty source accepted")
	}
}

func TestDiscoverBucketsSortedAndMultiBucket(t *testing.T) {
	store := cos.NewStore()
	for _, b := range []string{"b2", "b1"} {
		if err := store.CreateBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"z", "a", "m"} {
		if _, err := store.Put("b1", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Put("b2", "k", []byte("y")); err != nil {
		t.Fatal(err)
	}
	objs, err := discoverObjects(store, Buckets{"b2", "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 {
		t.Fatalf("objs = %d, want 4", len(objs))
	}
	for i := 1; i < len(objs); i++ {
		prev := objs[i-1].Bucket + "/" + objs[i-1].Key
		cur := objs[i].Bucket + "/" + objs[i].Key
		if prev >= cur {
			t.Fatalf("discovery not sorted: %s then %s", prev, cur)
		}
	}
	if _, err := discoverObjects(store, Buckets{}); err == nil {
		t.Fatal("empty bucket list accepted")
	}
	if _, err := discoverObjects(store, Buckets{"ghost"}); !errors.Is(err, cos.ErrNoSuchBucket) {
		t.Fatalf("err = %v, want ErrNoSuchBucket", err)
	}
}

func TestDiscoverEmptyBucketRejected(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := discoverObjects(store, Buckets{"empty"}); err == nil {
		t.Fatal("discovery over empty bucket should error")
	}
}

func TestGroupForReduce(t *testing.T) {
	parts := []wire.Partition{
		{Bucket: "b", Key: "city-a", Index: 0},
		{Bucket: "b", Key: "city-b", Index: 1},
		{Bucket: "b", Key: "city-a", Index: 2},
		{Bucket: "b", Key: "city-c", Index: 3},
		{Bucket: "b", Key: "city-a", Index: 4},
	}

	same, global := groupForReduce(parts, false)
	if len(global) != 1 || global[0].n != 5 || global[0].key != "" || len(same) != 5 {
		t.Fatalf("global grouping = %+v over %d parts", global, len(same))
	}

	// Per object the partitions come back group by group — every group a
	// contiguous run, which is what gives its map calls a contiguous call-ID
	// range — in first-appearance order, partition order kept within a group.
	ordered, perObj := groupForReduce(parts, true)
	if len(perObj) != 3 {
		t.Fatalf("per-object groups = %d, want 3", len(perObj))
	}
	if perObj[0].key != "b/city-a" || perObj[0].n != 3 || perObj[1].key != "b/city-b" || perObj[2].key != "b/city-c" {
		t.Fatalf("groups = %+v", perObj)
	}
	var got []int
	for _, p := range ordered {
		got = append(got, p.Index)
	}
	if want := []int{0, 2, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("partition order = %v, want %v", got, want)
	}
}

func TestPlanPartitionsEndToEnd(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("data"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("data", "obj", make([]byte, 3072)); err != nil {
		t.Fatal(err)
	}
	parts, err := PlanPartitions(store, Buckets{"data"}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("plan = %d partitions, want 3", len(parts))
	}
}
