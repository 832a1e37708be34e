package runtime

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

func TestImageRegistrationAndLookup(t *testing.T) {
	img := NewImage("custom:1", 200)
	if img.Name() != "custom:1" || img.SizeMB() != 200 {
		t.Fatalf("image identity wrong: %s/%d", img.Name(), img.SizeMB())
	}
	if err := img.RegisterPlain("add7", func(*Ctx, json.RawMessage) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := img.RegisterMapPartition("scan", func(*Ctx, *PartitionReader) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := img.RegisterReduce("sum", func(*Ctx, string, []json.RawMessage) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := img.Plain("add7"); err != nil {
		t.Fatal(err)
	}
	if _, err := img.MapPartition("scan"); err != nil {
		t.Fatal(err)
	}
	if _, err := img.Reduce("sum"); err != nil {
		t.Fatal(err)
	}
	if _, err := img.Plain("scan"); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("cross-kind lookup err = %v", err)
	}
	if got, want := img.Functions(), []string{"add7", "scan", "sum"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Functions() = %v, want %v", got, want)
	}
}

func TestImageDuplicateNamesRejectedAcrossKinds(t *testing.T) {
	img := NewImage("i:1", 0)
	if err := img.RegisterPlain("f", func(*Ctx, json.RawMessage) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := img.RegisterMapPartition("f", func(*Ctx, *PartitionReader) (any, error) { return nil, nil }); !errors.Is(err, ErrFunctionExists) {
		t.Fatalf("err = %v, want ErrFunctionExists", err)
	}
	if err := img.RegisterReduce("f", func(*Ctx, string, []json.RawMessage) (any, error) { return nil, nil }); !errors.Is(err, ErrFunctionExists) {
		t.Fatalf("err = %v, want ErrFunctionExists", err)
	}
}

func TestImageDefaultSize(t *testing.T) {
	if got := NewImage("x", 0).SizeMB(); got <= 0 {
		t.Fatalf("default size = %d, want positive", got)
	}
}

func TestRegistryPublishPull(t *testing.T) {
	r := NewRegistry()
	img := NewImage("matplotlib:1", 450)
	if err := r.Publish(img); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(NewImage("matplotlib:1", 1)); !errors.Is(err, ErrImageExists) {
		t.Fatalf("republish err = %v, want ErrImageExists", err)
	}
	got, err := r.Pull("matplotlib:1")
	if err != nil {
		t.Fatal(err)
	}
	if got != img {
		t.Fatal("pulled a different image")
	}
	if _, err := r.Pull("nope"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("pull missing err = %v", err)
	}
}

func TestCtxChargeComputeAdvancesClock(t *testing.T) {
	clk := vclock.NewVirtual()
	start := clk.Now()
	var err error
	clk.Run(func() {
		ctx := NewCtx(CtxConfig{Clock: clk, Deadline: start.Add(time.Minute)})
		err = ctx.ChargeCompute(10 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(start); got != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s", got)
	}
}

func TestCtxChargeComputeDeadline(t *testing.T) {
	clk := vclock.NewVirtual()
	start := clk.Now()
	var err error
	clk.Run(func() {
		ctx := NewCtx(CtxConfig{Clock: clk, Deadline: start.Add(5 * time.Second)})
		err = ctx.ChargeCompute(time.Minute)
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	// The clock stops exactly at the deadline: the platform kills the
	// function there rather than running the full requested charge.
	if got := clk.Now().Sub(start); got != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", got)
	}
}

func TestCtxChargeComputeZeroDeadlineUnlimited(t *testing.T) {
	clk := vclock.NewVirtual()
	var err error
	clk.Run(func() {
		ctx := NewCtx(CtxConfig{Clock: clk})
		err = ctx.ChargeCompute(time.Hour)
	})
	if err != nil {
		t.Fatalf("unlimited ctx charge err = %v", err)
	}
	if ctx := NewCtx(CtxConfig{Clock: clk}); ctx.Remaining() <= 0 {
		t.Fatal("zero deadline should mean effectively infinite remaining")
	}
}

func TestCtxSpawnerAbsent(t *testing.T) {
	ctx := NewCtx(CtxConfig{Clock: vclock.NewScaled(1)})
	if _, err := ctx.Spawner(); !errors.Is(err, ErrNoSpawner) {
		t.Fatalf("err = %v, want ErrNoSpawner", err)
	}
}

func TestPartitionReader(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("d", "obj", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	part := wire.Partition{Bucket: "d", Key: "obj", Offset: 2, Length: 6, ObjectSize: 10}
	r := NewPartitionReader(store, part)
	if r.Size() != 6 {
		t.Fatalf("size = %d, want 6", r.Size())
	}
	all, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != "cdefgh" {
		t.Fatalf("ReadAll = %q", all)
	}
	mid, err := r.ReadAt(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(mid) != "def" {
		t.Fatalf("ReadAt(1,3) = %q", mid)
	}
	tail, err := r.ReadAt(4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(tail) != "gh" {
		t.Fatalf("ReadAt(4,-1) = %q", tail)
	}
	clamped, err := r.ReadAt(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(clamped) != "gh" {
		t.Fatalf("clamped ReadAt = %q", clamped)
	}
	empty, err := r.ReadAt(6, 1)
	if err != nil || len(empty) != 0 {
		t.Fatalf("read at end = %q, %v; want empty, nil", empty, err)
	}
	if _, err := r.ReadAt(-1, 1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := r.ReadAt(7, 1); err == nil {
		t.Fatal("offset past partition accepted")
	}
}

func TestPartitionReaderWholeObject(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("d", "obj", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	part := wire.Partition{Bucket: "d", Key: "obj", Offset: 0, Length: -1, ObjectSize: 10}
	r := NewPartitionReader(store, part)
	if r.Size() != 10 {
		t.Fatalf("size = %d, want 10", r.Size())
	}
	all, err := r.ReadAll()
	if err != nil || string(all) != "0123456789" {
		t.Fatalf("ReadAll = %q, %v", all, err)
	}
}

func TestPartitionReaderReadBeyond(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("d", "obj", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	part := wire.Partition{Bucket: "d", Key: "obj", Offset: 2, Length: 4, ObjectSize: 10}
	r := NewPartitionReader(store, part)
	got, err := r.ReadBeyond(3)
	if err != nil || string(got) != "ghi" {
		t.Fatalf("ReadBeyond(3) = %q, %v", got, err)
	}
	clamped, err := r.ReadBeyond(100)
	if err != nil || string(clamped) != "ghij" {
		t.Fatalf("clamped ReadBeyond = %q, %v", clamped, err)
	}
	last := NewPartitionReader(store, wire.Partition{Bucket: "d", Key: "obj", Offset: 6, Length: 4, ObjectSize: 10})
	empty, err := last.ReadBeyond(5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("ReadBeyond at object end = %q, %v", empty, err)
	}
}

func TestPartitionReaderReadBefore(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Put("d", "obj", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	r := NewPartitionReader(store, wire.Partition{Bucket: "d", Key: "obj", Offset: 4, Length: 3, ObjectSize: 10})
	got, err := r.ReadBefore(2)
	if err != nil || string(got) != "cd" {
		t.Fatalf("ReadBefore(2) = %q, %v", got, err)
	}
	clamped, err := r.ReadBefore(100)
	if err != nil || string(clamped) != "abcd" {
		t.Fatalf("clamped ReadBefore = %q, %v", clamped, err)
	}
	first := NewPartitionReader(store, wire.Partition{Bucket: "d", Key: "obj", Offset: 0, Length: 3, ObjectSize: 10})
	empty, err := first.ReadBefore(5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("ReadBefore at object start = %q, %v", empty, err)
	}
}

func TestKVFunctionRegistration(t *testing.T) {
	img := NewImage("kv:1", 0)
	if err := img.RegisterKVMap("emit", func(*Ctx, *PartitionReader) ([]wire.KV, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := img.RegisterKVReduce("sum", func(*Ctx, string, []json.RawMessage) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := img.KVMap("emit"); err != nil {
		t.Fatal(err)
	}
	if _, err := img.KVReduce("sum"); err != nil {
		t.Fatal(err)
	}
	if _, err := img.KVMap("sum"); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("cross-kind lookup err = %v", err)
	}
	if _, err := img.KVReduce("missing"); !errors.Is(err, ErrFunctionNotFound) {
		t.Fatalf("missing lookup err = %v", err)
	}
	// Names shared across all five kinds collide.
	if err := img.RegisterPlain("emit", func(*Ctx, json.RawMessage) (any, error) { return nil, nil }); !errors.Is(err, ErrFunctionExists) {
		t.Fatalf("collision err = %v", err)
	}
	got := img.Functions()
	found := 0
	for _, n := range got {
		if n == "emit" || n == "sum" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("Functions() = %v", got)
	}
}
