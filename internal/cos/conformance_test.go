package cos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

// fullStack builds the deepest stack the repository assembles — retry, count,
// fault and link stages over inner — with a loopback link and a fault hook
// that never fires, so it must behave exactly like inner.
func fullStack(inner Client) *Stack {
	clk := vclock.NewVirtual()
	never := func() bool { return false }
	return NewRetrying(NewCounting(NewFaulty(NewLinked(inner, clk, netsim.Loopback()), never)), clk, 2, time.Millisecond)
}

// TestClientConformance runs the one behavioural contract of Client over
// every type that spells the surface out: the engine, the request path in
// front of it, the HTTP transport, and a multi-region view.
func TestClientConformance(t *testing.T) {
	backends := []struct {
		name string
		mk   func(t *testing.T) Client
	}{
		{"Store", func(*testing.T) Client { return NewStore() }},
		{"Stack", func(*testing.T) Client { return fullStack(NewStore()) }},
		{"HTTPClient", func(t *testing.T) Client {
			_, c := newHTTPPair(t)
			return c
		}},
		{"MultiRegion", func(t *testing.T) Client {
			m, _, _, _, _ := twoRegions(t)
			v, err := m.View("eu-gb", "eu-gb")
			if err != nil {
				t.Fatal(err)
			}
			return v
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { clientConformance(t, b.mk) })
	}
}

func clientConformance(t *testing.T, mk func(t *testing.T) Client) {
	wantErr := func(t *testing.T, what string, err, want error) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", what, err, want)
		}
	}
	withBucket := func(t *testing.T) Client {
		t.Helper()
		c := mk(t)
		if err := c.CreateBucket("b"); err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("buckets", func(t *testing.T) {
		c := mk(t)
		for _, name := range []string{"b2", "b1"} {
			if err := c.CreateBucket(name); err != nil {
				t.Fatal(err)
			}
		}
		wantErr(t, "duplicate create", c.CreateBucket("b1"), ErrBucketExists)
		if ok, err := c.BucketExists("b1"); err != nil || !ok {
			t.Fatalf("exists(b1) = %v, %v", ok, err)
		}
		if ok, err := c.BucketExists("missing"); err != nil || ok {
			t.Fatalf("exists(missing) = %v, %v", ok, err)
		}
		if names, err := c.ListBuckets(); err != nil || fmt.Sprint(names) != "[b1 b2]" {
			t.Fatalf("buckets = %v, %v, want [b1 b2] sorted", names, err)
		}
		if _, err := c.Put("b1", "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		wantErr(t, "delete non-empty bucket", c.DeleteBucket("b1"), ErrBucketNotEmpty)
		if err := c.Delete("b1", "k"); err != nil {
			t.Fatal(err)
		}
		if err := c.DeleteBucket("b1"); err != nil {
			t.Fatal(err)
		}
		wantErr(t, "delete missing bucket", c.DeleteBucket("b1"), ErrNoSuchBucket)
	})

	t.Run("objects", func(t *testing.T) {
		c := withBucket(t)
		body := []byte("0123456789")
		put, err := c.Put("b", "dir/sub/key.txt", body)
		if err != nil {
			t.Fatal(err)
		}
		if put.Size != int64(len(body)) || put.ETag == "" {
			t.Fatalf("put meta = %+v", put)
		}
		got, meta, err := c.Get("b", "dir/sub/key.txt")
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("get = %q, %v", got, err)
		}
		if meta.ETag != put.ETag || meta.Size != put.Size {
			t.Fatalf("get meta %+v, put meta %+v", meta, put)
		}
		head, err := c.Head("b", "dir/sub/key.txt")
		if err != nil || head.ETag != put.ETag || head.Size != put.Size || head.LastModified.IsZero() {
			t.Fatalf("head = %+v, %v", head, err)
		}
		for _, r := range []struct {
			off, length int64
			want        string
		}{{0, -1, "0123456789"}, {2, 3, "234"}, {5, -1, "56789"}, {8, 100, "89"}, {1, math.MaxInt64, "123456789"}, {2, math.MaxInt64, "23456789"}} {
			got, _, err := c.GetRange("b", "dir/sub/key.txt", r.off, r.length)
			if err != nil || string(got) != r.want {
				t.Fatalf("GetRange(%d,%d) = %q, %v, want %q", r.off, r.length, got, err, r.want)
			}
		}
		_, _, err = c.GetRange("b", "dir/sub/key.txt", 10, 1)
		wantErr(t, "range at size", err, ErrInvalidRange)

		if err := c.Delete("b", "dir/sub/key.txt"); err != nil {
			t.Fatal(err)
		}
		_, _, err = c.Get("b", "dir/sub/key.txt")
		wantErr(t, "get after delete", err, ErrNoSuchKey)
		_, err = c.Head("b", "dir/sub/key.txt")
		wantErr(t, "head after delete", err, ErrNoSuchKey)
		if err := c.Delete("b", "dir/sub/key.txt"); err != nil {
			t.Fatalf("deleting a missing key: %v", err)
		}
	})

	t.Run("missing bucket", func(t *testing.T) {
		c := mk(t)
		_, err := c.Put("nobucket", "k", []byte("v"))
		wantErr(t, "put", err, ErrNoSuchBucket)
		_, err = c.PutIf("nobucket", "k", []byte("v"), "")
		wantErr(t, "put-if", err, ErrNoSuchBucket)
		_, _, err = c.Get("nobucket", "k")
		wantErr(t, "get", err, ErrNoSuchBucket)
		_, err = c.List("nobucket", "", "", 0)
		wantErr(t, "list", err, ErrNoSuchBucket)
	})

	t.Run("list", func(t *testing.T) {
		c := withBucket(t)
		for i := 0; i < 12; i++ {
			if _, err := c.Put("b", fmt.Sprintf("k/%02d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Put("b", "other", []byte("v")); err != nil {
			t.Fatal(err)
		}
		page, err := c.List("b", "k/", "", 5)
		if err != nil || len(page.Objects) != 5 || !page.IsTruncated || page.NextMarker != "k/04" {
			t.Fatalf("first page = %d objects, truncated=%v, next=%q, %v", len(page.Objects), page.IsTruncated, page.NextMarker, err)
		}
		page, err = c.List("b", "k/", "k/09", 5)
		if err != nil || len(page.Objects) != 2 || page.IsTruncated || page.Objects[0].Key != "k/10" {
			t.Fatalf("page after k/09 = %+v, %v", page, err)
		}
		if all, err := ListAll(c, "b", "k/"); err != nil || len(all) != 12 {
			t.Fatalf("ListAll = %d keys, %v, want 12", len(all), err)
		}
	})

	t.Run("conditional put", func(t *testing.T) {
		c := withBucket(t)
		// Empty ifMatch means "must not exist": the first create wins, the
		// second loses and changes nothing.
		m1, err := c.PutIf("b", "cas/lease", []byte("v1"), "")
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		if m1.ETag == "" || m1.Size != 2 {
			t.Fatalf("create meta = %+v", m1)
		}
		_, err = c.PutIf("b", "cas/lease", []byte("loser"), "")
		wantErr(t, "second create", err, ErrPreconditionFailed)
		if got, _, err := c.Get("b", "cas/lease"); err != nil || string(got) != "v1" {
			t.Fatalf("after losing create: %q, %v", got, err)
		}
		// A conditionally created key is a key like any other: HEAD and LIST
		// see it, and its ETag is the one the next swap must present.
		if head, err := c.Head("b", "cas/lease"); err != nil || head.ETag != m1.ETag {
			t.Fatalf("head = %+v, %v, want etag %q", head, err, m1.ETag)
		}
		if listed, err := ListAll(c, "b", "cas/"); err != nil || len(listed) != 1 || listed[0].Key != "cas/lease" {
			t.Fatalf("list after conditional create = %+v, %v", listed, err)
		}
		// A matching ETag swaps; the ETag from before the swap is then stale.
		m2, err := c.PutIf("b", "cas/lease", []byte("v2"), m1.ETag)
		if err != nil {
			t.Fatalf("replace: %v", err)
		}
		_, err = c.PutIf("b", "cas/lease", []byte("v3"), m1.ETag)
		wantErr(t, "stale replace", err, ErrPreconditionFailed)
		if got, meta, err := c.Get("b", "cas/lease"); err != nil || string(got) != "v2" || meta.ETag != m2.ETag {
			t.Fatalf("after stale replace: %q etag %q, %v, want v2 etag %q", got, meta.ETag, err, m2.ETag)
		}
		// Replacing a key that does not exist fails the precondition too.
		_, err = c.PutIf("b", "cas/absent", []byte("v"), m1.ETag)
		wantErr(t, "replace of a missing key", err, ErrPreconditionFailed)
		// An unconditional put moves the ETag like a swap does.
		if _, err := c.Put("b", "cas/lease", []byte("v4")); err != nil {
			t.Fatal(err)
		}
		_, err = c.PutIf("b", "cas/lease", []byte("v5"), m2.ETag)
		wantErr(t, "replace after an unconditional put", err, ErrPreconditionFailed)
	})
}
