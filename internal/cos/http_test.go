package cos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// newHTTPPair serves a fresh Store over httptest and returns a client for it.
func newHTTPPair(t *testing.T) (*Store, Client) {
	t.Helper()
	store := NewStore()
	srv := httptest.NewServer(Handler(store))
	t.Cleanup(srv.Close)
	return store, NewHTTPClient(srv.URL, srv.Client())
}

func TestHTTPBucketLifecycle(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("b"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("duplicate create err = %v, want ErrBucketExists", err)
	}
	ok, err := c.BucketExists("b")
	if err != nil || !ok {
		t.Fatalf("exists = %v, %v", ok, err)
	}
	ok, err = c.BucketExists("missing")
	if err != nil || ok {
		t.Fatalf("exists(missing) = %v, %v", ok, err)
	}
	if err := c.DeleteBucket("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteBucket("b"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v, want ErrNoSuchBucket", err)
	}
}

func TestHTTPObjectRoundTrip(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	body := []byte("the quick brown fox")
	putMeta, err := c.Put("b", "dir/sub/key.txt", body)
	if err != nil {
		t.Fatal(err)
	}
	if putMeta.Size != int64(len(body)) || putMeta.ETag == "" {
		t.Fatalf("put meta = %+v", putMeta)
	}
	got, meta, err := c.Get("b", "dir/sub/key.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q", got)
	}
	if meta.ETag != putMeta.ETag || meta.Size != putMeta.Size {
		t.Fatalf("meta mismatch: %+v vs %+v", meta, putMeta)
	}
	hm, err := c.Head("b", "dir/sub/key.txt")
	if err != nil {
		t.Fatal(err)
	}
	if hm.Size != int64(len(body)) || hm.ETag != putMeta.ETag {
		t.Fatalf("head meta = %+v", hm)
	}
	if hm.LastModified.IsZero() {
		t.Fatal("last-modified did not survive the wire")
	}
}

func TestHTTPRangeReads(t *testing.T) {
	store, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	body := []byte("0123456789")
	if _, err := c.Put("b", "d", body); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		off, length int64
		want        string
	}{
		{0, -1, "0123456789"},
		{2, 3, "234"},
		{5, -1, "56789"},
		{8, 100, "89"},
		{0, 0, ""},
		{3, 0, ""},
	}
	for _, tt := range tests {
		got, _, err := c.GetRange("b", "d", tt.off, tt.length)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", tt.off, tt.length, err)
		}
		if string(got) != tt.want {
			t.Fatalf("GetRange(%d,%d) = %q, want %q", tt.off, tt.length, got, tt.want)
		}
	}
	if _, _, err := c.GetRange("b", "d", 10, 1); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("offset-at-size err = %v, want ErrInvalidRange", err)
	}
	if _, _, err := c.GetRange("b", "d", 10, 0); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("empty-range-at-size err = %v, want ErrInvalidRange", err)
	}
	// Raw headers reach the handler without the client's checks: a length
	// near MaxInt64 is clamped to the object, and one that overflows is
	// refused.
	for _, tt := range []struct {
		header string
		code   int
		want   string
	}{
		{"bytes=1-9223372036854775807", http.StatusPartialContent, "123456789"},
		{"bytes=0-9223372036854775807", http.StatusRequestedRangeNotSatisfiable, ""},
	} {
		req := httptest.NewRequest(http.MethodGet, "/b/b/d", nil)
		req.Header.Set("Range", tt.header)
		rec := httptest.NewRecorder()
		Handler(store).ServeHTTP(rec, req)
		if rec.Code != tt.code || tt.want != "" && rec.Body.String() != tt.want {
			t.Errorf("Range: %s = %d %q, want %d %q", tt.header, rec.Code, rec.Body, tt.code, tt.want)
		}
	}
}

func TestHTTPErrorsCrossTheWire(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("b", "missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("get err = %v, want ErrNoSuchKey", err)
	}
	if _, _, err := c.Get("nobucket", "k"); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("get err = %v, want ErrNoSuchBucket", err)
	}
	if _, err := c.Head("b", "missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("head err = %v, want ErrNoSuchKey", err)
	}
	if _, err := c.List("nobucket", "", "", 0); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("list err = %v, want ErrNoSuchBucket", err)
	}
}

func TestHTTPListPagination(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Put("b", fmt.Sprintf("k/%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	page1, err := c.List("b", "k/", "", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Objects) != 5 || !page1.IsTruncated {
		t.Fatalf("page1 = %d objects truncated=%v", len(page1.Objects), page1.IsTruncated)
	}
	all, err := ListAll(c, "b", "k/")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 12 {
		t.Fatalf("ListAll over HTTP = %d, want 12", len(all))
	}
}

func TestHTTPDelete(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("b", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("b", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("get after delete err = %v", err)
	}
	if err := c.Delete("b", "k"); err != nil {
		t.Fatalf("idempotent delete err = %v", err)
	}
}

func TestHTTPKeyEscaping(t *testing.T) {
	_, c := newHTTPPair(t)
	if err := c.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	weird := "jobs/exec 1/call#7/status?.json"
	if _, err := c.Put("b", weird, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get("b", weird)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q", got)
	}
}

func TestParseRange(t *testing.T) {
	tests := []struct {
		in          string
		off, length int64
		have        bool
		wantErr     bool
	}{
		{"", 0, 0, false, false},
		{"bytes=0-9", 0, 10, true, false},
		{"bytes=5-", 5, -1, true, false},
		{"bytes=7-7", 7, 1, true, false},
		{"bytes=9-5", 0, 0, false, true},
		{"items=0-5", 0, 0, false, true},
		{"bytes=a-b", 0, 0, false, true},
		{"bytes=5", 0, 0, false, true},
		{"bytes=1-9223372036854775807", 1, math.MaxInt64, true, false},
		{"bytes=0-9223372036854775807", 0, 0, false, true},
	}
	for _, tt := range tests {
		off, length, have, err := parseRange(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseRange(%q): want error", tt.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRange(%q): %v", tt.in, err)
			continue
		}
		if off != tt.off || length != tt.length || have != tt.have {
			t.Errorf("parseRange(%q) = (%d,%d,%v), want (%d,%d,%v)", tt.in, off, length, have, tt.off, tt.length, tt.have)
		}
	}
}

// FuzzRangeHeader drives the server's Range path, parseRange then
// Store.GetRange, with arbitrary headers: it must never panic, and any
// bytes it returns are the object's own, starting at the parsed offset.
// Seeds live in testdata/fuzz/FuzzRangeHeader.
func FuzzRangeHeader(f *testing.F) {
	obj := []byte("0123456789")
	store := NewStore()
	if err := store.CreateBucket("b"); err != nil {
		f.Fatal(err)
	}
	if _, err := store.Put("b", "k", obj); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, header string) {
		offset, length, haveRange, err := parseRange(header)
		if err != nil || !haveRange {
			return
		}
		data, _, err := store.GetRange("b", "k", offset, length)
		if err != nil {
			return
		}
		n := int64(len(data))
		if length >= 0 && n > length || n > int64(len(obj))-offset || !bytes.Equal(data, obj[offset:offset+n]) {
			t.Fatalf("Range: %s (offset %d, length %d) returned %q, not a slice of %q at the offset", header, offset, length, data, obj)
		}
	})
}

func TestHTTPListBuckets(t *testing.T) {
	_, c := newHTTPPair(t)
	for _, b := range []string{"b2", "b1"} {
		if err := c.CreateBucket(b); err != nil {
			t.Fatal(err)
		}
	}
	names, err := c.ListBuckets()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "b1" {
		t.Fatalf("buckets over HTTP = %v", names)
	}
}

// TestHTTPBodiesDeclareLength: a whole-object GET and a 206 ranged GET carry
// Content-Length equal to the body and are not chunked, so the client can
// read each into one buffer of that size.
func TestHTTPBodiesDeclareLength(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(Handler(store))
	t.Cleanup(srv.Close)
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	obj := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB, far past net/http's pre-chunking buffer
	if _, err := store.Put("b", "k", obj); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rangeHeader string
		status      int
		want        []byte
	}{
		{"", http.StatusOK, obj},
		{"bytes=100-40099", http.StatusPartialContent, obj[100:40100]},
	} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/b/b/k", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.rangeHeader != "" {
			req.Header.Set("Range", tc.rangeHeader)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || !bytes.Equal(body, tc.want) {
			t.Fatalf("Range %q: %d, %d bytes; want %d, %d bytes", tc.rangeHeader, resp.StatusCode, len(body), tc.status, len(tc.want))
		}
		if resp.ContentLength != int64(len(tc.want)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("Range %q: Content-Length %d, Transfer-Encoding %v; want %d and none", tc.rangeHeader, resp.ContentLength, resp.TransferEncoding, len(tc.want))
		}
	}
}

// TestReadBody pins readBody's contract: a declared length is read exactly
// or fails, an undeclared one reads everything, and a declaration above
// the cap allocates only what actually arrives.
func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 1000)
	for _, tc := range []struct {
		name     string
		declared int64
		wantErr  error
	}{
		{"declared", 1000, nil},
		{"undeclared", -1, nil},
		{"above the cap", maxSizedBody + 1, nil},
		{"short of its declaration", 1001, io.ErrUnexpectedEOF},
	} {
		got, err := readBody(bytes.NewReader(data), tc.declared)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if tc.wantErr == nil && !bytes.Equal(got, data) {
			t.Fatalf("%s: read %d bytes, want the %d sent", tc.name, len(got), len(data))
		}
		if tc.wantErr != nil && got != nil {
			t.Fatalf("%s: returned %d bytes of truncated data alongside the error", tc.name, len(got))
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readBody(bytes.NewReader(data), maxSizedBody+1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxSizedBody/2 {
		t.Fatalf("a declared length above the cap allocated %d bytes for a %d-byte body", grew, len(data))
	}

	obj := make([]byte, 64<<10)
	rd := bytes.NewReader(obj)
	if n := testing.AllocsPerRun(50, func() {
		rd.Reset(obj)
		if _, err := readBody(rd, int64(len(obj))); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("readBody of a declared 64 KiB body made %v allocations, want 1", n)
	}
}

// TestHTTPClientRejectsShortBody: a response that ends before its declared
// Content-Length is an error on the client, never a truncated object.
func TestHTTPClientRejectsShortBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly ten b")
		_ = buf.Flush()
	}))
	t.Cleanup(srv.Close)
	c := NewHTTPClient(srv.URL, srv.Client())
	if data, _, err := c.Get("b", "k"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Get of a short body = %q, %v; want io.ErrUnexpectedEOF", data, err)
	}
}
