package cos

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
)

// benchStore builds a store with n zero-padded status-style keys, the shape
// the wait path lists: one namespace prefix, keys arriving in order.
func benchStore(b *testing.B, n int) *Store {
	b.Helper()
	s := NewStore()
	if err := s.CreateBucket("b"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Put("b", fmt.Sprintf("exec/status/%08d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkList measures one page off a large bucket: a binary search and a
// page copy, whatever the bucket's size.
func BenchmarkList(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := benchStore(b, n)
			marker := fmt.Sprintf("exec/status/%08d", n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.List("b", "exec/status/", marker, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkListFrom measures the frontier-resume pattern: repeatedly list a
// short tail page from a marker near the end of a large bucket, the
// steady-state shape of the sweep coordinator's incremental LISTs.
func BenchmarkListFrom(b *testing.B) {
	const n = 100000
	s := benchStore(b, n)
	marker := fmt.Sprintf("exec/status/%08d", n-10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ListFrom(s, "b", "exec/status/", marker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPPutGet64K measures one PUT and one GET of a 64 KiB object
// through HTTPClient against an in-process Handler over loopback, client
// and server allocations together. It is a report, not a gate.
func BenchmarkHTTPPutGet64K(b *testing.B) {
	srv := httptest.NewServer(Handler(NewStore()))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, srv.Client())
	if err := c.CreateBucket("b"); err != nil {
		b.Fatal(err)
	}
	obj := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	b.SetBytes(2 * int64(len(obj)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put("b", "k", obj); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c.Get("b", "k"); err != nil {
			b.Fatal(err)
		}
	}
}
