package cos

import (
	"bytes"
	"errors"
	"testing"
)

func TestStorePutIfCreateAndUpdate(t *testing.T) {
	s := NewStore()
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	// Empty ifMatch means "must not exist": the first create wins, the
	// second loses with ErrPreconditionFailed and changes nothing.
	m1, err := s.PutIf("b", "k", []byte("v1"), "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if m1.ETag != contentETag([]byte("v1")) {
		t.Fatalf("create etag = %q, want content etag", m1.ETag)
	}
	if _, err := s.PutIf("b", "k", []byte("loser"), ""); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("second create err = %v, want ErrPreconditionFailed", err)
	}
	if got, _, _ := s.Get("b", "k"); !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("losing create mutated the object: %q", got)
	}
	// A matching ETag swaps; the stale ETag from before the swap is then
	// rejected.
	m2, err := s.PutIf("b", "k", []byte("v2"), m1.ETag)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := s.PutIf("b", "k", []byte("v3"), m1.ETag); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("stale update err = %v, want ErrPreconditionFailed", err)
	}
	if got, lm, _ := s.Get("b", "k"); !bytes.Equal(got, []byte("v2")) || lm.ETag != m2.ETag {
		t.Fatalf("after stale update: %q (etag %q), want v2 (etag %q)", got, lm.ETag, m2.ETag)
	}
}

func TestMultiRegionPutIfFansOutAndFences(t *testing.T) {
	m, _, _, sa, sb := twoRegions(t)
	if err := m.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	va, err := m.View("us-south", "us-south")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := m.View("eu-gb", "eu-gb")
	if err != nil {
		t.Fatal(err)
	}
	// Create through one view: sync mode lands the bytes in both regions.
	m1, err := va.PutIf("b", "lease", []byte("epoch1"), "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for name, s := range map[string]*Store{"us-south": sa, "eu-gb": sb} {
		if got, _, err := s.Get("b", "lease"); err != nil || !bytes.Equal(got, []byte("epoch1")) {
			t.Fatalf("%s replica: %q, %v", name, got, err)
		}
	}
	// The losing creator — through the other view — is fenced.
	if _, err := vb.PutIf("b", "lease", []byte("rival"), ""); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("rival create err = %v, want ErrPreconditionFailed", err)
	}
	// A takeover through the other view invalidates the first view's ETag:
	// exactly the cross-driver fencing sequence the executor lease runs.
	if _, err := vb.PutIf("b", "lease", []byte("epoch2"), m1.ETag); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if _, err := va.PutIf("b", "lease", []byte("epoch1-renew"), m1.ETag); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatalf("stale renewal err = %v, want ErrPreconditionFailed", err)
	}
	if got, _, err := m.Get("b", "lease"); err != nil || !bytes.Equal(got, []byte("epoch2")) {
		t.Fatalf("after fencing: %q, %v", got, err)
	}
}

func TestMultiRegionPutIfRollsBackOnTotalFailure(t *testing.T) {
	m, ra, rb, _, _ := twoRegions(t)
	if err := m.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	m1, err := m.PutIf("b", "lease", []byte("v1"), "")
	if err != nil {
		t.Fatal(err)
	}
	// Every region down: the claim must roll back so the failed swap does
	// not burn the version — the caller's ETag stays valid for a retry.
	ra.down, rb.down = true, true
	if _, err := m.PutIf("b", "lease", []byte("v2"), m1.ETag); err == nil {
		t.Fatal("put-if with all regions down succeeded")
	}
	ra.down, rb.down = false, false
	if got, _, err := m.Get("b", "lease"); err != nil || !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("failed swap left state: %q, %v", got, err)
	}
	if _, err := m.PutIf("b", "lease", []byte("v2"), m1.ETag); err != nil {
		t.Fatalf("retry with the same etag after rollback: %v", err)
	}
}
