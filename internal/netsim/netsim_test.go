package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantSample(t *testing.T) {
	m := Constant{D: 42 * time.Millisecond}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := m.Sample(r); got != 42*time.Millisecond {
			t.Fatalf("sample = %v, want 42ms", got)
		}
	}
}

func TestUniformBounds(t *testing.T) {
	m := Uniform{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		got := m.Sample(r)
		if got < m.Min || got > m.Max {
			t.Fatalf("sample %v out of [%v,%v]", got, m.Min, m.Max)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	m := Uniform{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	r := rand.New(rand.NewSource(3))
	if got := m.Sample(r); got != 5*time.Millisecond {
		t.Fatalf("degenerate uniform = %v, want 5ms", got)
	}
	inverted := Uniform{Min: 9 * time.Millisecond, Max: time.Millisecond}
	if got := inverted.Sample(r); got != 9*time.Millisecond {
		t.Fatalf("inverted uniform = %v, want Min", got)
	}
}

func TestLogNormalPositiveAndCapped(t *testing.T) {
	m := LogNormal{Median: 100 * time.Millisecond, Sigma: 0.5, Cap: time.Second}
	r := rand.New(rand.NewSource(4))
	var over, total int
	for i := 0; i < 5000; i++ {
		got := m.Sample(r)
		if got < 0 {
			t.Fatalf("negative sample %v", got)
		}
		if got > time.Second {
			t.Fatalf("sample %v exceeds cap", got)
		}
		if got > 100*time.Millisecond {
			over++
		}
		total++
	}
	// Median property: roughly half the samples exceed the median.
	if over < total/3 || over > 2*total/3 {
		t.Fatalf("samples over median = %d/%d, want near half", over, total)
	}
}

func TestLinkRequestCostComponents(t *testing.T) {
	l := NewLink(LinkConfig{
		RTT:          Constant{D: 100 * time.Millisecond},
		PerRequest:   10 * time.Millisecond,
		BandwidthBps: 1 << 20, // 1 MiB/s
	})
	d, failed := l.RequestCost(1 << 20) // exactly one second of transfer
	if failed {
		t.Fatal("unexpected failure with FailureProb=0")
	}
	want := 100*time.Millisecond + 10*time.Millisecond + time.Second
	if d != want {
		t.Fatalf("cost = %v, want %v", d, want)
	}
}

func TestLinkZeroBandwidthIgnoresPayload(t *testing.T) {
	l := NewLink(LinkConfig{RTT: Constant{D: time.Millisecond}})
	small, _ := l.RequestCost(0)
	big, _ := l.RequestCost(1 << 30)
	if small != big {
		t.Fatalf("payload changed cost with zero bandwidth: %v vs %v", small, big)
	}
}

func TestLinkFailureRate(t *testing.T) {
	l := NewLink(LinkConfig{FailureProb: 0.25, Seed: 99})
	var failures int
	const n = 10000
	for i := 0; i < n; i++ {
		if _, failed := l.RequestCost(0); failed {
			failures++
		}
	}
	rate := float64(failures) / n
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("failure rate = %.3f, want ~0.25", rate)
	}
}

func TestLinkDeterministicForSeed(t *testing.T) {
	sample := func(seed int64) []time.Duration {
		l := WAN(seed)
		out := make([]time.Duration, 20)
		for i := range out {
			out[i], _ = l.RequestCost(1024)
		}
		return out
	}
	a, b := sample(7), sample(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sample(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestForkKeepsModelNotStream(t *testing.T) {
	// A fork draws exactly what a fresh link of the same profile and seed
	// draws, however much traffic its parent carried before or after.
	parent := InCloud(1)
	for i := 0; i < 5; i++ {
		parent.RequestCost(100)
	}
	fork, fresh := parent.Fork(4), InCloud(4)
	for i := 0; i < 20; i++ {
		parent.RequestCost(100)
		got, gotFail := fork.RequestCost(4096)
		want, wantFail := fresh.RequestCost(4096)
		if got != want || gotFail != wantFail {
			t.Fatalf("request %d: fork %v/%v, fresh link %v/%v", i, got, gotFail, want, wantFail)
		}
	}
}

func TestProfilesOrdering(t *testing.T) {
	// The WAN must be meaningfully slower than the in-cloud path; this is
	// the entire premise of the massive-spawning mechanism (paper §5.1).
	wan, cloud := WAN(1), InCloud(1)
	var wanSum, cloudSum time.Duration
	for i := 0; i < 200; i++ {
		d, _ := wan.RequestCost(1024)
		wanSum += d
		d, _ = cloud.RequestCost(1024)
		cloudSum += d
	}
	if wanSum < 20*cloudSum {
		t.Fatalf("WAN (%v) not ≫ in-cloud (%v)", wanSum/200, cloudSum/200)
	}
}

func TestLoopbackFree(t *testing.T) {
	l := Loopback()
	d, failed := l.RequestCost(1 << 30)
	if d != 0 || failed {
		t.Fatalf("loopback cost=%v failed=%v, want 0,false", d, failed)
	}
}

func TestLinkCostNonNegativeProperty(t *testing.T) {
	l := WAN(5)
	f := func(payload int32) bool {
		p := int64(payload)
		if p < 0 {
			p = -p
		}
		d, _ := l.RequestCost(p)
		return d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWANStorageProfileBetween(t *testing.T) {
	// The client→COS path must be faster than the client→gateway path but
	// far slower than the in-cloud path.
	wan, wanStore, cloud := WAN(3), WANStorage(3), InCloud(3)
	avg := func(l *Link) time.Duration {
		var sum time.Duration
		for i := 0; i < 300; i++ {
			d, _ := l.RequestCost(512)
			sum += d
		}
		return sum / 300
	}
	aWAN, aStore, aCloud := avg(wan), avg(wanStore), avg(cloud)
	if !(aCloud < aStore && aStore < aWAN) {
		t.Fatalf("ordering violated: cloud=%v store=%v wan=%v", aCloud, aStore, aWAN)
	}
}

func TestLogNormalUncapped(t *testing.T) {
	m := LogNormal{Median: 50 * time.Millisecond, Sigma: 0.3}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if d := m.Sample(r); d < 0 {
			t.Fatalf("negative sample %v", d)
		}
	}
}

func TestLinkTransferZeroPayload(t *testing.T) {
	l := NewLink(LinkConfig{BandwidthBps: 1 << 20})
	if got := l.Transfer(0); got != 0 {
		t.Fatalf("zero payload transfer = %v", got)
	}
	if got := l.Transfer(-5); got != 0 {
		t.Fatalf("negative payload transfer = %v", got)
	}
	if got := l.Transfer(1 << 20); got != time.Second {
		t.Fatalf("1MiB at 1MiB/s = %v", got)
	}
}

func TestLinkFailNoProb(t *testing.T) {
	l := Loopback()
	for i := 0; i < 100; i++ {
		if l.Fail() {
			t.Fatal("loopback failed")
		}
	}
}

func TestLinkDeterministicAcrossOpInterleavings(t *testing.T) {
	// All three randomness-consuming operations share one seeded PRNG, so
	// a fixed seed must reproduce the exact outcome stream for any fixed
	// interleaving of RequestCost, Latency and Fail calls.
	type outcome struct {
		d    time.Duration
		fail bool
	}
	run := func(seed int64) []outcome {
		l := NewLink(LinkConfig{
			RTT:         LogNormal{Median: 50 * time.Millisecond, Sigma: 0.4, Cap: time.Second},
			PerRequest:  5 * time.Millisecond,
			FailureProb: 0.3,
			Seed:        seed,
		})
		var out []outcome
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				d, f := l.RequestCost(int64(i) * 100)
				out = append(out, outcome{d, f})
			case 1:
				out = append(out, outcome{d: l.Latency()})
			default:
				out = append(out, outcome{fail: l.Fail()})
			}
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical mixed-op streams")
	}
}

func TestLogNormalNegativeClampOnOverflow(t *testing.T) {
	// An extreme median/sigma combination overflows the float→Duration
	// conversion; the clamp must keep every sample non-negative rather
	// than letting wrapped values surface as negative latencies.
	m := LogNormal{Median: time.Duration(1 << 62), Sigma: 4}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 5000; i++ {
		if d := m.Sample(r); d < 0 {
			t.Fatalf("sample %d negative: %v", i, d)
		}
	}
}

func TestLinkZeroBandwidthTransferFree(t *testing.T) {
	l := NewLink(LinkConfig{RTT: Constant{D: time.Millisecond}}) // BandwidthBps 0
	if got := l.Transfer(1 << 30); got != 0 {
		t.Fatalf("zero-bandwidth transfer of 1GiB = %v, want instantaneous", got)
	}
}
