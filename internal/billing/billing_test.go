package billing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gowren/internal/faas"
)

var t0 = time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)

func act(start, end time.Duration, done bool) faas.Activation {
	a := faas.Activation{StartAt: t0.Add(start)}
	if done {
		a.EndAt = t0.Add(end)
	}
	return a
}

func TestMeterActivations(t *testing.T) {
	acts := []faas.Activation{
		act(0, 10*time.Second, true),
		act(0, 500*time.Millisecond, true), // sub-second billing
		act(0, 0, false),                   // unfinished: not billed
	}
	u := MeterActivations(acts, 512)
	if u.Invocations != 2 {
		t.Fatalf("invocations = %d, want 2", u.Invocations)
	}
	if math.Abs(u.ComputeSeconds-10.5) > 1e-9 {
		t.Fatalf("compute seconds = %v", u.ComputeSeconds)
	}
	wantGBs := 0.5 * 10.5 // 512MB = 0.5GB
	if math.Abs(u.GBSeconds-wantGBs) > 1e-9 {
		t.Fatalf("GB-seconds = %v, want %v", u.GBSeconds, wantGBs)
	}
}

func TestMeterDefaultsMemory(t *testing.T) {
	u := MeterActivations([]faas.Activation{act(0, 2*time.Second, true)}, 0)
	if math.Abs(u.GBSeconds-1.0) > 1e-9 { // 512MB default × 2s
		t.Fatalf("GB-seconds = %v, want 1.0", u.GBSeconds)
	}
}

func TestCost(t *testing.T) {
	u := Usage{Invocations: 1000, GBSeconds: 100, StorageWrites: 2000, StorageReads: 5000}
	p := PriceTable{GBSecondUSD: 0.000017, RequestUSD: 0.0000002, StorageWriteUSD: 0.000005, StorageReadUSD: 0.0000004}
	want := 100*0.000017 + 1000*0.0000002 + 2000*0.000005 + 5000*0.0000004
	if got := u.Cost(p); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestUsageAddAndString(t *testing.T) {
	a := Usage{Invocations: 1, GBSeconds: 2, ComputeSeconds: 4, StorageWrites: 8, StorageReads: 16}
	b := Usage{Invocations: 10, GBSeconds: 20, ComputeSeconds: 40, StorageWrites: 80, StorageReads: 160}
	a.Add(b)
	if a.Invocations != 11 || a.GBSeconds != 22 || a.ComputeSeconds != 44 || a.StorageWrites != 88 || a.StorageReads != 176 {
		t.Fatalf("sum = %+v", a)
	}
	if s := a.String(); !strings.Contains(s, "11 invocations") {
		t.Fatalf("string = %q", s)
	}
}

func TestVMCost(t *testing.T) {
	p := VMPriceTable{HourUSD: 0.30}
	if got := p.VMCost(30 * time.Minute); math.Abs(got-0.15) > 1e-12 {
		t.Fatalf("vm cost = %v, want 0.15", got)
	}
}

func TestServerlessCheaperThanVMForBurst(t *testing.T) {
	// The economics the paper's intro gestures at: a 1000-way burst of
	// 50 s functions bills ~50 s × 1000 × 0.5 GB of GB-seconds, while
	// achieving the throughput of hundreds of VM-hours.
	var acts []faas.Activation
	for i := 0; i < 1000; i++ {
		acts = append(acts, act(0, 50*time.Second, true))
	}
	u := MeterActivations(acts, 512)
	serverless := u.Cost(IBMCloud2018())
	// Equivalent sequential VM time: 1000 × 50s ≈ 13.9 hours.
	vm := IBMVM2018().VMCost(time.Duration(1000) * 50 * time.Second)
	if serverless <= 0 || vm <= 0 {
		t.Fatal("degenerate prices")
	}
	// Same compute volume should cost the same order of magnitude; the
	// serverless win is elapsed time (88 s vs 14 h), not unit price.
	ratio := serverless / vm
	if ratio < 0.05 || ratio > 5 {
		t.Fatalf("cost ratio = %.3f, implausible price model", ratio)
	}
}

func TestCostNonNegativeProperty(t *testing.T) {
	p := IBMCloud2018()
	f := func(inv uint16, gbs float64, writes, reads uint16) bool {
		u := Usage{
			Invocations:   int(inv),
			GBSeconds:     math.Abs(gbs),
			StorageWrites: int64(writes),
			StorageReads:  int64(reads),
		}
		return u.Cost(p) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
