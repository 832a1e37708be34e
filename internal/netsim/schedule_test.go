package netsim

import (
	"testing"
	"time"

	"gowren/internal/vclock"
)

func TestScheduleValidation(t *testing.T) {
	clk := vclock.NewVirtual()
	bad := []Phase{
		{Start: 10 * time.Second, End: 5 * time.Second},
		{Start: -time.Second, End: time.Second},
		{Start: 0, End: time.Second, FailureProb: 1.5},
		{Start: 0, End: time.Second, FailureProb: -0.1},
		{Start: 0, End: time.Second, LatencyFactor: -2},
		{Start: 0, End: time.Second, ExtraLatency: -time.Millisecond},
	}
	for i, p := range bad {
		if _, err := NewSchedule(clk, []Phase{p}); err == nil {
			t.Fatalf("phase %d (%+v) accepted, want error", i, p)
		}
	}
	if _, err := NewSchedule(nil, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewSchedule(clk, nil); err != nil {
		t.Fatalf("empty schedule rejected: %v", err)
	}
}

// partitioned reports whether a full-partition phase is active now.
func partitioned(s *Schedule) bool {
	p, ok := s.active()
	return ok && p.Partition
}

func TestNilScheduleInert(t *testing.T) {
	var s *Schedule
	if partitioned(s) {
		t.Fatal("nil schedule partitioned")
	}
	if got := s.degradeLatency(7 * time.Millisecond); got != 7*time.Millisecond {
		t.Fatalf("nil schedule changed latency: %v", got)
	}
	if prob, part := s.failureFloor(); prob != 0 || part {
		t.Fatalf("nil schedule floor = %v,%v", prob, part)
	}
}

func TestLatencyInflationWindow(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		sched, err := NewSchedule(clk, []Phase{
			{Start: 10 * time.Second, End: 20 * time.Second, LatencyFactor: 3, ExtraLatency: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLink(LinkConfig{RTT: Constant{D: 100 * time.Millisecond}})
		l.SetSchedule(sched)

		if got := l.Latency(); got != 100*time.Millisecond {
			t.Fatalf("before window: latency = %v, want 100ms", got)
		}
		clk.Sleep(10 * time.Second) // t=10s: window opens
		want := 350 * time.Millisecond
		if got := l.Latency(); got != want {
			t.Fatalf("inside window: latency = %v, want %v", got, want)
		}
		d, failed := l.RequestCost(0)
		if failed || d != want {
			t.Fatalf("inside window: cost = %v failed=%v, want %v,false", d, failed, want)
		}
		clk.Sleep(10 * time.Second) // t=20s: End is exclusive
		if got := l.Latency(); got != 100*time.Millisecond {
			t.Fatalf("after window: latency = %v, want 100ms", got)
		}
	})
	clk.Wait()
}

func TestPartitionWindow(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		sched, err := NewSchedule(clk, []Phase{
			{Start: 5 * time.Second, End: 15 * time.Second, Partition: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLink(LinkConfig{RTT: Constant{D: 10 * time.Millisecond}})
		l.SetSchedule(sched)

		if _, failed := l.RequestCost(0); failed {
			t.Fatal("failed before partition window")
		}
		if l.Fail() {
			t.Fatal("Fail() true before partition window")
		}
		clk.Sleep(5 * time.Second) // t=5s: partition starts
		if !partitioned(sched) {
			t.Fatal("schedule not partitioned at t=5s")
		}
		for i := 0; i < 50; i++ {
			d, failed := l.RequestCost(0)
			if !failed {
				t.Fatalf("request %d succeeded during partition", i)
			}
			if d < 10*time.Millisecond {
				t.Fatalf("partition dropped latency charge: %v", d)
			}
			if !l.Fail() {
				t.Fatalf("Fail() %d false during partition", i)
			}
		}
		clk.Sleep(10 * time.Second) // t=15s: partition heals
		if partitioned(sched) {
			t.Fatal("still partitioned after window")
		}
		if _, failed := l.RequestCost(0); failed {
			t.Fatal("failed after partition healed")
		}
	})
	clk.Wait()
}

func TestBrownoutFloorsFailureProb(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		sched, err := NewSchedule(clk, []Phase{
			{Start: 0, End: time.Hour, FailureProb: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		l := NewLink(LinkConfig{FailureProb: 0.01, Seed: 4})
		l.SetSchedule(sched)
		for i := 0; i < 20; i++ {
			if _, failed := l.RequestCost(0); !failed {
				t.Fatalf("request %d succeeded under prob-1 brownout", i)
			}
		}
	})
	clk.Wait()
}

func TestScheduleComposesPerLink(t *testing.T) {
	// Two links on one clock, each with its own schedule: partitioning one
	// region's path must not disturb the other.
	clk := vclock.NewVirtual()
	clk.Run(func() {
		partA, err := NewSchedule(clk, []Phase{{Start: 0, End: time.Minute, Partition: true}})
		if err != nil {
			t.Fatal(err)
		}
		slowB, err := NewSchedule(clk, []Phase{{Start: 0, End: time.Minute, LatencyFactor: 2}})
		if err != nil {
			t.Fatal(err)
		}
		a := NewLink(LinkConfig{RTT: Constant{D: time.Millisecond}})
		b := NewLink(LinkConfig{RTT: Constant{D: time.Millisecond}})
		a.SetSchedule(partA)
		b.SetSchedule(slowB)

		if _, failed := a.RequestCost(0); !failed {
			t.Fatal("link A not partitioned")
		}
		d, failed := b.RequestCost(0)
		if failed {
			t.Fatal("link B failed while only A is partitioned")
		}
		if d != 2*time.Millisecond {
			t.Fatalf("link B latency = %v, want 2ms", d)
		}
		clk.Sleep(time.Minute)
		if _, failed := a.RequestCost(0); failed {
			t.Fatal("link A still failing after its window")
		}
	})
	clk.Wait()
}

func TestOverlappingPhasesFirstWins(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		sched, err := NewSchedule(clk, []Phase{
			{Start: 0, End: 10 * time.Second, ExtraLatency: time.Millisecond},
			{Start: 5 * time.Second, End: 20 * time.Second, Partition: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		clk.Sleep(7 * time.Second) // both windows active
		if partitioned(sched) {
			t.Fatal("second phase won over first")
		}
		clk.Sleep(5 * time.Second) // t=12s: only the partition phase
		if !partitioned(sched) {
			t.Fatal("partition phase not active at t=12s")
		}
	})
	clk.Wait()
}

func TestScheduleEpochAnchoredAtCreation(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		clk.Sleep(30 * time.Second)
		sched, err := NewSchedule(clk, []Phase{{Start: 0, End: time.Second, Partition: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !partitioned(sched) {
			t.Fatal("window [0,1s) not active immediately after creation at t=30s")
		}
		clk.Sleep(time.Second)
		if partitioned(sched) {
			t.Fatal("window still active after 1s")
		}
	})
	clk.Wait()
}
