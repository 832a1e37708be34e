package chaos

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/vclock"
)

func TestPlanValidation(t *testing.T) {
	clk := vclock.NewVirtual()
	cases := []Fault{
		{Kind: "bogus", Start: 0, End: time.Second},
		{Kind: COSBrownout, Start: time.Second, End: time.Second},
		{Kind: COSBrownout, Start: -time.Second, End: time.Second},
		{Kind: COSBrownout, Start: 0, End: time.Second, Probability: 1.5},
		{Kind: SlowContainers, Start: 0, End: time.Second, Factor: -2},
	}
	for _, f := range cases {
		if _, err := NewPlan(clk, 0, []Fault{f}); err == nil {
			t.Errorf("fault %+v accepted, want error", f)
		}
	}
	if _, err := NewPlan(nil, 0, nil); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestWindowsActivateOnTheClock(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		plan, err := NewPlan(clk, 1, []Fault{
			{Kind: ControllerOutage, Start: 10 * time.Second, End: 20 * time.Second},
			{Kind: SlowContainers, Start: 30 * time.Second, End: 40 * time.Second, Factor: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.ControllerDown() {
			t.Error("outage active before its window")
		}
		clk.Sleep(15 * time.Second)
		if !plan.ControllerDown() {
			t.Error("outage inactive inside its window")
		}
		if plan.ExecFactor() != 1 {
			t.Errorf("exec factor = %v before slow window", plan.ExecFactor())
		}
		clk.Sleep(5 * time.Second) // t=20s: End is exclusive
		if plan.ControllerDown() {
			t.Error("outage active at End")
		}
		clk.Sleep(15 * time.Second) // t=35s
		if plan.ExecFactor() != 5 {
			t.Errorf("exec factor = %v inside slow window, want 5", plan.ExecFactor())
		}
	})
}

func TestNilPlanInert(t *testing.T) {
	var plan *Plan
	if plan.ControllerDown() || plan.StorageFailure() || plan.ExecFactor() != 1 {
		t.Fatal("nil plan not inert")
	}
	store := cos.NewStore()
	if got := WrapStorage(store, nil); got != cos.Client(store) {
		t.Fatal("nil plan should return inner client unchanged")
	}
}

func TestBrownoutFailsStorageDeterministically(t *testing.T) {
	run := func(seed int64) (fails int) {
		clk := vclock.NewVirtual()
		clk.Run(func() {
			plan, err := NewPlan(clk, seed, []Fault{
				{Kind: COSBrownout, Start: 0, End: time.Minute, Probability: 0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
			store := cos.NewStore()
			if err := store.CreateBucket("b"); err != nil {
				t.Fatal(err)
			}
			client := WrapStorage(store, plan)
			for i := 0; i < 200; i++ {
				if _, err := client.Put("b", "k", []byte("v")); errors.Is(err, cos.ErrRequestFailed) {
					fails++
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
		return fails
	}
	a, b := run(3), run(3)
	if a != b {
		t.Fatalf("same seed, different failure counts: %d vs %d", a, b)
	}
	if a < 50 || a > 150 {
		t.Fatalf("failure count %d wildly off a 0.5 brownout over 200 requests", a)
	}
	if c := run(4); c == a {
		t.Logf("different seeds coincided (%d); acceptable but unusual", c)
	}
}

func TestBrownoutEndsWithWindow(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Run(func() {
		plan, err := NewPlan(clk, 0, []Fault{
			{Kind: COSBrownout, Start: 0, End: 10 * time.Second, Probability: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		store := cos.NewStore()
		if err := store.CreateBucket("b"); err != nil {
			t.Fatal(err)
		}
		client := WrapStorage(store, plan)
		if _, err := client.Put("b", "k", []byte("v")); !errors.Is(err, cos.ErrRequestFailed) {
			t.Fatalf("in-window put err = %v, want ErrRequestFailed", err)
		}
		clk.Sleep(10 * time.Second)
		if _, err := client.Put("b", "k", []byte("v")); err != nil {
			t.Fatalf("post-window put err = %v", err)
		}
		if _, _, err := client.Get("b", "k"); err != nil {
			t.Fatalf("post-window get err = %v", err)
		}
	})
}

// TestBrownoutUnderConcurrentCallers: the plan's failure draw runs inside
// the storage request path, which every task of a simulation shares. Under
// -race this is the check that the draw and the path's counters can be; the
// ledger must close either way — every request counted, and the store
// reached by exactly those the brownout let through.
func TestBrownoutUnderConcurrentCallers(t *testing.T) {
	const tasks, each = 8, 50
	clk := vclock.NewVirtual()
	store := cos.NewStore()
	if err := store.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	var (
		client *cos.Stack
		failed atomic.Int64
	)
	clk.Run(func() {
		plan, err := NewPlan(clk, 1, []Fault{
			{Kind: COSBrownout, Start: 0, End: time.Minute, Probability: 0.5},
		})
		if err != nil {
			t.Error(err)
			return
		}
		client = cos.NewCounting(WrapStorage(store, plan))
		for i := 0; i < tasks; i++ {
			clk.Go(func() {
				for j := 0; j < each; j++ {
					if _, err := client.Put("b", "k", []byte("v")); errors.Is(err, cos.ErrRequestFailed) {
						failed.Add(1)
					} else if err != nil {
						t.Error(err)
					}
				}
			})
		}
	})
	if got := client.Counts().PutOps; got != tasks*each {
		t.Errorf("counted %d puts, want %d", got, tasks*each)
	}
	if got, want := store.Stats().PutOps, tasks*each-failed.Load(); got != want {
		t.Errorf("store served %d puts, want %d (%d failed in the brownout)", got, want, failed.Load())
	}
	if f := failed.Load(); f == 0 || f == tasks*each {
		t.Errorf("%d of %d requests failed under a 0.5 brownout", f, tasks*each)
	}
}
