package faas

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// testEnv wires a controller over a fresh registry/store/virtual clock.
type testEnv struct {
	clk   *vclock.Virtual
	reg   *runtime.Registry
	store *cos.Store
	ctrl  *Controller
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	clk := vclock.NewVirtual()
	reg := runtime.NewRegistry()
	img := runtime.NewImage(runtime.DefaultImage, 100)
	if err := reg.Publish(img); err != nil {
		t.Fatal(err)
	}
	store := cos.NewStore()
	cfg := Config{Clock: clk, Registry: reg, Storage: store}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{clk: clk, reg: reg, store: store, ctrl: ctrl}
}

// sleepAction registers an action whose handler charges d of compute.
func (e *testEnv) sleepAction(t *testing.T, name string, d time.Duration) {
	t.Helper()
	err := e.ctrl.CreateAction(ActionSpec{
		Name:  name,
		Image: runtime.DefaultImage,
		Handler: func(ctx *runtime.Ctx, params []byte) ([]byte, error) {
			if err := ctx.ChargeCompute(d); err != nil {
				return nil, err
			}
			return []byte(`"done"`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// warmContainers counts the idle warm containers of an action.
func warmContainers(c *Controller, action string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.warm[action])
}

func TestNewValidation(t *testing.T) {
	clk := vclock.NewVirtual()
	reg := runtime.NewRegistry()
	store := cos.NewStore()
	cases := []Config{
		{Registry: reg, Storage: store},
		{Clock: clk, Storage: store},
		{Clock: clk, Registry: reg},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: config accepted without required field", i)
		}
	}
}

func TestCreateActionValidation(t *testing.T) {
	e := newEnv(t, nil)
	h := func(*runtime.Ctx, []byte) ([]byte, error) { return nil, nil }
	if err := e.ctrl.CreateAction(ActionSpec{Image: runtime.DefaultImage, Handler: h}); err == nil {
		t.Fatal("nameless action accepted")
	}
	if err := e.ctrl.CreateAction(ActionSpec{Name: "a", Image: runtime.DefaultImage}); err == nil {
		t.Fatal("handlerless action accepted")
	}
	if err := e.ctrl.CreateAction(ActionSpec{Name: "a", Image: "ghost:1", Handler: h}); !errors.Is(err, runtime.ErrImageNotFound) {
		t.Fatalf("unknown image err = %v", err)
	}
	if err := e.ctrl.CreateAction(ActionSpec{Name: "a", Image: runtime.DefaultImage, Handler: h, MemoryMB: MaxMemoryMB + 1}); !errors.Is(err, ErrMemoryLimit) {
		t.Fatalf("memory err = %v", err)
	}
	if err := e.ctrl.CreateAction(ActionSpec{Name: "a", Image: runtime.DefaultImage, Handler: h}); err != nil {
		t.Fatal(err)
	}
	if err := e.ctrl.CreateAction(ActionSpec{Name: "a", Image: runtime.DefaultImage, Handler: h}); !errors.Is(err, ErrActionExists) {
		t.Fatalf("duplicate err = %v", err)
	}
	if got := e.ctrl.Actions(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Actions() = %v", got)
	}
}

func TestInvokeRunsHandlerAndRecords(t *testing.T) {
	e := newEnv(t, nil)
	e.sleepAction(t, "work", 50*time.Second)
	var id string
	e.clk.Run(func() {
		var err error
		id, err = e.ctrl.Invoke("work", nil)
		if err != nil {
			t.Error(err)
		}
	})
	rec, err := e.ctrl.Activation(id)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Done() || !rec.OK {
		t.Fatalf("activation not finished ok: %+v", rec)
	}
	if string(rec.Result) != `"done"` {
		t.Fatalf("result = %q", rec.Result)
	}
	if !rec.ColdStart {
		t.Fatal("first activation must be a cold start")
	}
	if run := rec.EndAt.Sub(rec.StartAt); run != 50*time.Second {
		t.Fatalf("handler span = %v, want 50s", run)
	}
	if rec.StartAt.Before(rec.SubmitAt) {
		t.Fatal("start before submit")
	}
}

func TestInvokeUnknownAction(t *testing.T) {
	e := newEnv(t, nil)
	e.clk.Run(func() {
		if _, err := e.ctrl.Invoke("ghost", nil); !errors.Is(err, ErrNoSuchAction) {
			t.Errorf("err = %v, want ErrNoSuchAction", err)
		}
	})
}

func TestActivationUnknownID(t *testing.T) {
	e := newEnv(t, nil)
	if _, err := e.ctrl.Activation("act-404"); !errors.Is(err, ErrNoActivation) {
		t.Fatalf("err = %v", err)
	}
}

func TestWarmReuse(t *testing.T) {
	e := newEnv(t, nil)
	e.sleepAction(t, "work", time.Second)
	e.clk.Run(func() {
		id1, err := e.ctrl.Invoke("work", nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Wait for completion, then invoke again: the container is warm.
		vclock.Poll(e.clk, func() bool {
			rec, err := e.ctrl.Activation(id1)
			return err == nil && rec.Done()
		}, 10*time.Millisecond, time.Time{})
		id2, err := e.ctrl.Invoke("work", nil)
		if err != nil {
			t.Error(err)
			return
		}
		vclock.Poll(e.clk, func() bool {
			rec, err := e.ctrl.Activation(id2)
			return err == nil && rec.Done()
		}, 10*time.Millisecond, time.Time{})
		rec1, _ := e.ctrl.Activation(id1)
		rec2, _ := e.ctrl.Activation(id2)
		if !rec1.ColdStart {
			t.Error("first start should be cold")
		}
		if rec2.ColdStart {
			t.Error("second start should be warm")
		}
		cold := rec1.StartAt.Sub(rec1.SubmitAt)
		warmD := rec2.StartAt.Sub(rec2.SubmitAt)
		if warmD >= cold {
			t.Errorf("warm start (%v) not faster than cold (%v)", warmD, cold)
		}
	})
}

func TestKeepAliveExpiry(t *testing.T) {
	e := newEnv(t, nil)
	e.sleepAction(t, "work", time.Second)
	e.clk.Run(func() {
		id1, err := e.ctrl.Invoke("work", nil)
		if err != nil {
			t.Error(err)
			return
		}
		vclock.Poll(e.clk, func() bool {
			rec, _ := e.ctrl.Activation(id1)
			return rec.Done()
		}, 10*time.Millisecond, time.Time{})
		if warmContainers(e.ctrl, "work") != 1 {
			t.Error("container not kept warm after completion")
		}
		e.clk.Sleep(keepAlive + time.Minute) // outlive the keep-alive
		id2, err := e.ctrl.Invoke("work", nil)
		if err != nil {
			t.Error(err)
			return
		}
		vclock.Poll(e.clk, func() bool {
			rec, _ := e.ctrl.Activation(id2)
			return rec.Done()
		}, 10*time.Millisecond, time.Time{})
		rec2, _ := e.ctrl.Activation(id2)
		if !rec2.ColdStart {
			t.Error("expired container should force a cold start")
		}
	})
}

func TestFirstColdStartPaysImagePull(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Seed = 3 }) // 100 MB image → 0.83 s pull
	e.sleepAction(t, "a", time.Second)
	e.sleepAction(t, "b", time.Second)
	e.clk.Run(func() {
		idA, err := e.ctrl.Invoke("a", nil)
		if err != nil {
			t.Error(err)
			return
		}
		vclock.Poll(e.clk, func() bool {
			rec, _ := e.ctrl.Activation(idA)
			return rec.Done()
		}, 10*time.Millisecond, time.Time{})
		// Action b uses the same image: its cold start must skip the pull.
		idB, err := e.ctrl.Invoke("b", nil)
		if err != nil {
			t.Error(err)
			return
		}
		vclock.Poll(e.clk, func() bool {
			rec, _ := e.ctrl.Activation(idB)
			return rec.Done()
		}, 10*time.Millisecond, time.Time{})
		recA, _ := e.ctrl.Activation(idA)
		recB, _ := e.ctrl.Activation(idB)
		if !recA.ColdStart || !recB.ColdStart {
			t.Error("both starts should be cold (different actions)")
		}
		setupA := recA.StartAt.Sub(recA.SubmitAt)
		setupB := recB.StartAt.Sub(recB.SubmitAt)
		if setupA < setupB+500*time.Millisecond {
			t.Errorf("first cold start %v should exceed cached cold start %v by the ~1s pull", setupA, setupB)
		}
	})
}

func TestThrottlingAt429(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.MaxConcurrent = 5 })
	e.sleepAction(t, "work", time.Hour)
	var throttled int
	var mu sync.Mutex
	e.clk.Run(func() {
		for i := 0; i < 8; i++ {
			e.clk.Go(func() {
				_, err := e.ctrl.Invoke("work", nil)
				if errors.Is(err, ErrThrottled) {
					mu.Lock()
					throttled++
					mu.Unlock()
				} else if err != nil {
					t.Error(err)
				}
			})
		}
		// Give invocations time to be admitted; the workers run 1h so
		// nothing completes meanwhile.
		e.clk.Sleep(10 * time.Second)
		if got := e.ctrl.InFlight(); got != 5 {
			t.Errorf("inflight = %d, want 5", got)
		}
	})
	if throttled != 3 {
		t.Fatalf("throttled = %d, want 3", throttled)
	}
}

func TestUnlimitedConcurrency(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.MaxConcurrent = -1 })
	e.sleepAction(t, "work", time.Minute)
	var errs int
	var mu sync.Mutex
	e.clk.Run(func() {
		for i := 0; i < 2000; i++ {
			e.clk.Go(func() {
				if _, err := e.ctrl.Invoke("work", nil); err != nil {
					mu.Lock()
					errs++
					mu.Unlock()
				}
			})
		}
	})
	if errs != 0 {
		t.Fatalf("%d invocations failed under unlimited concurrency", errs)
	}
	if got := len(e.ctrl.Activations()); got != 2000 {
		t.Fatalf("activations = %d, want 2000", got)
	}
}

func TestAdmissionPipelineSerializesInvocations(t *testing.T) {
	const overhead = 10 * time.Millisecond
	e := newEnv(t, func(c *Config) { c.AdmitOverhead = overhead })
	e.sleepAction(t, "work", time.Second)
	start := e.clk.Now()
	const n = 100
	e.clk.Run(func() {
		for i := 0; i < n; i++ {
			e.clk.Go(func() {
				if _, err := e.ctrl.Invoke("work", nil); err != nil {
					t.Error(err)
				}
			})
		}
	})
	// All n requests arrive simultaneously; the pipeline alone needs
	// n*overhead before the last is admitted.
	elapsed := e.clk.Now().Sub(start)
	if elapsed < time.Duration(n)*overhead {
		t.Fatalf("elapsed %v < pipeline floor %v", elapsed, time.Duration(n)*overhead)
	}
}

func TestHandlerTimeoutEnforced(t *testing.T) {
	e := newEnv(t, nil)
	err := e.ctrl.CreateAction(ActionSpec{
		Name:    "slow",
		Image:   runtime.DefaultImage,
		Timeout: 30 * time.Second,
		Handler: func(ctx *runtime.Ctx, _ []byte) ([]byte, error) {
			if err := ctx.ChargeCompute(10 * time.Minute); err != nil {
				return nil, err
			}
			return []byte("unreachable"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	e.clk.Run(func() {
		id, err = e.ctrl.Invoke("slow", nil)
		if err != nil {
			t.Error(err)
		}
	})
	rec, err := e.ctrl.Activation(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OK {
		t.Fatal("over-deadline activation reported OK")
	}
	if !strings.Contains(rec.Error, "deadline") {
		t.Fatalf("error = %q, want deadline", rec.Error)
	}
	if run := rec.EndAt.Sub(rec.StartAt); run != 30*time.Second {
		t.Fatalf("killed after %v, want 30s", run)
	}
}

func TestTimeoutClampedToPlatformMax(t *testing.T) {
	e := newEnv(t, nil)
	err := e.ctrl.CreateAction(ActionSpec{
		Name:    "verylong",
		Image:   runtime.DefaultImage,
		Timeout: 2 * time.Hour,
		Handler: func(ctx *runtime.Ctx, _ []byte) ([]byte, error) {
			return nil, ctx.ChargeCompute(time.Hour)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	e.clk.Run(func() {
		id, _ = e.ctrl.Invoke("verylong", nil)
	})
	rec, _ := e.ctrl.Activation(id)
	if rec.OK {
		t.Fatal("activation beyond the 600s platform limit reported OK")
	}
	if run := rec.EndAt.Sub(rec.StartAt); run != DefaultTimeout {
		t.Fatalf("killed after %v, want %v", run, DefaultTimeout)
	}
}

func TestCrashInjection(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.CrashProb = 1.0 })
	e.sleepAction(t, "doomed", time.Second)
	var id string
	e.clk.Run(func() {
		id, _ = e.ctrl.Invoke("doomed", nil)
	})
	rec, _ := e.ctrl.Activation(id)
	if rec.OK || !strings.Contains(rec.Error, "crashed") {
		t.Fatalf("activation = %+v, want crash", rec)
	}
	if warmContainers(e.ctrl, "doomed") != 0 {
		t.Fatal("crashed container returned to the warm pool")
	}
}

func TestExecJitterStretchesRuntime(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.ExecJitter = netsim.Constant{D: 5 * time.Second}
	})
	e.sleepAction(t, "work", 10*time.Second)
	var id string
	e.clk.Run(func() {
		id, _ = e.ctrl.Invoke("work", nil)
	})
	rec, _ := e.ctrl.Activation(id)
	if run := rec.EndAt.Sub(rec.StartAt); run != 15*time.Second {
		t.Fatalf("runtime with jitter = %v, want 15s", run)
	}
}

func TestSpawnerFactoryWired(t *testing.T) {
	e := newEnv(t, nil)
	e.ctrl.SetSpawnerFactory(func(ctx *runtime.Ctx) runtime.Spawner { return stubSpawner{} })
	err := e.ctrl.CreateAction(ActionSpec{
		Name:  "composer",
		Image: runtime.DefaultImage,
		Handler: func(ctx *runtime.Ctx, _ []byte) ([]byte, error) {
			if _, err := ctx.Spawner(); err != nil {
				return nil, err
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	e.clk.Run(func() {
		id, _ = e.ctrl.Invoke("composer", nil)
	})
	rec, _ := e.ctrl.Activation(id)
	if !rec.OK {
		t.Fatalf("handler could not reach spawner: %+v", rec)
	}
}

type stubSpawner struct{}

func (stubSpawner) Spawn(string, []any) (*wire.FuturesRef, error) {
	return &wire.FuturesRef{}, nil
}

func (stubSpawner) Await(*wire.FuturesRef) ([]json.RawMessage, error) {
	return nil, nil
}

func TestConcurrencyTimelineFromActivations(t *testing.T) {
	// Sanity for the metrics pipeline downstream: with 3 concurrent 60s
	// functions, every activation overlaps the others.
	e := newEnv(t, nil)
	e.sleepAction(t, "work", 60*time.Second)
	e.clk.Run(func() {
		for i := 0; i < 3; i++ {
			e.clk.Go(func() {
				if _, err := e.ctrl.Invoke("work", nil); err != nil {
					t.Error(err)
				}
			})
		}
	})
	acts := e.ctrl.Activations()
	if len(acts) != 3 {
		t.Fatalf("activations = %d", len(acts))
	}
	for _, a := range acts {
		for _, b := range acts {
			if a.StartAt.After(b.EndAt) || b.StartAt.After(a.EndAt) {
				t.Fatalf("activations %s and %s do not overlap", a.ID, b.ID)
			}
		}
	}
}

func TestDeleteAction(t *testing.T) {
	e := newEnv(t, nil)
	e.sleepAction(t, "gone", time.Second)
	if err := e.ctrl.DeleteAction("gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.ctrl.DeleteAction("gone"); !errors.Is(err, ErrNoSuchAction) {
		t.Fatalf("double delete err = %v", err)
	}
	e.clk.Run(func() {
		if _, err := e.ctrl.Invoke("gone", nil); !errors.Is(err, ErrNoSuchAction) {
			t.Errorf("invoke deleted err = %v", err)
		}
	})
}

func TestCrashChargesPartialDuration(t *testing.T) {
	// A crashed activation must still be retrievable as a failed record
	// whose duration reflects the partial execution the platform bills:
	// the crash manifests at Timeout/10 into the run.
	e := newEnv(t, func(c *Config) { c.CrashProb = 1.0 })
	err := e.ctrl.CreateAction(ActionSpec{
		Name:    "doomed",
		Image:   runtime.DefaultImage,
		Timeout: 100 * time.Second,
		Handler: func(ctx *runtime.Ctx, params []byte) ([]byte, error) {
			t.Error("handler ran despite guaranteed crash")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var id string
	e.clk.Run(func() {
		id, err = e.ctrl.Invoke("doomed", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.ctrl.Activation(id)
	if err != nil {
		t.Fatalf("crashed activation not retrievable: %v", err)
	}
	if !rec.Done() || rec.OK {
		t.Fatalf("activation = %+v, want finished with error status", rec)
	}
	if !strings.Contains(rec.Error, "crashed") {
		t.Fatalf("error = %q, want crash", rec.Error)
	}
	if run := rec.EndAt.Sub(rec.StartAt); run != 10*time.Second {
		t.Fatalf("charged duration = %v, want Timeout/10 = 10s", run)
	}
	if rec.MemoryMB != DefaultMemoryMB {
		t.Fatalf("memory = %d, want %d for billing", rec.MemoryMB, DefaultMemoryMB)
	}
}

func TestOutageHookRejectsWith429(t *testing.T) {
	down := true
	e := newEnv(t, func(c *Config) { c.Outage = func() bool { return down } })
	e.sleepAction(t, "work", time.Second)
	e.clk.Run(func() {
		if _, err := e.ctrl.Invoke("work", nil); !errors.Is(err, ErrThrottled) {
			t.Errorf("err = %v, want ErrThrottled during outage", err)
		}
		down = false
		if _, err := e.ctrl.Invoke("work", nil); err != nil {
			t.Errorf("err = %v after outage lifted, want success", err)
		}
	})
}

func TestSlowFactorStretchesJitter(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.ExecJitter = netsim.Constant{D: 5 * time.Second}
		c.SlowFactor = func() float64 { return 3 }
	})
	e.sleepAction(t, "work", 10*time.Second)
	var id string
	e.clk.Run(func() {
		id, _ = e.ctrl.Invoke("work", nil)
	})
	rec, _ := e.ctrl.Activation(id)
	if run := rec.EndAt.Sub(rec.StartAt); run != 25*time.Second {
		t.Fatalf("runtime = %v, want 10s work + 3×5s jitter = 25s", run)
	}
}
