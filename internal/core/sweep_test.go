package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/vclock"
)

// statusListBlackhole delegates to an inner client but permanently fails
// every List over a status prefix with the transient ErrRequestFailed —
// the shape of a partition that pins down exactly the status namespace
// while the rest of the job traffic (payload puts, invoke path) still
// flows.
type statusListBlackhole struct {
	cos.Client
}

func (c *statusListBlackhole) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	if strings.Contains(prefix, "/"+statusPrefix+"/") {
		return cos.ListResult{}, cos.ErrRequestFailed
	}
	return c.Client.List(bucket, prefix, marker, maxKeys)
}

// TestDeadActivationSurfacedDuringListOutage is the regression test for
// the sweepConsultThreshold fall-through: when the status LIST fails
// transiently on every poll (a partitioned status prefix) and the
// activation died without committing a status record, the sweep must
// still consult activation records after a few consecutive failures and
// surface ErrCallFailed — instead of skipping the consult forever and
// spinning until the wait deadline.
func TestDeadActivationSurfacedDuringListOutage(t *testing.T) {
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CrashProb = 1.0 })
	exec := e.executor(t, func(c *Config) {
		c.Storage = &statusListBlackhole{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
	})
	e.clk.Run(func() {
		if _, err := exec.Map("add7", []any{1}); err != nil {
			t.Error(err)
			return
		}
		start := e.clk.Now()
		_, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want ErrCallFailed surfaced via activation records", err)
		}
		// The consult must kick in after sweepConsultThreshold polls, not
		// ride the outage all the way to the one-hour deadline.
		if waited := e.clk.Now().Sub(start); waited > 30*time.Minute {
			t.Errorf("failure took %v of virtual time to surface — consult threshold did not engage", waited)
		}
	})
}

// TestListFailureCounterResets drives the consecutive-failure bookkeeping
// through real sweeps over a faulty view: a successful LIST must clear the
// counter, so isolated transient failures never accumulate to the consult
// threshold, and each status namespace counts on its own.
func TestListFailureCounterResets(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	clk := vclock.NewVirtual()
	faulty := cos.NewFaulty(store, failing.Load)
	co := soloCoordinator(faulty, clk)
	a, b := nsKey{bucket: "meta", execID: "ex-a"}, nsKey{bucket: "meta", execID: "ex-b"}
	asOf := clk.Now()
	for i, step := range []struct {
		ns    nsKey
		fail  bool
		fails int
	}{
		{a, true, 1},
		{a, true, 2},
		{b, true, 1},
		{a, false, 0},
		{a, true, 1},
		{b, true, 2},
	} {
		failing.Store(step.fail)
		// Each sweep observes a later instant than the last, so none
		// coalesces onto a cached LIST.
		asOf = asOf.Add(time.Second)
		if out := co.sweep(&pendingSet{}, step.ns, asOf); out.err != nil || out.fails != step.fails {
			t.Fatalf("step %d (%s, fail=%v): outcome %+v, want fails = %d", i, step.ns.execID, step.fail, out, step.fails)
		}
	}
}

// soloCoordinator is a coordinator listing through storage with a hub of its
// own, for driving its sweeps directly.
func soloCoordinator(storage cos.Client, clk vclock.Clock) *sweepCoordinator {
	return newSweepCoordinator(newSweepHub(storage, clk), storage)
}

// committed reports whether ns's done-set holds callID.
func (c *sweepCoordinator) committed(ns nsKey, callID string) (ok bool) {
	c.withDone(ns, func(d *doneSet) { ok = d.has(callID) })
	return ok
}
