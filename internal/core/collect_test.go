package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/wire"
)

// Tests for completion-driven collection: statuses are fetched in parallel
// as calls finish, one GET per call, and the recoverer judges the fetched
// records. Everything is asserted in simulated time or in request counts, so
// the tests hold on any machine.

// constantLink is a failure-free link with a fixed round trip, so a test
// can count round trips on the clock.
func constantLink(rtt time.Duration) *netsim.Link {
	return netsim.NewLink(netsim.LinkConfig{RTT: netsim.Constant{D: rtt}})
}

// TestCollectFetchesStatusesInParallel: 200 calls that finish together, seen
// from a client 100 ms away with a 16-wide staging pool. The results must be
// in hand within ⌈200/16⌉ round trips plus two poll intervals of the last
// status commit; one GET at a time, as before, took 200 round trips.
func TestCollectFetchesStatusesInParallel(t *testing.T) {
	const (
		n    = 200
		conc = 16
		rtt  = 100 * time.Millisecond
		poll = 500 * time.Millisecond // ≥ 2 RTT, so the bound covers a LIST that just missed the last commit
	)
	// A free in-cloud link makes a status commit coincide with the
	// function's end, which the status record carries.
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CloudLink = netsim.Loopback() })
	exec := e.executor(t, func(c *Config) {
		c.Storage = cos.NewLinked(e.store, e.clk, constantLink(rtt))
		c.StageConcurrency = conc
		c.PollInterval = poll
	})
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = 15
		}
		futures, err := exec.Map("busy", args)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := exec.GetResult(GetResultOptions{}); err != nil {
			t.Error(err)
			return
		}
		inHand := e.clk.Now()
		var lastCommit time.Time
		for _, f := range futures {
			rec := f.cachedStatus()
			if rec == nil {
				t.Error("GetResult left no status record in hand")
				return
			}
			if end := time.Unix(0, rec.EndUnixNs); end.After(lastCommit) {
				lastCommit = end
			}
		}
		bound := time.Duration((n+conc-1)/conc)*rtt + 2*poll
		if lag := inHand.Sub(lastCommit); lag > bound {
			t.Errorf("results in hand %v after the last status commit, want ≤ %v (serial fetch: %v)",
				lag, bound, n*rtt)
		}
	})
}

// TestCollectOneStatusGetPerCallSpilled: a result too large to inline rides
// its status object after the record line, so it costs exactly one GET per
// call, as an inlined one does (pinned by
// TestCollectionListingScalesWithCompletions): no result object is written
// or read.
func TestCollectOneStatusGetPerCallSpilled(t *testing.T) {
	const n = 24
	e := newEnvWith(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("blob", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			var size int
			if err := wire.Unmarshal(arg, &size); err != nil {
				return nil, err
			}
			return strings.Repeat("x", size), nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	gets := &recordingClient{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
	exec := e.executor(t, func(c *Config) {
		c.Storage = gets
		c.StageConcurrency = 5
	})
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = 4 * inlineThreshold
		}
		if _, err := exec.Map("blob", args); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		for i, raw := range results {
			var s string
			if err := wire.Unmarshal(raw, &s); err != nil || len(s) != 4*inlineThreshold {
				t.Errorf("result %d: %d bytes, err %v", i, len(s), err)
			}
		}
	})
	if got := gets.gets(statusPrefix); got != n {
		t.Errorf("status GETs = %d, want %d (one per call)", got, n)
	}
	if got := exec.StorageOps().GetOps; got != n {
		t.Errorf("client GETs = %d, want %d: the status is the only object a spilled result is read from", got, n)
	}
	if got := gets.gets("result"); got != 0 {
		t.Errorf("result GETs = %d, want 0", got)
	}
}

// TestRecoveryThroughParallelFetch: failures discovered by the parallel
// fetch are handled exactly like ones the old one-at-a-time probe found. Odd
// arguments commit an OK=false status on every run: each is respawned
// MaxAttempts times, then dead-lettered, while the even calls settle on
// their first status. The client reads one status per run, no more.
func TestRecoveryThroughParallelFetch(t *testing.T) {
	const (
		n        = 40
		attempts = 2
	)
	e := newEnvWith(t, func(img *runtime.Image) {
		if err := img.RegisterPlain("failOdd", func(_ *runtime.Ctx, arg json.RawMessage) (any, error) {
			var x int
			if err := wire.Unmarshal(arg, &x); err != nil {
				return nil, err
			}
			if x%2 == 1 {
				return nil, fmt.Errorf("odd argument %d", x)
			}
			return x, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	gets := &recordingClient{Client: cos.NewLinked(e.store, e.clk, constantLink(20*time.Millisecond))}
	exec := e.executor(t, func(c *Config) {
		c.Storage = gets
		c.StageConcurrency = 8
	})
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.Map("failOdd", args); err != nil {
			t.Error(err)
			return
		}
		results, err := exec.GetResult(GetResultOptions{
			Recovery:       &RecoveryOptions{MaxAttempts: attempts, Backoff: 100 * time.Millisecond},
			PartialResults: true,
		})
		var pe *PartialError
		if !errors.As(err, &pe) || !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want a PartialError wrapping ErrCallFailed", err)
			return
		}
		if len(pe.Failed) != n/2 {
			t.Errorf("partial error lists %d calls, want %d", len(pe.Failed), n/2)
		}
		for i, raw := range results {
			if i%2 == 1 {
				if raw != nil {
					t.Errorf("result %d = %s, want nil for a dead-lettered call", i, raw)
				}
				continue
			}
			var x int
			if err := wire.Unmarshal(raw, &x); err != nil || x != i {
				t.Errorf("result %d = %s (err %v), want %d", i, raw, err, i)
			}
		}
		letters := exec.DeadLetters()
		if len(letters) != n/2 {
			t.Errorf("dead letters = %d, want %d", len(letters), n/2)
		}
		seen := make(map[string]bool)
		for i, d := range letters {
			seq, _ := callSeq(d.CallID)
			if seq%2 != 1 || seen[d.CallID] || d.Attempts != attempts || !strings.Contains(d.LastError, "odd argument") {
				t.Errorf("dead letter %d = %+v, want one per odd call after %d attempts", i, d, attempts)
			}
			seen[d.CallID] = true
			if i > 0 && d.GaveUpAt.Before(letters[i-1].GaveUpAt) {
				t.Errorf("dead letter %d given up at %v, before its predecessor", i, d.GaveUpAt)
			}
		}
	})
	runs := 0
	for _, a := range e.platform.Controller().Activations() {
		if strings.HasPrefix(a.Action, "gowren-runner--") {
			runs++
		}
	}
	if want := n/2 + (n/2)*(1+attempts); runs != want {
		t.Errorf("runner activations = %d, want %d (odd calls run 1+%d times)", runs, want, attempts)
	}
	if got, want := gets.gets(statusPrefix), runs; got != want {
		t.Errorf("status GETs = %d, want %d (one per run)", got, want)
	}
}

// TestDeadActivationsThroughCollect: calls whose activations die without
// committing a status have no record to fetch; the collection still respawns
// each the default number of times and then dead-letters it.
func TestDeadActivationsThroughCollect(t *testing.T) {
	const n = 12
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CrashProb = 1.0 })
	gets := &recordingClient{Client: cos.NewLinked(e.store, e.clk, constantLink(20*time.Millisecond))}
	exec := e.executor(t, func(c *Config) {
		c.Storage = gets
		c.StageConcurrency = 4
	})
	e.clk.Run(func() {
		args := make([]any, n)
		for i := range args {
			args[i] = i
		}
		if _, err := exec.Map("add7", args); err != nil {
			t.Error(err)
			return
		}
		_, err := exec.GetResult(GetResultOptions{Timeout: time.Hour})
		if !errors.Is(err, ErrCallFailed) {
			t.Errorf("err = %v, want ErrCallFailed", err)
		}
		letters := exec.DeadLetters()
		if len(letters) != n {
			t.Errorf("dead letters = %d, want %d", len(letters), n)
		}
		for _, d := range letters {
			if d.Attempts != DefaultRecoveryAttempts {
				t.Errorf("dead letter %s: %d attempts, want %d", d.CallID, d.Attempts, DefaultRecoveryAttempts)
			}
		}
	})
	if got := gets.gets(statusPrefix); got != 0 {
		t.Errorf("status GETs = %d, want 0 (no status was ever committed)", got)
	}
}

// TestCompositionChildrenFetchedInParallel: resolving a fan-out of 40
// children from a client 100 ms away with an 8-wide pool reads their statuses
// in ⌈40/8⌉ round trips, not 40 — and still one GET per child.
func TestCompositionChildrenFetchedInParallel(t *testing.T) {
	const (
		children = 40
		conc     = 8
		rtt      = 100 * time.Millisecond
	)
	e := newEnv(t, func(cfg *PlatformConfig) { cfg.CloudLink = netsim.Loopback() })
	gets := &recordingClient{Client: cos.NewLinked(e.store, e.clk, constantLink(rtt))}
	exec := e.executor(t, func(c *Config) {
		c.Storage = gets
		c.StageConcurrency = conc
	})
	e.clk.Run(func() {
		if _, err := exec.CallAsync("fanout", children); err != nil {
			t.Error(err)
			return
		}
		// Let the whole composition finish first, so the clock below
		// measures the client's collection alone.
		e.clk.Sleep(time.Minute)
		start := e.clk.Now()
		results, err := exec.GetResult(GetResultOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		var got []int
		if err := wire.Unmarshal(results[0], &got); err != nil || len(got) != children {
			t.Errorf("fan-out result = %s (err %v), want %d values", results[0], err, children)
		}
		// One lease renewal — journaling is on, and the minute above is past
		// leaseRenewInterval, so the first poll tick owes a conditional put.
		// Then parent: LIST + status GET; children: LIST + ⌈40/8⌉ GET rounds.
		want := time.Duration(4+(children+conc-1)/conc) * rtt
		if took := e.clk.Now().Sub(start); took > want {
			t.Errorf("collection took %v, want ≤ %v (serial child fetch: %v)", took, want, (4+children)*rtt)
		}
	})
	if got := gets.gets(statusPrefix); got != 1+children {
		t.Errorf("status GETs = %d, want %d", got, 1+children)
	}
}

// TestPoolsCompleteEveryIndex covers both pool flavours: every index runs
// once, errors land at their index, and a caller-runs pool of one runs
// inline, in index order.
func TestPoolsCompleteEveryIndex(t *testing.T) {
	e := newEnv(t, nil)
	boom := errors.New("boom")
	e.clk.Run(func() {
		for _, pool := range []struct {
			name string
			run  func(workers, n int, fn func(int) error) []error
		}{
			{"parallelFor", func(w, n int, fn func(int) error) []error { return parallelFor(e.clk, w, n, fn) }},
			{"fetchFor", func(w, n int, fn func(int) error) []error { return fetchFor(e.clk, w, n, fn) }},
		} {
			for _, workers := range []int{0, 1, 3, 64} {
				const n = 17
				var mu sync.Mutex
				var order []int
				errs := pool.run(workers, n, func(i int) error {
					e.clk.Sleep(time.Duration(n-i) * time.Millisecond)
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					if i%5 == 0 {
						return boom
					}
					return nil
				})
				if len(order) != n {
					t.Errorf("%s/%d workers: %d calls ran, want %d", pool.name, workers, len(order), n)
				}
				for i := 0; i < n; i++ {
					if got, want := errs[i], i%5 == 0; (got != nil) != want {
						t.Errorf("%s/%d workers: errs[%d] = %v", pool.name, workers, i, got)
					}
				}
				if workers <= 1 {
					for i, got := range order {
						if got != i {
							t.Errorf("%s/%d workers: ran %v, want index order", pool.name, workers, order)
							break
						}
					}
				}
			}
			if errs := pool.run(4, 9, func(int) error { return nil }); errs != nil {
				t.Errorf("%s: errs = %v, want nil when every call succeeds", pool.name, errs)
			}
		}
	})
}
