package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/wire"
)

// attachConfig builds a fresh driver config against the same platform — the
// storage stack a second process would assemble before AttachExecutor.
func (e *env) attachConfig() Config {
	return Config{
		Platform: e.platform,
		Storage:  cos.NewLinked(e.store, e.clk, netsim.Loopback()),
	}
}

func TestAttachResumesInFlightJob(t *testing.T) {
	e := newEnv(t, nil)
	exec1 := e.executor(t, nil)
	var results []int
	e.clk.Run(func() {
		futs, err := exec1.Map("busy", []any{5, 5, 5})
		if err != nil {
			t.Error(err)
			return
		}
		// The driver dies right after launch: all in-memory state is
		// abandoned, the activations keep running in the cloud.
		exec2, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if exec2.ID() != exec1.ID() {
			t.Errorf("attached executor id = %s, want %s", exec2.ID(), exec1.ID())
		}
		raws, err := exec2.GetResult(GetResultOptions{})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		results = decodeInts(t, raws)
		// The dead driver is fenced: its next job-state mutation fails.
		if err := exec1.Respawn(futs[:1]); !errors.Is(err, ErrFenced) {
			t.Errorf("old driver respawn err = %v, want ErrFenced", err)
		}
	})
	want := []int{5, 5, 5}
	if len(results) != len(want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v, want %v", results, want)
		}
	}
}

func TestAttachUnknownJobFails(t *testing.T) {
	e := newEnv(t, nil)
	e.clk.Run(func() {
		if _, err := AttachExecutor(e.attachConfig(), "no-such-job"); err == nil {
			t.Error("attach to unknown job succeeded")
		}
	})
}

// TestSameIDClaimFencesSecondDriver forces two executors onto one job ID
// over one store. The manifest's create-only PUT is the ID claim: the second
// driver is fenced before it stages anything, and the first job's manifest,
// namespace and results are untouched.
func TestSameIDClaimFencesSecondDriver(t *testing.T) {
	e := newEnv(t, nil)
	exec1 := e.executor(t, nil)
	exec2 := e.executor(t, nil)
	exec2.id = exec1.ID()
	meta := e.platform.MetaBucket()
	snapshot := func() (manifest []byte, etag string, keys []string) {
		body, m, err := e.store.Get(meta, manifestKey(exec1.ID()))
		if err != nil {
			t.Errorf("read manifest: %v", err)
		}
		listed, err := cos.ListAll(e.store, meta, "jobs/"+exec1.ID()+"/")
		if err != nil {
			t.Error(err)
		}
		for _, obj := range listed {
			keys = append(keys, obj.Key)
		}
		return body, m.ETag, keys
	}
	var results []int
	e.clk.Run(func() {
		if _, err := exec1.Map("busy", []any{5, 5, 5}); err != nil {
			t.Error(err)
			return
		}
		body1, etag1, keys1 := snapshot()
		if _, err := exec2.Map("busy", []any{7}); !errors.Is(err, ErrFenced) {
			t.Errorf("second driver's Map on a claimed ID: err = %v, want ErrFenced", err)
		}
		body2, etag2, keys2 := snapshot()
		if !bytes.Equal(body2, body1) || etag2 != etag1 {
			t.Errorf("first job's manifest changed under the second driver:\n%s (%s)\nwas\n%s (%s)", body2, etag2, body1, etag1)
		}
		if !slices.Equal(keys2, keys1) {
			t.Errorf("jobs/%s/ after the fenced Map = %v, want %v: the second driver staged something", exec1.ID(), keys2, keys1)
		}

		exec3, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach to the first job: %v", err)
			return
		}
		raws, err := exec3.GetResult(GetResultOptions{})
		if err != nil {
			t.Errorf("get result after attach: %v", err)
			return
		}
		results = decodeInts(t, raws)
	})
	if want := []int{5, 5, 5}; !slices.Equal(results, want) {
		t.Errorf("first job's results = %v, want %v", results, want)
	}
}

// count returns how many recorded requests are op on a key containing part.
func (c *recordingClient) count(op, part string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, o := range c.ops {
		if strings.HasPrefix(o, op+" ") && strings.Contains(o, part) {
			n++
		}
	}
	return n
}

// putFault fails every PUT of one key, as a storage outage on that object
// would; the retry stage in front of it retries, then gives up.
type putFault struct {
	cos.Client
	key   string
	tries atomic.Int64
}

func (c *putFault) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	if key == c.key {
		c.tries.Add(1)
		return cos.ObjectMeta{}, fmt.Errorf("injected fault on %s: %w", key, cos.ErrRequestFailed)
	}
	return c.Client.Put(bucket, key, data)
}

// statusKill fails the first status PUT of one call, so its activation dies
// without committing: the call is killed.
type statusKill struct {
	cos.Client
	callID string
	killed atomic.Bool
	// commits counts the call's status PUTs, the killed one included.
	commits atomic.Int64
	// afterCommit lets the status commit before the container dies.
	afterCommit bool
}

func (c *statusKill) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	mine := strings.HasSuffix(key, "/"+statusPrefix+"/"+c.callID)
	if mine {
		c.commits.Add(1)
	}
	if mine && c.killed.CompareAndSwap(false, true) {
		if !c.afterCommit {
			return cos.ObjectMeta{}, errors.New("injected: container killed before its status commit")
		}
		if _, err := c.Client.Put(bucket, key, data); err != nil {
			return cos.ObjectMeta{}, err
		}
		return cos.ObjectMeta{}, errors.New("injected: container killed after its status commit")
	}
	return c.Client.Put(bucket, key, data)
}

// statusHide leaves callID's status key out of the first status LIST, as a
// LIST that began before the status committed would.
type statusHide struct {
	cos.Client
	callID string
	hidden atomic.Bool
}

func (c *statusHide) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	res, err := c.Client.List(bucket, prefix, marker, maxKeys)
	if err != nil || !strings.HasSuffix(prefix, "/"+statusPrefix+"/") || !c.hidden.CompareAndSwap(false, true) {
		return res, err
	}
	res.Objects = slices.DeleteFunc(slices.Clone(res.Objects), func(o cos.ObjectMeta) bool {
		return strings.HasSuffix(o.Key, "/"+statusPrefix+"/"+c.callID)
	})
	return res, nil
}

// TestAttachAfterFailedBatchPut: a first launch whose batch PUT fails after
// the invocations returns the error; its calls run untracked under IDs the
// manifest reserved, so the driver that attaches mints above them and its own
// Map shares no status key with the orphans.
func TestAttachAfterFailedBatchPut(t *testing.T) {
	e := newEnv(t, nil)
	fault := &putFault{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
	exec1 := e.executor(t, func(cfg *Config) { cfg.Storage = fault })
	fault.key = batchKey(exec1.ID(), 0, 3)
	meta := e.platform.MetaBucket()
	var results []int
	var fresh []*Future
	e.clk.Run(func() {
		if _, err := exec1.Map("add7", []any{1, 2, 3}); err == nil || !strings.Contains(err.Error(), "after invoking") {
			t.Errorf("Map with its batch PUT failing: err = %v, want the staging error", err)
			return
		}
		if got := fault.tries.Load(); got != executorStorageAttempts {
			t.Errorf("batch PUT tried %d times, want the retry stage's %d", got, executorStorageAttempts)
		}
		if n := len(exec1.Futures()); n != 0 {
			t.Errorf("failed Map tracked %d futures, want none", n)
		}
		e.clk.Sleep(10 * time.Second) // the orphans run and commit

		exec2, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if n := len(exec2.Futures()); n != 0 {
			t.Errorf("attach adopted %d futures, want none: the launch record never landed", n)
		}
		if exec2.nextID != 3 {
			t.Errorf("attached driver's next call = %d, want 3: the manifest reserved 00000+3", exec2.nextID)
		}
		if fresh, err = exec2.Map("add7", []any{10, 20}); err != nil {
			t.Error(err)
			return
		}
		raws, err := exec2.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		results = decodeInts(t, raws)
	})
	if t.Failed() {
		return
	}
	if want := []int{17, 27}; !slices.Equal(results, want) {
		t.Errorf("attached driver's results = %v, want %v", results, want)
	}
	for i, f := range fresh {
		if want := callIDForSeq(3 + i); f.callID != want {
			t.Errorf("new call %d has ID %s, want %s", i, f.callID, want)
		}
	}
	// The orphans ran on their own lines and their statuses are theirs.
	for i, want := range []string{"8", "9", "10"} {
		body, _, err := e.store.Get(meta, statusKey(exec1.ID(), callIDForSeq(i)))
		if err != nil {
			t.Errorf("orphan %d committed no status: %v", i, err)
			continue
		}
		rec, _, err := wire.DecodeStatus(body)
		if err != nil {
			t.Error(err)
			continue
		}
		var env wire.ResultEnvelope
		if err := wire.Unmarshal(rec.Inline, &env); err != nil || string(env.Value) != want {
			t.Errorf("orphan %d status carries %s (err %v), want %s", i, env.Value, err, want)
		}
	}
}

// TestAttachAdoptsFirstLaunchFromBatch: a driver that abandons its job right
// after a first launch leaves the launch record as the last line of the
// batch. Attach adopts every call with the activation that record names,
// respawns the one that was killed — whose runner reads its line from that
// batch — and the resolver spends nothing: the batch's one GET located every
// call.
func TestAttachAdoptsFirstLaunchFromBatch(t *testing.T) {
	var fn *cos.Stack
	kill := &statusKill{callID: "00001"}
	e := newEnv(t, func(cfg *PlatformConfig) {
		fn = cos.NewCounting(cfg.Store)
		kill.Client = fn
		cfg.Backend = kill
	})
	exec1 := e.executor(t, nil)
	spy := &recordingClient{Client: cos.NewLinked(e.store, e.clk, netsim.Loopback())}
	cfg := e.attachConfig()
	cfg.Storage = spy
	var (
		launched []*Future
		adopted  []string
		results  []int
		acts     int // activations when AttachExecutor returned
	)
	e.clk.Run(func() {
		var err error
		if launched, err = exec1.Map("add7", []any{1, 2, 3}); err != nil {
			t.Error(err)
			return
		}
		if ops := exec1.StorageOps(); ops.PutOps != 2 {
			t.Errorf("first launch PUTs = %d, want 2: the manifest and the batch carrying the launch record", ops.PutOps)
		}
		e.clk.Sleep(10 * time.Second) // the driver is gone; the calls run out
		if got := fn.Counts().GetOps; got != 0 {
			t.Errorf("cloud-side GETs before the attach = %d, want 0: every call rode inline", got)
		}

		exec2, err := AttachExecutor(cfg, exec1.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		acts = len(e.platform.Controller().Activations())
		for _, f := range exec2.Futures() {
			adopted = append(adopted, f.activationID)
		}
		raws, err := exec2.GetResult(GetResultOptions{Timeout: time.Hour})
		if err != nil {
			t.Error(err)
			return
		}
		results = decodeInts(t, raws)
	})
	if t.Failed() {
		return
	}
	if want := []int{8, 9, 10}; !slices.Equal(results, want) {
		t.Errorf("results = %v, want %v", results, want)
	}
	if len(adopted) != len(launched) {
		t.Fatalf("attach adopted %d calls, want %d", len(adopted), len(launched))
	}
	for i, f := range launched {
		switch {
		case f.callID == kill.callID && adopted[i] == f.activationID:
			t.Errorf("killed call %d still holds activation %s: Attach did not respawn it", i, adopted[i])
		case f.callID != kill.callID && adopted[i] != f.activationID:
			t.Errorf("call %d adopted activation %q, want %s from the launch record", i, adopted[i], f.activationID)
		}
	}
	// The respawn is Attach's own, not GetResult's recovery.
	if acts != 4 {
		t.Errorf("activations when Attach returned = %d, want 3 calls and one respawn", acts)
	}
	if got := len(e.platform.Controller().Activations()); got != 4 {
		t.Errorf("activations = %d, want 3 calls and one respawn", got)
	}
	// The one payload LIST is recoverNextID's high-water mark; the resolver
	// would add a second, and a GET.
	batch := batchKey(exec1.ID(), 0, 3)
	if lists, gets := spy.count("LIST", "/"+payloadPrefix+"/"), spy.count("GET", batch); lists != 1 || gets != 1 {
		t.Errorf("attached driver's payload requests = %d LISTs and %d GETs, want 1 and 1: the ID high-water mark and the replay's read of %s", lists, gets, batch)
	}
	if got := fn.Counts().GetOps; got != 1 {
		t.Errorf("cloud-side GETs = %d, want 1: the respawned runner's range read of its line", got)
	}
}

// TestAttachRespawnsDeadCall: a call whose activation died without
// committing a status is respawned by Attach itself — the catch-up sweep's
// probe marking it failed must not make it look finished — so a Wait after
// Attach sees the respawned run, not the dead one. A call whose activation
// died after its status committed, unseen by the catch-up LIST, finished:
// Attach adopts it as done and runs it no second time.
func TestAttachRespawnsDeadCall(t *testing.T) {
	for _, tc := range []struct {
		name        string
		afterCommit bool
		respawns    int
	}{
		{"dies before its commit", false, 1},
		{"dies after its commit", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kill := &statusKill{callID: "00001", afterCommit: tc.afterCommit}
			e := newEnv(t, func(cfg *PlatformConfig) {
				kill.Client = cfg.Store
				cfg.Backend = kill
			})
			exec1 := e.executor(t, nil)
			e.clk.Run(func() {
				if _, err := exec1.Map("add7", []any{1, 2, 3}); err != nil {
					t.Error(err)
					return
				}
				e.clk.Sleep(10 * time.Second) // the driver is gone; call 00001 dies
				ctrl := e.platform.Controller()
				before := len(ctrl.Activations())
				cfg := e.attachConfig()
				cfg.Storage = &statusHide{Client: cfg.Storage, callID: "00001"}
				exec2, err := AttachExecutor(cfg, exec1.ID())
				if err != nil {
					t.Errorf("attach: %v", err)
					return
				}
				if got := len(ctrl.Activations()) - before; got != tc.respawns {
					t.Errorf("activations started by Attach = %d, want %d", got, tc.respawns)
				}
				done, pending, err := exec2.Wait(WaitAllCompleted, e.clk.Now().Add(time.Hour))
				if err != nil || len(pending) != 0 {
					t.Errorf("Wait(AllCompleted) after Attach: %d pending, err %v", len(pending), err)
					return
				}
				if got := len(ctrl.Activations()) - before; got != tc.respawns {
					t.Errorf("activations started by Attach and Wait = %d, want %d", got, tc.respawns)
				}
				errs := exec2.fetchStatuses(done)
				for i, f := range done {
					if errs != nil && errs[i] != nil {
						t.Errorf("call %s: %v", f.CallID(), errs[i])
					} else if err := f.outcome(); err != nil {
						t.Errorf("call %s after Wait: %v, want OK", f.CallID(), err)
					}
				}
			})
		})
	}
}

// TestAttachFencesOldDriverLaunch: once Attach has taken the job over, the
// old driver's next launch re-asserts its lease, is fenced, and writes and
// invokes nothing.
func TestAttachFencesOldDriverLaunch(t *testing.T) {
	e := newEnv(t, nil)
	exec1 := e.executor(t, nil)
	meta := e.platform.MetaBucket()
	snapshot := func() (keys []string) {
		for _, prefix := range []string{"jobs/" + exec1.ID() + "/", manifestKey(exec1.ID())} {
			listed, err := cos.ListAll(e.store, meta, prefix)
			if err != nil {
				t.Error(err)
			}
			for _, obj := range listed {
				keys = append(keys, obj.Key+" "+obj.ETag)
			}
		}
		return keys
	}
	e.clk.Run(func() {
		if _, err := exec1.Map("add7", []any{1, 2}); err != nil {
			t.Error(err)
			return
		}
		if _, err := AttachExecutor(e.attachConfig(), exec1.ID()); err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		before, acts := snapshot(), len(e.platform.Controller().Activations())
		if _, err := exec1.Map("add7", []any{3}); !errors.Is(err, ErrFenced) {
			t.Errorf("superseded driver's Map: err = %v, want ErrFenced", err)
		}
		if after := snapshot(); !slices.Equal(after, before) {
			t.Errorf("superseded driver's Map changed the job:\n%v\nwas\n%v", after, before)
		}
		if got := len(e.platform.Controller().Activations()); got != acts {
			t.Errorf("superseded driver's Map invoked %d calls, want none", got-acts)
		}
	})
}

// TestAttachRespawnsDeadFanInInput: a map of a MapReduce whose activation
// died without committing a status holds its reducer back. The driver that
// attaches rebuilds the stage barrier with the maps as its inputs, so its
// wait loop respawns the dead map, once, and the reducer launches behind it.
func TestAttachRespawnsDeadFanInInput(t *testing.T) {
	kill := &statusKill{callID: "00001"}
	e := newEnv(t, func(cfg *PlatformConfig) {
		kill.Client = cfg.Store
		cfg.Backend = kill
	})
	exec1 := e.executor(t, nil)
	var raws []json.RawMessage
	e.clk.Run(func() {
		if _, err := exec1.MapReduce("add7", InlineValues{1, 2, 3}, "sum", MapReduceOptions{}); err != nil {
			t.Error(err)
			return
		}
		e.clk.Sleep(10 * time.Second) // the driver is gone; map 00001 dies
		exec2, err := AttachExecutor(e.attachConfig(), exec1.ID())
		if err != nil {
			t.Errorf("attach: %v", err)
			return
		}
		if raws, err = exec2.GetResult(GetResultOptions{Timeout: time.Hour}); err != nil {
			t.Errorf("get result after attach: %v", err)
		}
	})
	if t.Failed() {
		return
	}
	var red struct{ Total, Parts int }
	if len(raws) != 1 {
		t.Fatalf("results = %s, want one reducer's", raws)
	}
	if err := wire.Unmarshal(raws[0], &red); err != nil || red.Total != 27 || red.Parts != 3 {
		t.Errorf("reducer result = %s (err %v), want total 27 over 3 parts", raws[0], err)
	}
	if got := kill.commits.Load(); got != 2 {
		t.Errorf("status PUTs of map %s = %d, want 2: the killed one and one respawn", kill.callID, got)
	}
	// Three maps, the respawn and the reducer.
	if got := len(e.platform.Controller().Activations()); got != 5 {
		t.Errorf("activations = %d, want 5", got)
	}
}
