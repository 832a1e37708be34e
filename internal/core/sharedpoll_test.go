package core

import (
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"gowren/internal/cos"
	"gowren/internal/netsim"
	"gowren/internal/runtime"
	"gowren/internal/vclock"
	"gowren/internal/wire"
)

// Tests for shared polls: executors that share one sweep hub
// (Config.SharePolls) list every armed status namespace in one pass.

// listEntry is one LIST a client issued: when it began, which executor's
// storage issued it, and its prefix.
type listEntry struct {
	at     time.Time
	by     string
	prefix string
}

// listLog records the LISTs its loggedClients issue, as they begin.
type listLog struct {
	clk   vclock.Clock
	mu    sync.Mutex
	lists []listEntry
}

func (l *listLog) entries() []listEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.lists)
}

// loggedClient is one executor's storage: it logs each LIST under by before
// passing it on. It is no cos.Stack, so no store watch is found through it.
type loggedClient struct {
	cos.Client
	log *listLog
	by  string
}

func (c *loggedClient) List(bucket, prefix, marker string, maxKeys int) (cos.ListResult, error) {
	c.log.mu.Lock()
	c.log.lists = append(c.log.lists, listEntry{at: c.log.clk.Now(), by: c.by, prefix: prefix})
	c.log.mu.Unlock()
	return c.Client.List(bucket, prefix, marker, maxKeys)
}

// commitLog is the platform's backend: it records when each status commits.
type commitLog struct {
	cos.Client
	clk     vclock.Clock
	mu      sync.Mutex
	commits map[string]time.Time // by status key
}

func (c *commitLog) Put(bucket, key string, data []byte) (cos.ObjectMeta, error) {
	m, err := c.Client.Put(bucket, key, data)
	if err == nil && strings.Contains(key, "/"+statusPrefix+"/") {
		c.mu.Lock()
		c.commits[key] = c.clk.Now()
		c.mu.Unlock()
	}
	return m, err
}

func (c *commitLog) at(key string) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits[key]
}

// registerNap registers "nap", which sleeps its argument in milliseconds of
// clock time and returns it.
func registerNap(t testing.TB, img *runtime.Image) {
	t.Helper()
	if err := img.RegisterPlain("nap", func(ctx *runtime.Ctx, arg json.RawMessage) (any, error) {
		var ms int
		if err := wire.Unmarshal(arg, &ms); err != nil {
			return nil, err
		}
		ctx.Clock().Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// sharedJob is what the driver of one single-call job saw.
type sharedJob struct {
	exec       *Executor
	waitStart  time.Time // GetResult began
	done       time.Time // GetResult returned
	commit     time.Time // the call's status committed
	result, ms int
}

// sharedExecutors builds n executors that poll through p's shared hub, the
// i-th over storage(i).
func sharedExecutors(t *testing.T, p *Platform, n int, storage func(by string) cos.Client) []*Executor {
	t.Helper()
	execs := make([]*Executor, n)
	for i := range execs {
		exec, err := NewExecutor(Config{Platform: p, Storage: storage(fmt.Sprint(i)), SharePolls: true})
		if err != nil {
			t.Fatal(err)
		}
		execs[i] = exec
	}
	return execs
}

// runSharedJobs drives one single-call "nap" job on each executor, all from
// one client: the i-th submitted at i×stagger and napping nap(i) ms. It
// returns once every job has its result.
func runSharedJobs(t *testing.T, clk vclock.Clock, commits *commitLog, execs []*Executor, stagger time.Duration, nap func(i int) int) []*sharedJob {
	t.Helper()
	jobs := make([]*sharedJob, len(execs))
	for i, exec := range execs {
		jobs[i] = &sharedJob{exec: exec, ms: nap(i)}
	}
	drive := func() {
		var (
			mu       sync.Mutex
			finished int
		)
		all := vclock.NewEvent(clk)
		for i, j := range jobs {
			clk.Go(func() {
				defer func() {
					mu.Lock()
					finished++
					mu.Unlock()
					all.Signal()
				}()
				clk.Sleep(time.Duration(i) * stagger)
				fs, err := j.exec.Map("nap", []any{j.ms})
				if err != nil {
					t.Error(err)
					return
				}
				j.waitStart = clk.Now()
				raws, err := j.exec.GetResult(GetResultOptions{Timeout: time.Hour})
				j.done = clk.Now()
				if err != nil {
					t.Errorf("job %d: %v", i, err)
					return
				}
				j.result = decodeInts(t, raws)[0]
				j.commit = commits.at(statusKey(fs[0].executorID, fs[0].callID))
			})
		}
		all.WaitFor(func() bool {
			mu.Lock()
			defer mu.Unlock()
			return finished == len(jobs)
		}, time.Time{})
	}
	if v, ok := clk.(*vclock.Virtual); ok {
		v.Run(drive)
	} else {
		drive()
	}
	for i, j := range jobs {
		if !t.Failed() && j.result != j.ms {
			t.Errorf("job %d result = %d, want %d", i, j.result, j.ms)
		}
	}
	return jobs
}

// sharedPollEnv is a platform whose in-cloud link is free and whose backend
// logs status commits, on clk.
func sharedPollEnv(t *testing.T, clk vclock.Clock) (*Platform, *cos.Store, *commitLog) {
	t.Helper()
	reg := runtime.NewRegistry()
	img := runtime.NewImage(runtime.DefaultImage, 100)
	registerTestFunctions(t, img)
	registerNap(t, img)
	if err := reg.Publish(img); err != nil {
		t.Fatal(err)
	}
	store := cos.NewStore()
	commits := &commitLog{Client: store, clk: clk, commits: make(map[string]time.Time)}
	p, err := NewPlatform(PlatformConfig{Clock: clk, Registry: reg, Store: store, Backend: commits, CloudLink: netsim.Loopback()})
	if err != nil {
		t.Fatal(err)
	}
	return p, store, commits
}

// TestDriverSharedPollStateGoesWithExecutor: a client that builds an
// executor per job, as gowren-server does for each request, keeps no sweep
// state for the jobs it has served. The platform's hub holds a namespace
// only while a wait is armed on it, and each executor's sweep state is freed
// with the executor.
func TestDriverSharedPollStateGoesWithExecutor(t *testing.T) {
	clk := vclock.NewVirtual()
	p, store, commits := sharedPollEnv(t, clk)
	const jobs = 20
	coordinators := make([]weak.Pointer[sweepCoordinator], 0, jobs)
	for range jobs {
		execs := sharedExecutors(t, p, 1, func(string) cos.Client { return cos.NewLinked(store, clk, netsim.Loopback()) })
		runSharedJobs(t, clk, commits, execs, 0, func(int) int { return 10 })
		if t.Failed() {
			return
		}
		coordinators = append(coordinators, weak.Make(execs[0].sweeps))
		p.sweeps.mu.Lock()
		armed := len(p.sweeps.armed)
		p.sweeps.mu.Unlock()
		if armed != 0 {
			t.Fatalf("hub holds %d armed namespaces with no wait running, want 0", armed)
		}
	}
	goruntime.GC()
	live := 0
	for _, c := range coordinators {
		if c.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of %d dropped executors' sweep states still reachable, want 0", live, jobs)
	}
	goruntime.KeepAlive(p) // the client lives on
}

// TestDriverSharedPollEightJobs: eight single-call jobs with staggered
// starts, each on its own executor of one client. While two or more wait,
// the client lists at most once per half poll interval, but for each wait's
// first tick, which lists whatever ran last; and every job still has its
// result within one poll interval plus one LIST and one GET of its status
// commit.
func TestDriverSharedPollEightJobs(t *testing.T) {
	const (
		interval = 50 * time.Millisecond // Config's default
		rtt      = 5 * time.Millisecond
	)
	clk := vclock.NewVirtual()
	p, store, commits := sharedPollEnv(t, clk)
	link := netsim.NewLink(netsim.LinkConfig{RTT: netsim.Constant{D: rtt}})
	log := &listLog{clk: clk}
	execs := sharedExecutors(t, p, 8, func(by string) cos.Client {
		return &loggedClient{Client: cos.NewLinked(store, clk, link), log: log, by: by}
	})
	jobs := runSharedJobs(t, clk, commits, execs, 17*time.Millisecond, func(i int) int { return 300 + 29*i })
	if t.Failed() {
		return
	}

	var worst time.Duration
	for i, j := range jobs {
		lag := j.done.Sub(j.commit)
		worst = max(worst, lag)
		if lag > interval+2*rtt {
			t.Errorf("job %d had its result %v after its status commit, want at most %v: one interval, one LIST and one GET",
				i, lag, interval+2*rtt)
		}
	}

	// The stretch over which two or more jobs wait.
	waiting := func(at time.Time) int {
		n := 0
		for _, j := range jobs {
			if !at.Before(j.waitStart) && at.Before(j.done) {
				n++
			}
		}
		return n
	}
	var (
		lists, firsts int
		from, to      time.Time
	)
	for _, l := range log.entries() {
		if waiting(l.at) < 2 {
			continue
		}
		if from.IsZero() {
			from = l.at
		}
		to = l.at
		lists++
		if i, _ := strconv.Atoi(l.by); l.at.Equal(jobs[i].waitStart) {
			firsts++
		}
	}
	if limit := int(to.Sub(from)/(interval/2)) + 1 + firsts; lists > limit {
		t.Errorf("%d LISTs over %v with two or more waiting (%d of them a wait's first), want at most %d: one per half interval",
			lists, to.Sub(from), firsts, limit)
	}
	var own int
	for _, j := range jobs {
		own += int(j.done.Sub(j.waitStart)/(interval+rtt)) + 1
	}
	t.Logf("%d LISTs in all, %d with two or more waiting (at most %d allowed); polling alone would take about %d; results at most %v after their commits",
		len(log.entries()), lists, int(to.Sub(from)/(interval/2))+1+firsts, own, worst)
}

// TestDriverSharedPollScaledClock is TestDriverSharedPollEightJobs on a
// wall-clock-driven clock, where the drivers poll on goroutines of their
// own over storage no watch reaches: every job gets its result, and the
// shared passes run under the race detector.
func TestDriverSharedPollScaledClock(t *testing.T) {
	clk := vclock.NewScaled(20)
	p, store, commits := sharedPollEnv(t, clk)
	log := &listLog{clk: clk}
	execs := sharedExecutors(t, p, 8, func(by string) cos.Client {
		return &loggedClient{Client: cos.NewLinked(store, clk, netsim.Loopback()), log: log, by: by}
	})
	runSharedJobs(t, clk, commits, execs, 17*time.Millisecond, func(i int) int { return 300 + 29*i })
}

// TestDriverSharedPollBound: 1,200 objects of an unrelated executor sit
// between two pending jobs' status prefixes, more than one LIST page. The
// union page cannot reach the second job, so no tick issues more than two
// LISTs — one per namespace it covers — the one that found out lists its
// namespace apart from then on, and both jobs finish.
func TestDriverSharedPollBound(t *testing.T) {
	clk := vclock.NewVirtual()
	p, store, commits := sharedPollEnv(t, clk)
	link := netsim.NewLink(netsim.LinkConfig{RTT: netsim.Constant{D: 5 * time.Millisecond}})
	log := &listLog{clk: clk}
	mk := func(by string) cos.Client {
		return &loggedClient{Client: cos.NewLinked(store, clk, link), log: log, by: by}
	}
	// Executor IDs are minted in order, so the filler's namespace sorts
	// between the two jobs'.
	first := sharedExecutors(t, p, 1, mk)[0]
	filler, err := NewExecutor(Config{Platform: p, Storage: mk("x")})
	if err != nil {
		t.Fatal(err)
	}
	second := sharedExecutors(t, p, 1, func(string) cos.Client { return mk("1") })[0]
	for i := range 1200 {
		if _, err := store.Put(p.MetaBucket(), jobKey(payloadPrefix, filler.ID(), callIDForSeq(i)), []byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	runSharedJobs(t, clk, commits, []*Executor{first, second}, 0, func(i int) int { return 400 + 300*i })
	if t.Failed() {
		return
	}
	// A tick's LISTs come from one driver back to back; the link charges
	// each 5 ms, so a tick's LISTs are under 10 ms apart and two ticks of
	// one driver are a poll interval apart.
	entries := log.entries()
	unions := 0
	for i, l := range entries {
		if !strings.HasSuffix(l.prefix, "/"+statusPrefix+"/") {
			unions++
		}
		n := 1
		for _, m := range entries[i+1:] {
			if m.by == l.by && m.at.Sub(l.at) < 10*time.Millisecond {
				n++
			}
		}
		if n > 2 {
			t.Errorf("driver %s issued %d LISTs in the tick at %v, want at most 2", l.by, n, l.at)
		}
	}
	if unions == 0 || unions > 2 {
		t.Errorf("union passes = %d, want 1 or 2: once one page shows the jobs apart, each lists alone", unions)
	}
}

// TestDriverSharedPollRespawnDuringUnion: a respawn in one namespace lands
// while a union LIST over it and another namespace is on the wire. Only
// that namespace drops the pass's harvest — the other keeps its own — and
// the respawned call is not reported done from the stale listing; the next
// pass observes the respawn's truth.
func TestDriverSharedPollRespawnDuringUnion(t *testing.T) {
	store := cos.NewStore()
	if err := store.CreateBucket("meta"); err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual()
	log := &listLog{clk: clk}
	hooked := &listHookClient{Client: &loggedClient{Client: store, log: log}}
	co := soloCoordinator(hooked, clk)
	a, b := nsKey{bucket: "meta", execID: "ex-a"}, nsKey{bucket: "meta", execID: "ex-b"}
	for _, ns := range []nsKey{a, b} {
		for _, id := range []string{"00000", "00001", "00002"} {
			if _, err := store.Put("meta", statusKey(ns.execID, id), []byte("{}")); err != nil {
				t.Fatal(err)
			}
		}
		co.arm(ns, vclock.NewEvent(clk))
	}
	hooked.afterList = func() {
		if err := store.Delete("meta", statusKey(b.execID, "00001")); err != nil {
			t.Fatal(err)
		}
		co.forget(b, "00001")
	}
	if out := co.sweep(&pendingSet{}, a, clk.Now()); out.err != nil || !out.listed {
		t.Fatalf("union sweep outcome = %+v", out)
	}
	if l := log.entries(); len(l) != 1 || strings.HasSuffix(l[0].prefix, "/"+statusPrefix+"/") {
		t.Fatalf("LISTs = %+v, want one union pass", l)
	}
	for _, id := range []string{"00000", "00001", "00002"} {
		if !co.committed(a, id) {
			t.Errorf("%s/%s lost to the other namespace's respawn", a.execID, id)
		}
		if co.committed(b, id) {
			t.Errorf("%s/%s harvested from a pass a respawn raced", b.execID, id)
		}
	}
	if out := co.sweep(&pendingSet{}, b, clk.Now().Add(time.Second)); out.err != nil || !out.listed {
		t.Fatalf("follow-up sweep outcome = %+v", out)
	}
	for id, want := range map[string]bool{"00000": true, "00001": false, "00002": true} {
		if got := co.committed(b, id); got != want {
			t.Errorf("completed(%s/%s) = %v, want %v", b.execID, id, got, want)
		}
	}
}
