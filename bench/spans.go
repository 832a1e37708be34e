package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gowren"
	"gowren/internal/cos"
	"gowren/internal/faas"
	"gowren/internal/netsim"
)

// span is one interval at a layer boundary, recorded by the harness from
// outside the program. Spans of one job share the Job identifier; Parent is
// the ID of the span that caused it (0 for the job's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	// Sim times are on the cloud's clock. Host times are set only for spans
	// timed live (client calls), not for spans rebuilt from records.
	SimStart  time.Time `json:"simStart"`
	SimEnd    time.Time `json:"simEnd"`
	HostStart time.Time `json:"hostStart,omitempty"`
	HostEnd   time.Time `json:"hostEnd,omitempty"`
	Instant   bool      `json:"instant,omitempty"`
}

func (s span) simDur() time.Duration { return s.SimEnd.Sub(s.SimStart) }

// Span names the tree is built around.
const (
	spanJob     = "job"
	spanSubmit  = "core.submit"
	spanCollect = "core.collect"
)

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	mu      sync.Mutex
	spans   []span
	maxJobs int // jobs beyond this are not recorded, to bound memory
	jobs    map[string]bool
	orphans int // spans dropped by link because they fell outside their job
}

func newSpanRecorder(maxJobs int) *spanRecorder {
	return &spanRecorder{maxJobs: maxJobs, jobs: make(map[string]bool)}
}

// admit reports whether spans of job are being kept.
func (r *spanRecorder) admit(job string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs[job] {
		return true
	}
	if len(r.jobs) >= r.maxJobs {
		return false
	}
	r.jobs[job] = true
	return true
}

// begin opens a live span and returns its ID (0 when the job is not kept,
// or on a nil recorder: timing wrappers stay in place but record nothing).
func (r *spanRecorder) begin(job, name string, simNow time.Time) int {
	if r == nil || !r.admit(job) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Job: job, Name: name, SimStart: simNow, HostStart: hostNow()})
	return id
}

func (r *spanRecorder) end(id int, simNow time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].SimEnd = simNow
	r.spans[id-1].HostEnd = hostNow()
	r.mu.Unlock()
}

// addSim records a span rebuilt from the program's own records.
func (r *spanRecorder) addSim(job, name, detail string, start, end time.Time, instant bool) {
	if !r.admit(job) {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Job: job, Name: name, Detail: detail, SimStart: start, SimEnd: end, Instant: instant})
	r.mu.Unlock()
}

// addActivations rebuilds the per-call queue and exec spans of a job from
// the controller's activation records.
func (r *spanRecorder) addActivations(job string, acts []faas.Activation) {
	for _, a := range acts {
		if a.StartAt.IsZero() || !a.Done() {
			continue
		}
		r.addSim(job, "faas.queue", a.ID+" "+a.Action, a.SubmitAt, a.StartAt, false)
		r.addSim(job, "faas.exec", a.ID+" "+a.Action, a.StartAt, a.EndAt, false)
	}
}

// link assigns parents: the job span is the root, submit and collect hang
// off it, and every other span hangs off the tightest of those that
// contains it. A span that lies outside its job's root (work that outlived
// the job) is dropped and counted.
func (r *spanRecorder) link() {
	r.mu.Lock()
	defer r.mu.Unlock()
	type frame struct{ root, submit, collect *span }
	frames := make(map[string]*frame)
	for i := range r.spans {
		s := &r.spans[i]
		f := frames[s.Job]
		if f == nil {
			f = &frame{}
			frames[s.Job] = f
		}
		switch s.Name {
		case spanJob:
			f.root = s
		case spanSubmit:
			f.submit = s
		case spanCollect:
			f.collect = s
		}
	}
	within := func(s, p *span) bool {
		return p != nil && !s.SimStart.Before(p.SimStart) && !s.SimEnd.After(p.SimEnd)
	}
	kept := r.spans[:0]
	for _, s := range r.spans {
		f := frames[s.Job]
		if s.Instant {
			s.SimEnd = s.SimStart
		}
		switch {
		case s.Name == spanJob:
			s.Parent = 0
		case f.root == nil || !within(&s, f.root):
			r.orphans++
			continue
		case s.Name == spanSubmit || s.Name == spanCollect:
			s.Parent = f.root.ID
		case !s.HostStart.IsZero() && within(&s, f.submit):
			s.Parent = f.submit.ID
		case !s.HostStart.IsZero() && within(&s, f.collect):
			s.Parent = f.collect.ID
		default:
			s.Parent = f.root.ID
		}
		kept = append(kept, s)
	}
	r.spans = kept
}

// selfTimes returns, per span ID, its duration minus the part of that
// interval its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && !s.Instant {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].SimStart.Before(kids[j].SimStart) })
		var covered time.Duration
		cursor := s.SimStart
		for _, k := range kids {
			from, to := k.SimStart, k.SimEnd
			if from.Before(cursor) {
				from = cursor
			}
			if to.After(s.SimEnd) {
				to = s.SimEnd
			}
			if to.After(from) {
				covered += to.Sub(from)
				cursor = to
			}
		}
		self[s.ID] = s.simDur() - covered
	}
	return self
}

// checkSpanTree verifies the tree is well formed: one root per job, every
// child inside its parent, and no negative self time.
func checkSpanTree(spans []span) error {
	byID := make(map[int]span, len(spans))
	roots := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Job]++
		}
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if n := roots[s.Job]; n != 1 {
			return fmt.Errorf("job %s has %d root spans", s.Job, n)
		}
		if self[s.ID] < 0 {
			return fmt.Errorf("span %d %s has negative self time %v", s.ID, s.Name, self[s.ID])
		}
		if s.SimEnd.Before(s.SimStart) {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Name != spanJob {
				return fmt.Errorf("root span %d is %q, want %q", s.ID, s.Name, spanJob)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Job != s.Job {
			return fmt.Errorf("span %d %s crosses jobs", s.ID, s.Name)
		}
		if s.SimStart.Before(p.SimStart) || s.SimEnd.After(p.SimEnd) {
			return fmt.Errorf("span %d %s lies outside its parent %s", s.ID, s.Name, p.Name)
		}
	}
	return nil
}

// traceEvent is one Chrome/Perfetto trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as trace-event JSON, loadable in
// chrome://tracing and ui.perfetto.dev. One process per job; timestamps are
// simulated microseconds since the job began. The client's own spans (job,
// submit, collect) share thread 0 where they nest; every other span is
// packed into the first thread it does not overlap.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	jobPID := make(map[string]int)
	jobStart := make(map[string]time.Time)
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		if s.Parent == 0 {
			pid := len(jobPID) + 1
			jobPID[s.Job] = pid
			jobStart[s.Job] = s.SimStart
			events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": s.Job}})
		}
	}
	ordered := append([]span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].SimStart.Before(ordered[j].SimStart) })
	laneEnds := make(map[int][]time.Time) // pid → end of the last span on each lane ≥ 1
	for _, s := range ordered {
		pid, ok := jobPID[s.Job]
		if !ok {
			continue
		}
		ev := traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), PID: pid,
			TS:   float64(s.SimStart.Sub(jobStart[s.Job])) / 1e3,
			Args: map[string]any{"job": s.Job, "id": s.ID, "parent": s.Parent},
		}
		if s.Detail != "" {
			ev.Args["detail"] = s.Detail
		}
		if s.Instant {
			ev.Ph, ev.S = "i", "p"
			events = append(events, ev)
			continue
		}
		ev.Ph = "X"
		ev.Dur = float64(s.simDur()) / 1e3
		ev.Args["self_us"] = float64(self[s.ID]) / 1e3
		if !s.HostStart.IsZero() {
			ev.Args["host_us"] = float64(s.HostEnd.Sub(s.HostStart)) / 1e3
		}
		switch s.Name {
		case spanJob, spanSubmit, spanCollect:
			ev.TID = 0
		default:
			lanes := laneEnds[pid]
			lane := -1
			for i, end := range lanes {
				if !s.SimStart.Before(end) {
					lane = i
					break
				}
			}
			if lane < 0 {
				lanes = append(lanes, time.Time{})
				lane = len(lanes) - 1
			}
			lanes[lane] = s.SimEnd
			laneEnds[pid] = lanes
			ev.TID = lane + 1
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// timedStorage is the harness's timing wrapper around an executor's storage
// client (passed with gowren.WithStorage): one span per client request. It
// implements cos.Conditional as well as cos.Client — without PutIf the
// executor's journal and driver lease switch themselves off and the traced
// run would measure a different program.
type timedStorage struct {
	inner interface {
		cos.Client
		cos.Conditional
	}
	clk gowren.Clock
	rec *spanRecorder
	job string
}

var (
	_ cos.Client      = (*timedStorage)(nil)
	_ cos.Conditional = (*timedStorage)(nil)
)

// tracedStorage rebuilds the storage stack Cloud.Executor would have built
// for a client of a single-region, chaos-free cloud — the store behind the
// client's storage link, nil meaning the platform's own in-cloud link — and
// wraps it in the timer.
func tracedStorage(cloud *gowren.Cloud, link *netsim.Link, rec *spanRecorder, job string) *timedStorage {
	if link == nil {
		link = cloud.Platform().CloudLink()
	}
	return &timedStorage{inner: cos.NewLinked(cloud.Store(), cloud.Clock(), link), clk: cloud.Clock(), rec: rec, job: job}
}

func (t *timedStorage) op(name string) func() {
	id := t.rec.begin(t.job, "cos.client."+name, t.clk.Now())
	return func() { t.rec.end(id, t.clk.Now()) }
}

func (t *timedStorage) CreateBucket(b string) error {
	defer t.op("bucket")()
	return t.inner.CreateBucket(b)
}

func (t *timedStorage) DeleteBucket(b string) error {
	defer t.op("bucket")()
	return t.inner.DeleteBucket(b)
}

func (t *timedStorage) BucketExists(b string) (bool, error) {
	defer t.op("bucket")()
	return t.inner.BucketExists(b)
}

func (t *timedStorage) Put(b, k string, data []byte) (cos.ObjectMeta, error) {
	defer t.op("put")()
	return t.inner.Put(b, k, data)
}

func (t *timedStorage) PutIf(b, k string, data []byte, ifMatch string) (cos.ObjectMeta, error) {
	defer t.op("put")()
	return t.inner.PutIf(b, k, data, ifMatch)
}

func (t *timedStorage) Get(b, k string) ([]byte, cos.ObjectMeta, error) {
	defer t.op("get")()
	return t.inner.Get(b, k)
}

func (t *timedStorage) GetRange(b, k string, off, n int64) ([]byte, cos.ObjectMeta, error) {
	defer t.op("get")()
	return t.inner.GetRange(b, k, off, n)
}

func (t *timedStorage) Head(b, k string) (cos.ObjectMeta, error) {
	defer t.op("head")()
	return t.inner.Head(b, k)
}

func (t *timedStorage) List(b, prefix, marker string, max int) (cos.ListResult, error) {
	defer t.op("list")()
	return t.inner.List(b, prefix, marker, max)
}

func (t *timedStorage) ListBuckets() ([]string, error) {
	defer t.op("bucket")()
	return t.inner.ListBuckets()
}

func (t *timedStorage) Delete(b, k string) error {
	defer t.op("delete")()
	return t.inner.Delete(b, k)
}

// clientOpLayers records the traced client-request metrics: per-request
// simulated latency over all kept jobs, and per job the time its client's
// storage path was busy (the union of its request intervals).
func clientOpLayers(out *collector, spans []span) {
	var durs []float64
	var jobs []string
	perJob := make(map[string][]span)
	for _, s := range spans {
		if layerOf(s.Name) != "cos" || s.Instant {
			continue
		}
		durs = append(durs, float64(s.simDur())/1e6)
		if perJob[s.Job] == nil {
			jobs = append(jobs, s.Job)
		}
		perJob[s.Job] = append(perJob[s.Job], s)
	}
	if len(durs) == 0 {
		return
	}
	out.add("cos.client_op_sim_ms_p50", median(durs))
	if p, ok := tailPercentile(durs, 0.99); ok {
		out.add("cos.client_op_sim_ms_p99", p)
	}
	for _, job := range jobs {
		ops := perJob[job]
		sort.Slice(ops, func(i, j int) bool { return ops[i].SimStart.Before(ops[j].SimStart) })
		var busy time.Duration
		var cursor time.Time
		for _, s := range ops {
			from := s.SimStart
			if from.Before(cursor) {
				from = cursor
			}
			if s.SimEnd.After(from) {
				busy += s.SimEnd.Sub(from)
				cursor = s.SimEnd
			}
		}
		out.add("cos.client_busy_sim_s", busy.Seconds())
	}
}
