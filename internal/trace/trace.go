// Package trace is the simulation's flight recorder: platform components
// emit structured events (invocations, throttles, cold starts, activation
// lifecycle) into a fixed-capacity ring, and tools dump them as a timeline.
// It answers the "what actually happened in that run?" questions that
// aggregate metrics hide — which activation throttled, when a container was
// pulled, how a spawner group interleaved.
//
// A nil *Recorder is valid everywhere and records nothing, so call sites
// never branch on whether tracing is on.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the platform.
const (
	KindInvoke    = "invoke"     // invocation admitted by the gateway
	KindThrottle  = "throttle"   // invocation rejected with 429
	KindShed      = "shed"       // queued invocation dropped past its admission deadline
	KindColdStart = "cold-start" // container provisioned cold
	KindWarmStart = "warm-start" // container reused
	KindImagePull = "image-pull" // first cold start of an image
	KindActStart  = "act-start"  // handler entered
	KindActEnd    = "act-end"    // handler finished
	KindCrash     = "crash"      // injected container crash
	KindExchange  = "exchange"   // shuffle-intermediate exchange op (fast tier or fallback)
	KindFanIn     = "fan-in"     // a stage barrier fired (or its launch was rescued, or degraded)
)

// Event is one recorded occurrence.
type Event struct {
	At     time.Time
	Kind   string
	Actor  string // activation ID, action name, or executor ID
	Detail string
}

// Recorder is a bounded ring of events, safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	events  []Event
	next    int
	full    bool
	dropped int64
}

// New returns a Recorder holding up to capacity events (oldest evicted
// first). Capacity <= 0 selects a generous default.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 16384
	}
	return &Recorder{events: make([]Event, capacity)}
}

// Emit records one event. Safe on a nil receiver.
func (r *Recorder) Emit(at time.Time, kind, actor, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.full {
		r.dropped++
	}
	r.events[r.next] = Event{At: at, Kind: kind, Actor: actor, Detail: detail}
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Emitf is Emit with a formatted detail.
func (r *Recorder) Emitf(at time.Time, kind, actor, format string, args ...any) {
	if r == nil {
		return
	}
	r.Emit(at, kind, actor, fmt.Sprintf(format, args...))
}

// Events returns the recorded events, oldest first. Safe on nil (empty).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Dropped reports how many events were evicted from the ring.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Dump writes the timeline with offsets relative to origin (zero origin
// uses the first event's time).
func (r *Recorder) Dump(w io.Writer, origin time.Time) error {
	events := r.Events()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	if origin.IsZero() {
		origin = events[0].At
	}
	for _, ev := range events {
		off := ev.At.Sub(origin)
		if _, err := fmt.Fprintf(w, "%12s  %-10s  %-12s  %s\n", formatOffset(off), ev.Kind, ev.Actor, ev.Detail); err != nil {
			return err
		}
	}
	if d := r.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events evicted)\n", d); err != nil {
			return err
		}
	}
	return nil
}

func formatOffset(d time.Duration) string {
	return fmt.Sprintf("+%.3fs", d.Seconds())
}
