package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)

func TestRecorderOrderAndSnapshot(t *testing.T) {
	r := New(8)
	for i := 0; i < 5; i++ {
		r.Emit(t0.Add(time.Duration(i)*time.Second), KindInvoke, "act", "x")
	}
	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("events = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At.Before(events[i-1].At) {
			t.Fatal("events out of order")
		}
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emitf(t0.Add(time.Duration(i)*time.Second), KindActEnd, "a", "ev-%d", i)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d, want capacity 4", len(events))
	}
	if events[0].Detail != "ev-6" || events[3].Detail != "ev-9" {
		t.Fatalf("ring kept wrong window: %v … %v", events[0].Detail, events[3].Detail)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(t0, KindInvoke, "a", "b")
	r.Emitf(t0, KindInvoke, "a", "%d", 1)
	if r.Events() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder should be inert")
	}
}

func TestDump(t *testing.T) {
	r := New(16)
	r.Emit(t0, KindInvoke, "act-1", "work")
	r.Emit(t0.Add(1500*time.Millisecond), KindActEnd, "act-1", "work ok")
	var sb strings.Builder
	if err := r.Dump(&sb, t0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "+0.000s") || !strings.Contains(out, "+1.500s") {
		t.Fatalf("dump offsets wrong:\n%s", out)
	}
	if !strings.Contains(out, "act-end") {
		t.Fatalf("dump missing kinds:\n%s", out)
	}
	var empty strings.Builder
	if err := New(4).Dump(&empty, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no events") {
		t.Fatal("empty dump should say so")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(t0, KindActStart, "a", "d")
			}
		}()
	}
	wg.Wait()
	if got := len(r.Events()); got != 800 {
		t.Fatalf("events = %d, want 800", got)
	}
}
