package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var origin = time.Date(2018, 12, 10, 0, 0, 0, 0, time.UTC)

func at(s float64) time.Time { return origin.Add(time.Duration(s * float64(time.Second))) }

func TestConcurrencySeriesBasic(t *testing.T) {
	spans := []Span{
		{Start: at(0), End: at(10)},
		{Start: at(2), End: at(8)},
		{Start: at(5), End: at(15)},
	}
	s := ConcurrencySeries(spans, origin, time.Second, 0)
	checks := map[time.Duration]int{
		0 * time.Second:  1,
		3 * time.Second:  2,
		6 * time.Second:  3,
		9 * time.Second:  2,
		12 * time.Second: 1,
	}
	for off, want := range checks {
		if got := s.Values[off/s.Step]; got != want {
			t.Errorf("concurrency at %v = %d, want %d", off, got, want)
		}
	}
	if s.Max() != 3 {
		t.Errorf("max = %d, want 3", s.Max())
	}
}

func TestConcurrencySeriesNeverExceedsSpanCountProperty(t *testing.T) {
	f := func(startsRaw, lensRaw []uint8) bool {
		n := min(len(startsRaw), len(lensRaw), 30)
		spans := make([]Span, n)
		for i := 0; i < n; i++ {
			st := at(float64(startsRaw[i] % 60))
			spans[i] = MakeSpan(st, st.Add(time.Duration(lensRaw[i]%30)*time.Second))
		}
		s := ConcurrencySeries(spans, origin, time.Second, 0)
		return s.Max() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToReach(t *testing.T) {
	spans := []Span{
		{Start: at(0), End: at(60)},
		{Start: at(5), End: at(60)},
		{Start: at(10), End: at(60)},
	}
	s := ConcurrencySeries(spans, origin, time.Second, 0)
	if got := s.TimeToReach(3); got != 10*time.Second {
		t.Fatalf("time to reach 3 = %v, want 10s", got)
	}
	if got := s.TimeToReach(4); got != -1 {
		t.Fatalf("unreachable target = %v, want -1", got)
	}
}

func TestStats(t *testing.T) {
	spans := []Span{
		{Start: at(0), End: at(10)},
		{Start: at(0), End: at(20)},
		{Start: at(0), End: at(30)},
		{Start: at(0), End: at(40)},
	}
	st := Stats(spans)
	if st.Count != 4 || st.Min != 10*time.Second || st.Max != 40*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 25*time.Second {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.P50 != 20*time.Second {
		t.Fatalf("p50 = %v", st.P50)
	}
	if empty := Stats(nil); empty.Count != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestMakeSpanClampsInverted(t *testing.T) {
	s := MakeSpan(at(10), at(5))
	if s.Duration() != 0 {
		t.Fatalf("inverted span duration = %v", s.Duration())
	}
}

func TestChartRenders(t *testing.T) {
	spans := []Span{{Start: at(0), End: at(30)}, {Start: at(10), End: at(20)}}
	s := ConcurrencySeries(spans, origin, time.Second, 0)
	out := Chart("demo", s, 40, 8)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "*") {
		t.Fatalf("chart output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 { // title + 8 rows
		t.Fatalf("chart rows = %d, want 9", len(lines))
	}
}

func TestCSVSeries(t *testing.T) {
	s := Series{Step: time.Second, Values: []int{1, 2, 3}}
	out := CSV(s)
	if !strings.HasPrefix(out, "offset_s,value\n0.0,1\n") {
		t.Fatalf("csv = %q", out)
	}
	if !strings.Contains(out, "2.0,3") {
		t.Fatalf("csv missing last sample: %q", out)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Headers: []string{"Chunk", "Speedup"}}
	tb.AddRow("64MB", "10.95x")
	tb.AddRow("2MB", "135.79x")
	out := tb.Render()
	if !strings.Contains(out, "Chunk") || !strings.Contains(out, "135.79x") {
		t.Fatalf("table:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table rows = %d, want 4", len(lines))
	}
	csv := tb.RenderCSV()
	if !strings.HasPrefix(csv, "Chunk,Speedup\n64MB,10.95x\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestGanttRenders(t *testing.T) {
	spans := []Span{
		{Start: at(0), End: at(30)},
		{Start: at(5), End: at(35)},
		{Start: at(10), End: at(40)},
		{Start: at(15), End: at(45)},
		{Start: at(20), End: at(50)},
	}
	out := Gantt("executions", spans, origin, 40, 5)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("gantt rows = %d, want 6", len(lines))
	}
	if !strings.Contains(lines[0], "5 executions") {
		t.Fatalf("header = %q", lines[0])
	}
	// Later rows must start later (sorted by start, staircase shape).
	firstBar := strings.Index(lines[1], "=")
	lastBar := strings.Index(lines[5], "=")
	if lastBar <= firstBar {
		t.Fatalf("gantt not staircased: first=%d last=%d\n%s", firstBar, lastBar, out)
	}
	if empty := Gantt("none", nil, origin, 20, 4); !strings.Contains(empty, "no spans") {
		t.Fatal("empty gantt should say so")
	}
}

func TestGanttDownsamples(t *testing.T) {
	var spans []Span
	for i := 0; i < 100; i++ {
		spans = append(spans, Span{Start: at(float64(i)), End: at(float64(i) + 10)})
	}
	out := Gantt("many", spans, origin, 40, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 9 {
		t.Fatalf("gantt rows = %d, want 9 (8 bars + header)", len(lines))
	}
}
