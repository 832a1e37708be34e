// Package metrics turns raw activation spans into the quantities the
// paper's evaluation reports: concurrency-over-time series (Figs. 2 and 3),
// duration statistics, and aligned text/CSV tables (Table 3). It is shared
// by the experiment harnesses, cmd/experiments and the benchmarks.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Span is one function execution interval.
type Span struct {
	Start time.Time
	End   time.Time
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Series is a sampled time series relative to an origin instant.
type Series struct {
	Step   time.Duration
	Values []int
}

// Max returns the series' maximum value.
func (s Series) Max() int {
	m := 0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// ConcurrencySeries samples how many spans are simultaneously active at
// each step after origin — the black lines of the paper's Figs. 2 and 3.
func ConcurrencySeries(spans []Span, origin time.Time, step time.Duration, horizon time.Duration) Series {
	if step <= 0 {
		step = time.Second
	}
	if horizon <= 0 {
		for _, sp := range spans {
			if d := sp.End.Sub(origin); d > horizon {
				horizon = d
			}
		}
	}
	n := int(horizon/step) + 1
	values := make([]int, n)
	for _, sp := range spans {
		from := int(math.Ceil(float64(sp.Start.Sub(origin)) / float64(step)))
		to := int(math.Floor(float64(sp.End.Sub(origin)) / float64(step)))
		if from < 0 {
			from = 0
		}
		if to >= n {
			to = n - 1
		}
		for i := from; i <= to; i++ {
			values[i]++
		}
	}
	return Series{Step: step, Values: values}
}

// TimeToReach returns the first offset at which the series reaches target,
// or -1 if it never does. This measures the paper's "invocation phase":
// time until all N functions are up and running.
func (s Series) TimeToReach(target int) time.Duration {
	for i, v := range s.Values {
		if v >= target {
			return time.Duration(i) * s.Step
		}
	}
	return -1
}

// DurationStats summarizes span durations.
type DurationStats struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P90, P99  time.Duration
}

// Stats computes duration statistics over spans.
func Stats(spans []Span) DurationStats {
	if len(spans) == 0 {
		return DurationStats{}
	}
	ds := make([]time.Duration, len(spans))
	var sum time.Duration
	for i, sp := range spans {
		ds[i] = sp.Duration()
		sum += ds[i]
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(ds)-1))
		return ds[i]
	}
	return DurationStats{
		Count: len(ds),
		Min:   ds[0],
		Max:   ds[len(ds)-1],
		Mean:  sum / time.Duration(len(ds)),
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
	}
}

// MakeSpan builds a span, clamping inverted intervals to empty.
func MakeSpan(start, end time.Time) Span {
	if end.Before(start) {
		end = start
	}
	return Span{Start: start, End: end}
}

// Chart renders a series as an ASCII line chart — the terminal counterpart
// of the paper's figures.
func Chart(title string, s Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	maxV := s.Max()
	if maxV == 0 {
		maxV = 1
	}
	n := len(s.Values)
	if n == 0 {
		return title + ": (no data)\n"
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		idx := x * (n - 1) / max(width-1, 1)
		v := s.Values[idx]
		y := height - 1 - v*(height-1)/maxV
		grid[y][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %d, step %v, span %v)\n", title, s.Max(), s.Step, time.Duration(n-1)*s.Step)
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%5d", maxV)
		case height - 1:
			label = fmt.Sprintf("%5d", 0)
		default:
			label = "     "
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	return b.String()
}

// CSV renders a series as offset_seconds,value lines.
func CSV(s Series) string {
	var b strings.Builder
	b.WriteString("offset_s,value\n")
	for i, v := range s.Values {
		fmt.Fprintf(&b, "%.1f,%d\n", (time.Duration(i) * s.Step).Seconds(), v)
	}
	return b.String()
}

// Table is an aligned text table with optional CSV output.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned monospaced text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderCSV returns the table as CSV.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Gantt renders spans as stacked horizontal bars over a time axis — the
// gray per-function execution lines of the paper's Fig. 3. With more spans
// than rows, spans are downsampled evenly; bars are ordered by start time.
func Gantt(title string, spans []Span, origin time.Time, width, rows int) string {
	if width < 16 {
		width = 16
	}
	if rows < 4 {
		rows = 4
	}
	if len(spans) == 0 {
		return title + ": (no spans)\n"
	}
	sorted := make([]Span, len(spans))
	copy(sorted, spans)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })

	var horizon time.Duration
	for _, sp := range sorted {
		if d := sp.End.Sub(origin); d > horizon {
			horizon = d
		}
	}
	if horizon <= 0 {
		horizon = time.Second
	}
	if rows > len(sorted) {
		rows = len(sorted)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d executions over %v; showing %d)\n", title, len(sorted), horizon.Round(time.Second), rows)
	for r := 0; r < rows; r++ {
		sp := sorted[r*(len(sorted)-1)/max(rows-1, 1)]
		line := []byte(strings.Repeat(" ", width))
		from := int(float64(sp.Start.Sub(origin)) / float64(horizon) * float64(width-1))
		to := int(float64(sp.End.Sub(origin)) / float64(horizon) * float64(width-1))
		if from < 0 {
			from = 0
		}
		if to >= width {
			to = width - 1
		}
		for x := from; x <= to; x++ {
			line[x] = '='
		}
		fmt.Fprintf(&b, "|%s|\n", line)
	}
	return b.String()
}
