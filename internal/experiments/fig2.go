package experiments

import (
	"fmt"
	"io"
	"time"

	"gowren"
	"gowren/internal/metrics"
	"gowren/internal/workloads"
)

// Fig2Arm is one test of §6.1: N compute-bound invocations issued either
// locally (from the high-latency client) or through massive function
// spawning.
type Fig2Arm struct {
	Name string
	// InvokeAll is the time until all N functions were up and running —
	// the paper's "invocation phase".
	InvokeAll time.Duration
	// Total is the time until the last function finished.
	Total time.Duration
	// InHand is the time until the client held every result — what the
	// user waits for, and what the paper's job totals (58 s / 88 s) end at.
	// It trails Total by the last poll tick and status fetch.
	InHand time.Duration
	// Series is the concurrent-invocations-over-time curve of Fig. 2.
	Series metrics.Series
	// Failures counts invocation attempts lost to the network (visible
	// only indirectly in the paper as retry-inflated invocation times).
	Functions int
}

// Fig2Result holds both arms of the §6.1 experiment.
type Fig2Result struct {
	Local   Fig2Arm
	Massive Fig2Arm
}

// InvocationSpeedup returns how much faster massive spawning brought all
// functions up ("we obtained 5X faster invocation times").
func (r Fig2Result) InvocationSpeedup() float64 {
	if r.Massive.InvokeAll <= 0 {
		return 0
	}
	return r.Local.InvokeAll.Seconds() / r.Massive.InvokeAll.Seconds()
}

// RunFig2 reproduces Fig. 2 with n functions of taskSeconds each (use
// Fig2Functions / Fig2TaskSeconds for the paper's scale).
func RunFig2(n int, taskSeconds float64, seed int64) (Fig2Result, error) {
	local, err := runFig2Arm("local invocation", n, taskSeconds, seed, false)
	if err != nil {
		return Fig2Result{}, fmt.Errorf("experiments: fig2 local arm: %w", err)
	}
	massive, err := runFig2Arm("massive spawning", n, taskSeconds, seed, true)
	if err != nil {
		return Fig2Result{}, fmt.Errorf("experiments: fig2 massive arm: %w", err)
	}
	return Fig2Result{Local: local, Massive: massive}, nil
}

func runFig2Arm(name string, n int, taskSeconds float64, seed int64, massive bool) (Fig2Arm, error) {
	cloud, err := newWorkloadCloud(seed, n+100)
	if err != nil {
		return Fig2Arm{}, err
	}
	var runErr error
	var origin, inHand time.Time
	cloud.Run(func() {
		if err := warmPlatform(cloud); err != nil {
			runErr = err
			return
		}
		exec, err := wanExecutor(cloud, massive)
		if err != nil {
			runErr = err
			return
		}
		args := make([]any, n)
		for i := range args {
			args[i] = taskSeconds
		}
		origin = cloud.Clock().Now()
		if _, err := exec.MapSlice(workloads.FuncComputeBound, args); err != nil {
			runErr = err
			return
		}
		if _, err := gowren.Results[float64](exec); err != nil {
			runErr = err
			return
		}
		inHand = cloud.Clock().Now()
	})
	if runErr != nil {
		return Fig2Arm{}, runErr
	}

	acts := cloud.Platform().Controller().Activations()
	spans := spansSince(spansOf(acts, "gowren-runner--"), origin)
	if len(spans) != n {
		return Fig2Arm{}, fmt.Errorf("experiments: fig2 %s: %d runner activations, want %d", name, len(spans), n)
	}
	series := metrics.ConcurrencySeries(spans, origin, time.Second, 0)
	var total time.Duration
	for _, sp := range spans {
		if d := sp.End.Sub(origin); d > total {
			total = d
		}
	}
	return Fig2Arm{
		Name:      name,
		InvokeAll: series.TimeToReach(n),
		Total:     total,
		InHand:    inHand.Sub(origin),
		Series:    series,
		Functions: n,
	}, nil
}

// Report writes the Fig. 2 reproduction next to the paper's milestones.
func (r Fig2Result) Report(w io.Writer) {
	tbl := metrics.Table{Headers: []string{"arm", "invocation phase", "paper", "last function ends", "results in hand", "paper total"}}
	for _, row := range []struct {
		arm                     Fig2Arm
		paperInvoke, paperTotal float64
	}{
		{r.Local, PaperFig2LocalInvokeSeconds, PaperFig2LocalTotalSeconds},
		{r.Massive, PaperFig2MassiveInvokeSeconds, PaperFig2MassiveTotalSeconds},
	} {
		tbl.AddRow(row.arm.Name,
			fmt.Sprintf("%.0fs", row.arm.InvokeAll.Seconds()), fmt.Sprintf("%.0fs", row.paperInvoke),
			fmt.Sprintf("%.0fs", row.arm.Total.Seconds()), fmt.Sprintf("%.0fs", row.arm.InHand.Seconds()),
			fmt.Sprintf("%.0fs", row.paperTotal))
	}
	fmt.Fprintln(w, "Fig. 2 — Local invocation vs Massive Function Spawning")
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintf(w, "invocation speedup: %.1fx (paper: ~5x)\n\n", r.InvocationSpeedup())
	fmt.Fprint(w, metrics.Chart("concurrent invocations — local", r.Local.Series, 72, 10))
	fmt.Fprint(w, metrics.Chart("concurrent invocations — massive spawning", r.Massive.Series, 72, 10))
}
