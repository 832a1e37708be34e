package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"gowren"
	"gowren/internal/billing"
	"gowren/internal/cos"
	"gowren/internal/metrics"
	"gowren/internal/workloads"
)

// Table3Row is one measured row of the §6.4 MapReduce experiment.
type Table3Row struct {
	ChunkMiB    int // 0 for the sequential baseline
	Concurrency int // map executors (partitions)
	Elapsed     time.Duration
	Speedup     float64
	// CostUSD is the billed cost of the run: GB-seconds + storage
	// requests for the parallel rows, VM occupancy for the baseline.
	CostUSD float64
	// RequestsPerCall is the job's COS requests (PUT, GET, HEAD, LIST,
	// DELETE — client and functions alike) per map or reduce call: the
	// quantity an object-storage pipeline pays for. Zero for the baseline.
	RequestsPerCall float64
}

// Table3Result holds the sequential baseline and the chunk-size sweep,
// plus the per-city outputs of one run (used by the Fig. 5 rendering).
type Table3Result struct {
	DatasetBytes int64
	Cities       int
	Comments     int64
	Sequential   Table3Row
	Rows         []Table3Row
	// Maps are the per-city results from the finest-chunk run.
	Maps []workloads.CityMap
}

// RunTable3 reproduces Table 3 over a dataset of totalBytes (use
// Table3DatasetBytes for the paper's 1.9 GB) and the given chunk sizes in
// MiB.
func RunTable3(chunksMiB []int, totalBytes int64, seed int64) (Table3Result, error) {
	cities := workloads.Cities(totalBytes)
	out := Table3Result{
		DatasetBytes: workloads.TotalBytes(cities),
		Cities:       len(cities),
		Comments:     workloads.TotalRecords(cities),
	}

	// Sequential baseline: one notebook VM processing the cities one
	// after another (the paper's 1h26m run).
	seqCloud, err := newWorkloadCloud(seed, 10)
	if err != nil {
		return Table3Result{}, err
	}
	var seqErr error
	seqStart := seqCloud.Clock().Now()
	seqCloud.Run(func() {
		_, seqErr = workloads.SequentialToneAnalysis(workloads.SequentialCtx{Clock: seqCloud.Clock()}, cities, uint64(seed))
	})
	if seqErr != nil {
		return Table3Result{}, fmt.Errorf("experiments: table3 sequential baseline: %w", seqErr)
	}
	seqElapsed := seqCloud.Clock().Now().Sub(seqStart)
	out.Sequential = Table3Row{
		ChunkMiB:    0,
		Concurrency: 0,
		Elapsed:     seqElapsed,
		Speedup:     1,
		CostUSD:     billing.IBMVM2018().VMCost(seqElapsed),
	}

	for _, chunk := range chunksMiB {
		row, maps, err := runTable3Chunk(chunk, totalBytes, seed)
		if err != nil {
			return Table3Result{}, fmt.Errorf("experiments: table3 chunk %dMiB: %w", chunk, err)
		}
		row.Speedup = out.Sequential.Elapsed.Seconds() / row.Elapsed.Seconds()
		out.Rows = append(out.Rows, row)
		out.Maps = maps
	}
	return out, nil
}

func runTable3Chunk(chunkMiB int, totalBytes, seed int64) (Table3Row, []workloads.CityMap, error) {
	cloud, err := newWorkloadCloud(seed+int64(chunkMiB), 1000)
	if err != nil {
		return Table3Row{}, nil, err
	}
	if _, err := workloads.LoadDataset(cloud.Store(), "airbnb", totalBytes, uint64(seed)); err != nil {
		return Table3Row{}, nil, err
	}
	var (
		runErr  error
		elapsed time.Duration
		maps    []workloads.CityMap
		futures int
		before  cos.StatsSnapshot
	)
	cloud.Run(func() {
		if err := warmPlatform(cloud); err != nil {
			runErr = err
			return
		}
		// The paper runs this from an IBM Watson Studio notebook — a
		// client inside the cloud — with massive spawning enabled.
		exec, err := cloud.Executor(
			gowren.WithClientProfile(gowren.ClientInCloud),
			gowren.WithMassiveSpawning(0),
			gowren.WithClientOverhead(WANClientOverhead),
			gowren.WithPollInterval(ExperimentPollInterval),
			gowren.WithStageConcurrency(WANStageConcurrency),
		)
		if err != nil {
			runErr = err
			return
		}
		start := cloud.Clock().Now()
		before = cloud.Store().Stats()
		fs, err := exec.MapReduce(
			workloads.FuncToneMap,
			gowren.FromBuckets("airbnb"),
			workloads.FuncToneReduce,
			gowren.MapReduceOptions{
				ChunkBytes:          int64(chunkMiB) << 20,
				ReducerOnePerObject: true,
			},
		)
		if err != nil {
			runErr = err
			return
		}
		futures = len(fs)
		maps, err = gowren.Results[workloads.CityMap](exec)
		if err != nil {
			runErr = err
			return
		}
		elapsed = cloud.Clock().Now().Sub(start)
	})
	if runErr != nil {
		return Table3Row{}, nil, runErr
	}
	if futures != len(workloads.Cities(totalBytes)) {
		return Table3Row{}, nil, fmt.Errorf("reducers = %d, want one per city", futures)
	}

	// Concurrency = number of map executors = partitions of the plan.
	parts, err := gowren.PlanPartitions(cloud.Store(), gowren.FromBuckets("airbnb"), int64(chunkMiB)<<20)
	if err != nil {
		return Table3Row{}, nil, err
	}

	// Bill the run: function GB-seconds plus storage requests.
	usage := billing.MeterActivations(cloud.Platform().Controller().Activations(), 0)
	stats := cloud.Store().Stats()
	usage.StorageWrites = stats.PutOps
	usage.StorageReads = stats.GetOps + stats.HeadOps + stats.ListOps
	cost := usage.Cost(billing.IBMCloud2018())
	requests := stats.PutOps + stats.GetOps + stats.HeadOps + stats.ListOps + stats.DeleteOps -
		(before.PutOps + before.GetOps + before.HeadOps + before.ListOps + before.DeleteOps)

	return Table3Row{
		ChunkMiB: chunkMiB, Concurrency: len(parts), Elapsed: elapsed, CostUSD: cost,
		RequestsPerCall: float64(requests) / float64(len(parts)+futures),
	}, maps, nil
}

// Report writes the measured Table 3 next to the paper's values.
func (r Table3Result) Report(w io.Writer) {
	fmt.Fprintf(w, "Table 3 — Airbnb MapReduce job (%d cities, %.2f GB, %d comments)\n",
		r.Cities, float64(r.DatasetBytes)/1e9, r.Comments)
	tbl := metrics.Table{Headers: []string{
		"chunk", "executors", "paper", "exec time", "paper", "speedup", "paper", "cost", "COS req/call",
	}}
	tbl.AddRow("sequential", "0",
		"0", fmt.Sprintf("%.0fs", r.Sequential.Elapsed.Seconds()),
		fmt.Sprintf("%.0fs", PaperTable3.SequentialSeconds), "1.00x", "(base)",
		fmt.Sprintf("$%.3f (VM)", r.Sequential.CostUSD), "-")
	for i, row := range r.Rows {
		paperConc, paperTime, paperSpeed := "-", "-", "-"
		if i < len(PaperTable3.Concurrency) {
			paperConc = fmt.Sprintf("%d", PaperTable3.Concurrency[i])
			paperTime = fmt.Sprintf("%.0fs", PaperTable3.ExecSeconds[i])
			paperSpeed = fmt.Sprintf("%.2fx", PaperTable3.Speedup[i])
		}
		tbl.AddRow(
			fmt.Sprintf("%dMB", row.ChunkMiB),
			fmt.Sprintf("%d", row.Concurrency), paperConc,
			fmt.Sprintf("%.0fs", row.Elapsed.Seconds()), paperTime,
			fmt.Sprintf("%.2fx", row.Speedup), paperSpeed,
			fmt.Sprintf("$%.3f", row.CostUSD),
			fmt.Sprintf("%.1f", row.RequestsPerCall),
		)
	}
	fmt.Fprint(w, tbl.Render())
	fmt.Fprintln(w, "cost: function GB-seconds + storage requests (parallel rows) vs VM occupancy (baseline);")
	fmt.Fprintln(w, "the 100x+ faster runs cost the same order of magnitude — the serverless trade the paper's intro describes.")
	fmt.Fprintln(w)
}

// RenderCityMap renders the Fig. 5 stand-in for the named city from the
// finest-chunk run ("new-york" matches the paper's figure).
func (r Table3Result) RenderCityMap(city string, width, height int) string {
	for _, m := range r.Maps {
		if strings.HasSuffix(m.City, city) {
			return workloads.RenderASCIIMap(m, width, height)
		}
	}
	return fmt.Sprintf("city %q not found in results\n", city)
}
