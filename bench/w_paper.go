package main

import (
	"fmt"
	"math"
	"time"

	"gowren"
	"gowren/internal/experiments"
	"gowren/internal/netsim"
	"gowren/internal/workloads"
)

// table3Chunk is the §6.4 row this workload runs: 4 MiB chunks, which the
// partitioner turns into 468 map executors over the 1.9 GB dataset.
const (
	table3ChunkMiB  = 4
	table3ChunkIdx  = 4 // index of 4 MiB in experiments.Table3ChunksMiB
	table3Executors = 468
)

// repTable3 is one repetition of the paper's §6.4 MapReduce job, built the
// way internal/experiments builds it: generated Airbnb dataset, in-cloud
// client with massive spawning, one reducer per city.
func repTable3(rc *repCtx) error {
	setupStart := hostNow()
	totalBytes := int64(float64(experiments.Table3DatasetBytes) * rc.scale)
	cloud, err := workloadCloud(gowren.SimConfig{
		Seed: rc.seed, MaxConcurrent: 1000, Jitter: true, TraceCapacity: rc.traceCapacity(),
	})
	if err != nil {
		return err
	}
	loadStart := hostNow()
	cities, err := workloads.LoadDataset(cloud.Store(), "airbnb", totalBytes, uint64(rc.seed))
	if err != nil {
		return err
	}
	loadHost := hostSince(loadStart)
	wantRecords := workloads.TotalRecords(cities)

	planStart := hostNow()
	parts, err := gowren.PlanPartitions(cloud.Store(), gowren.FromBuckets("airbnb"), table3ChunkMiB<<20)
	if err != nil {
		return err
	}
	planHost := hostSince(planStart)
	if rc.scale == 1 && len(parts) != table3Executors {
		return fmt.Errorf("table3: partitioner planned %d executors, want %d", len(parts), table3Executors)
	}

	js := jobSpec{
		id:    fmt.Sprintf("table3-%d", rc.seed),
		cloud: cloud,
		execOpts: []gowren.ExecutorOption{
			gowren.WithClientProfile(gowren.ClientInCloud),
			gowren.WithMassiveSpawning(0),
			gowren.WithClientOverhead(experiments.WANClientOverhead),
			gowren.WithPollInterval(experiments.ExperimentPollInterval),
			gowren.WithStageConcurrency(experiments.WANStageConcurrency),
		},
		calls: len(parts) + len(cities),
		submit: func(exec *gowren.Executor) error {
			_, err := exec.MapReduce(workloads.FuncToneMap, gowren.FromBuckets("airbnb"), workloads.FuncToneReduce,
				gowren.MapReduceOptions{ChunkBytes: table3ChunkMiB << 20, ReducerOnePerObject: true})
			return err
		},
		collect: func(exec *gowren.Executor) error {
			maps, err := gowren.Results[workloads.CityMap](exec)
			if err != nil {
				return err
			}
			if len(maps) != len(cities) {
				return fmt.Errorf("table3: %d city maps, want %d", len(maps), len(cities))
			}
			var records int64
			for _, m := range maps {
				records += m.Counts.Records
			}
			if records != wantRecords {
				return fmt.Errorf("table3: %d comments analysed, dataset has %d", records, wantRecords)
			}
			return nil
		},
	}
	var jo jobOutcome
	var warmErr error
	cloud.Run(func() {
		if warmErr = warmPlatform(cloud); warmErr != nil {
			return
		}
		rc.setupDone(setupStart)
		jo = rc.runJob(js)
	})
	if warmErr != nil {
		return warmErr
	}
	rc.out.op(jo.err)
	if jo.err != nil {
		return nil
	}
	rc.out.add("job_sim_s", jo.ws.simElapsed.Seconds())
	rc.countsFromWindow(jo.ws, 1)
	rc.hostFromWindow(jo.ws, 1)
	if rc.layers {
		rc.jobLayers(js, jo)
		rc.out.add("core.plan_partitions_host_ms", planHost.Seconds()*1e3)
		rc.out.add("workloads.dataset_load_host_s", loadHost.Seconds())
		if rc.scale == 1 {
			paper := experiments.PaperTable3.ExecSeconds[table3ChunkIdx]
			rc.out.add("experiments.paper_error_share", math.Abs(jo.ws.simElapsed.Seconds()-paper)/paper)
		}
	}
	return nil
}

// repFig2 is one repetition of the paper's §6.1 job: n compute-bound calls
// of 50 s from the WAN client. The massive-spawning arm gives the end-to-end
// metrics; the local-invocation arm runs only when layers are gathered.
func repFig2(rc *repCtx) error {
	n := rc.scaled(experiments.Fig2Functions, 20)
	massive, err := rc.fig2Arm(n, true)
	if err != nil {
		return err
	}
	rc.out.op(massive.jo.err)
	if massive.jo.err != nil {
		return nil
	}
	rc.out.add("job_sim_s", massive.jo.ws.simElapsed.Seconds())
	rc.out.add("invoke_phase_sim_s", massive.jo.invokePhase.Seconds())
	rc.countsFromWindow(massive.jo.ws, 1)
	rc.hostFromWindow(massive.jo.ws, 1)
	if !rc.layers {
		return nil
	}
	rc.jobLayers(massive.js, massive.jo)
	local, err := rc.fig2Arm(n, false)
	if err != nil {
		return err
	}
	rc.out.op(local.jo.err)
	if local.jo.err != nil {
		return nil
	}
	rc.out.add("core.local.invoke_phase_sim_s", local.jo.invokePhase.Seconds())
	rc.out.add("core.local.job_sim_s", local.jo.ws.simElapsed.Seconds())
	if rc.scale == 1 {
		// The paper's milestones are "all functions running" and "last
		// function finished"; compare like with like.
		errs := []float64{
			relErr(massive.jo.invokePhase.Seconds(), experiments.PaperFig2MassiveInvokeSeconds),
			relErr(lastEnd(massive.jo.ws.acts).Sub(massive.jo.ws.simStart).Seconds(), experiments.PaperFig2MassiveTotalSeconds),
			relErr(local.jo.invokePhase.Seconds(), experiments.PaperFig2LocalInvokeSeconds),
		}
		rc.out.add("experiments.paper_error_share", (errs[0]+errs[1]+errs[2])/3)
	}
	return nil
}

func relErr(measured, paper float64) float64 { return math.Abs(measured-paper) / paper }

type fig2Arm struct {
	js jobSpec
	jo jobOutcome
}

func (rc *repCtx) fig2Arm(n int, massive bool) (fig2Arm, error) {
	setupStart := hostNow()
	cloud, err := workloadCloud(gowren.SimConfig{
		Seed: rc.seed, MaxConcurrent: n + 100, Jitter: true, TraceCapacity: rc.traceCapacity(),
	})
	if err != nil {
		return fig2Arm{}, err
	}
	name := "local"
	opts := []gowren.ExecutorOption{
		gowren.WithClientProfile(gowren.ClientWAN),
		gowren.WithInvokeConcurrency(experiments.WANClientThreads),
		gowren.WithStageConcurrency(experiments.WANStageConcurrency),
		gowren.WithClientOverhead(experiments.WANClientOverhead),
		gowren.WithPollInterval(experiments.ExperimentPollInterval),
	}
	if massive {
		name = "massive"
		opts = append(opts, gowren.WithMassiveSpawning(0))
	}
	args := make([]any, n)
	for i := range args {
		args[i] = experiments.Fig2TaskSeconds
	}
	arm := fig2Arm{js: jobSpec{
		id:       fmt.Sprintf("fig2-%s-%d", name, rc.seed),
		cloud:    cloud,
		execOpts: opts,
		// Cloud.Executor gives a WAN client a storage link seeded seed+2.
		storageLink: netsim.WANStorage(rc.seed + 2),
		calls:       n,
		submit: func(exec *gowren.Executor) error {
			_, err := exec.MapSlice(workloads.FuncComputeBound, args)
			return err
		},
		collect: func(exec *gowren.Executor) error {
			results, err := gowren.Results[float64](exec, gowren.GetResultOptions{Timeout: time.Hour})
			if err != nil {
				return err
			}
			return checkAll("fig2 "+name, results, n, experiments.Fig2TaskSeconds)
		},
	}}
	var warmErr error
	cloud.Run(func() {
		if warmErr = warmPlatform(cloud); warmErr != nil {
			return
		}
		rc.setupDone(setupStart)
		arm.jo = rc.runJob(arm.js)
	})
	return arm, warmErr
}
