GO ?= go

.PHONY: all build vet lint test race chaos bench bench-e2e profile verify

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the in-repo determinism & correctness analyzer suite
# (cmd/gowren-vet: allowaudit, clockcheck, randcheck, errsink, mapiter,
# lockhold, vclockescape) plus a gofmt check. The suite is
# interprocedural: impure helpers taint their callers across package
# boundaries, so findings carry a call chain down to the origin. Suppress
# a finding with a justified `//gowren:allow <check>` comment at the taint
# origin; see DESIGN.md "Determinism rules". allowaudit fails the build on
# allow comments with no justification. `gowren-vet -json` emits the same
# diagnostics machine-readably for CI annotations and the determinism
# gate; `-facts` dumps the per-package taint summaries.
lint: build
	$(GO) run ./cmd/gowren-vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt: files need formatting:"; echo "$$fmtout"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection acceptance suite under the race detector:
# scripted COS brownouts, controller outages, regional partitions ridden
# out by failover under sync and async replication (there is no
# failover-off control run any more), the recovery/dead-letter budget
# (there is no recovery-off mode either), the driver-kill
# crash-recovery scenario (kill the driver mid-map, Attach a fresh one),
# the exchange-tier kills (memory cache node killed mid-shuffle,
# lingering direct-transfer peers lost before the pull — both must degrade
# to the COS baseline with zero dead letters, bit-identically per seed),
# the completion-triggered reducer launches (the launching map killed
# between its status commit and the invoke, a regional partition hiding
# sibling statuses from the last finisher's LIST, the driver killed
# mid-map-phase with a fresh one attaching — exact results, zero dead
# letters, no reducer launched twice per marker generation). The second
# line races 64 maps that commit at the same simulated instant for one
# fan-in marker, twenty times: exactly 16 reducers must run every time.
chaos:
	$(GO) test -race -run 'TestChaos|TestController|TestRecovery|TestRegion|TestAttach|TestDriver' .
	$(GO) test -race -count=20 -run 'TestFanInSameInstantFinish' ./internal/core

# bench is every benchmark gate the repository has, none of them in host
# seconds: bench-e2e below (the repository benchmark's fig2_invoke,
# table3_mapreduce, shuffle_tiers, server_http and openloop_tenants
# workloads, gated in simulated time, request counts and allocation counts —
# ten gates),
# then the two measurements bench/ has no workload for yet. regionbench A/Bs
# the multi-region knobs: sync vs async PUT ack latency at 3 regions under
# WAN latency (gate: async p50 >= 2x faster) and region-zero vs placed
# cross-region reads on a 500-call map (gate: >= 5x fewer). simbench pushes
# one million seeded arrivals through admission, execution and drain, twice,
# and fails unless the two same-seed runs' per-tenant outcome digests are
# identical; the arrivals per host second it prints are a report, not a
# gate. Reports go under .bench_build/ (ignored), next to the benchmark's
# own build output.
bench: build bench-e2e
	@mkdir -p .bench_build
	$(GO) run ./cmd/regionbench -out .bench_build/regions.json -minackspeedup 2 -minreadreduction 5
	$(GO) run ./cmd/simbench -out .bench_build/simcore.json

# bench-e2e gates the end-to-end latency of the paper's Fig. 2 job (1,000 ×
# 50 s calls from the WAN client, see BENCHMARK.json): one short run of the
# repository benchmark's fig2_invoke workload must report job_sim_s — submit
# to all results in the client's hands — of at most 70 simulated seconds
# (the last function ends at ~60; a client that fetches statuses one round
# trip at a time reports ~215). Simulated time, so the gate does not depend
# on the runner's speed. The same run's second gate counts requests: the job
# must spend at most 2.3 COS requests per call — calls whose payloads ride
# their invocations read 2.154; a runner that range-GETs its staged payload
# read 3.155, and a payload object per call 4.14. The third gate counts them
# on the §6.4 MapReduce job (table3_mapreduce, 468 maps + 33 reducers): at
# most 4.4 per call — payloads that ride the invocation, reducers started
# by the map that completes their inputs, and a spilled result committed in
# its call's status object, after the record line, spend 4.328; a result
# object beside the status spent 4.433, a runner GET per call 5.365, a
# payload object per call 6.3, and reducers that poll the status prefix
# while they wait 24.3. The fourth gate reads the same table3
# line for what the simulator spends: at most 150 heap allocations per call
# (a count, not host time). Hand-written codecs for the platform's payloads,
# statuses, envelopes and refs read ~125; the same records through
# encoding/json read ~182, and the fmt renderer and string-splitting
# analyzer 2,416. The fifth gate reads the shuffle (shuffle_tiers, one
# keyed shuffle under all four exchange arms): at most 950 allocations per
# call. A string emitted unboxed and quoted once, and reduced to a string
# that aliases its partition body, reads ~774; a boxed value, a quoted
# copy and a decoded copy per pair read ~1,216 (~1,315 before the record
# codecs), and JSON partitions decoded into []wire.KV 2,155. Most of what
# is left is the benchmark's own map function.
# The sixth gate reads the same shuffle_tiers line for the COS arm's
# requests: at most 17.2 per call. Each map's frames committed in its status
# object after the record line, range-read through a stage index, with
# payloads riding the invocations, read 16.94; a map object beside each
# status read 17.74, the same with a runner GET per call 18.71, and an
# object per map and reducer 29.75. The seventh gate reads the socket workload
# (server_http: PUT, GET and an 8-call map through gowren-server on its 20x
# scaled clock): at most 1.75 COS requests per call. A driver that is pushed
# its completions, status bodies included, by a watch on the in-process
# store, and whose first launch PUTs its payload batch after invoking with
# the launch record as the batch's last line, reads ~1.627 (11 PUT + 1 LIST
# per 8-call job, and a GET only for a status committed before the wait
# armed its watch); a launch record PUT of its own read 1.752, a GET per
# pushed status 2.75, a runner payload GET per call 3.75, and a driver that
# LISTs the status prefix every poll tick 4.3. The gate sits just under the
# launch record's own PUT, so bringing it back fails.
# The eighth gate reads the same server_http line for what both ends of
# the socket spend: at most 25.5 heap allocations per call. GET bodies that
# declare their length, read by each end into one buffer of that size,
# read ~24.5; chunked GETs and bodies grown by io.ReadAll read 26.77.
# The ninth gate reads the open-loop multi-tenant traffic (openloop_tenants,
# 4-call jobs with the journal on, about five in flight from one client):
# at most 3.6 COS requests per call. Drivers that share their status polls
# — one LIST per half poll interval serves every job the client waits on —
# whose manifest is also the lease and reserves the first launch's call
# IDs, with payloads riding the invocations and the launch record the last
# line of the batch PUT after them, read ~3.3 (6 PUT + 4 GET + ~3.3 LIST
# per job, 2 of the PUTs the client's); a LIST per job per tick read 5.270,
# the launch record as a PUT of its own 5.520, a runner GET per call 6.524,
# and a separate lease object beside the manifest 6.773. The gate sits
# between ~3.3 and 5.270.
# The tenth gate, run with the first two, reads the fig2_invoke line for
# what the simulator spends: at most 33 heap allocations per call. A call
# committed as one encode into one buffer of exactly the status object's
# size (the envelope written straight into the record line, the record on
# the runner's stack unless a fan-in needs it), a store that
# holds objects by value, and record decoders whose strings alias the body
# read ~29.1; the value, envelope and line marshalled apart and copied, an
# object pointer per PUT and a string copy of every decoded body read 36.2.
bench-e2e:
	@line=$$(bash bench/run.sh --workload fig2_invoke --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"job_sim_s":{"unit":"sim_s","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "fig2_invoke job_sim_s = $${v:-missing} (gate: <= 70)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 70) }' || exit 1; \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"cos_requests_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "fig2_invoke cos_requests_per_call = $${v:-missing} (gate: <= 2.3)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 2.3) }' || exit 1; \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"host_allocs_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "fig2_invoke host_allocs_per_call = $${v:-missing} (gate: <= 33)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 33) }'
	@line=$$(bash bench/run.sh --workload table3_mapreduce --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"cos_requests_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "table3_mapreduce cos_requests_per_call = $${v:-missing} (gate: <= 4.4)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 4.4) }' || exit 1; \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"host_allocs_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "table3_mapreduce host_allocs_per_call = $${v:-missing} (gate: <= 150)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 150) }'
	@line=$$(bash bench/run.sh --workload shuffle_tiers --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"host_allocs_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "shuffle_tiers host_allocs_per_call = $${v:-missing} (gate: <= 950)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 950) }' || exit 1; \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"cos_requests_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "shuffle_tiers cos_requests_per_call = $${v:-missing} (gate: <= 17.2)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 17.2) }'
	@line=$$(bash bench/run.sh --workload server_http --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"cos_requests_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "server_http cos_requests_per_call = $${v:-missing} (gate: <= 1.75)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 1.75) }' || exit 1; \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"host_allocs_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "server_http host_allocs_per_call = $${v:-missing} (gate: <= 25.5)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 25.5) }'
	@line=$$(bash bench/run.sh --workload openloop_tenants --seed 1 --seconds 5 --trace 0 | tail -n 1); \
	v=$$(printf '%s\n' "$$line" | sed -n 's/.*"cos_requests_per_call":{"unit":"count","value":\([0-9.eE+-]*\)}.*/\1/p'); \
	echo "openloop_tenants cos_requests_per_call = $${v:-missing} (gate: <= 3.6)"; \
	[ -n "$$v" ] && awk -v v="$$v" 'BEGIN { exit !(v <= 3.6) }'

# profile runs simbench under the Go profiler and prints the hottest CPU
# frames; simcore.cpu.pprof and simcore.mem.pprof are left behind for
# `go tool pprof` sessions. See DESIGN.md "Simulator performance" for how
# to read the output.
profile: build
	$(GO) run ./cmd/simbench -arrivals 300000 -out /dev/null \
		-cpuprofile simcore.cpu.pprof -memprofile simcore.mem.pprof
	$(GO) tool pprof -top -nodecount 20 simcore.cpu.pprof

# verify is the tier-1 gate plus the race detector and the analyzer
# suite — what CI runs.
verify: build vet lint test race
