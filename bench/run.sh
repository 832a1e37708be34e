#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, binaries) stays under
# .bench_build/, everything a run writes under bench/out/. In a directory
# without the repository's go.mod the build fails, so the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -o "$build/gowren-bench" ./bench
exec "$build/gowren-bench" "$@"
