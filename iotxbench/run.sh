#!/usr/bin/env bash
# Builds the iotxbench command from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash iotxbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build product and run file stays under .bench_build/ in the
# checkout; the build uses no network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/iotxbench" && go build -o "$build/iotxbench" .)
exec "$build/iotxbench" "$@"
