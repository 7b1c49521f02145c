#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Call it from
# the repository root; every build artifact, cache and state dir stays under
# .bench_build/ there.
#
#   bash _perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
