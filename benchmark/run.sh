#!/usr/bin/env bash
# Builds the benchmark and rapd from this checkout, then runs the benchmark.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Build outputs, the Go build cache and
# the benchmark's scratch files all live under .bench_build/ in the
# checkout, and build time is never part of a measurement.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -C "$root/benchmark" -o "$out/rapbenchmark" .
go build -C "$root" -o "$out/rapd" ./cmd/rapd

exec "$out/rapbenchmark" -rapd "$out/rapd" -work "$out/work" "$@"
