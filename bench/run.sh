#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload static-grid --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, binary and spans stay
# in .bench_build/ under that root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=vendor
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
