#!/usr/bin/env bash
# Builds coopbench from source into .bench_build/ of the checkout it is
# run from, then runs it with the arguments given. This is the command
# BENCHMARK.json names; run it from the root of the repository:
#
#   bash bench/run.sh --workload alloc_steady --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/, which .gitignore lists.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local

# The benchmark is a module of its own (bench/go.mod) that replaces the
# module repro with the checkout around it.
(cd "$root/bench" && go build -o "$out/coopbench" ./cmd/coopbench)

exec "$out/coopbench" --trace-out "$out/coopbench_spans.json" "$@"
