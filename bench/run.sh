#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#   bash bench/run.sh --workload serve_plain --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --aa 10
#
# Everything the build and the run write stays inside the checkout:
# binaries and the go build cache under .bench_build, reports and temp
# data under bench/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="${BENCH_GOCACHE:-$root/.bench_build/gocache}"
export GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$root/.bench_build/benchharness" .)
cd "$root"
exec "$root/.bench_build/benchharness" "$@"
