#!/usr/bin/env bash
# Runs every discovery-benchmark workload once untraced (end-to-end
# metrics) and once traced (per-layer metrics) and prints every metric
# with its unit, serve_remote included although BENCHMARK.json holds it
# back (README.md). Run from the root of a checkout:
#
#   discovery_bench/run_all.sh [OUT_DIR] [SEED] [SECONDS]
#
# OUT_DIR (default .bench_build/discovery-results) keeps each run's full
# result JSON and spans; compare two such directories with compare.py.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-.bench_build/discovery-results}"
seed="${2:-1}"
seconds="${3:-10}"

for workload in dense_join sparse_lake serve_remote ingest_serve; do
  for trace in 0 1; do
    python3 "$here/run.py" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" --out "$out"
  done
done
