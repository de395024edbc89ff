#!/usr/bin/env bash
# Runs SETS sets of runs of the code in this checkout — every workload on
# RUNS seeds per set, each set on its own seeds — and writes one JSON-lines
# file per set to bench/out/, then folds them into bench/calibration.json.
#
#   bash bench/calibrate.sh [SETS=5] [RUNS=10] [SECONDS=20]
set -euo pipefail
sets="${1:-5}" runs="${2:-10}" seconds="${3:-20}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out"
files=()
for ((s = 1; s <= sets; s++)); do
  f="$out/set-$s.jsonl"
  rm -f "$f"
  files+=("$f")
  for ((r = 1; r <= runs; r++)); do
    for w in search_scan search_hot ingest_durable mixed_churn; do
      bash "$root/bench/run.sh" --workload "$w" --seed $((s * 100 + r)) --seconds "$seconds" --trace 0 -out "$f" >/dev/null
    done
  done
done
"$root/.bench_build/bin/wfsimload" -calibrate "${files[@]}" >"$root/bench/calibration.json"
