#!/usr/bin/env bash
# Smoke run: every workload, plain and traced, five reps each. Checks
# correctness and the output schema only — timings from five reps mean
# nothing. Run from anywhere; meant for CI.
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo build --release --quiet --manifest-path "$manifest"
for workload in graph_batch dataflow_batch serve_mix compile_run; do
  for trace in 0 1; do
    result="$(cargo run --release --quiet --manifest-path "$manifest" -- \
      --workload "$workload" --seed 7 --reps 5 --trace "$trace" | tail -n 1)"
    case "$result" in
      '{"correct": true, "attempted": '*', "failed": 0, "metrics": {'*'}}') ;;
      *) echo "smoke: $workload --trace $trace printed: $result" >&2; exit 1 ;;
    esac
    echo "smoke: $workload --trace $trace ok"
  done
done
