#!/usr/bin/env bash
# Run every workload untraced, then traced, from the root of a checkout.
# Usage: bash perfbench/run_all.sh [SEED]
set -euo pipefail
seed=${1:-0}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for trace in 0 1; do
  for w in $workloads; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
  done
done
exit $status
