#!/usr/bin/env bash
# Work check: runs each of the 11 pinned input variants of the end-to-end
# benchmark once, for one short fixed-work run, and fails unless every run
# matches its pinned work counters and result digests
# (e2ebench/reference.json): the last line of each run must read
# "correct": true with "failed": 0. Timings never gate it. The first run
# configures and builds the driver into .bench_build/.
#
# Usage (from the repository root): scripts/e2e_work_check.sh
set -euo pipefail

VARIANTS=(
  "mine_ci 0"
  "mine_paper 0" "mine_paper 1"
  "mine_stress_ckpt 0" "mine_stress_ckpt 1" "mine_stress_ckpt 2"
  "mine_stress_ckpt 3"
  "service_mixed 0" "service_mixed 1" "service_mixed 2" "service_mixed 3"
)

failures=0
for spec in "${VARIANTS[@]}"; do
  read -r workload seed <<<"$spec"
  last="$(python3 e2ebench/run.py --workload "$workload" --seed "$seed" \
            --seconds 1 --trace 0 | tail -n 1)"
  if python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$last"; then
    echo "ok   $workload seed $seed"
  else
    echo "FAIL $workload seed $seed: $last"
    failures=$((failures + 1))
  fi
done
if ((failures > 0)); then
  echo "work check: $failures of ${#VARIANTS[@]} variants failed" >&2
  exit 1
fi
echo "work check: all ${#VARIANTS[@]} variants correct"
