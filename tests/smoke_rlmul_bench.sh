#!/usr/bin/env bash
# CI smoke for the end-to-end benchmark: one short run per evaluation
# route — plain trees (sa_tree16) and joint CT+CPA+PPG points
# (sa_joint16). rlmul_bench exits non-zero when any reported design
# fails its per-double PPA re-synthesis check or its equivalence gate,
# so exit 0 is the whole assertion; no timing is checked.
# Usage: smoke_rlmul_bench.sh <path-to-rlmul_bench>
set -u

bench="${1:?usage: smoke_rlmul_bench.sh <rlmul_bench>}"

for workload in sa_tree16 sa_joint16; do
  out="$("$bench" --workload "$workload" --seconds 1 --trace 0 2>&1)"
  status=$?
  if [ "$status" -ne 0 ]; then
    echo "$out"
    echo "FAIL: rlmul_bench --workload $workload exited with status $status"
    exit 1
  fi
  echo "PASS: $workload $(printf '%s\n' "$out" | tail -n 1)"
done
