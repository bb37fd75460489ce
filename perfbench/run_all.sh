#!/usr/bin/env bash
# Run every workload untraced (end-to-end metrics) and traced (per-layer
# metrics) on one seed. Usage, from the repository root:
#   bash perfbench/run_all.sh [SEED] [SECONDS]
# Each run prints its result as the last line; reports land in .perfbench_out/.
set -uo pipefail
seed=${1:-1}
seconds=${2:-20}
status=0
for workload in sea-recurring rbf-churn sea-small-cbdt; do
    for trace in 0 1; do
        echo "== $workload trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | grep -v '^report ' || status=1
    done
done
exit $status
