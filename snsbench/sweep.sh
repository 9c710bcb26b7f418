#!/usr/bin/env bash
# Run every workload N times and append one record per run to the
# trajectory (snsbench/trajectory.jsonl unless --out is given). Run from
# the root of a checkout:
#
#   bash snsbench/sweep.sh [--quick] [--repeats N] [--out FILE]
#
# Seeds are 1..N. The full tier measures 15 s per run; --quick measures
# 3 s (all five workloads, 3 repeats: about 2.5 minutes on 4 CPUs).
# Compare two trajectories with
#   .bench_build/snsbench/snsbench compare OLD.jsonl NEW.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seconds=15
repeats=3
out="$here/trajectory.jsonl"
while [ $# -gt 0 ]; do
    case "$1" in
    --quick) seconds=3 ;;
    --repeats) repeats="$2"; shift ;;
    --out) out="$2"; shift ;;
    *) echo "usage: sweep.sh [--quick] [--repeats N] [--out FILE]" >&2
       exit 2 ;;
    esac
    shift
done

status=0
for workload in dse_unique dse_unique_int8 dse_boom serve_mixed train; do
    for seed in $(seq 1 "$repeats"); do
        echo "== $workload seed $seed" >&2
        bash "$here/run.sh" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 --json "$out" > /dev/null ||
            status=1
    done
done
exit $status
