#!/usr/bin/env bash
# The snsbench_smoke test: every workload at 1 s, untraced and traced.
# Each run must pass its bitwise checks and print every metric of
# BENCHMARK.json for its mode with the right unit; each traced run's
# Chrome trace must parse with every span parent present.
#
#   bash snsbench/smoke.sh PATH/TO/snsbench     (from the checkout root)
set -euo pipefail

bin="$1"
work=".bench_build/snsbench/smoke"
mkdir -p "$work"
status=0
for workload in dse_unique dse_unique_int8 dse_boom serve_mixed train; do
    for trace in 0 1; do
        result="$work/$workload.$trace.json"
        trace_file="$work/$workload.trace.json"
        rm -f "$trace_file"
        if ! "$bin" --workload "$workload" --seed 1 --seconds 1 \
            --trace "$trace" --trace-file "$trace_file" \
            --work-dir "$work" 2> "$work/$workload.$trace.err" |
            tail -n 1 > "$result"; then
            echo "FAIL $workload trace=$trace: run failed" >&2
            cat "$work/$workload.$trace.err" >&2
            status=1
            continue
        fi
        args=(--benchmark BENCHMARK.json --result "$result" --trace "$trace")
        if [ "$trace" = 1 ]; then
            args+=(--trace-file "$trace_file")
        fi
        if "$bin" validate "${args[@]}"; then
            echo "ok   $workload trace=$trace"
        else
            echo "FAIL $workload trace=$trace" >&2
            status=1
        fi
    done
done
exit $status
