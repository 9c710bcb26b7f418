#!/usr/bin/env bash
# Build snsbench from this checkout's sources (first run only) and run
# one workload. Run from the root of a checkout:
#
#   bash snsbench/run.sh --workload dse_unique --seed 1 --seconds 10 --trace 0
#
# Arguments go to the snsbench binary unchanged (see README.md). The
# build lives in .bench_build/snsbench; its log is build.log there.
# Standard output ends with the run's one-line JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=".bench_build/snsbench"

if [ ! -f "$here/../src/CMakeLists.txt" ]; then
    echo "snsbench: no sources at $here/../src; run from a full checkout" >&2
    exit 2
fi

mkdir -p "$build"
generator=()
if command -v ninja > /dev/null; then
    generator=(-G Ninja)
fi
(
    # One build at a time per checkout.
    flock 9
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" "${generator[@]}" \
            -DCMAKE_BUILD_TYPE=Release
    fi
    cmake --build "$build" --target snsbench -j "$(nproc)"
) 9> "$build/.lock" > "$build/build.log" 2>&1 || {
    cat "$build/build.log" >&2
    echo "snsbench: build failed" >&2
    exit 2
}

# The revision goes into trajectory records; an exported checkout has
# no .git and records "unknown".
if [ -d "$here/../.git" ]; then
    SNSBENCH_GIT_REV="$(git -C "$here/.." describe --always --dirty \
        2> /dev/null || echo unknown)"
    export SNSBENCH_GIT_REV
fi
exec "$build/snsbench" --work-dir "$build" "$@"
