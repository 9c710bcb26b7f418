#!/bin/sh
# Tier-2 verification driver (see ROADMAP.md and docs/verify.md):
#
#   1. configure + build with AddressSanitizer and UBSan, then in
#      Release, and fail on any compiler warning either build prints;
#   2. run the full test suite under the sanitizers;
#   3. run sns_lint over the bundled example designs and datasets
#      (must be clean) and over each corrupted fixture alone (must exit
#      exactly 1);
#   4. SNS_SIMD ladder (src/tensor/simd.hh): re-run the kernel,
#      quantized, plan runtime and ragged training tests (autograd
#      ops, encoder, both training pins) at every rung (0 scalar,
#      1 AVX2, 2 AVX-512, 3 AMX-INT8 for the integer GEMM) under the
#      sanitizers, check fp64 and int8 CLI
#      predictions are bitwise stable across rungs, lint a freshly
#      calibrated plan_int8.snsp (must be clean) and the
#      corrupted-scales fixture (must fail);
#   5. sweep all 2^32 float bit patterns through every rung of the
#      fdlibm tanh kernel (docs/perf.md) once, bitwise;
#   6. run tools/run_docs_check.sh (dead markdown links, documented
#      CLI flags missing from --help);
#   7. build with ThreadSanitizer and run the parallel-runtime-heavy
#      suites (test_par, test_perf, test_tensor, test_core, test_obs,
#      test_serve, test_cluster, test_dist — the batching queue, the
#      metrics registry, the router's concurrent handler/health
#      threads, and the training ring's per-rank threads exchanging
#      frames over the duplex allreduce path are the most race-prone
#      code in the repo) under TSan. The cluster suite includes
#      concurrent routed sessions with a mid-traffic DRAIN/RESUME
#      cycle, gating that no admitted request is dropped; the dist
#      suite runs full multi-rank training loops over localRing().
#
# Usage: tools/run_lint.sh [BUILD_DIR]   (default: build-lint;
#        the TSan and Release builds land in BUILD_DIR-tsan and
#        BUILD_DIR-release)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build-lint}"
TSAN_BUILD="$BUILD-tsan"

RELEASE_BUILD="$BUILD-release"
# A run that found warnings leaves them in warnings.log; both checked
# builds start from clean then, so the objects that warned are compiled
# (and checked) again instead of being skipped as up to date.
WARNINGS="$BUILD/warnings.log"
REBUILD=0
if [ -s "$WARNINGS" ]; then
    REBUILD=1
fi

# build_checked DIR: build DIR with its output in DIR/build.log, and
# fail on any warning: line in it. Every object these builds compile
# is a repository source, so a warning GCC places in a system header
# counts too (GCC 12's false-positive -Wrestrict on inlined
# std::string concatenation lands in libstdc++, and only at -O3, hence
# the Release build).
build_checked() {
    if [ "$REBUILD" -eq 1 ]; then
        cmake --build "$1" --target clean
    fi
    status=0
    cmake --build "$1" -j "$(nproc)" > "$1/build.log" 2>&1 || status=$?
    cat "$1/build.log"
    if [ "$status" -ne 0 ]; then
        exit "$status"
    fi
    grep "warning:" "$1/build.log" >> "$WARNINGS" || true
    if [ -s "$WARNINGS" ]; then
        echo "the build in $1 printed compiler warnings:" >&2
        cat "$WARNINGS" >&2
        exit 1
    fi
}

echo "== sanitizer build ($BUILD), no warnings =="
cmake -B "$BUILD" -S "$REPO" -DSNS_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
: > "$WARNINGS"
build_checked "$BUILD"

echo "== Release build ($RELEASE_BUILD), no warnings =="
cmake -B "$RELEASE_BUILD" -S "$REPO" -DCMAKE_BUILD_TYPE=Release
build_checked "$RELEASE_BUILD"
rm -f "$WARNINGS"

echo "== ctest under ASan+UBSan =="
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

LINT="$BUILD/tools/sns_lint"

echo "== sns_lint: bundled examples must be clean =="
"$LINT" --self-check "$REPO"/examples/designs/*

echo "== sns_lint: each corrupted fixture must fail with exit 1 =="
# One file at a time and exactly status 1, so a crash (an abort exits
# 134) never counts as a rejection; --werror because width_mismatch.snl
# is warning-only.
for fixture in "$REPO"/tests/fixtures/*.snl "$REPO"/tests/fixtures/*.paths \
        "$REPO"/tests/fixtures/*.ckpt "$REPO"/tests/fixtures/*.snsp; do
    status=0
    "$LINT" --werror "$fixture" > /dev/null || status=$?
    if [ "$status" -ne 1 ]; then
        echo "sns_lint exited $status on $fixture (expected 1)" >&2
        exit 1
    fi
done

echo "== execution plan: trace, lint, planned-vs-walk bitwise =="
CLI="$BUILD/tools/sns-cli"
PLAN_WORK="$(mktemp -d)"
trap 'rm -rf "$PLAN_WORK"' EXIT
"$CLI" train --out="$PLAN_WORK/model" --dataset=smoke --fast --seed=7
# A freshly traced + saved plan lints clean and carries the
# zero-allocation proof note.
"$LINT" "$PLAN_WORK/model/plan.snsp"
"$LINT" --notes "$PLAN_WORK/model/plan.snsp" \
    | grep -q "zero per-batch heap allocations"
"$CLI" plan --model="$PLAN_WORK/model" > /dev/null
# The planned hot path and the module walk must agree byte for byte
# under the sanitizers (the kill switch selects the walk).
cat > "$PLAN_WORK/fir.snl" <<'EOF'
design fir2
input  x 16
node   p0 mul 32 x c0
node   p1 mul 32 x c1
reg    c0 16
reg    c1 16
reg    z0 32 p0
node   s1 add 32 p1 z0
reg    z1 32 s1
output y  32 z1
EOF
SNS_PLAN=1 "$CLI" predict --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl" \
    | grep -v "predicted in" > "$PLAN_WORK/planned.out"
SNS_PLAN=0 "$CLI" predict --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl" \
    | grep -v "predicted in" > "$PLAN_WORK/walk.out"
diff "$PLAN_WORK/planned.out" "$PLAN_WORK/walk.out"

echo "== SNS_SIMD ladder sweep under ASan+UBSan =="
# Every kernel on the ladder promises identical bits at every rung
# (docs/perf.md, docs/quantization.md); run the kernel and quantized
# suites with the environment capping the ladder at each rung, so the
# promise is sanitizer-checked on the scalar, AVX2, and (when the CPU
# allows) AVX-512 and AMX paths alike; a CPU without AMX runs level 3
# as level 2. ASan does not see tile loads and stores, so the qgemm
# tests put their operands against guard pages. The plan runtime suite rides along: its
# ragged executor packs per-row spans into arena offsets, and ASan
# catches any span or offset overrun at every rung. So does the ragged
# training walk (docs/training.md#ragged-training): its autograd ops,
# the encoder tests and both training pins, whose values must not
# depend on the rung.
KERNEL_TESTS='Qgemm.*:GemmSimd.*:TanhKernel.*:GeluKernel.*:SimdLadder.*'
RAGGED_OP_TESTS='Autograd.Bmm*:Autograd.SplitMerge*:Autograd.KeyPaddingMask*'
RAGGED_OP_TESTS="$RAGGED_OP_TESTS:Autograd.MaskedSoftmax*:Autograd.MeanPool*"
for level in 0 1 2 3; do
    echo "-- SNS_SIMD=$level --"
    SNS_SIMD=$level "$BUILD/tests/test_tensor" \
        --gtest_filter="$KERNEL_TESTS:$RAGGED_OP_TESTS" > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_nn" \
        --gtest_filter='TransformerTest.*' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_core" \
        --gtest_filter='TrainerTest.*FingerprintIsPinned' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_plan" \
        --gtest_filter='PlanQuantTest.*:PlanRuntimeTest.*' > /dev/null
    SNS_SIMD=$level "$BUILD/tests/test_verify" \
        --gtest_filter='*Quant*' > /dev/null
done

echo "== quantized tier: calibrate, lint, cross-rung bitwise =="
# Calibrate the freshly trained model (writes plan_int8.snsp), which
# must lint clean like any other shipped plan...
"$CLI" quantize --model="$PLAN_WORK/model" "$PLAN_WORK/fir.snl"
"$LINT" "$PLAN_WORK/model/plan_int8.snsp"
# ...and an int8 CLI predict must be bitwise stable across the ladder.
for level in 0 1 2 3; do
    SNS_SIMD=$level "$CLI" predict --model="$PLAN_WORK/model" \
        --precision=int8 "$PLAN_WORK/fir.snl" \
        | grep -v "predicted in" > "$PLAN_WORK/int8_$level.out"
done
diff "$PLAN_WORK/int8_0.out" "$PLAN_WORK/int8_1.out"
diff "$PLAN_WORK/int8_0.out" "$PLAN_WORK/int8_2.out"
diff "$PLAN_WORK/int8_0.out" "$PLAN_WORK/int8_3.out"
# The fp64 tier (fp32 GEMM and tanh rungs) must be just as stable, and
# equal to the uncapped run above.
for level in 0 1 2; do
    SNS_SIMD=$level "$CLI" predict --model="$PLAN_WORK/model" \
        "$PLAN_WORK/fir.snl" \
        | grep -v "predicted in" > "$PLAN_WORK/fp64_$level.out"
    diff "$PLAN_WORK/planned.out" "$PLAN_WORK/fp64_$level.out"
done
# The int8 tier must genuinely differ from fp64 (it is a second tier,
# not a relabel)...
if diff -q "$PLAN_WORK/int8_0.out" "$PLAN_WORK/planned.out" > /dev/null; then
    echo "int8 predictions are identical to fp64 — tier not active?" >&2
    exit 1
fi
# ...and a corrupted side table must be rejected with exit 1 exactly.
set +e
"$LINT" "$REPO/tests/fixtures/plan_bad_scales.snsp"
BAD_SCALES_EXIT=$?
set -e
if [ "$BAD_SCALES_EXIT" -ne 1 ]; then
    echo "expected exit 1 on plan_bad_scales.snsp, got $BAD_SCALES_EXIT" >&2
    exit 1
fi

echo "== tanh kernel: exhaustive 2^32 rung-agreement sweep =="
# Too slow for every ctest run (a DISABLED_ test), so it runs here once:
# the AVX2 and AVX-512 rungs must each agree with the scalar rung on
# every float bit pattern.
SNS_THREADS="$(nproc)" "$BUILD/tests/test_tensor" \
    --gtest_also_run_disabled_tests \
    --gtest_filter='TanhKernel.DISABLED_RungsAgreeExhaustive'

echo "== documentation drift check =="
"$REPO/tools/run_docs_check.sh" "$BUILD"

echo "== ThreadSanitizer build ($TSAN_BUILD) =="
cmake -B "$TSAN_BUILD" -S "$REPO" -DSNS_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD" -j "$(nproc)" --target test_par test_perf test_tensor \
    test_core test_obs test_serve test_session test_plan test_cluster \
    test_dist

echo "== sns::par + serve + cluster suites under TSan (SNS_THREADS=4) =="
# Multi-threaded pool width so TSan actually sees concurrent regions.
for t in test_par test_perf test_tensor test_core test_obs test_serve \
         test_session test_plan test_cluster test_dist; do
    SNS_THREADS=4 "$TSAN_BUILD/tests/$t"
done

echo "run_lint: all checks passed"
