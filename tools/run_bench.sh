#!/bin/sh
# Performance driver (see docs/perf.md and docs/serving.md):
#
#   1. configure + build Release with SNS_NATIVE_ARCH;
#   2. run the GEMM microkernel dispatch benchmarks (scalar vs SIMD,
#      every transpose layout the Circuitformer uses);
#   3. run the Figure-7 harness, which times the path-prediction cache
#      cold vs warm over a repeated-variant sweep and re-checks the
#      bitwise determinism contract with the cache on;
#   4. assemble the machine-readable summary BENCH_pr3.json;
#   5. run the sns-serve throughput harness (closed-loop clients at
#      concurrency 1..8, serial vs micro-batched, bitwise-checked
#      against local predictBatch) and assemble BENCH_pr4.json, gating
#      on batched-vs-serial-dispatch speedup >= 2x at concurrency 8;
#   6. run the edit-loop session harness (one module of a 12-module
#      design tweaked 100x, SnsDesignSession vs repeated full
#      predictBatch, bitwise-checked) and assemble BENCH_pr7.json,
#      gating on session speedup >= 5x;
#   7. run the quantized-tier benchmarks (int8 GEMM ladder
#      scalar/AVX2/VNNI, plus the end-to-end fp64-vs-int8 accuracy and
#      latency harness) and assemble BENCH_pr8.json, gating on int8
#      GEMM throughput >= 1.5x the fp64-tier SIMD GEMM on the same
#      shape, int8 MAEP within 2.0 percentage points of fp64 on every
#      target, the fp64 tier bitwise unchanged by quantize(), and
#      int8 bitwise identical across runs, threads, and SNS_SIMD
#      levels (docs/quantization.md);
#   8. run the sns-router cluster scaling harness (1/2/4 workers
#      behind a router, aggregate-cache sizing, every routed reply
#      bitwise-checked against local predictBatch) and assemble
#      BENCH_pr9.json, gating on routed QPS with 2 workers >= 1.7x
#      routed QPS with 1 worker (docs/cluster.md);
#   9. run the distributed-training harness (the same schedule at
#      world sizes 1/2/4 over an in-process ring, epochs/s, allreduce
#      overhead, ring traffic) and assemble BENCH_pr10.json, gating on
#      every world size producing a bitwise-identical model — on a
#      one-core box the timings are informational, the determinism
#      contract is the gate (docs/distributed.md).
#
# Usage: tools/run_bench.sh [BUILD_DIR] [OUT_JSON]
#        (defaults: build-bench, BENCH_pr3.json at the repo root;
#         the serve summary lands next to it as BENCH_pr4.json, the
#         edit-loop summary as BENCH_pr7.json, the quantized-tier
#         summary as BENCH_pr8.json, the cluster summary as
#         BENCH_pr9.json, and the distributed-training summary as
#         BENCH_pr10.json)
set -e

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build-bench}"
OUT="${2:-$REPO/BENCH_pr3.json}"
OUT_SERVE="$(dirname "$OUT")/BENCH_pr4.json"
OUT_EDIT="$(dirname "$OUT")/BENCH_pr7.json"
OUT_QUANT="$(dirname "$OUT")/BENCH_pr8.json"
OUT_CLUSTER="$(dirname "$OUT")/BENCH_pr9.json"
OUT_DIST="$(dirname "$OUT")/BENCH_pr10.json"

echo "== release build ($BUILD) =="
cmake -B "$BUILD" -S "$REPO" -DCMAKE_BUILD_TYPE=Release \
    -DSNS_NATIVE_ARCH=ON
cmake --build "$BUILD" -j --target microbench_kernels fig07_runtime \
    serve_throughput edit_loop quantized_inference cluster_throughput \
    dist_training

echo "== GEMM microkernels: every SNS_SIMD rung =="
GEMM_CSV="$BUILD/gemm_dispatch.csv"
"$BUILD/bench/microbench_kernels" \
    --benchmark_filter='BM_GemmSimdDispatch' \
    --benchmark_format=csv >"$GEMM_CSV"
# Console copy for the human reading along.
awk -F, 'NR > 1 && $1 ~ /^"?BM_/ {
    gsub(/"/, "", $1); printf "  %-44s %8.2f GFLOP/s\n", $1, $7 / 1e9
}' "$GEMM_CSV"

echo "== Figure 7 harness: cache cold vs warm + determinism =="
FIG07_OUT="$BUILD/fig07_bench.out"
# Quick mode by default; pass --full through the environment if wanted:
#   SNS_BENCH_FLAGS=--full tools/run_bench.sh
# shellcheck disable=SC2086
"$BUILD/bench/fig07_runtime" ${SNS_BENCH_FLAGS:-} | tee "$FIG07_OUT"

echo "== assembling $OUT =="
# The fig07 harness prints `BENCH <key> <value>` lines; the benchmark
# CSV carries items_per_second == FLOP/s in column 7. Everything below
# is POSIX awk — no interpreter dependencies.
awk -F, -v fig07="$FIG07_OUT" '
    BEGIN {
        while ((getline line <fig07) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(fig07)
    }
    NR > 1 && $1 ~ /^"?BM_GemmSimdDispatch/ {
        name = $1
        gsub(/"/, "", name)
        sub(/^BM_GemmSimdDispatch\//, "", name)
        gflops[name] = $7 / 1e9
        order[++n] = name
    }
    END {
        printf "{\n"
        printf "  \"gemm_gflops\": {\n"
        for (i = 1; i <= n; ++i) {
            name = order[i]
            # Args are slash-separated: m/n/k/trans_a/trans_b/rung.
            split(name, a, "/")
            shape = a[1] "x" a[2] "x" a[3]
            layout = (a[4] ? "T" : "N") (a[5] ? "T" : "N")
            mode = a[6] == 0 ? "scalar" : a[6] == 1 ? "avx2" : "avx512"
            key = shape "_" layout "_" mode
            printf "    \"%s\": %.3f%s\n", key, gflops[name], \
                   i < n ? "," : ""
        }
        printf "  },\n"
        printf "  \"predict\": {\n"
        printf "    \"cold_s\": %s,\n", bench["fig07_predict_cold_s"]
        printf "    \"warm_s\": %s,\n", bench["fig07_predict_warm_s"]
        printf "    \"paths_per_s_cold\": %s,\n", \
               bench["fig07_paths_per_s_cold"]
        printf "    \"paths_per_s_warm\": %s,\n", \
               bench["fig07_paths_per_s_warm"]
        printf "    \"warm_cache_speedup_x\": %s,\n", \
               bench["fig07_warm_cache_speedup_x"]
        printf "    \"warm_hit_rate\": %s,\n", \
               bench["fig07_warm_hit_rate"]
        printf "    \"determinism_pass\": %s\n", \
               bench["fig07_determinism"]
        printf "  }\n"
        printf "}\n"
    }
' "$GEMM_CSV" >"$OUT"

cat "$OUT"

# Sanity gates mirrored from ISSUE.md: the warm-cache sweep must be at
# least 2x faster than cold, and the cached passes bitwise identical.
awk -F, -v fig07="$FIG07_OUT" '
    BEGIN {
        speedup = 0
        det = 0
        while ((getline line <fig07) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            if (f[2] == "fig07_warm_cache_speedup_x") speedup = f[3]
            if (f[2] == "fig07_determinism") det = f[3]
        }
        if (det != 1) {
            print "FAIL: cached predictions are not bitwise identical"
            exit 1
        }
        if (speedup + 0 < 2.0) {
            printf "FAIL: warm-cache speedup %.2fx < 2x\n", speedup
            exit 1
        }
        printf "PASS: warm-cache speedup %.2fx, determinism intact\n", \
               speedup
    }
' /dev/null
echo "wrote $OUT"

echo "== sns-serve throughput: serial dispatch vs micro-batched =="
SERVE_OUT="$BUILD/serve_throughput.out"
# shellcheck disable=SC2086
"$BUILD/bench/serve_throughput" ${SNS_BENCH_FLAGS:-} | tee "$SERVE_OUT"

awk -v serve="$SERVE_OUT" '
    BEGIN {
        while ((getline line <serve) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(serve)
        printf "{\n"
        printf "  \"serve\": {\n"
        printf "    \"qps_serial_dispatch\": %s,\n", \
               bench["serve_qps_serial_dispatch"]
        printf "    \"qps_server_serial_c8\": %s,\n", \
               bench["serve_qps_serial_c8"]
        printf "    \"qps_server_batched_c1\": %s,\n", \
               bench["serve_qps_batched_c1"]
        printf "    \"qps_server_batched_c2\": %s,\n", \
               bench["serve_qps_batched_c2"]
        printf "    \"qps_server_batched_c4\": %s,\n", \
               bench["serve_qps_batched_c4"]
        printf "    \"qps_server_batched_c8\": %s,\n", \
               bench["serve_qps_batched_c8"]
        printf "    \"p50_us_batched_c8\": %s,\n", \
               bench["serve_p50_us_batched_c8"]
        printf "    \"p99_us_batched_c8\": %s,\n", \
               bench["serve_p99_us_batched_c8"]
        printf "    \"batched_speedup_c8\": %s,\n", \
               bench["serve_batched_speedup_c8"]
        printf "    \"bitwise_pass\": %s\n", bench["serve_bitwise"]
        printf "  }\n"
        printf "}\n"
    }
' /dev/null >"$OUT_SERVE"

cat "$OUT_SERVE"

# Serving gates mirrored from ISSUE.md: the batching daemon at
# concurrency 8 must beat serial one-request-at-a-time dispatch by
# >= 2x, and every server reply must be bitwise identical to a local
# predictBatch.
awk -v serve="$SERVE_OUT" '
    BEGIN {
        speedup = 0
        bitwise = 0
        while ((getline line <serve) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            if (f[2] == "serve_batched_speedup_c8") speedup = f[3]
            if (f[2] == "serve_bitwise") bitwise = f[3]
        }
        if (bitwise != 1) {
            print "FAIL: server replies are not bitwise identical"
            exit 1
        }
        if (speedup + 0 < 2.0) {
            printf "FAIL: serve batched speedup %.2fx < 2x\n", speedup
            exit 1
        }
        printf "PASS: serve batched speedup %.2fx, replies bitwise\n", \
               speedup
    }
' /dev/null
echo "wrote $OUT_SERVE"

echo "== edit loop: SnsDesignSession vs repeated full predictBatch =="
EDIT_OUT="$BUILD/edit_loop.out"
# shellcheck disable=SC2086
"$BUILD/bench/edit_loop" ${SNS_BENCH_FLAGS:-} | tee "$EDIT_OUT"

awk -v editloop="$EDIT_OUT" '
    BEGIN {
        while ((getline line <editloop) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(editloop)
        printf "{\n"
        printf "  \"edit_loop\": {\n"
        printf "    \"cold_s\": %s,\n", bench["edit_loop_cold_s"]
        printf "    \"session_s\": %s,\n", bench["edit_loop_session_s"]
        printf "    \"speedup_x\": %s,\n", bench["edit_loop_speedup"]
        printf "    \"reuse_rate\": %s,\n", \
               bench["edit_loop_reuse_rate"]
        printf "    \"noop_fast_path_pass\": %s,\n", \
               bench["edit_loop_noop_ok"]
        printf "    \"bitwise_pass\": %s\n", \
               bench["edit_loop_bitwise"]
        printf "  }\n"
        printf "}\n"
    }
' /dev/null >"$OUT_EDIT"

cat "$OUT_EDIT"

# Edit-loop gates mirrored from ISSUE.md: the session must finish the
# 100-edit script >= 5x faster than repeated full predictBatch, every
# update bitwise identical to its cold twin, and a no-op revision must
# take the fingerprint fast path.
awk -v editloop="$EDIT_OUT" '
    BEGIN {
        speedup = 0
        bitwise = 0
        noop = 0
        while ((getline line <editloop) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            if (f[2] == "edit_loop_speedup") speedup = f[3]
            if (f[2] == "edit_loop_bitwise") bitwise = f[3]
            if (f[2] == "edit_loop_noop_ok") noop = f[3]
        }
        if (bitwise != 1) {
            print "FAIL: session updates are not bitwise identical"
            exit 1
        }
        if (noop != 1) {
            print "FAIL: no-op revision missed the fingerprint fast path"
            exit 1
        }
        if (speedup + 0 < 5.0) {
            printf "FAIL: edit-loop session speedup %.2fx < 5x\n", \
                   speedup
            exit 1
        }
        printf "PASS: edit-loop session speedup %.2fx, bitwise\n", \
               speedup
    }
' /dev/null
echo "wrote $OUT_EDIT"

echo "== quantized tier: int8 GEMM ladder (scalar/AVX2/VNNI) =="
QGEMM_CSV="$BUILD/qgemm_dispatch.csv"
"$BUILD/bench/microbench_kernels" \
    --benchmark_filter='BM_QgemmDispatch' \
    --benchmark_format=csv >"$QGEMM_CSV"
awk -F, 'NR > 1 && $1 ~ /^"?BM_/ {
    gsub(/"/, "", $1); printf "  %-44s %8.2f GOP/s\n", $1, $7 / 1e9
}' "$QGEMM_CSV"

echo "== quantized tier: fp64 vs int8 accuracy + latency =="
QUANT_OUT="$BUILD/quantized_inference.out"
# shellcheck disable=SC2086
"$BUILD/bench/quantized_inference" ${SNS_BENCH_FLAGS:-} | tee "$QUANT_OUT"

# BENCH_pr8.json: the int8 GEMM ladder (GOP/s per forced SNS_SIMD
# level) from the benchmark CSV, the fp64-tier SIMD GFLOP/s on the
# same 256^3 shape from the PR 3 CSV, and the end-to-end harness's
# BENCH lines.
awk -F, -v quant="$QUANT_OUT" -v gemm="$GEMM_CSV" '
    BEGIN {
        while ((getline line <quant) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(quant)
        while ((getline line <gemm) > 0) {
            nf = split(line, f, ",")
            if (nf < 7)
                continue
            name = f[1]
            gsub(/"/, "", name)
            # The best SIMD rung on the 256^3 shape, so the gate below
            # means "int8 beats the fastest fp32 kernel".
            if (name ~ /^BM_GemmSimdDispatch\/256\/256\/256\/0\/0\/[12]$/ &&
                f[7] / 1e9 > fp_gflops)
                fp_gflops = f[7] / 1e9
        }
        close(gemm)
    }
    NR > 1 && $1 ~ /^"?BM_QgemmDispatch/ {
        name = $1
        gsub(/"/, "", name)
        sub(/^BM_QgemmDispatch\//, "", name)
        gops[name] = $7 / 1e9
        order[++n] = name
    }
    END {
        printf "{\n"
        printf "  \"qgemm_gops\": {\n"
        best = 0
        for (i = 1; i <= n; ++i) {
            name = order[i]
            # Args are slash-separated: m/n/k/level.
            split(name, a, "/")
            shape = a[1] "x" a[2] "x" a[3]
            level = a[4] == 0 ? "scalar" : a[4] == 1 ? "avx2" \
                  : a[4] == 2 ? "vnni" : "amx"
            key = shape "_" level
            if (shape == "256x256x256" && gops[name] > best)
                best = gops[name]
            printf "    \"%s\": %.3f%s\n", key, gops[name], \
                   i < n ? "," : ""
        }
        printf "  },\n"
        printf "  \"gemm_ratio\": {\n"
        printf "    \"fp_simd_gflops_256\": %.3f,\n", fp_gflops
        printf "    \"int8_best_gops_256\": %.3f,\n", best
        printf "    \"int8_vs_fp_x\": %.3f\n", \
               (fp_gflops > 0 ? best / fp_gflops : 0)
        printf "  },\n"
        printf "  \"predict\": {\n"
        printf "    \"fp64_s\": %s,\n", bench["quant_fp64_predict_s"]
        printf "    \"int8_s\": %s,\n", bench["quant_int8_predict_s"]
        printf "    \"e2e_speedup_x\": %s,\n", \
               bench["quant_e2e_speedup_x"]
        printf "    \"calibrate_s\": %s\n", bench["quant_calibrate_s"]
        printf "  },\n"
        printf "  \"accuracy\": {\n"
        printf "    \"fp64_timing_maep\": %s,\n", \
               bench["quant_fp64_timing_maep"]
        printf "    \"fp64_area_maep\": %s,\n", \
               bench["quant_fp64_area_maep"]
        printf "    \"fp64_power_maep\": %s,\n", \
               bench["quant_fp64_power_maep"]
        printf "    \"int8_timing_maep\": %s,\n", \
               bench["quant_int8_timing_maep"]
        printf "    \"int8_area_maep\": %s,\n", \
               bench["quant_int8_area_maep"]
        printf "    \"int8_power_maep\": %s,\n", \
               bench["quant_int8_power_maep"]
        printf "    \"maep_delta_pp\": %s,\n", \
               bench["quant_maep_delta_pp"]
        printf "    \"epsilon_pp\": 2.0\n"
        printf "  },\n"
        printf "  \"determinism\": {\n"
        printf "    \"fp64_bitwise_after_quantize\": %s,\n", \
               bench["quant_fp64_bitwise"]
        printf "    \"int8_bitwise_all_levels\": %s,\n", \
               bench["quant_int8_deterministic"]
        printf "    \"simd_max_level\": %s\n", \
               bench["quant_simd_max_level"]
        printf "  }\n"
        printf "}\n"
    }
' "$QGEMM_CSV" >"$OUT_QUANT"

cat "$OUT_QUANT"

# Quantized-tier gates mirrored from ISSUE.md: int8 GEMM >= 1.5x the
# fp64-tier SIMD GEMM at the best dispatch level, int8 MAEP within
# 2.0 pp of fp64 on every target, quantize() leaves fp64 bitwise
# untouched, and int8 is bitwise identical at every SNS_SIMD level.
awk -v quant="$QUANT_OUT" -v json="$OUT_QUANT" '
    BEGIN {
        while ((getline line <quant) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            bench[f[2]] = f[3]
        }
        close(quant)
        ratio = 0
        while ((getline line <json) > 0) {
            if (split(line, f, " ") >= 2 && \
                f[1] == "\"int8_vs_fp_x\":")
                ratio = f[2]
        }
        close(json)
        if (bench["quant_fp64_bitwise"] != 1) {
            print "FAIL: quantize() perturbed the fp64 tier"
            exit 1
        }
        if (bench["quant_int8_deterministic"] != 1) {
            print "FAIL: int8 predictions not bitwise across levels"
            exit 1
        }
        if (bench["quant_maep_delta_pp"] + 0 > 2.0) {
            printf "FAIL: int8 MAEP regression %.3f pp > 2.0 pp\n", \
                   bench["quant_maep_delta_pp"]
            exit 1
        }
        if (ratio + 0 < 1.5) {
            printf "FAIL: int8 GEMM only %.2fx the fp64 SIMD GEMM\n", \
                   ratio
            exit 1
        }
        printf "PASS: int8 GEMM %.2fx fp64 SIMD, MAEP delta %.3f pp, " \
               "bitwise intact\n", ratio, \
               bench["quant_maep_delta_pp"]
    }
' /dev/null
echo "wrote $OUT_QUANT"

echo "== sns-router cluster: 1/2/4-worker scaling =="
CLUSTER_OUT="$BUILD/cluster_throughput.out"
# shellcheck disable=SC2086
"$BUILD/bench/cluster_throughput" ${SNS_BENCH_FLAGS:-} | tee "$CLUSTER_OUT"

awk -v cluster="$CLUSTER_OUT" '
    BEGIN {
        while ((getline line <cluster) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(cluster)
        printf "{\n"
        printf "  \"cluster\": {\n"
        printf "    \"corpus_designs\": %s,\n", \
               bench["cluster_corpus_designs"]
        printf "    \"corpus_cache_entries\": %s,\n", \
               bench["cluster_corpus_cache_entries"]
        printf "    \"worker_cache_capacity\": %s,\n", \
               bench["cluster_worker_cache_capacity"]
        printf "    \"qps_direct\": %s,\n", bench["cluster_qps_direct"]
        printf "    \"qps_w1\": %s,\n", bench["cluster_qps_w1"]
        printf "    \"qps_w2\": %s,\n", bench["cluster_qps_w2"]
        printf "    \"qps_w4\": %s,\n", bench["cluster_qps_w4"]
        printf "    \"scaling_w2_x\": %s,\n", \
               bench["cluster_scaling_w2"]
        printf "    \"scaling_w4_x\": %s,\n", \
               bench["cluster_scaling_w4"]
        printf "    \"router_relative_qps\": %s,\n", \
               bench["cluster_router_relative_qps"]
        printf "    \"bitwise_pass\": %s\n", bench["cluster_bitwise"]
        printf "  }\n"
        printf "}\n"
    }
' /dev/null >"$OUT_CLUSTER"

cat "$OUT_CLUSTER"

# Cluster gates mirrored from ISSUE.md: two routed workers must beat
# one by >= 1.7x on the sweep corpus, and every reply that reaches a
# client through the router must be bitwise identical to a local
# predictBatch (the single-server contract, preserved end to end).
awk -v cluster="$CLUSTER_OUT" '
    BEGIN {
        scaling = 0
        bitwise = 0
        while ((getline line <cluster) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            if (f[2] == "cluster_scaling_w2") scaling = f[3]
            if (f[2] == "cluster_bitwise") bitwise = f[3]
        }
        if (bitwise != 1) {
            print "FAIL: routed replies are not bitwise identical"
            exit 1
        }
        if (scaling + 0 < 1.7) {
            printf "FAIL: cluster scaling %.2fx < 1.7x at 2 workers\n", \
                   scaling
            exit 1
        }
        printf "PASS: cluster scaling %.2fx at 2 workers, bitwise\n", \
               scaling
    }
' /dev/null
echo "wrote $OUT_CLUSTER"

echo "== distributed training: world 1/2/4 bitwise + overhead =="
DIST_OUT="$BUILD/dist_training.out"
# shellcheck disable=SC2086
"$BUILD/bench/dist_training" ${SNS_BENCH_FLAGS:-} | tee "$DIST_OUT"

awk -v dist="$DIST_OUT" '
    BEGIN {
        while ((getline line <dist) > 0) {
            if (split(line, f, " ") == 3 && f[1] == "BENCH")
                bench[f[2]] = f[3]
        }
        close(dist)
        printf "{\n"
        printf "  \"dist_training\": {\n"
        printf "    \"epochs\": %s,\n", bench["dist_epochs"]
        printf "    \"grad_slices\": %s,\n", bench["dist_grad_slices"]
        printf "    \"epochs_per_s_w1\": %s,\n", \
               bench["dist_epochs_per_s_w1"]
        printf "    \"epochs_per_s_w2\": %s,\n", \
               bench["dist_epochs_per_s_w2"]
        printf "    \"epochs_per_s_w4\": %s,\n", \
               bench["dist_epochs_per_s_w4"]
        printf "    \"allreduce_overhead_pct_w2\": %s,\n", \
               bench["dist_allreduce_overhead_pct_w2"]
        printf "    \"allreduce_overhead_pct_w4\": %s,\n", \
               bench["dist_allreduce_overhead_pct_w4"]
        printf "    \"bytes_sent_w2\": %s,\n", bench["dist_bytes_sent_w2"]
        printf "    \"bytes_sent_w4\": %s,\n", bench["dist_bytes_sent_w4"]
        printf "    \"bitwise_pass\": %s\n", bench["dist_bitwise"]
        printf "  }\n"
        printf "}\n"
    }
' /dev/null >"$OUT_DIST"

cat "$OUT_DIST"

# The distributed gate mirrored from ISSUE.md: every world size must
# produce the same bits. Timings on a one-core container are
# informational only, so nothing else is gated here.
awk -v dist="$DIST_OUT" '
    BEGIN {
        bitwise = 0
        while ((getline line <dist) > 0) {
            if (split(line, f, " ") != 3 || f[1] != "BENCH")
                continue
            if (f[2] == "dist_bitwise") bitwise = f[3]
        }
        if (bitwise != 1) {
            print "FAIL: world sizes 1/2/4 disagree bitwise"
            exit 1
        }
        print "PASS: worlds 1/2/4 bitwise identical"
    }
' /dev/null
echo "wrote $OUT_DIST"
