/**
 * @file
 * google-benchmark microbenchmarks for the performance-critical
 * kernels: the GEMM primitive under every model, Circuitformer
 * inference per path, complete-circuit-path sampling throughput, and
 * reference-synthesis throughput per gate.
 *
 * These track the constants behind the Fig.-7 runtime story: SNS
 * inference cost per path and synthesis cost per gate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/circuitformer.hh"
#include "designs/designs.hh"
#include "par/thread_pool.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"

namespace {

using namespace sns;

void
BM_GemmSquare(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    par::setThreads(static_cast<int>(state.range(1)));
    Rng rng(1);
    const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
    tensor::Tensor c({n, n});
    for (auto _ : state) {
        c.fill(0.0f);
        tensor::gemmAcc(a.data(), b.data(), c.data(), n, n, n, false,
                        false);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
    state.SetLabel("threads=" + std::to_string(par::configuredThreads()));
    par::setThreads(1);
}
BENCHMARK(BM_GemmSquare)
    ->Args({64, 1})
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({512, 0}); // 0 = all cores

/**
 * The microkernel dispatch head to head: the same shape with the AVX2
 * path forced off (pure scalar fma chains) and on (packed 4x16/1x16
 * kernels). items/s here is FLOP/s — tools/run_bench.sh divides by 1e9
 * for the BENCH_pr3.json GFLOP/s columns. Shapes cover the Table-2
 * model's GEMMs: square, attention-thin (n = d_model), FFN-wide, and
 * both transpose layouts used by backprop.
 */
void
BM_GemmSimdDispatch(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    const int k = static_cast<int>(state.range(2));
    const bool trans_a = state.range(3) != 0;
    const bool trans_b = state.range(4) != 0;
    const bool simd = state.range(5) != 0;
    par::setThreads(1);
    const bool restore = tensor::gemmSimdActive();
    tensor::setGemmSimd(simd);
    Rng rng(1);
    const tensor::Tensor a =
        tensor::Tensor::randn({trans_a ? k : m, trans_a ? m : k}, rng);
    const tensor::Tensor b =
        tensor::Tensor::randn({trans_b ? n : k, trans_b ? k : n}, rng);
    tensor::Tensor c({m, n});
    for (auto _ : state) {
        c.fill(0.0f);
        tensor::gemmAcc(a.data(), b.data(), c.data(), m, n, k, trans_a,
                        trans_b);
        benchmark::DoNotOptimize(c.data());
    }
    tensor::setGemmSimd(restore);
    state.SetItemsProcessed(state.iterations() * 2ll * m * n * k);
    state.SetLabel(std::string(trans_a ? "T" : "N") +
                   (trans_b ? "T" : "N") +
                   (simd ? " simd"
                         : (tensor::gemmSimdAvailable() ? " scalar"
                                                        : " scalar-only")));
}
BENCHMARK(BM_GemmSimdDispatch)
    // {m, n, k, trans_a, trans_b, simd}
    ->Args({256, 256, 256, 0, 0, 0})
    ->Args({256, 256, 256, 0, 0, 1})
    ->Args({64, 64, 512, 0, 1, 0}) // attention scores: q @ k^T
    ->Args({64, 64, 512, 0, 1, 1})
    ->Args({128, 256, 64, 0, 0, 0}) // FFN up-projection
    ->Args({128, 256, 64, 0, 0, 1})
    ->Args({256, 64, 128, 1, 0, 0}) // backprop weight grad: x^T @ dy
    ->Args({256, 64, 128, 1, 0, 1})
    ->Args({96, 107, 128, 0, 0, 0}) // ragged tails: partial panels
    ->Args({96, 107, 128, 0, 0, 1});

/**
 * The quantized-tier GEMM ladder head to head: the same u7 x s8
 * contraction forced to each SNS_SIMD dispatch level (0 scalar,
 * 1 AVX2 maddubs, 2 AVX-512 VNNI vpdpbusd). All levels return the
 * same int32 bits; only throughput differs. items/s is integer
 * multiply-add op/s (2*m*n*k per iteration) — tools/run_bench.sh
 * divides by 1e9 for the BENCH_pr8.json GOP/s columns and gates the
 * int8-vs-fp32 ratio against BM_GemmSimdDispatch on the same shape.
 */
void
BM_QgemmDispatch(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    const int k = static_cast<int>(state.range(2));
    const int cap = static_cast<int>(state.range(3));
    par::setThreads(1);
    tensor::setQgemmLevelCap(cap);
    if (tensor::qgemmLevel() != cap) {
        // This CPU cannot run the requested kernel; report it as
        // skipped rather than silently measuring the fallback.
        tensor::setQgemmLevelCap(-1);
        state.SkipWithError("dispatch level unavailable");
        return;
    }

    tensor::QuantPanels panels;
    {
        Rng rng(1);
        std::vector<int8_t> b(static_cast<size_t>(k) * n);
        for (auto &v : b)
            v = static_cast<int8_t>(
                static_cast<int>(rng.next() % 255u) - 127); // [-127,127]
        tensor::qgemmPackB(b.data(), k, n, panels);
    }
    Rng rng(2);
    std::vector<uint8_t> a(static_cast<size_t>(m) * panels.k_padded, 0);
    for (int i = 0; i < m; ++i)
        for (int p = 0; p < k; ++p)
            a[static_cast<size_t>(i) * panels.k_padded + p] =
                static_cast<uint8_t>(rng.next() % 128u); // u7
    std::vector<int32_t> c(static_cast<size_t>(m) * n);

    for (auto _ : state) {
        tensor::qgemmI32(a.data(), panels, c.data(), m);
        benchmark::DoNotOptimize(c.data());
    }
    tensor::setQgemmLevelCap(-1);
    state.SetItemsProcessed(state.iterations() * 2ll * m * n * k);
    state.SetLabel("level=" + std::to_string(cap) +
                   (cap == 0   ? " scalar"
                    : cap == 1 ? " avx2"
                               : " vnni"));
}
BENCHMARK(BM_QgemmDispatch)
    // {m, n, k, forced dispatch level}
    ->Args({256, 256, 256, 0})
    ->Args({256, 256, 256, 1})
    ->Args({256, 256, 256, 2})
    ->Args({128, 256, 64, 0}) // FFN up-projection shape
    ->Args({128, 256, 64, 1})
    ->Args({128, 256, 64, 2})
    ->Args({96, 107, 130, 0}) // ragged tails: partial panels + k pad
    ->Args({96, 107, 130, 1})
    ->Args({96, 107, 130, 2});

/**
 * The GELU epilogue of the FFN up-projection (128 rows x d_ff 512 at
 * Table-2 width): the per-element libm loop the plan and the walk ran
 * before the tanh kernel, against tensor::geluInPlace on its scalar
 * and AVX2 rungs. All three produce the same bits on glibc's fdlibm
 * tanhf; items/s is GELU elements per second.
 */
void
BM_Gelu(benchmark::State &state)
{
    const int variant = static_cast<int>(state.range(0));
    const bool restore = tensor::gemmSimdActive();
    tensor::setGemmSimd(variant == 2);
    if (variant == 2 && !tensor::gemmSimdActive()) {
        tensor::setGemmSimd(restore);
        state.SkipWithError("AVX2 rung unavailable");
        return;
    }
    constexpr int kCount = 128 * 512;
    Rng rng(3);
    const tensor::Tensor x = tensor::Tensor::randn({kCount}, rng);
    tensor::Tensor y({kCount});
    for (auto _ : state) {
        std::copy(x.data(), x.data() + kCount, y.data());
        if (variant == 0) {
            for (int i = 0; i < kCount; ++i) {
                const float v = y[i];
                const float inner =
                    0.7978845608f * (v + 0.044715f * v * v * v);
                y[i] = 0.5f * v * (1.0f + std::tanh(inner));
            }
        } else {
            tensor::geluInPlace(y.data(), kCount);
        }
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    tensor::setGemmSimd(restore);
    state.SetItemsProcessed(state.iterations() * kCount);
    state.SetLabel(variant == 0   ? "libm loop"
                   : variant == 1 ? "kernel scalar"
                                  : "kernel avx2");
}
BENCHMARK(BM_Gelu)->Arg(0)->Arg(1)->Arg(2);

void
BM_CircuitformerInference(benchmark::State &state)
{
    const int path_len = static_cast<int>(state.range(0));
    par::setThreads(static_cast<int>(state.range(1)));
    core::Circuitformer model(core::CircuitformerConfig{});
    // Normalization is required before predict(); fit on dummy records.
    const auto &vocab = graphir::Vocabulary::instance();
    std::vector<core::PathRecord> dummy;
    std::vector<graphir::TokenId> tokens;
    tokens.push_back(*vocab.parse("dff16"));
    for (int i = 0; i < path_len - 2; ++i)
        tokens.push_back(*vocab.parse("add16"));
    tokens.push_back(*vocab.parse("dff16"));
    dummy.push_back({tokens, 100.0, 10.0, 0.1});
    dummy.push_back({tokens, 200.0, 20.0, 0.2});
    model.fitNormalization(dummy);

    // 256 paths = 4 Circuitformer batches, so the threaded variants
    // exercise the per-batch fan-out of Circuitformer::predict.
    std::vector<std::vector<graphir::TokenId>> batch(256, tokens);
    for (auto _ : state) {
        const auto preds = model.predict(batch);
        benchmark::DoNotOptimize(preds.data());
    }
    state.SetItemsProcessed(state.iterations() * 256);
    state.SetLabel("paths/iter=256, Table-2 model, threads=" +
                   std::to_string(par::configuredThreads()));
    par::setThreads(1);
}
BENCHMARK(BM_CircuitformerInference)
    ->Args({8, 1})
    ->Args({32, 1})
    ->Args({32, 4})
    ->Args({128, 1})
    ->Args({128, 4});

void
BM_PathSampling(benchmark::State &state)
{
    const auto graph = designs::buildSystolicArray(8, 8, 16);
    sampler::SamplerOptions opts;
    opts.max_paths_per_source = 8;
    opts.max_total_paths = 768;
    size_t paths = 0;
    for (auto _ : state) {
        const auto sampled = sampler::PathSampler(opts).sample(graph);
        paths = sampled.size();
        benchmark::DoNotOptimize(paths);
    }
    state.SetItemsProcessed(state.iterations() * paths);
    state.SetLabel("systolic 8x8");
}
BENCHMARK(BM_PathSampling);

void
BM_ReferenceSynthesis(benchmark::State &state)
{
    // Gate-level sizing dominates: items processed = gate count.
    const auto graph = state.range(0) == 0
                           ? designs::buildLookupTable(128, 8)
                           : designs::buildSystolicArray(8, 8, 16);
    const synth::Synthesizer synth{synth::SynthesisOptions{}};
    const int64_t gates =
        static_cast<int64_t>(synth.run(graph).gate_count);
    for (auto _ : state) {
        const auto result = synth.run(graph);
        benchmark::DoNotOptimize(result.timing_ps);
    }
    state.SetItemsProcessed(state.iterations() * gates);
    state.SetLabel(graph.name() + " (items = gates)");
}
BENCHMARK(BM_ReferenceSynthesis)->Arg(0)->Arg(1);

void
BM_PathLabelling(benchmark::State &state)
{
    // Circuit Path Dataset labelling cost: one chain synthesis.
    const auto &vocab = graphir::Vocabulary::instance();
    std::vector<graphir::TokenId> tokens;
    tokens.push_back(*vocab.parse("dff32"));
    for (int i = 0; i < 10; ++i) {
        tokens.push_back(*vocab.parse(i % 2 ? "mul32" : "add32"));
    }
    tokens.push_back(*vocab.parse("dff32"));
    const synth::Synthesizer synth{synth::SynthesisOptions{}};
    for (auto _ : state) {
        const auto result = synth.runPath(tokens);
        benchmark::DoNotOptimize(result.area_um2);
    }
}
BENCHMARK(BM_PathLabelling);

} // namespace

BENCHMARK_MAIN();
