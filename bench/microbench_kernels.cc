/**
 * @file
 * google-benchmark microbenchmarks for the performance-critical
 * kernels: the GEMM primitive under every model, Circuitformer
 * inference per path, complete-circuit-path sampling throughput, one
 * warm-cache BOOM prediction, and reference-synthesis throughput per
 * gate.
 *
 * These track the constants behind the Fig.-7 runtime story: SNS
 * inference cost per path and synthesis cost per gate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "boom/boom.hh"
#include "core/predictor.hh"
#include "designs/designs.hh"
#include "par/thread_pool.hh"
#include "plan/runtime.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "tensor/simd.hh"

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

/** Mean tokens per sampled path on snsbench's dse workloads (14.4 at
 * seed 2, rounded as snsbench rounds it for tensor.gemm_gflops). */
constexpr int kDseMeanPathTokens = 14;

/** Force the shared SNS_SIMD ladder to `level`; false (and the state
 * marked skipped) when this CPU or environment cannot run it. */
bool
forceSimdLevel(benchmark::State &state, int level)
{
    tensor::setSimdLevelCap(level);
    if (tensor::simdLevel() == level)
        return true;
    tensor::setSimdLevelCap(-1);
    state.SkipWithError("SNS_SIMD rung unavailable");
    return false;
}

/**
 * The fp32 GEMM ladder head to head: the same shape forced to each
 * rung (0 scalar fma chains, 1 AVX2 4x16/1x16, 2 AVX-512 12x32 blocks).
 * items/s here is FLOP/s. Shapes cover the Table-2 model's
 * GEMMs: square, attention-thin (n = d_model), FFN-wide, both
 * transpose layouts used by backprop, and the plan's feed-forward pair
 * at the shape snsbench's tensor.gemm_gflops measures.
 */
void
BM_GemmSimdDispatch(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    const int k = static_cast<int>(state.range(2));
    const bool trans_a = state.range(3) != 0;
    const bool trans_b = state.range(4) != 0;
    const int level = static_cast<int>(state.range(5));
    par::setThreads(1);
    if (!forceSimdLevel(state, level))
        return;
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
    tensor::setSimdLevelCap(-1);
    state.SetItemsProcessed(state.iterations() * 2ll * m * n * k);
    state.SetLabel(std::string(trans_a ? "T" : "N") +
                   (trans_b ? "T" : "N") + " " +
                   tensor::simdLevelName(level));
}

/** {m, n, k, trans_a, trans_b} at every rung. */
void
gemmLadderArgs(benchmark::internal::Benchmark *bench)
{
    // The plan's FFN at snsbench's shape: one padded batch of 64 paths
    // at the dse workloads' mean path length, d_model 128 <-> d_ff 512.
    constexpr int kPlanRows = 64 * kDseMeanPathTokens;
    const std::vector<std::vector<int64_t>> shapes = {
        {256, 256, 256, 0, 0},
        {64, 64, 512, 0, 1},        // attention scores: q @ k^T
        {128, 256, 64, 0, 0},       // FFN up-projection
        {256, 64, 128, 1, 0},       // backprop weight grad: x^T @ dy
        {96, 107, 128, 0, 0},       // ragged tails: partial panels
        {kPlanRows, 512, 128, 0, 0}, // plan FFN up: d_model -> d_ff
        {kPlanRows, 128, 512, 0, 0}, // plan FFN down: d_ff -> d_model
    };
    for (const auto &shape : shapes)
        for (int64_t level = 0; level <= 2; ++level) {
            std::vector<int64_t> args = shape;
            args.push_back(level);
            bench->Args(args);
        }
}
BENCHMARK(BM_GemmSimdDispatch)->Apply(gemmLadderArgs);

/**
 * The quantized-tier GEMM ladder head to head: the same u7 x s8
 * contraction forced to each SNS_SIMD dispatch level (0 scalar,
 * 1 AVX2 maddubs, 2 AVX-512 VNNI vpdpbusd, 3 AMX-INT8 tdpbusd). All
 * levels return the same int32 bits; only throughput differs. items/s
 * is integer multiply-add op/s (2*m*n*k per iteration), comparable
 * with BM_GemmSimdDispatch's FLOP/s on the same shape.
 * bench/quantized_inference gates the int8-vs-fp32 ratio on 256^3.
 */
void
BM_QgemmDispatch(benchmark::State &state)
{
    const int m = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    const int k = static_cast<int>(state.range(2));
    const int cap = static_cast<int>(state.range(3));
    par::setThreads(1);
    // A rung this CPU cannot run is reported as skipped rather than
    // silently measuring the fallback.
    if (!forceSimdLevel(state, cap))
        return;

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
    tensor::setSimdLevelCap(-1);
    state.SetItemsProcessed(state.iterations() * 2ll * m * n * k);
    state.SetLabel("level=" + std::to_string(cap) +
                   (cap == 0   ? " scalar"
                    : cap == 1 ? " avx2"
                    : cap == 2 ? " vnni"
                               : " amx"));
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
    ->Args({96, 107, 130, 2})
    // The int8 plan's shapes at its 403-row batch: the attention and
    // output projections (k 128 -> n 128), FFN up (128 -> 512) and
    // FFN down (512 -> 128), on the VNNI and AMX rungs.
    ->Args({403, 128, 128, 2})
    ->Args({403, 128, 128, 3})
    ->Args({403, 512, 128, 2})
    ->Args({403, 512, 128, 3})
    ->Args({403, 128, 512, 2})
    ->Args({403, 128, 512, 3});

/**
 * The GELU epilogue of the FFN up-projection (128 rows x d_ff 512 at
 * Table-2 width). BM_GeluLibmLoop is the per-element libm loop the plan
 * and the walk ran before the tanh kernel; BM_Gelu is
 * tensor::geluInPlace at each rung of the ladder. All produce the same
 * bits on glibc's fdlibm tanhf; items/s is GELU elements per second.
 */
constexpr int kGeluCount = 128 * 512;

void
BM_GeluLibmLoop(benchmark::State &state)
{
    Rng rng(3);
    const tensor::Tensor x = tensor::Tensor::randn({kGeluCount}, rng);
    tensor::Tensor y({kGeluCount});
    for (auto _ : state) {
        std::copy(x.data(), x.data() + kGeluCount, y.data());
        for (int i = 0; i < kGeluCount; ++i) {
            const float v = y[i];
            const float inner = 0.7978845608f * (v + 0.044715f * v * v * v);
            y[i] = 0.5f * v * (1.0f + std::tanh(inner));
        }
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kGeluCount);
}
BENCHMARK(BM_GeluLibmLoop);

void
BM_Gelu(benchmark::State &state)
{
    const int level = static_cast<int>(state.range(0));
    if (!forceSimdLevel(state, level))
        return;
    Rng rng(3);
    const tensor::Tensor x = tensor::Tensor::randn({kGeluCount}, rng);
    tensor::Tensor y({kGeluCount});
    for (auto _ : state) {
        std::copy(x.data(), x.data() + kGeluCount, y.data());
        tensor::geluInPlace(y.data(), kGeluCount);
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    tensor::setSimdLevelCap(-1);
    state.SetItemsProcessed(state.iterations() * kGeluCount);
    state.SetLabel(tensor::simdLevelName(level));
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
BM_CircuitformerMixedLengths(benchmark::State &state)
{
    // The 28 paths of one dse_unique chain design (lengths 2-22, 403
    // real tokens) as one planned batch. The batch pads every path to
    // 22 (616 token rows), so unlike the equal-length case above this
    // one sees what padded positions cost. Items are real tokens.
    const std::vector<int> lengths = {2,  2,  2,  2,  3,  6,  9,
                                      9,  11, 12, 13, 13, 14, 15,
                                      15, 16, 20, 21, 21, 21, 22,
                                      22, 22, 22, 22, 22, 22, 22};
    par::setThreads(1);
    core::Circuitformer model(core::CircuitformerConfig{});
    const auto &vocab = graphir::Vocabulary::instance();
    std::vector<std::vector<graphir::TokenId>> paths;
    int64_t tokens = 0;
    for (const int len : lengths) {
        std::vector<graphir::TokenId> path(len, *vocab.parse("add16"));
        path.front() = path.back() = *vocab.parse("dff16");
        paths.push_back(std::move(path));
        tokens += len;
    }
    model.fitNormalization({{paths.back(), 100.0, 10.0, 0.1},
                            {paths.front(), 200.0, 20.0, 0.2}});
    model.bindPlan(
        plan::compilePlan(model.tracePlan(64), model.parameters()));
    for (auto _ : state) {
        const auto preds = model.predict(paths);
        benchmark::DoNotOptimize(preds.data());
    }
    state.SetItemsProcessed(state.iterations() * tokens);
    state.SetLabel("one chain design, planned, items = real tokens");
}
BENCHMARK(BM_CircuitformerMixedLengths);

void
BM_PathSampling(benchmark::State &state)
{
    // Arg 0: an 8x8 systolic array, at most 768 paths. Arg 1: the
    // default BOOM Table-10 configuration (~1200 vertices, ~630 paths)
    // at the fast-training sampler options, one dse_boom design.
    // Second arg 0: sample() into one SampledPath per path; 1: into a
    // PathSet reused across iterations, as predictBatch samples.
    const bool boom_design = state.range(0) == 1;
    const auto graph = boom_design
                           ? boom::buildBoomCore(boom::BoomParams{})
                           : designs::buildSystolicArray(8, 8, 16);
    sampler::SamplerOptions opts;
    opts.max_paths_per_source = 8;
    if (!boom_design)
        opts.max_total_paths = 768;
    const sampler::PathSampler sampler(opts);
    sampler::PathSet set;
    size_t paths = 0;
    for (auto _ : state) {
        if (state.range(1) == 0) {
            paths = sampler.sample(graph).size();
        } else {
            sampler.sample(graph, set);
            paths = set.size();
        }
        benchmark::DoNotOptimize(paths);
    }
    state.SetItemsProcessed(state.iterations() * paths);
    state.SetLabel(std::string(boom_design ? "boom default" : "systolic 8x8") +
                   (state.range(1) == 0 ? ", SampledPaths" : ", PathSet"));
}
BENCHMARK(BM_PathSampling)->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

void
BM_PredictBoomWarm(benchmark::State &state)
{
    // The default BOOM Table-10 design predicted through a warm path
    // cache on one thread, as a dse_boom design is: sampling, the cache
    // probes, the reductions and the three aggregation heads, with the
    // Circuitformer idle. The model's weights do not change that cost,
    // so it is untrained, with heads fitted briefly on made-up
    // summaries. Items are sampled paths.
    par::setThreads(1);
    const auto graph = boom::buildBoomCore(boom::BoomParams{});
    auto model = std::make_shared<core::Circuitformer>(
        core::CircuitformerConfig::small());
    const auto &vocab = graphir::Vocabulary::instance();
    const std::vector<graphir::TokenId> path = {*vocab.parse("dff16"),
                                                *vocab.parse("add16"),
                                                *vocab.parse("dff16")};
    model->fitNormalization({{path, 100.0, 10.0, 0.1},
                             {path, 200.0, 20.0, 0.2}});

    std::vector<core::AggregateSummary> summaries;
    std::vector<double> truths;
    for (int i = 1; i <= 4; ++i) {
        const std::vector<core::PathPrediction> preds(
            8, {100.0 * i, 10.0 * i, 0.1 * i});
        summaries.push_back(core::reduceAggregates(graph, preds));
        truths.push_back(2.0 * i);
    }
    core::MlpTrainConfig mlp_config;
    mlp_config.epochs = 10;
    core::AggregationHeads heads = core::AggregationHeads::make();
    heads.fit(summaries, truths, truths, truths, mlp_config);

    sampler::SamplerOptions opts;
    opts.max_paths_per_source = 8;
    const core::SnsPredictor predictor(model, heads, opts);
    perf::PathPredictionCache cache;
    core::PredictOptions options;
    options.threads = 1;
    options.cache = &cache;
    options.collect_critical_path = false;
    const graphir::Graph *graphs[1] = {&graph};
    size_t paths = predictor.predictBatch(graphs, options)[0].paths_sampled;
    for (auto _ : state) {
        paths = predictor.predictBatch(graphs, options)[0].paths_sampled;
        benchmark::DoNotOptimize(paths);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(paths));
    state.SetLabel("boom default, warm cache, threads=1, items = paths");
}
BENCHMARK(BM_PredictBoomWarm);

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
