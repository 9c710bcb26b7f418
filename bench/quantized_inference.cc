/**
 * @file
 * Quantized inference tier (docs/quantization.md): accuracy and
 * latency of the int8 plan against the fp64 tier it was rewritten
 * from, on the Table-3 evaluation protocol (train on one half of the
 * dataset split by base family, evaluate on the other).
 *
 * Measures and gates (the harness exits 1 when any gate fails):
 *
 *   - MAEP of both tiers on the held-out designs; the int8 tier must
 *     stay within 2.0 percentage points of fp64 on every target —
 *     quantization buys speed, not a different model;
 *   - the int8 GEMM (qgemmI32) must run a 256^3 product >= 1.5x as
 *     fast as the fp32 GEMM (gemmAcc), each at its fastest SNS_SIMD
 *     rung on this host;
 *   - end-to-end predictBatch latency of both tiers;
 *   - the fp64 tier before and after quantize() — bitwise identical
 *     (the rewrite adds a plan, it never perturbs the original);
 *   - int8 determinism: repeated runs, 1 vs N threads, and the full
 *     SNS_SIMD dispatch ladder (every rung) must agree bit for
 *     bit — integer accumulation is associative, so the quantized
 *     tier has no accumulation-order caveats at all.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "tensor/simd.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"

namespace {

using namespace sns;

/** The GEMM gate's square shape: m = n = k. */
constexpr int kGemmSize = 256;

/** A rung's best throughput on the kGemmSize^3 product. */
struct RungSpeed
{
    double g_per_s = 0.0; ///< 2 m n k ops per call, in G/s
    int level = 0;
};

/**
 * The fastest SNS_SIMD rung from 0 to `top` for `product` (one
 * kGemmSize^3 GEMM), best of 20 timed calls per rung; rungs this host
 * cannot run are skipped.
 */
template <typename Product>
RungSpeed
fastestRung(int top, const Product &product)
{
    constexpr double kOps = 2.0 * kGemmSize * kGemmSize * kGemmSize;
    RungSpeed best;
    for (int level = 0; level <= top; ++level) {
        tensor::setSimdLevelCap(level);
        if (tensor::simdLevel() != level)
            continue;
        product(); // warm-up
        double seconds = 1e300;
        for (int rep = 0; rep < 20; ++rep) {
            WallTimer timer;
            product();
            seconds = std::min(seconds, timer.seconds());
        }
        const double g_per_s = kOps / seconds / 1e9;
        if (g_per_s > best.g_per_s)
            best = {g_per_s, level};
    }
    tensor::setSimdLevelCap(-1);
    return best;
}

/** The int8 GEMM gate: qgemmI32 against gemmAcc on one thread, each
 * at its fastest rung; returns whether int8 is >= 1.5x as fast. */
bool
gemmGate()
{
    constexpr int n = kGemmSize;
    Rng rng(1);
    tensor::QuantPanels panels;
    {
        std::vector<int8_t> b(static_cast<size_t>(n) * n);
        for (auto &v : b) // s8 weights in [-127, 127]
            v = static_cast<int8_t>(static_cast<int>(rng.next() % 255u) -
                                    127);
        tensor::qgemmPackB(b.data(), n, n, panels);
    }
    std::vector<uint8_t> qa(static_cast<size_t>(n) * panels.k_padded, 0);
    for (int i = 0; i < n; ++i)
        for (int p = 0; p < n; ++p) // u7 activations
            qa[static_cast<size_t>(i) * panels.k_padded + p] =
                static_cast<uint8_t>(rng.next() % 128u);
    std::vector<int32_t> qc(static_cast<size_t>(n) * n);
    std::vector<float> a(static_cast<size_t>(n) * n);
    std::vector<float> b(a.size());
    std::vector<float> c(a.size());
    for (auto &v : a)
        v = static_cast<float>(rng.uniform() - 0.5);
    for (auto &v : b)
        v = static_cast<float>(rng.uniform() - 0.5);

    const RungSpeed int8 =
        fastestRung(tensor::simdMaxLevel(), [&] {
            tensor::qgemmI32(qa.data(), panels, qc.data(), n);
        });
    // The fp32 GEMM has no AMX rung: level 3 would re-time AVX-512.
    const RungSpeed fp32 = fastestRung(
        std::min(tensor::simdMaxLevel(), tensor::kSimdAvx512), [&] {
            std::fill(c.begin(), c.end(), 0.0f);
            tensor::gemmAcc(a.data(), b.data(), c.data(), n, n, n, false,
                            false);
        });
    std::cout << "GEMM " << n << "^3, one thread: int8 "
              << formatDouble(int8.g_per_s, 1) << " GOP/s ("
              << tensor::simdLevelName(int8.level) << "), fp32 "
              << formatDouble(fp32.g_per_s, 1) << " GFLOP/s ("
              << tensor::simdLevelName(fp32.level) << ")\n";
    return bench::gate("int8 vs fp32 GEMM",
                       fp32.g_per_s > 0.0 ? int8.g_per_s / fp32.g_per_s
                                          : 0.0,
                       1.5, "x");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto args = bench::BenchArgs::parse(argc, argv);
    const int multi_threads = std::max(1, par::configuredThreads());
    const auto oracle = bench::benchOracle();
    const auto dataset = bench::buildBenchDataset(oracle);
    const auto [train_idx, test_idx] =
        dataset.splitByBase(0.5, args.seed);

    std::cerr << "[bench] training the predictor..." << std::endl;
    core::SnsTrainer trainer(bench::benchTrainerConfig(args));
    auto predictor = trainer.train(dataset, train_idx, oracle);

    std::vector<const graphir::Graph *> test_graphs;
    test_graphs.reserve(test_idx.size());
    for (size_t idx : test_idx)
        test_graphs.push_back(&dataset.records()[idx].graph);
    std::vector<const graphir::Graph *> calibration_graphs;
    calibration_graphs.reserve(train_idx.size());
    for (size_t idx : train_idx)
        calibration_graphs.push_back(&dataset.records()[idx].graph);

    const int reps = args.full ? 8 : 3;
    par::setThreads(1);

    core::PredictOptions fp64_opts;
    fp64_opts.collect_critical_path = false;
    core::PredictOptions int8_opts = fp64_opts;
    int8_opts.precision = core::Precision::Int8;

    // Pass A: the fp64 baseline, before any quantization exists.
    std::vector<core::SnsPrediction> fp64_before;
    double fp64_s = 0.0;
    for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        fp64_before = predictor.predictBatch(test_graphs, fp64_opts);
        fp64_s += timer.seconds();
    }
    fp64_s /= reps;

    // Calibrate on the *training* designs — the evaluation set stays
    // held out of the activation shard, like any other fit statistic.
    std::cerr << "[bench] calibrating the int8 plan on "
              << calibration_graphs.size() << " designs..." << std::endl;
    WallTimer quant_timer;
    predictor.quantize(calibration_graphs);
    const double quantize_s = quant_timer.seconds();

    // Pass B: fp64 after quantize() — the rewrite must not have
    // touched the original tier.
    const auto fp64_after = predictor.predictBatch(test_graphs, fp64_opts);

    // Pass C: the int8 tier, timed, then re-run for determinism.
    std::vector<core::SnsPrediction> int8_preds;
    double int8_s = 0.0;
    for (int r = 0; r < reps; ++r) {
        WallTimer timer;
        int8_preds = predictor.predictBatch(test_graphs, int8_opts);
        int8_s += timer.seconds();
    }
    int8_s /= reps;
    const auto int8_again = predictor.predictBatch(test_graphs, int8_opts);

    // Pass D: int8 across the dispatch ladder and the thread pool —
    // every configuration must reproduce pass C bit for bit.
    std::vector<std::vector<core::SnsPrediction>> ladder;
    for (int cap = 0; cap <= tensor::simdMaxLevel(); ++cap) {
        tensor::setQgemmLevelCap(cap);
        ladder.push_back(predictor.predictBatch(test_graphs, int8_opts));
    }
    tensor::setQgemmLevelCap(-1);
    par::setThreads(multi_threads);
    const auto int8_mt = predictor.predictBatch(test_graphs, int8_opts);
    par::setThreads(1);

    auto same = [](const core::SnsPrediction &a,
                   const core::SnsPrediction &b) {
        return a.timing_ps == b.timing_ps && a.area_um2 == b.area_um2 &&
               a.power_mw == b.power_mw;
    };
    auto all_same = [&](const std::vector<core::SnsPrediction> &a,
                        const std::vector<core::SnsPrediction> &b) {
        if (a.size() != b.size())
            return false;
        for (size_t i = 0; i < a.size(); ++i)
            if (!same(a[i], b[i]))
                return false;
        return true;
    };
    const bool fp64_bitwise = all_same(fp64_before, fp64_after);
    bool int8_deterministic = all_same(int8_preds, int8_again) &&
                              all_same(int8_preds, int8_mt);
    for (const auto &level : ladder)
        int8_deterministic = int8_deterministic &&
                             all_same(int8_preds, level);
    if (!fp64_bitwise)
        std::cerr << "VIOLATION: quantize() perturbed the fp64 tier\n";
    if (!int8_deterministic)
        std::cerr << "VIOLATION: int8 predictions differ across runs, "
                     "threads, or SNS_SIMD levels\n";

    // Accuracy: MAEP of each tier against the synthesis ground truth.
    auto summarize = [&](const std::vector<core::SnsPrediction> &preds) {
        std::vector<core::DesignEval> evals;
        for (size_t i = 0; i < test_idx.size(); ++i) {
            const auto &record = dataset.records()[test_idx[i]];
            core::DesignEval eval;
            eval.name = record.name;
            eval.true_timing_ps = record.truth.timing_ps;
            eval.true_area_um2 = record.truth.area_um2;
            eval.true_power_mw = record.truth.power_mw;
            eval.pred_timing_ps = preds[i].timing_ps;
            eval.pred_area_um2 = preds[i].area_um2;
            eval.pred_power_mw = preds[i].power_mw;
            evals.push_back(std::move(eval));
        }
        return core::summarizeEvals(std::move(evals));
    };
    const auto fp64_eval = summarize(fp64_before);
    const auto int8_eval = summarize(int8_preds);
    const double delta_pp = std::max(
        {int8_eval.timing.maep - fp64_eval.timing.maep,
         int8_eval.area.maep - fp64_eval.area.maep,
         int8_eval.power.maep - fp64_eval.power.maep});

    Table table("Quantized inference tier: fp64 vs int8 on the "
                "held-out half (" +
                std::to_string(test_idx.size()) + " designs)");
    table.setHeader({"tier", "timing_maep", "area_maep", "power_maep",
                     "predict_s"});
    table.addRow({"fp64", formatDouble(fp64_eval.timing.maep, 2) + "%",
                  formatDouble(fp64_eval.area.maep, 2) + "%",
                  formatDouble(fp64_eval.power.maep, 2) + "%",
                  formatDouble(fp64_s, 4)});
    table.addRow({"int8", formatDouble(int8_eval.timing.maep, 2) + "%",
                  formatDouble(int8_eval.area.maep, 2) + "%",
                  formatDouble(int8_eval.power.maep, 2) + "%",
                  formatDouble(int8_s, 4)});
    table.print(std::cout);
    args.maybeCsv(table, "quantized_inference");

    std::cout << "\ncalibration: " << calibration_graphs.size()
              << " designs in " << formatDouble(quantize_s, 3)
              << " s; worst MAEP regression "
              << formatDouble(delta_pp, 3) << " pp; end-to-end speedup "
              << formatDouble(fp64_s / int8_s, 2) << "x\n";
    std::cout << "fp64 tier after quantize(): "
              << (fp64_bitwise ? "bitwise identical" : "PERTURBED")
              << "\nint8 determinism (reruns, " << multi_threads
              << " threads, SNS_SIMD 0-" << tensor::simdMaxLevel()
              << "): " << (int8_deterministic ? "PASS" : "FAIL") << "\n";

    const bool maep_ok = bench::gate("worst int8 MAEP above fp64",
                                     delta_pp, 2.0, " pp",
                                     /*at_most=*/true);
    const bool gemm_ok = gemmGate();
    return fp64_bitwise && int8_deterministic && maep_ok && gemm_ok ? 0
                                                                     : 1;
}
