/**
 * @file
 * The design-space-exploration workloads: batches of designs through
 * SnsPredictor::predictBatch, the way a DSE sweep calls it.
 *
 * dse_unique / dse_unique_int8 stream unique random deep-chain designs
 * parsed from text, 16 per batch, with no cache: every path misses, so
 * the Circuitformer, plan and tensor kernels do almost all the work.
 * dse_boom sweeps the BOOM Table-10 space in chunks of 64 through one
 * shared path cache per pass: over 95% of paths hit, so the sampler does
 * most of the work and the model is nearly idle — the mirror image.
 */

#include <memory>
#include <numeric>

#include "boom/boom.hh"
#include "netlist/snl_parser.hh"
#include "par/thread_pool.hh"
#include "perf/path_cache.hh"
#include "plan/runtime.hh"
#include "tensor/qgemm.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace snsbench {

using namespace sns;

namespace {

constexpr size_t kUniqueBatch = 16;
constexpr int kChains = 4;
constexpr int kDepth = 20;
/** Batches always measured (and digested), however short the run. */
constexpr size_t kMinBatches = 4;
constexpr size_t kBoomChunk = 64;
constexpr size_t kMinChunks = 4;
constexpr size_t kBoomCheckDesigns = 4;
/** Stream index offset of the warm-up designs (never measured). */
constexpr uint64_t kWarmupIndex = uint64_t(1) << 40;

/** Load the saved model kSetupRepeats times (plus int8 calibration and
 * the warm-up) and report setup_s; returns the last predictor. A
 * `cached` workload warms up through a cache of its own, so no
 * measured cache starts warm. */
std::unique_ptr<core::SnsPredictor>
setUpPredictor(Report &report, const std::string &model_dir,
               const EvalSet &set, core::Precision precision,
               std::span<const graphir::Graph *const> warm_graphs,
               const core::PredictOptions &options, bool cached)
{
    std::unique_ptr<core::SnsPredictor> predictor;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const double start = cpuSeconds();
        predictor = std::make_unique<core::SnsPredictor>(
            core::SnsPredictor::load(model_dir));
        if (precision == core::Precision::Int8)
            predictor->quantize(trainGraphs(set));
        perf::PathPredictionCache warm_cache;
        core::PredictOptions warm = options;
        warm.cache = cached ? &warm_cache : nullptr;
        warmUp(*predictor, warm_graphs, warm);
        setup_s.push_back(cpuSeconds() - start);
    }
    report.add("setup_s", "s", median(setup_s), setup_s);
    return predictor;
}

/**
 * Predict `graphs` again through a path independent of the measured one
 * and compare bitwise. The reference never uses a cache; with
 * `kernel_reference` it also runs on one thread through the module walk
 * (fp64) or the scalar integer kernels (int8) instead of the plan's
 * SIMD kernels.
 */
void
checkAgainstReference(Report &report, const core::SnsPredictor &predictor,
                      std::span<const graphir::Graph *const> graphs,
                      const core::PredictOptions &measured_options,
                      const std::vector<core::SnsPrediction> &measured,
                      bool kernel_reference)
{
    core::PredictOptions options = measured_options;
    options.cache = nullptr;
    const bool int8 = options.precision == core::Precision::Int8;
    if (kernel_reference) {
        options.threads = 1;
        if (int8)
            tensor::setQgemmLevelCap(0);
        else
            plan::setPlanEnabled(false);
    }
    const auto reference = predictor.predictBatch(graphs, options);
    if (kernel_reference) {
        tensor::setQgemmLevelCap(-1);
        plan::setPlanEnabled(true);
    }
    for (size_t i = 0; i < graphs.size(); ++i) {
        if (!samePrediction(reference[i], measured[i])) {
            report.incorrect("design " + std::to_string(i) +
                             " of the check batch differs from the "
                             "reference path");
            return;
        }
    }
}

/** Throughput of `graphs` at pool width 4 over width 1. */
double
poolScaling(const core::SnsPredictor &predictor,
            std::span<const graphir::Graph *const> graphs,
            core::PredictOptions options)
{
    std::vector<double> seconds;
    for (const int width : {kPoolWidth, 1}) {
        options.threads = width;
        const auto start = Clock::now();
        predictor.predictBatch(graphs, options);
        seconds.push_back(secondsSince(start));
    }
    return seconds[0] > 0.0 ? seconds[1] / seconds[0] : 0.0;
}

/**
 * throughput: the median over the measured units (batches or chunks of
 * `designs` each) of designs per CPU-second. The wall-clock view
 * (wall_throughput, wall_p50_ms of one unit) goes to the trajectory
 * record only.
 */
void
reportUnitTimes(Report &report, size_t designs,
                const std::vector<double> &cpu_s,
                const std::vector<double> &wall_s)
{
    const double n = static_cast<double>(designs * cpu_s.size());
    std::vector<double> rates;
    std::vector<double> wall_ms;
    for (size_t i = 0; i < cpu_s.size(); ++i) {
        rates.push_back(static_cast<double>(designs) / cpu_s[i]);
        wall_ms.push_back(1e3 * wall_s[i]);
    }
    report.add("throughput", "1/cpu_s", median(rates), rates);
    report.add("wall_throughput", "1/s",
               n / std::accumulate(wall_s.begin(), wall_s.end(), 0.0));
    report.add("wall_p50_ms", "ms", median(wall_ms), wall_ms);
}

std::vector<graphir::Graph>
parseAll(const std::vector<std::string> &texts, uint64_t request_base)
{
    std::vector<graphir::Graph> graphs;
    graphs.reserve(texts.size());
    for (size_t i = 0; i < texts.size(); ++i) {
        Span span("netlist.parse", request_base + i);
        graphs.push_back(netlist::parseSnl(texts[i]));
    }
    return graphs;
}

} // namespace

void
runDseUnique(const RunOptions &opts, Report &report,
             core::Precision precision)
{
    const EvalSet set = buildEvalSet();
    const std::string model_dir = opts.work_dir + "/model";
    trainServingModel(set, model_dir);

    core::PredictOptions options;
    options.collect_critical_path = false;
    options.precision = precision;

    auto batchTexts = [&opts](uint64_t first) {
        std::vector<std::string> texts;
        for (size_t j = 0; j < kUniqueBatch; ++j)
            texts.push_back(
                chainDesign(opts.seed, first + j, kChains, kDepth));
        return texts;
    };
    const auto warm_graphs = parseAll(batchTexts(kWarmupIndex), 0);
    const auto warm_ptrs = pointers(warm_graphs);
    const auto predictor = setUpPredictor(report, model_dir, set, precision,
                                          warm_ptrs, options, false);

    // Timed loop: parse + predict one batch of unique designs at a
    // time. A traced run rebuilds each batch with the traced pass.
    Tracer tracer;
    TracedCounts counts;
    std::vector<double> latency_s;
    std::vector<double> cpu_s;
    Digest digest;
    const size_t check_batch = opts.seed % kMinBatches;
    std::vector<std::string> check_texts;
    std::vector<core::SnsPrediction> check_preds;
    double pool_scaling = 0.0;
    const auto start = Clock::now();
    for (size_t b = 0;
         b < kMinBatches || secondsSince(start) < opts.seconds; ++b) {
        const auto texts = batchTexts(b * kUniqueBatch);
        Tracer::install(opts.trace ? &tracer : nullptr);
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        const auto graphs = parseAll(texts, b * kUniqueBatch);
        const auto ptrs = pointers(graphs);
        std::vector<core::SnsPrediction> preds;
        if (opts.trace) {
            preds = tracedPredict(*predictor, ptrs, options,
                                  b * kUniqueBatch, counts);
        } else {
            preds = predictor->predictBatch(ptrs, options);
        }
        cpu_s.push_back(cpuSeconds() - cpu0);
        latency_s.push_back(secondsSince(t0));
        Tracer::install(nullptr);
        report.attempt(ptrs.size());
        if (opts.trace) {
            // The traced pass must rebuild predictBatch bit for bit.
            const auto want = predictor->predictBatch(ptrs, options);
            for (size_t i = 0; i < want.size(); ++i) {
                if (!samePrediction(want[i], preds[i]))
                    report.incorrect("traced pass differs from "
                                     "predictBatch at design " +
                                     std::to_string(b * kUniqueBatch + i));
            }
            if (b == 0)
                pool_scaling = poolScaling(*predictor, ptrs, options);
        }
        if (b < kMinBatches)
            digest.add(preds);
        if (b == check_batch) {
            check_texts = texts;
            check_preds = preds;
        }
    }
    report.digest(core::precisionName(precision), digest.value());
    reportUnitTimes(report, kUniqueBatch, cpu_s, latency_s);

    const auto check_graphs = parseAll(check_texts, 0);
    checkAgainstReference(report, *predictor, pointers(check_graphs),
                          options, check_preds, true);
    reportAccuracy(report, *predictor, set, precision);
    if (opts.trace) {
        Tracer::install(&tracer);
        reportPredictionLayers(report, *predictor, precision, counts);
        Tracer::install(nullptr);
        report.add("core.pool_scaling", "ratio", pool_scaling);
        report.add("trace.overhead", "ratio", tracingOverhead(tracer));
        tracer.writeChrome(opts.trace_file);
    }
}

void
runDseBoom(const RunOptions &opts, Report &report)
{
    const EvalSet set = buildEvalSet();
    const std::string model_dir = opts.work_dir + "/model";
    trainServingModel(set, model_dir);

    // The seed orders the sweep; the space itself is the paper's.
    const auto space = boom::boomDesignSpace();
    std::vector<size_t> order(space.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(opts.seed);
    rng.shuffle(order);
    const size_t chunks = (order.size() + kBoomChunk - 1) / kBoomChunk;
    auto buildChunk = [&](size_t chunk) {
        std::vector<graphir::Graph> graphs;
        for (size_t i = chunk * kBoomChunk;
             i < std::min(order.size(), (chunk + 1) * kBoomChunk); ++i) {
            Span span("boom.build", i);
            graphs.push_back(boom::buildBoomCore(space[order[i]]));
        }
        return graphs;
    };

    core::PredictOptions options;
    options.collect_critical_path = false;
    // The warm-up elaborates its own configs (the last chunk of the
    // order) so no measured design is pre-sampled.
    const auto warm_graphs = buildChunk(chunks - 1);
    const auto predictor =
        setUpPredictor(report, model_dir, set, core::Precision::Fp64,
                       pointers(warm_graphs), options, true);

    Tracer tracer;
    TracedCounts counts;
    std::vector<double> latency_s;
    std::vector<double> cpu_s;
    Digest digest;
    perf::CacheStats cache_totals;
    // Reference predictions for the traced pass come from predictBatch
    // through a cache of its own.
    perf::PathPredictionCache reference_cache;
    const size_t check_chunk = opts.seed % kMinChunks;
    std::vector<core::SnsPrediction> check_preds;
    double pool_scaling = 0.0;
    size_t measured = 0;
    const auto start = Clock::now();
    for (size_t pass = 0; measured < kMinChunks ||
                          secondsSince(start) < opts.seconds;
         ++pass) {
        perf::PathPredictionCache cache; // each pass starts cold
        options.cache = &cache;
        for (size_t chunk = 0; chunk < chunks; ++chunk, ++measured) {
            if (measured >= kMinChunks &&
                secondsSince(start) >= opts.seconds)
                break;
            Tracer::install(opts.trace ? &tracer : nullptr);
            const auto graphs = buildChunk(chunk);
            const auto ptrs = pointers(graphs);
            const auto t0 = Clock::now();
            const double cpu0 = cpuSeconds();
            const auto preds =
                opts.trace ? tracedPredict(*predictor, ptrs, options,
                                           chunk * kBoomChunk, counts)
                           : predictor->predictBatch(ptrs, options);
            cpu_s.push_back(cpuSeconds() - cpu0);
            latency_s.push_back(secondsSince(t0));
            Tracer::install(nullptr);
            report.attempt(ptrs.size());
            if (pass == 0 && chunk < kMinChunks)
                digest.add(preds);
            if (pass == 0 && chunk == check_chunk)
                check_preds = preds;
            if (opts.trace) {
                core::PredictOptions ref = options;
                ref.cache = &reference_cache;
                const auto want = predictor->predictBatch(ptrs, ref);
                for (size_t i = 0; i < want.size(); ++i) {
                    if (!samePrediction(want[i], preds[i]))
                        report.incorrect("traced pass differs from "
                                         "predictBatch at chunk " +
                                         std::to_string(chunk));
                }
                if (pass == 0 && chunk == 1)
                    pool_scaling = poolScaling(*predictor, ptrs, ref);
            }
        }
        const auto stats = cache.stats();
        cache_totals.hits += stats.hits;
        cache_totals.misses += stats.misses;
        cache_totals.evictions += stats.evictions;
    }
    report.digest("fp64", digest.value());
    reportUnitTimes(report, kBoomChunk, cpu_s, latency_s);

    // Without the cache every BOOM path pays the model (~670 per
    // design), so the reference covers the chunk's first designs only.
    auto check_graphs = buildChunk(check_chunk);
    check_graphs.resize(kBoomCheckDesigns);
    check_preds.resize(kBoomCheckDesigns);
    checkAgainstReference(report, *predictor, pointers(check_graphs),
                          options, check_preds, false);
    reportAccuracy(report, *predictor, set, core::Precision::Fp64);
    if (opts.trace) {
        Tracer::install(&tracer);
        reportPredictionLayers(report, *predictor, core::Precision::Fp64,
                               counts);
        const auto stats = tracer.stats();
        const auto build = stats.find("boom.build");
        if (build != stats.end())
            report.add("boom.build_us", "us",
                       build->second.total_us /
                           static_cast<double>(build->second.count));
        Tracer::install(nullptr);
        report.add("cache.hit_ratio", "ratio", cache_totals.hitRate());
        report.add("cache.evictions", "count",
                   static_cast<double>(cache_totals.evictions));
        report.add("core.pool_scaling", "ratio", pool_scaling);
        report.add("trace.overhead", "ratio", tracingOverhead(tracer));
        tracer.writeChrome(opts.trace_file);
    }
}

} // namespace snsbench
