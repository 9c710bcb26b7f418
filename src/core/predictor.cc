#include "core/predictor.hh"

#include "core/design_session.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <ranges>

#include "nn/serialize.hh"
#include "par/thread_pool.hh"
#include "plan/calibrate.hh"
#include "plan/snsp.hh"
#include "tensor/autograd.hh"
#include "util/fnv.hh"
#include "util/hash_index.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace sns::core {

namespace {

/** Largest padded batch the traced plan accepts; covers the default
 * PredictOptions::batch_size. Bigger batch_size values fall back to
 * the (bitwise-identical) module walk. */
constexpr int kPlanBatchMax = 64;

} // namespace

verify::Report
validatePredictOptions(const PredictOptions &options)
{
    verify::Report report;
    if (options.threads < 0) {
        report.error(verify::rules::kOptionsThreads, "PredictOptions",
                     "threads is negative (" +
                         std::to_string(options.threads) + ")",
                     "0 keeps the process-wide width; > 0 overrides it "
                     "for this call");
    }
    if (options.batch_size <= 0) {
        report.error(verify::rules::kOptionsBatch, "PredictOptions",
                     "batch_size must be positive (got " +
                         std::to_string(options.batch_size) + ")");
    }
    if (options.cache_stats && options.cache == nullptr &&
        options.session == nullptr) {
        report.error(verify::rules::kOptionsCache, "PredictOptions",
                     "cache_stats requested without a cache — there "
                     "would be no counters to report",
                     "set PredictOptions::cache (or session), or drop "
                     "cache_stats");
    }
    if (options.session != nullptr && options.cache != nullptr) {
        report.error(verify::rules::kOptionsSession, "PredictOptions",
                     "session and cache are both set — a session "
                     "predicts through its own pinned cache, the "
                     "external one would be silently ignored",
                     "drop the cache (read session->cacheStats() "
                     "instead) or drop the session");
    }
    if (options.precision != Precision::Fp64 &&
        options.precision != Precision::Int8) {
        report.error(
            verify::rules::kOptionsPrecision, "PredictOptions",
            "unknown precision value (" +
                std::to_string(static_cast<int>(options.precision)) +
                ")",
            "known tiers: fp64 (0) and int8 (1); under Count "
            "enforcement the call recovers to fp64");
    }
    return report;
}

SnsPredictor::SnsPredictor(std::shared_ptr<Circuitformer> circuitformer,
                           AggregationHeads heads,
                           sampler::SamplerOptions sampler_options)
    : circuitformer_(std::move(circuitformer)),
      heads_(std::move(heads)),
      sampler_options_(sampler_options)
{
    SNS_ASSERT(circuitformer_ && heads_.complete(),
               "SnsPredictor needs all four models");
    SNS_ASSERT(heads_.timing->target() == Target::Timing &&
                   heads_.area->target() == Target::Area &&
                   heads_.power->target() == Target::Power,
               "MLP target mismatch");
    model_fingerprint_ = circuitformer_->parametersFingerprint();
    // Trace the module walk into the static execution plan, run the
    // analyzer over it, and bind it (docs/plan.md). Like the path
    // cache, the bound plan assumes the weights stay frozen for this
    // predictor's lifetime. load() re-binds from the verified
    // plan.snsp when the save directory carries one.
    circuitformer_->bindPlan(plan::compilePlan(
        circuitformer_->tracePlan(kPlanBatchMax),
        circuitformer_->parameters()));
}

struct SnsPredictor::DesignScratch
{
    sampler::PathSet paths;
    std::vector<PathPrediction> preds;
    std::vector<double> activities;
    std::vector<size_t> lengths;
    /** Per path: the id of its distinct token sequence. */
    std::vector<uint32_t> slot;
    /** Per distinct sequence: its first path. */
    std::vector<uint32_t> unique;
    /** Per distinct sequence: how many paths carry it. */
    std::vector<uint32_t> uses;
    /** Per distinct sequence: its prediction. */
    std::vector<PathPrediction> values;
    /** The first path of each distinct sequence the cache did not
     * hold, ascending. */
    std::vector<uint32_t> missed;
    /** Token hash -> distinct sequence id. */
    HashIndex pending;
};

namespace {

/** Copies of the token sequences of `paths` at `indices`, the form
 * Circuitformer::predict takes. */
template <class Indices>
std::vector<std::vector<graphir::TokenId>>
tokenVectors(const sampler::PathSet &paths, const Indices &indices)
{
    std::vector<std::vector<graphir::TokenId>> out;
    out.reserve(indices.size());
    for (const size_t i : indices) {
        const auto tokens = paths.tokens(i);
        out.emplace_back(tokens.begin(), tokens.end());
    }
    return out;
}

} // namespace

SnsPrediction
SnsPredictor::predictOne(const graphir::Graph &graph,
                         const PredictOptions &options,
                         DesignScratch &scratch) const
{
    SnsPrediction prediction;

    // 1. Sample complete circuit paths.
    const sampler::PathSet &paths = scratch.paths;
    sampler::PathSampler(sampler_options_).sample(graph, scratch.paths);
    prediction.paths_sampled = paths.size();
    if (paths.empty())
        return prediction;

    // 2. Path-level inference, memoized when the caller holds a cache.
    if (options.cache != nullptr) {
        predictPathsCached(scratch, *options.cache, options.batch_size,
                           options.precision);
    } else {
        scratch.preds = circuitformer_->predict(
            tokenVectors(paths, std::views::iota(size_t{0}, paths.size())),
            options.batch_size, options.precision);
    }
    const auto &path_preds = scratch.preds;

    // 3. Reductions. Per-path activity is the mean of the endpoint
    //    registers' activity coefficients (§3.4.4).
    auto &activities = scratch.activities;
    auto &lengths = scratch.lengths;
    activities.clear();
    lengths.clear();
    for (size_t i = 0; i < paths.size(); ++i) {
        const auto nodes = paths.nodes(i);
        const double front = graph.activity(nodes.front());
        const double back = graph.activity(nodes.back());
        activities.push_back(0.5 * (front + back));
        lengths.push_back(nodes.size());
    }
    const auto summary =
        reduceAggregates(graph, path_preds, lengths, activities);

    // 4. Design-level MLPs.
    prediction.timing_ps = heads_.timing->predict(summary);
    prediction.area_um2 = heads_.area->predict(summary);
    prediction.power_mw = heads_.power->predict(summary);

    // Critical-path localization: the sampled path with the largest
    // predicted timing.
    if (options.collect_critical_path) {
        size_t argmax = 0;
        for (size_t i = 1; i < path_preds.size(); ++i) {
            if (path_preds[i].timing_ps > path_preds[argmax].timing_ps)
                argmax = i;
        }
        const auto nodes = paths.nodes(argmax);
        prediction.critical_path.assign(nodes.begin(), nodes.end());
    }
    return prediction;
}

void
SnsPredictor::predictPathsCached(DesignScratch &scratch,
                                 perf::PathPredictionCache &cache,
                                 int batch_size, Precision precision) const
{
    const sampler::PathSet &paths = scratch.paths;
    auto &preds = scratch.preds;
    preds.resize(paths.size());

    // A shared cache only memoizes soundly under one fixed model *and*
    // numeric tier — int8 predictions deliberately differ from fp64
    // ones — so the binding fingerprint is precision-salted
    // (predictionFingerprint); first binder wins, equal fingerprints
    // coexist, a conflict is a caller bug.
    SNS_ASSERT(cache.bindModel(predictionFingerprint(precision)),
               "path cache is bound to a different model or precision "
               "(fingerprint ", cache.boundModel(),
               ") — a shared cache requires identical Circuitformer "
               "weights and numeric tier; clear() it before switching");

    // Dedup phase: map every path to its distinct token sequence. The
    // index keys on the token hash the sampler computed and compares
    // full token sequences, so colliding sequences never share an id.
    auto &slot = scratch.slot;
    auto &unique = scratch.unique;
    auto &uses = scratch.uses;
    slot.resize(paths.size());
    unique.clear();
    uses.clear();
    scratch.pending.clear();
    for (size_t i = 0; i < paths.size(); ++i) {
        const auto tokens = paths.tokens(i);
        const auto [id, fresh] = scratch.pending.findOrInsert(
            paths.tokenHash(i), [&](uint32_t other) {
                return std::ranges::equal(paths.tokens(unique[other]),
                                          tokens);
            });
        if (fresh) {
            unique.push_back(static_cast<uint32_t>(i));
            uses.push_back(0);
        }
        ++uses[id];
        slot[i] = id;
    }

    // Probe phase: one probe per distinct sequence, counted once for
    // each path it answers, so hits + misses still equals the paths
    // sampled and the counters read as if every path had probed.
    auto &values = scratch.values;
    auto &missed = scratch.missed;
    values.resize(unique.size());
    missed.clear();
    for (size_t u = 0; u < unique.size(); ++u) {
        const uint32_t first = unique[u];
        if (!cache.lookup(paths.tokens(first), paths.tokenHash(first),
                          values[u], uses[u]))
            missed.push_back(first);
    }

    // Compute phase: one forward pass over the distinct misses, in
    // first-occurrence order. Each path's row is computed bitwise
    // independently of its batch mates, so regrouping misses never
    // changes a prediction (docs/perf.md).
    if (!missed.empty()) {
        const auto miss_preds = circuitformer_->predict(
            tokenVectors(paths, missed), batch_size, precision);
        for (size_t m = 0; m < missed.size(); ++m) {
            const uint32_t first = missed[m];
            cache.insert(paths.tokens(first), paths.tokenHash(first),
                         miss_preds[m]);
            values[slot[first]] = miss_preds[m];
        }
    }

    // Scatter phase: every path takes its sequence's prediction.
    for (size_t i = 0; i < paths.size(); ++i)
        preds[i] = values[slot[i]];
}

std::vector<SnsPrediction>
SnsPredictor::predictBatch(std::span<const graphir::Graph *const> graphs,
                           const PredictOptions &options) const
{
    // Conflicting knob combinations are rejected in one place instead
    // of silently ignored field by field (V-OPT-*).
    if (verify::enabled()) {
        auto report = validatePredictOptions(options);
        if (options.session != nullptr && graphs.size() != 1) {
            report.error(verify::rules::kOptionsSession, "PredictOptions",
                         "session routing needs exactly one graph, got " +
                             std::to_string(graphs.size()),
                         "a session tracks one design's edit history");
        }
        verify::enforce(std::move(report), "predictBatch options");
    }

    // Resolve the numeric tier against this model: int8 without scales
    // (or with SNS_PLAN off, or an oversized batch) is diagnosed here
    // — V-OPT-PRECISION — and recovers to fp64 under Count mode.
    PredictOptions effective = options;
    effective.precision = resolvePrecision(options);

    // Edit-loop routing: the session applies its own scoped-threads
    // override when it re-enters predictBatch session-less.
    if (effective.session != nullptr && graphs.size() == 1) {
        SNS_ASSERT(graphs[0] != nullptr, "predictBatch: null graph");
        PredictOptions inner = effective;
        inner.session = nullptr;
        inner.cache = nullptr;
        return {effective.session->predict(*this, *graphs[0], inner)};
    }

    // Call-scoped width override; restores the prior process-wide
    // configuration (including "unset") when this call returns.
    par::ScopedThreads scoped_threads(options.threads);

    std::vector<SnsPrediction> predictions(graphs.size());
    // One task per design; each design's pipeline is self-contained and
    // writes only its own slot. With a single design (or one thread)
    // this degrades to the serial loop, and the per-design pipeline's
    // inner parallelism (GEMM tiles, Circuitformer batches) takes over.
    par::parallelFor(graphs.size(), [&](size_t begin, size_t end) {
        tensor::NoGradGuard no_grad;
        DesignScratch scratch;
        for (size_t i = begin; i < end; ++i) {
            SNS_ASSERT(graphs[i] != nullptr,
                       "predictBatch: null graph at index ", i);
            predictions[i] = predictOne(*graphs[i], effective, scratch);
        }
    });
    return predictions;
}

Precision
SnsPredictor::effectivePrecision(const PredictOptions &options) const
{
    if (options.precision != Precision::Int8)
        return Precision::Fp64;
    if (!circuitformer_->hasQuantPlan() || !plan::planEnabled() ||
        options.batch_size >
            circuitformer_->boundQuantPlan()->batchMax())
        return Precision::Fp64;
    return Precision::Int8;
}

Precision
SnsPredictor::resolvePrecision(const PredictOptions &options) const
{
    // An out-of-enum byte (possible via the serve protocol) was
    // already diagnosed by validatePredictOptions; recover to fp64.
    if (options.precision != Precision::Fp64 &&
        options.precision != Precision::Int8)
        return Precision::Fp64;
    if (options.precision == Precision::Fp64)
        return Precision::Fp64;

    verify::Report report;
    if (!circuitformer_->hasQuantPlan()) {
        report.error(verify::rules::kOptionsPrecision, "PredictOptions",
                     "precision=int8 but this model carries no int8 "
                     "scales",
                     "calibrate first: SnsPredictor::quantize() or "
                     "`sns-cli quantize` (docs/quantization.md)");
    } else if (!plan::planEnabled()) {
        report.error(verify::rules::kOptionsPrecision, "PredictOptions",
                     "precision=int8 needs planned execution, which "
                     "SNS_PLAN=0 disables",
                     "unset SNS_PLAN (or set it to 1), or request "
                     "fp64");
    } else if (options.batch_size >
               circuitformer_->boundQuantPlan()->batchMax()) {
        report.error(
            verify::rules::kOptionsPrecision, "PredictOptions",
            "batch_size " + std::to_string(options.batch_size) +
                " exceeds the quantized plan's batch_max " +
                std::to_string(
                    circuitformer_->boundQuantPlan()->batchMax()),
            "int8 has no module-walk fallback for oversized batches; "
            "shrink batch_size or request fp64");
    }
    if (report.hasErrors()) {
        verify::enforce(std::move(report), "predictBatch precision");
        return Precision::Fp64; // Count-mode (and Off-mode) recovery
    }
    return Precision::Int8;
}

uint64_t
SnsPredictor::predictionFingerprint(Precision precision) const
{
    if (precision == Precision::Int8) {
        SNS_ASSERT(quant_fingerprint_ != 0,
                   "predictionFingerprint: no quantized plan bound");
        return quant_fingerprint_;
    }
    return model_fingerprint_;
}

void
SnsPredictor::quantize(
    std::span<const graphir::Graph *const> calibration)
{
    SNS_ASSERT(!calibration.empty(),
               "quantize() needs at least one calibration design");
    SNS_ASSERT(circuitformer_->planActive(),
               "quantize() calibrates through the fp64 execution plan "
               "— a plan must be bound and SNS_PLAN on");
    const auto &fp64_plan = circuitformer_->boundPlan();

    // Calibration pass: run the held-out shard through the exact fp64
    // pipeline int8 will replace (same sampler, same batching), with a
    // Calibrator observing every Gemm input's absmax. Observation
    // changes no computed value.
    plan::Calibrator calibrator;
    fp64_plan->setCalibrationObserver(&calibrator);
    PredictOptions calibration_options;
    calibration_options.collect_critical_path = false;
    predictBatch(calibration, calibration_options);
    fp64_plan->setCalibrationObserver(nullptr);

    // Rewrite -> analyze (P-QUANT-* inside compilePlan) -> bind.
    const plan::Plan quantized = plan::quantizePlan(
        fp64_plan->plan(), calibrator, circuitformer_->parameters());
    circuitformer_->bindQuantPlan(
        plan::compilePlan(quantized, circuitformer_->parameters()));

    // Int8 cache identity: weights + scales, so caches never mix
    // tiers or calibrations (see predictionFingerprint()).
    const auto payload = plan::serializePlanPayload(quantized);
    const uint64_t hash = fnv1a(payload.data(), payload.size());
    quant_fingerprint_ = hash == 0 ? 1 : hash;
}

SnsPrediction
SnsPredictor::predict(const graphir::Graph &graph) const
{
    const graphir::Graph *graphs[1] = {&graph};
    return predictBatch(graphs).front();
}

SnsPrediction
SnsPredictor::predict(const graphir::Graph &graph,
                      const PredictOptions &options) const
{
    const graphir::Graph *graphs[1] = {&graph};
    return predictBatch(graphs, options).front();
}

namespace {

constexpr const char *kMetaFile = "predictor.meta";

} // namespace

void
SnsPredictor::save(const std::string &directory) const
{
    std::filesystem::create_directories(directory);
    circuitformer_->save(directory + "/circuitformer.bin");
    heads_.save(directory);

    // The serialized plan records the *snapped* fingerprint — the one
    // the model will have after this directory is loaded back (the
    // normalization statistics are float32 in circuitformer.bin) — so
    // load()'s P-MODEL check passes against the reloaded model.
    plan::Plan traced = circuitformer_->tracePlan(kPlanBatchMax);
    traced.fingerprint = circuitformer_->parametersFingerprintSnapped();
    plan::writePlanFile(traced, directory + "/plan.snsp");

    // The int8 tier rides along as a second plan file carrying the
    // calibrated side table; a load() that finds it re-binds the
    // quantized plan so `--precision int8` works on the reloaded
    // pipeline without re-calibrating.
    if (circuitformer_->hasQuantPlan()) {
        plan::Plan quantized = circuitformer_->boundQuantPlan()->plan();
        quantized.fingerprint =
            circuitformer_->parametersFingerprintSnapped();
        plan::writePlanFile(quantized, directory + "/plan_int8.snsp");
    }

    std::ofstream meta(directory + "/" + kMetaFile);
    if (!meta)
        throw nn::SerializeError("cannot write " + directory + "/" +
                                 kMetaFile);
    const auto &model = circuitformer_->config();
    meta << "format 1\n"
         << "vocab_size " << model.encoder.vocab_size << "\n"
         << "max_positions " << model.encoder.max_positions << "\n"
         << "d_model " << model.encoder.d_model << "\n"
         << "heads " << model.encoder.heads << "\n"
         << "layers " << model.encoder.layers << "\n"
         << "d_ff " << model.encoder.d_ff << "\n"
         << "head_hidden " << model.head_hidden << "\n"
         << "sampler_k " << sampler_options_.k << "\n"
         << "max_path_length " << sampler_options_.max_path_length
         << "\n"
         << "max_paths_per_source "
         << sampler_options_.max_paths_per_source << "\n"
         << "max_total_paths " << sampler_options_.max_total_paths
         << "\n"
         << "longest_paths " << sampler_options_.longest_paths << "\n"
         << "sampler_seed " << sampler_options_.seed << "\n";
}

SnsPredictor
SnsPredictor::load(const std::string &directory)
{
    std::ifstream meta(directory + "/" + kMetaFile);
    if (!meta)
        throw nn::SerializeError("cannot open " + directory + "/" +
                                 kMetaFile);
    std::map<std::string, std::string> kv;
    std::string line;
    while (std::getline(meta, line)) {
        const auto fields = splitWhitespace(line);
        if (fields.size() == 2)
            kv[fields[0]] = fields[1];
    }
    auto geti = [&kv](const char *key) {
        const auto it = kv.find(key);
        if (it == kv.end())
            throw nn::SerializeError(
                std::string("predictor.meta missing key: ") + key);
        return std::stoll(it->second);
    };
    auto getd = [&kv](const char *key) {
        const auto it = kv.find(key);
        if (it == kv.end())
            throw nn::SerializeError(
                std::string("predictor.meta missing key: ") + key);
        return std::stod(it->second);
    };
    if (geti("format") != 1)
        throw nn::SerializeError("unsupported predictor.meta format");

    CircuitformerConfig model;
    model.encoder.vocab_size = static_cast<int>(geti("vocab_size"));
    model.encoder.max_positions =
        static_cast<int>(geti("max_positions"));
    model.encoder.d_model = static_cast<int>(geti("d_model"));
    model.encoder.heads = static_cast<int>(geti("heads"));
    model.encoder.layers = static_cast<int>(geti("layers"));
    model.encoder.d_ff = static_cast<int>(geti("d_ff"));
    model.head_hidden = static_cast<int>(geti("head_hidden"));

    sampler::SamplerOptions sopts;
    sopts.k = getd("sampler_k");
    sopts.max_path_length =
        static_cast<size_t>(geti("max_path_length"));
    sopts.max_paths_per_source =
        static_cast<size_t>(geti("max_paths_per_source"));
    sopts.max_total_paths =
        static_cast<size_t>(geti("max_total_paths"));
    sopts.longest_paths = static_cast<size_t>(geti("longest_paths"));
    sopts.seed = static_cast<uint64_t>(geti("sampler_seed"));

    auto circuitformer = std::make_shared<Circuitformer>(model);
    circuitformer->load(directory + "/circuitformer.bin");
    SnsPredictor predictor(std::move(circuitformer),
                           AggregationHeads::load(directory), sopts);

    // When the directory carries a serialized plan, verify it
    // (container P-* checks + the full analyzer pipeline inside
    // compilePlan) and bind it in place of the constructor's in-memory
    // trace. A missing plan.snsp (pre-plan save) is fine — the traced
    // plan stays bound; a corrupt or mismatched one is a hard error
    // under the default Fatal enforcement mode.
    const std::string plan_path = directory + "/plan.snsp";
    if (std::filesystem::exists(plan_path)) {
        verify::Report report;
        plan::Plan file_plan;
        const bool parsed =
            plan::readPlanFile(plan_path, file_plan, report);
        if (parsed) {
            const Circuitformer &model_ref = *predictor.circuitformer_;
            const uint64_t want = model_ref.parametersFingerprint();
            if (file_plan.fingerprint != want) {
                report.error(verify::rules::kPlanModel, plan_path,
                             "plan fingerprint does not match the "
                             "loaded model's parameters",
                             "the model files were modified after the "
                             "plan was written; re-save the predictor");
            }
            const auto &config = model_ref.config();
            if (file_plan.config.vocab != config.encoder.vocab_size ||
                file_plan.config.max_positions !=
                    config.encoder.max_positions ||
                file_plan.config.d_model != config.encoder.d_model ||
                file_plan.config.heads != config.encoder.heads ||
                file_plan.config.layers != config.encoder.layers ||
                file_plan.config.d_ff != config.encoder.d_ff ||
                file_plan.config.head_hidden != config.head_hidden) {
                report.error(verify::rules::kPlanModel, plan_path,
                             "plan architecture does not match "
                             "predictor.meta");
            }
        }
        const bool usable = parsed && !report.hasErrors();
        verify::enforce(std::move(report), plan_path);
        if (usable) {
            predictor.circuitformer_->bindPlan(plan::compilePlan(
                file_plan, predictor.circuitformer_->parameters()));
        }
    }

    // A saved int8 tier (plan_int8.snsp) goes through the same gate:
    // container checks, the P-QUANT-* analyzer passes inside
    // compilePlan, and the model-fingerprint match — then binds for
    // Precision::Int8 calls.
    const std::string qplan_path = directory + "/plan_int8.snsp";
    if (std::filesystem::exists(qplan_path)) {
        verify::Report report;
        plan::Plan file_plan;
        const bool parsed =
            plan::readPlanFile(qplan_path, file_plan, report);
        if (parsed) {
            if (file_plan.fingerprint !=
                predictor.circuitformer_->parametersFingerprint()) {
                report.error(verify::rules::kPlanModel, qplan_path,
                             "quantized plan fingerprint does not "
                             "match the loaded model's parameters",
                             "the model files were modified after "
                             "quantization; re-run quantize");
            }
            if (file_plan.quant.empty()) {
                report.error(verify::rules::kPlanQuantOp, qplan_path,
                             "plan_int8.snsp carries no int8 side "
                             "table",
                             "re-save the predictor after quantize()");
            }
        }
        const bool usable = parsed && !report.hasErrors();
        verify::enforce(std::move(report), qplan_path);
        if (usable) {
            predictor.circuitformer_->bindQuantPlan(plan::compilePlan(
                file_plan, predictor.circuitformer_->parameters()));
            const auto payload = plan::serializePlanPayload(file_plan);
            const uint64_t hash = fnv1a(payload.data(), payload.size());
            predictor.quant_fingerprint_ = hash == 0 ? 1 : hash;
        }
    }
    return predictor;
}

} // namespace sns::core
