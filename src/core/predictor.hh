/**
 * @file
 * SnsPredictor — the end-to-end prediction flow of Fig. 1: GraphIR in,
 * (timing, area, power) out.
 *
 *   1. sample complete circuit paths (Algorithm 1, k = 5),
 *   2. Circuitformer predicts each path's physical characteristics,
 *   3. reductions (max / sum / activity-scaled sum, §3.4),
 *   4. per-target Aggregation MLPs produce the design-level numbers.
 *
 * Because every path is explicitly sampled, the predictor also reports
 * *where* the predicted critical path lies in the design — the paper's
 * §2.2 "local property" advantage over whole-graph GNNs.
 *
 * The serving entry point is `predictBatch`: many designs in, one
 * prediction per design out, with work distributed over the sns::par
 * runtime — across designs when the batch has several, across path
 * batches (and GEMM tiles) inside a single large design. Predictions
 * are bitwise identical at any thread count (docs/parallelism.md).
 */

#ifndef SNS_CORE_PREDICTOR_HH
#define SNS_CORE_PREDICTOR_HH

#include <memory>
#include <span>

#include "core/aggregation.hh"
#include "core/circuitformer.hh"
#include "perf/path_cache.hh"
#include "sampler/path_sampler.hh"

namespace sns::core {

class SnsDesignSession;

/** Design-level prediction plus located critical path. */
struct SnsPrediction
{
    double timing_ps = 0.0;
    double area_um2 = 0.0;
    double power_mw = 0.0;
    /** Vertices of the predicted-slowest sampled path (empty when
     * PredictOptions::collect_critical_path is off). */
    std::vector<graphir::NodeId> critical_path;
    /** Number of complete circuit paths sampled for this prediction. */
    size_t paths_sampled = 0;
};

/** Knobs of one predictBatch() call. */
struct PredictOptions
{
    /**
     * Pool width for this call: 0 keeps the process-wide width
     * (par::configuredThreads()); > 0 runs this call on a pool of
     * that width and restores the prior configuration on return
     * (par::ScopedThreads) — the override is scoped to the call, it
     * no longer leaks into the process like a --threads flag would.
     */
    int threads = 0;

    /** Paths per Circuitformer forward pass. Changing it regroups the
     * padded batches but never changes a fp64 prediction: every row
     * is computed bitwise independently of its batch mates
     * (docs/perf.md), and sizes above the traced plan's 64 take the
     * bitwise-identical module walk. Int8 needs a size within the
     * quantized plan's batch_max. */
    int batch_size = 64;

    /** Record each design's predicted critical path (skip to save the
     * per-design argmax + node-vector copy in bulk serving). */
    bool collect_critical_path = true;

    /**
     * Optional content-addressed path-prediction cache (not owned).
     * When set, every sampled path is looked up first and only the
     * unique misses are forwarded through the Circuitformer — within
     * one design each unique path runs exactly once, and a cache held
     * across predictBatch calls (DSE sweeps over design variants that
     * share most of their paths) extends the reuse across batches.
     * Predictions are bitwise identical cache-on vs cache-off
     * (docs/perf.md).
     *
     * The cache may be shared across predictor instances and threads,
     * but only among predictors whose Circuitformer weights are
     * identical: the first user binds the cache to its
     * modelFingerprint() and a mismatched later user panics rather
     * than serve another model's predictions (the path_cache.hh
     * sharing contract).
     */
    perf::PathPredictionCache *cache = nullptr;

    /** The caller will read `cache`->stats() after the call (e.g.
     * `sns-cli predict --cache-stats`). Pure intent flag — it changes
     * no computation, but declaring it lets validatePredictOptions
     * reject the silently-useless `cache == nullptr` combination
     * (V-OPT-CACHE) instead of printing nothing. */
    bool cache_stats = false;

    /**
     * Optional incremental edit-loop session (not owned; see
     * design_session.hh). When set, the call must carry exactly one
     * graph and routes through SnsDesignSession::predict — open() on
     * first use, update() afterwards — and the session's *pinned*
     * cache supersedes `cache` (setting both is V-OPT-SESSION).
     * Results stay bitwise identical to a cold session-less call;
     * session->lastDiff() reports the reuse.
     */
    SnsDesignSession *session = nullptr;

    /**
     * Numeric tier for this call (docs/quantization.md). Fp64 (the
     * default) is the existing double pipeline, bitwise-untouched by
     * quantization. Int8 runs every quantized Gemm through the integer
     * kernels and needs a model that carries int8 scales
     * (SnsPredictor::quantize or a saved plan_int8.snsp) plus planned
     * execution (SNS_PLAN on) — violations are V-OPT-PRECISION, and
     * Count-mode enforcement recovers by falling back to fp64.
     */
    Precision precision = Precision::Fp64;
};

/**
 * Validate a PredictOptions combination in one place (V-OPT-* rules):
 * negative thread counts, non-positive batch sizes, `cache_stats`
 * without a cache, `session` combined with an external cache, a
 * precision value outside the known enum (V-OPT-PRECISION — possible
 * because the serve protocol carries it as a raw byte). Model-aware
 * precision checks (int8 without scales) live in predictBatch, which
 * can see the model. Pipeline boundaries (predictBatch, sns-serve)
 * hand the report to verify::enforce() — callers probing ahead of
 * time can inspect it directly.
 */
verify::Report validatePredictOptions(const PredictOptions &options);

/** The trained SNS prediction pipeline. */
class SnsPredictor
{
  public:
    SnsPredictor(std::shared_ptr<Circuitformer> circuitformer,
                 AggregationHeads heads,
                 sampler::SamplerOptions sampler_options);

    /**
     * Predict the post-synthesis characteristics of a batch of
     * designs; result i belongs to graphs[i]. Register activity
     * coefficients on each graph (§3.4.4) scale per-path power before
     * aggregation.
     */
    std::vector<SnsPrediction> predictBatch(
        std::span<const graphir::Graph *const> graphs,
        const PredictOptions &options = PredictOptions()) const;

    /**
     * Single-design convenience wrapper over predictBatch (kept for
     * tests and exploratory callers; bulk callers should batch). The
     * options overload is the single-design entry of the edit loop:
     * with options.session set it opens/updates the session in place.
     */
    SnsPrediction predict(const graphir::Graph &graph) const;
    SnsPrediction predict(const graphir::Graph &graph,
                          const PredictOptions &options) const;

    /** The path-level model (e.g. for per-path inspection). */
    const Circuitformer &circuitformer() const { return *circuitformer_; }

    /** Shared handle to the path-level model (for re-wiring pipelines,
     * e.g. the k-sweep ablation that swaps samplers and MLPs). */
    std::shared_ptr<Circuitformer>
    circuitformerPtr() const
    {
        return circuitformer_;
    }

    /** The per-target aggregation heads. */
    const AggregationHeads &heads() const { return heads_; }

    /** The Circuitformer weight fingerprint this predictor binds a
     * shared path cache to (computed once at construction). */
    uint64_t modelFingerprint() const { return model_fingerprint_; }

    /**
     * Calibrate and bind the int8 tier (docs/quantization.md): run the
     * calibration designs through the fp64 plan with a
     * plan::Calibrator observing every Gemm input, derive per-tensor
     * activation scales and per-output-channel weight scales
     * (plan::quantizePlan), compile the rewritten plan — the analyzer
     * enforces the P-QUANT-* rules — and bind it for
     * Precision::Int8 calls. The fp64 path is untouched. Requires
     * planned execution (SNS_PLAN on) and at least one calibration
     * design; re-quantizing replaces the previous scales.
     */
    void quantize(std::span<const graphir::Graph *const> calibration);

    /** True when an int8 plan is bound (quantize() ran, or load()
     * found a plan_int8.snsp). */
    bool quantized() const { return circuitformer_->hasQuantPlan(); }

    /**
     * The fingerprint predictions at `precision` bind a shared path
     * cache to. Fp64 is modelFingerprint(); Int8 additionally hashes
     * the quantized plan (scales included), so caches never mix the
     * two numeric tiers — int8 predictions are deliberately *not*
     * bitwise-equal to fp64 ones — and two predictors share int8
     * entries only when weights *and* calibration match.
     */
    uint64_t predictionFingerprint(Precision precision) const;

    /**
     * The tier a call with `options` will actually run at: the
     * requested precision with the V-OPT-PRECISION fallbacks applied
     * (int8 without scales, SNS_PLAN off, or an oversized batch all
     * resolve to fp64), without emitting diagnostics — predictBatch
     * reports them. Sessions use this to pin the tier they open at.
     */
    Precision effectivePrecision(const PredictOptions &options) const;

    /** Sampler configuration in use. */
    const sampler::SamplerOptions &samplerOptions() const
    {
        return sampler_options_;
    }

    /**
     * Persist the whole trained pipeline into a directory:
     * circuitformer weights, the aggregation heads, and a metadata
     * file with the architecture and sampler configuration.
     */
    void save(const std::string &directory) const;

    /** Restore a pipeline saved by save(). */
    static SnsPredictor load(const std::string &directory);

  private:
    /** The full single-design pipeline (sample -> infer -> aggregate). */
    SnsPrediction predictOne(const graphir::Graph &graph,
                             const PredictOptions &options) const;

    /** Path-level inference through a cache: probe every path, dedup
     * the misses, forward each unique miss once, scatter in order. */
    std::vector<PathPrediction> predictPathsCached(
        const std::vector<std::vector<graphir::TokenId>> &token_paths,
        perf::PathPredictionCache &cache, int batch_size,
        Precision precision) const;

    /** Resolve the call's numeric tier against this model: emits the
     * model-aware V-OPT-PRECISION diagnostics and returns the tier to
     * actually run at (Count-mode recovery falls back to Fp64). */
    Precision resolvePrecision(const PredictOptions &options) const;

    std::shared_ptr<Circuitformer> circuitformer_;
    AggregationHeads heads_;
    sampler::SamplerOptions sampler_options_;
    uint64_t model_fingerprint_ = 0;
    /** predictionFingerprint(Int8); 0 until a quantized plan binds. */
    uint64_t quant_fingerprint_ = 0;
};

} // namespace sns::core

#endif // SNS_CORE_PREDICTOR_HH
