/**
 * @file
 * The Circuitformer (§3.3, Table 2): a light-weight Transformer
 * regressor that predicts the physical characteristics (timing, area,
 * power) of one complete circuit path.
 *
 * Targets are learned in standardized log space (area and power span
 * several decades across the path population); the normalization
 * statistics are fitted on the training paths and stored with the
 * model.
 */

#ifndef SNS_CORE_CIRCUITFORMER_HH
#define SNS_CORE_CIRCUITFORMER_HH

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/datasets.hh"
#include "nn/optim.hh"
#include "nn/transformer.hh"
#include "plan/runtime.hh"

namespace sns::dist {
class GradientExchange;
}

namespace sns::core {

/**
 * Numeric tier a prediction runs at (docs/quantization.md).
 *
 * Fp64 is the default double-accumulation pipeline; Int8 routes the
 * plan's Gemm ops through the u7 x s8 integer kernels using the
 * per-output-channel scales carried by a quantized plan. The enum is
 * serialized as one byte in the serve protocol and in session
 * records, so the underlying values are part of the wire contract.
 */
enum class Precision : uint8_t
{
    Fp64 = 0,
    Int8 = 1,
};

/** Wire/CLI spelling of a precision tier ("fp64" / "int8"). */
const char *precisionName(Precision precision);

/** Predicted physical characteristics of one circuit path. */
struct PathPrediction
{
    double timing_ps = 0.0;
    double area_um2 = 0.0;
    double power_mw = 0.0;
};

/** Circuitformer hyper-parameters (defaults follow Table 2). */
struct CircuitformerConfig
{
    nn::TransformerConfig encoder;
    int head_hidden = 64;    ///< regression-head hidden width
    uint64_t seed = 0xc1;

    CircuitformerConfig();

    /** A scaled-down configuration for fast tests/CI runs. */
    static CircuitformerConfig small();
};

/** The path-level synthesis predictor. */
class Circuitformer : public nn::Module
{
  public:
    explicit Circuitformer(CircuitformerConfig config =
                               CircuitformerConfig());

    /**
     * Fit the target-normalization statistics (per-target mean/std of
     * the log labels) on the training paths. Must run before training.
     */
    void fitNormalization(const std::vector<PathRecord> &records);

    /**
     * One training epoch of Adam + MSE on normalized log targets,
     * slice-deterministic (docs/distributed.md): every batch is cut
     * into exchange.gradSlices() contiguous sample slices, this rank
     * backpropagates its owned slices, and the gradients combine along
     * the canonical slice tree — locally and then through the
     * exchange — so the updated weights (and the returned mean loss)
     * are bitwise-identical at every admissible world size. Plain
     * single-process training is a dist::LocalExchange(1). The
     * optimizer may be moment-sharded; after its step the exchange
     * allgathers the owned weight ranges. All ranks must call this in
     * lockstep with identical records/rng/batch_size.
     * @return mean batch loss (identical on every rank)
     */
    double trainEpoch(const std::vector<PathRecord> &records,
                      nn::Adam &optimizer, Rng &rng, int batch_size,
                      dist::GradientExchange &exchange);

    /** Mean loss without updating weights (validation). */
    double evaluateLoss(const std::vector<PathRecord> &records,
                        int batch_size = 64);

    /**
     * Predict a batch of paths (no gradients, de-normalized).
     *
     * Precision::Int8 requires a bound quantized plan (bindQuantPlan)
     * with batch_max >= batch_size and the SNS_PLAN switch on —
     * predictBatch() validates all three up front (V-OPT-PRECISION);
     * this layer asserts them.
     */
    std::vector<PathPrediction> predict(
        const std::vector<std::vector<graphir::TokenId>> &paths,
        int batch_size = 64,
        Precision precision = Precision::Fp64) const;

    std::vector<tensor::Variable> parameters() const override;

    /**
     * A nonzero FNV-1a fingerprint of everything a path prediction
     * depends on: the raw float bytes of every parameter tensor plus
     * the (double-precision) normalization statistics. Two models map
     * a token path to bitwise-identical predictions iff their
     * fingerprints match, which is the key to *sharing* a
     * perf::PathPredictionCache across predictor instances — the cache
     * binds to this value and rejects mismatched writers. A save/load
     * round trip preserves the fingerprint once the statistics have
     * been float-snapped by one load (the checkpoint invariant
     * hot-reload relies on; see docs/serving.md).
     */
    uint64_t parametersFingerprint() const;

    /**
     * The fingerprint this model will have after one save/load round
     * trip (normalization statistics passed through float32). A
     * plan.snsp written at save() time records this value so the
     * P-MODEL check passes against the *reloaded* model; see
     * parametersFingerprint() for why the two differ.
     */
    uint64_t parametersFingerprintSnapped() const;

    /**
     * Trace the module walk into the static execution-plan IR
     * (docs/plan.md): the canonical op sequence for this
     * architecture, carrying parametersFingerprint() and accepting
     * batches up to `batch_max`. Asserts that the composed modules
     * (encoder config, head layer dims) actually form the walk the
     * plan encodes.
     */
    plan::Plan tracePlan(int batch_max) const;

    /**
     * Bind a compiled plan: predict() batches that fit its batch_max
     * run through CompiledPlan::run() instead of the module walk —
     * bitwise-identically (the test_plan.cc gate). The plan must have
     * been compiled against this model's current parameters; like the
     * path cache, a bound plan assumes frozen weights. Pass nullptr
     * to unbind.
     */
    void bindPlan(std::shared_ptr<const plan::CompiledPlan> compiled);

    /** The bound plan, if any. */
    const std::shared_ptr<const plan::CompiledPlan> &
    boundPlan() const
    {
        return plan_;
    }

    /** True when a bound plan would serve predict() right now (a plan
     * is bound and the SNS_PLAN kill switch is not off). */
    bool planActive() const;

    /**
     * Bind the quantized twin of the fp64 plan: a compiled plan whose
     * int8 side table is non-empty (plan::quantizePlan output). It
     * serves predict(..., Precision::Int8) only — the fp64 path is
     * untouched, which is the "precision=fp64 stays bitwise identical"
     * kill-switch guarantee. Same fingerprint/frozen-weights contract
     * as bindPlan(); pass nullptr to unbind.
     */
    void
    bindQuantPlan(std::shared_ptr<const plan::CompiledPlan> compiled);

    /** The bound quantized plan, if any. */
    const std::shared_ptr<const plan::CompiledPlan> &
    boundQuantPlan() const
    {
        return qplan_;
    }

    /** True when a quantized plan is bound (int8 inference possible —
     * modulo the SNS_PLAN switch, which predictBatch checks). */
    bool hasQuantPlan() const { return qplan_ != nullptr; }

    /** Persist weights + normalization to a file. */
    void save(const std::string &path) const;

    /** Restore weights + normalization from a file. */
    void load(const std::string &path);

    /** Stream forms of save()/load(), used to embed the model inside a
     * training checkpoint (nn::CheckpointWriter/Reader payloads);
     * `where` labels load errors. */
    void saveTo(std::ostream &out, const std::string &where) const;
    void loadFrom(std::istream &in, const std::string &where);

    const CircuitformerConfig &config() const { return config_; }

  private:
    /** Forward a padded batch to normalized [B, 3] predictions. */
    tensor::Variable forwardBatch(const std::vector<int> &ids, int batch,
                                  int time,
                                  const std::vector<int> &lengths) const;

    /** Pack a list of token paths into padded ids + lengths. */
    void pack(const std::vector<const std::vector<graphir::TokenId> *>
                  &paths,
              std::vector<int> &ids, int &time,
              std::vector<int> &lengths) const;

    /** Normalized log-target triple for a record. */
    std::array<float, 3> normalizedTargets(const PathRecord &record) const;

    /** Fingerprint with explicit normalization statistics (shared by
     * the plain and float-snapped variants). */
    uint64_t fingerprintWith(const std::array<double, 3> &mean,
                             const std::array<double, 3> &std) const;

    CircuitformerConfig config_;
    Rng init_rng_; ///< consumed during member construction only
    nn::TransformerEncoder encoder_;
    nn::Mlp head_;
    std::array<double, 3> target_mean_{};
    std::array<double, 3> target_std_{};
    bool normalized_ = false;
    std::shared_ptr<const plan::CompiledPlan> plan_;
    std::shared_ptr<const plan::CompiledPlan> qplan_;
};

} // namespace sns::core

#endif // SNS_CORE_CIRCUITFORMER_HH
