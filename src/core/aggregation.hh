/**
 * @file
 * Path-to-design aggregation (§3.4) and the per-target Aggregation
 * MLPs.
 *
 * The reductions follow the paper exactly: timing is the max over
 * sampled paths, area and power are sums (power scaled per path by the
 * endpoint registers' activity coefficients when clock-gating
 * information is present, §3.4.4). Each target then gets its own MLP
 * with three 32-neuron fully-connected layers, fed the corresponding
 * aggregate together with the design's graph statistics (Fig. 2c), and
 * trained with SGD (Table 6).
 */

#ifndef SNS_CORE_AGGREGATION_HH
#define SNS_CORE_AGGREGATION_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/circuitformer.hh"
#include "nn/layers.hh"

namespace sns::core {

/** Which physical characteristic an MLP predicts. */
enum class Target
{
    Timing,
    Area,
    Power,
};

/** Printable name of a target. */
const char *targetName(Target target);

/** Per-design reduction of path predictions + graph statistics. */
struct AggregateSummary
{
    double max_timing_ps = 0.0;  ///< max over path timing predictions
    double sum_area_um2 = 0.0;   ///< sum over path area predictions
    double sum_power_mw = 0.0;   ///< activity-scaled sum of path power
    size_t num_paths = 0;
    size_t sum_path_nodes = 0;   ///< total node visits across paths
    size_t num_nodes = 0;
    size_t num_edges = 0;
    std::vector<double> token_counts; ///< Fig. 2c statistics (79 bins)
};

/**
 * Reduce per-path predictions into an AggregateSummary for a design.
 * @param path_lengths per-path vertex counts (used for the coverage
 *        correction that anchors area/power predictions); pass an
 *        empty vector to skip the correction
 * @param activities per-path activity coefficients (§3.4.4); pass an
 *        empty vector when no clock-gating information exists
 */
AggregateSummary reduceAggregates(
    const graphir::Graph &graph,
    const std::vector<PathPrediction> &path_predictions,
    const std::vector<size_t> &path_lengths = {},
    const std::vector<double> &activities = {});

/** SGD training schedule for an Aggregation MLP (Table 6 defaults). */
struct MlpTrainConfig
{
    int epochs = 10240;
    int batch_size = 64;
    double learning_rate = 1e-4;
    double momentum = 0.9;
    uint64_t seed = 0xa99;
};

class AggregationMlp;

/**
 * The three per-target Aggregation MLPs as one unit. Everything that
 * used to juggle three parallel shared_ptrs — the predictor's
 * constructor, pipeline save/load, the trainer, the k-sweep
 * ablation's re-wiring — passes one AggregationHeads instead.
 */
struct AggregationHeads
{
    std::shared_ptr<AggregationMlp> timing;
    std::shared_ptr<AggregationMlp> area;
    std::shared_ptr<AggregationMlp> power;

    /** Heads with freshly-initialized (unfitted) MLPs. */
    static AggregationHeads make(uint64_t timing_seed = 0xa99,
                                 uint64_t area_seed = 0xa99,
                                 uint64_t power_seed = 0xa99);

    /** True when all three handles are present. */
    bool complete() const { return timing && area && power; }

    /**
     * Fit all three MLPs on the same training summaries, one fit per
     * sns::par worker (the fits are independent).
     */
    void fit(const std::vector<AggregateSummary> &summaries,
             const std::vector<double> &timing_truth,
             const std::vector<double> &area_truth,
             const std::vector<double> &power_truth,
             const MlpTrainConfig &config = MlpTrainConfig());

    /** Persist the three MLPs into a model directory. */
    void save(const std::string &directory) const;

    /** Restore heads saved by save(). */
    static AggregationHeads load(const std::string &directory);
};

/** One per-target design-level regressor. */
class AggregationMlp : public nn::Module
{
  public:
    AggregationMlp(Target target, uint64_t seed = 0xa99);

    /**
     * Fit on training designs.
     * @param summaries per-design aggregates (training set)
     * @param truths per-design ground-truth values of this target
     */
    void fit(const std::vector<AggregateSummary> &summaries,
             const std::vector<double> &truths,
             const MlpTrainConfig &config = MlpTrainConfig());

    /** Predict this target for one design: tape-free, through
     * nn::Mlp::forwardRow on per-thread buffers, so a warm call
     * allocates nothing. */
    double predict(const AggregateSummary &summary) const;

    /** True once fit() has run. */
    bool fitted() const { return fitted_; }

    Target target() const { return target_; }

    std::vector<tensor::Variable> parameters() const override;

    /** Persist weights + normalization statistics. */
    void save(const std::string &path) const;

    /** Restore weights + normalization statistics. */
    void load(const std::string &path);

  private:
    /** Log of this target's path-level aggregate for a summary. */
    double aggregateLog(const AggregateSummary &summary) const;

    /** Fill `features` (featureDim() wide) with the raw
     * (unstandardized) features of a summary. */
    void rawFeatures(const AggregateSummary &summary,
                     std::span<float> features) const;

    /** Standardize a raw feature vector in place. */
    void standardize(std::span<float> features) const;

    Target target_;
    Rng init_rng_;
    nn::Mlp mlp_;
    bool fitted_ = false;
    std::vector<double> feature_mean_;
    std::vector<double> feature_std_;
    double target_mean_ = 0.0;
    double target_std_ = 1.0;
};

} // namespace sns::core

#endif // SNS_CORE_AGGREGATION_HH
