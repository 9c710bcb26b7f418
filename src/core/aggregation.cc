#include "core/aggregation.hh"

#include <algorithm>
#include <cmath>

#include "nn/serialize.hh"
#include "par/thread_pool.hh"
#include "synth/tech_library.hh"
#include "util/logging.hh"

namespace sns::core {

using namespace sns::tensor;

const char *
targetName(Target target)
{
    switch (target) {
      case Target::Timing:
        return "timing";
      case Target::Area:
        return "area";
      case Target::Power:
        return "power";
    }
    panic("unhandled Target");
}

AggregateSummary
reduceAggregates(const graphir::Graph &graph,
                 const std::vector<PathPrediction> &path_predictions,
                 const std::vector<size_t> &path_lengths,
                 const std::vector<double> &activities)
{
    SNS_ASSERT(activities.empty() ||
                   activities.size() == path_predictions.size(),
               "activity vector must match path count");
    SNS_ASSERT(path_lengths.empty() ||
                   path_lengths.size() == path_predictions.size(),
               "path-length vector must match path count");
    AggregateSummary summary;
    summary.num_paths = path_predictions.size();
    summary.num_nodes = graph.numNodes();
    summary.num_edges = graph.numEdges();
    summary.token_counts = graph.tokenCounts();

    for (size_t i = 0; i < path_predictions.size(); ++i) {
        const auto &p = path_predictions[i];
        const double activity = activities.empty() ? 1.0 : activities[i];
        summary.max_timing_ps = std::max(summary.max_timing_ps,
                                         p.timing_ps);
        summary.sum_area_um2 += p.area_um2;
        summary.sum_power_mw += p.power_mw * activity;
        if (!path_lengths.empty())
            summary.sum_path_nodes += path_lengths[i];
    }
    return summary;
}

namespace {

constexpr int kExtraFeatures = 8;

// The MLP's standardized output is clamped to this many units: with
// ~20 training designs the network must not extrapolate the
// truth/aggregate ratio far beyond the observed range.
constexpr double kOutputClamp = 2.5;

double
safeLog(double value)
{
    return std::log(std::max(value, 1e-9));
}

int
featureDim()
{
    return kExtraFeatures + graphir::Vocabulary::instance().circuitSize();
}

/**
 * Library-informed graph statistics: a predictor ships with the
 * technology library, so a mapped-area/gate-count estimate from the
 * token histogram is available without synthesis. These act as strong
 * scale features next to the raw counts.
 */
void
libraryFeatures(const AggregateSummary &summary, double &log_lib_area,
                double &log_lib_gates, double &log_lib_max_delay)
{
    const auto &vocab = graphir::Vocabulary::instance();
    const auto &lib = synth::TechLibrary::freePdk15();
    double area = 0.0;
    double gates = 0.0;
    double max_delay = 0.0;
    for (int token = 0; token < vocab.circuitSize(); ++token) {
        const double count = summary.token_counts[token];
        if (count == 0.0)
            continue;
        const auto cell = lib.cell(vocab.tokenType(token),
                                   vocab.tokenWidth(token));
        area += count * cell.area_um2;
        gates += count * cell.gates;
        max_delay = std::max(max_delay, cell.delay_ps);
    }
    log_lib_area = safeLog(area);
    log_lib_gates = safeLog(gates);
    log_lib_max_delay = safeLog(max_delay);
}

/** Per-thread buffers of AggregationMlp::predict: the feature row and
 * Mlp::forwardRow's activations. They grow once, so warm calls
 * allocate nothing. */
struct RowScratch
{
    std::vector<float> row;
    std::vector<float> hidden;
};

thread_local RowScratch t_row_scratch;

} // namespace

AggregationMlp::AggregationMlp(Target target, uint64_t seed)
    : target_(target),
      init_rng_(seed ^ static_cast<uint64_t>(target)),
      mlp_({featureDim(), 32, 32, 32, 1}, init_rng_)
{
}

double
AggregationMlp::aggregateLog(const AggregateSummary &summary) const
{
    // Area and power anchors are coverage-corrected: the sampled paths
    // visit sum_path_nodes vertex slots out of num_nodes vertices, so
    // scaling the path sum by num_nodes / sum_path_nodes yields an
    // unbiased per-vertex estimate regardless of how many paths the
    // sampler's budget admitted. (With no length information the plain
    // sum is used, as in the paper.)
    const double coverage =
        summary.sum_path_nodes > 0
            ? static_cast<double>(summary.num_nodes) /
                  static_cast<double>(summary.sum_path_nodes)
            : 1.0;
    switch (target_) {
      case Target::Timing:
        return safeLog(summary.max_timing_ps);
      case Target::Area:
        return safeLog(summary.sum_area_um2 * coverage);
      case Target::Power:
        return safeLog(summary.sum_power_mw * coverage);
    }
    panic("unhandled Target");
}

void
AggregationMlp::rawFeatures(const AggregateSummary &summary,
                            std::span<float> features) const
{
    SNS_ASSERT(summary.token_counts.size() ==
                   static_cast<size_t>(
                       graphir::Vocabulary::instance().circuitSize()),
               "token_counts has wrong length");
    SNS_ASSERT(features.size() == static_cast<size_t>(featureDim()),
               "feature row has wrong width");
    float *out = features.data();

    double aggregate = 0.0;
    switch (target_) {
      case Target::Timing:
        aggregate = summary.max_timing_ps;
        break;
      case Target::Area:
        aggregate = summary.sum_area_um2;
        break;
      case Target::Power:
        aggregate = summary.sum_power_mw;
        break;
    }
    *out++ = static_cast<float>(safeLog(aggregate));
    *out++ = static_cast<float>(
        std::log1p(static_cast<double>(summary.num_paths)));
    *out++ = static_cast<float>(
        std::log1p(static_cast<double>(summary.num_nodes)));
    *out++ = static_cast<float>(
        std::log1p(static_cast<double>(summary.num_edges)));
    *out++ = static_cast<float>(
        std::log1p(static_cast<double>(summary.sum_path_nodes)));
    double log_lib_area = 0.0;
    double log_lib_gates = 0.0;
    double log_lib_max_delay = 0.0;
    libraryFeatures(summary, log_lib_area, log_lib_gates,
                    log_lib_max_delay);
    *out++ = static_cast<float>(log_lib_area);
    *out++ = static_cast<float>(log_lib_gates);
    *out++ = static_cast<float>(log_lib_max_delay);
    for (double count : summary.token_counts)
        *out++ = static_cast<float>(std::log1p(count));
}

void
AggregationMlp::standardize(std::span<float> features) const
{
    for (size_t i = 0; i < features.size(); ++i) {
        features[i] = static_cast<float>(
            (features[i] - feature_mean_[i]) / feature_std_[i]);
    }
}

void
AggregationMlp::fit(const std::vector<AggregateSummary> &summaries,
                    const std::vector<double> &truths,
                    const MlpTrainConfig &config)
{
    SNS_ASSERT(summaries.size() == truths.size() && !summaries.empty(),
               "fit() needs matching, non-empty data");
    const int n = static_cast<int>(summaries.size());
    const int dim = featureDim();

    // Feature standardization statistics.
    std::vector<std::vector<float>> raw;
    raw.reserve(n);
    for (const auto &summary : summaries) {
        raw.emplace_back(dim);
        rawFeatures(summary, raw.back());
    }
    feature_mean_.assign(dim, 0.0);
    feature_std_.assign(dim, 0.0);
    for (const auto &row : raw) {
        for (int j = 0; j < dim; ++j)
            feature_mean_[j] += row[j];
    }
    for (int j = 0; j < dim; ++j)
        feature_mean_[j] /= n;
    for (const auto &row : raw) {
        for (int j = 0; j < dim; ++j) {
            const double d = row[j] - feature_mean_[j];
            feature_std_[j] += d * d;
        }
    }
    for (int j = 0; j < dim; ++j) {
        feature_std_[j] = std::sqrt(feature_std_[j] / n);
        if (feature_std_[j] < 1e-6)
            feature_std_[j] = 1.0;
    }

    // The MLP regresses the log-ratio between the design-level truth
    // and the path-level aggregate: the aggregate carries the scale
    // (it is proportional to the target by construction, §3.4) and the
    // network learns the calibration/correction from the graph
    // statistics. This keeps predictions anchored to the aggregate
    // even in the small-training-set regime the paper operates in.
    double tsum = 0.0;
    double tsq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double lt = safeLog(truths[i]) - aggregateLog(summaries[i]);
        tsum += lt;
        tsq += lt * lt;
    }
    target_mean_ = tsum / n;
    const double tvar = tsq / n - target_mean_ * target_mean_;
    target_std_ = tvar > 1e-8 ? std::sqrt(tvar) : 1.0;

    // Assemble standardized training matrices.
    Tensor x({n, dim});
    Tensor y({n, 1});
    for (int i = 0; i < n; ++i) {
        auto row = raw[i];
        standardize(row);
        for (int j = 0; j < dim; ++j)
            x.at2(i, j) = row[j];
        y.at2(i, 0) = static_cast<float>(
            (safeLog(truths[i]) - aggregateLog(summaries[i]) -
             target_mean_) /
            target_std_);
    }

    // SGD with momentum (Table 6), mini-batched.
    nn::Sgd optimizer(mlp_.parameters(), config.learning_rate,
                      config.momentum);
    Rng rng(config.seed);
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        rng.shuffle(order);
        for (int start = 0; start < n; start += config.batch_size) {
            const int end = std::min(n, start + config.batch_size);
            Tensor bx({end - start, dim});
            Tensor by({end - start, 1});
            for (int i = start; i < end; ++i) {
                for (int j = 0; j < dim; ++j)
                    bx.at2(i - start, j) = x.at2(order[i], j);
                by.at2(i - start, 0) = y.at2(order[i], 0);
            }
            optimizer.zeroGrad();
            Variable loss = mseLoss(mlp_.forward(Variable(bx)), by);
            loss.backward();
            optimizer.step();
        }
    }
    fitted_ = true;
}

double
AggregationMlp::predict(const AggregateSummary &summary) const
{
    SNS_ASSERT(fitted_, "predict() before fit()");
    auto &scratch = t_row_scratch;
    scratch.row.resize(featureDim());
    rawFeatures(summary, scratch.row);
    standardize(scratch.row);
    const auto out = mlp_.forwardRow(scratch.row, scratch.hidden);
    const double clamped = std::clamp(static_cast<double>(out[0]),
                                      -kOutputClamp, kOutputClamp);
    return std::exp(clamped * target_std_ + target_mean_ +
                    aggregateLog(summary));
}

std::vector<Variable>
AggregationMlp::parameters() const
{
    return mlp_.parameters();
}

void
AggregationMlp::save(const std::string &path) const
{
    SNS_ASSERT(fitted_, "save() before fit()");
    std::vector<Variable> all = parameters();
    const int dim = featureDim();
    // One stats tensor: feature means, feature stds, target mean/std.
    Tensor stats({2 * dim + 2});
    for (int j = 0; j < dim; ++j) {
        stats[j] = static_cast<float>(feature_mean_[j]);
        stats[dim + j] = static_cast<float>(feature_std_[j]);
    }
    stats[2 * dim] = static_cast<float>(target_mean_);
    stats[2 * dim + 1] = static_cast<float>(target_std_);
    all.emplace_back(stats);
    nn::saveParameters(path, all);
}

void
AggregationMlp::load(const std::string &path)
{
    std::vector<Variable> all = parameters();
    const int dim = featureDim();
    all.emplace_back(Tensor({2 * dim + 2}));
    nn::loadParameters(path, all);
    const Tensor &stats = all.back().value();
    feature_mean_.assign(dim, 0.0);
    feature_std_.assign(dim, 1.0);
    for (int j = 0; j < dim; ++j) {
        feature_mean_[j] = stats[j];
        feature_std_[j] = stats[dim + j];
    }
    target_mean_ = stats[2 * dim];
    target_std_ = stats[2 * dim + 1];
    fitted_ = true;
}

AggregationHeads
AggregationHeads::make(uint64_t timing_seed, uint64_t area_seed,
                       uint64_t power_seed)
{
    AggregationHeads heads;
    heads.timing =
        std::make_shared<AggregationMlp>(Target::Timing, timing_seed);
    heads.area = std::make_shared<AggregationMlp>(Target::Area, area_seed);
    heads.power =
        std::make_shared<AggregationMlp>(Target::Power, power_seed);
    return heads;
}

void
AggregationHeads::fit(const std::vector<AggregateSummary> &summaries,
                      const std::vector<double> &timing_truth,
                      const std::vector<double> &area_truth,
                      const std::vector<double> &power_truth,
                      const MlpTrainConfig &config)
{
    SNS_ASSERT(complete(), "fit() on incomplete AggregationHeads");
    AggregationMlp *mlps[3] = {timing.get(), area.get(), power.get()};
    const std::vector<double> *truths[3] = {&timing_truth, &area_truth,
                                            &power_truth};
    // The three fits are independent (each MLP owns its parameters and
    // seeds its own SGD shuffle from config.seed), so target order and
    // thread count cannot change any of the three results.
    par::globalPool().run(3, [&](size_t t) {
        mlps[t]->fit(summaries, *truths[t], config);
    });
}

void
AggregationHeads::save(const std::string &directory) const
{
    SNS_ASSERT(complete(), "save() on incomplete AggregationHeads");
    timing->save(directory + "/mlp_timing.bin");
    area->save(directory + "/mlp_area.bin");
    power->save(directory + "/mlp_power.bin");
}

AggregationHeads
AggregationHeads::load(const std::string &directory)
{
    AggregationHeads heads = make();
    heads.timing->load(directory + "/mlp_timing.bin");
    heads.area->load(directory + "/mlp_area.bin");
    heads.power->load(directory + "/mlp_power.bin");
    return heads;
}

} // namespace sns::core
