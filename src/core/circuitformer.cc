#include "core/circuitformer.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "dist/exchange.hh"
#include "nn/serialize.hh"
#include "par/thread_pool.hh"
#include "util/fnv.hh"
#include "util/logging.hh"

namespace sns::core {

using namespace sns::tensor;
using graphir::TokenId;
using graphir::Vocabulary;

namespace {

constexpr double kLogFloor = 1e-9;

double
safeLog(double value)
{
    return std::log(std::max(value, kLogFloor));
}

} // namespace

const char *
precisionName(Precision precision)
{
    switch (precision) {
    case Precision::Fp64:
        return "fp64";
    case Precision::Int8:
        return "int8";
    }
    return "unknown";
}

CircuitformerConfig::CircuitformerConfig()
{
    encoder.vocab_size = Vocabulary::instance().totalSize();
    encoder.max_positions = 512;
    encoder.d_model = 128;
    encoder.heads = 2;
    encoder.layers = 2;
    encoder.d_ff = 512;
}

CircuitformerConfig
CircuitformerConfig::small()
{
    CircuitformerConfig config;
    config.encoder.max_positions = 96;
    config.encoder.d_model = 32;
    config.encoder.heads = 2;
    config.encoder.layers = 2;
    config.encoder.d_ff = 64;
    config.head_hidden = 32;
    return config;
}

Circuitformer::Circuitformer(CircuitformerConfig config)
    : config_(config),
      init_rng_(config.seed),
      encoder_(config_.encoder, init_rng_),
      head_({config_.encoder.d_model, config_.head_hidden, 3}, init_rng_)
{
}

void
Circuitformer::fitNormalization(const std::vector<PathRecord> &records)
{
    SNS_ASSERT(!records.empty(), "fitNormalization needs records");
    std::array<double, 3> sum{};
    std::array<double, 3> sq{};
    for (const auto &record : records) {
        const std::array<double, 3> logs = {safeLog(record.timing_ps),
                                            safeLog(record.area_um2),
                                            safeLog(record.power_mw)};
        for (int t = 0; t < 3; ++t) {
            sum[t] += logs[t];
            sq[t] += logs[t] * logs[t];
        }
    }
    const double n = static_cast<double>(records.size());
    for (int t = 0; t < 3; ++t) {
        target_mean_[t] = sum[t] / n;
        const double var = sq[t] / n - target_mean_[t] * target_mean_[t];
        target_std_[t] = var > 1e-8 ? std::sqrt(var) : 1.0;
    }
    normalized_ = true;
}

std::array<float, 3>
Circuitformer::normalizedTargets(const PathRecord &record) const
{
    SNS_ASSERT(normalized_, "fitNormalization() must run first");
    const std::array<double, 3> logs = {safeLog(record.timing_ps),
                                        safeLog(record.area_um2),
                                        safeLog(record.power_mw)};
    std::array<float, 3> out;
    for (int t = 0; t < 3; ++t) {
        out[t] = static_cast<float>((logs[t] - target_mean_[t]) /
                                    target_std_[t]);
    }
    return out;
}

void
Circuitformer::pack(
    const std::vector<const std::vector<TokenId> *> &paths,
    std::vector<int> &ids, int &time, std::vector<int> &lengths) const
{
    const int batch = static_cast<int>(paths.size());
    const int cap = config_.encoder.max_positions;
    time = 1;
    lengths.assign(batch, 0);
    for (int b = 0; b < batch; ++b) {
        lengths[b] = std::min<int>(cap, paths[b]->size());
        time = std::max(time, lengths[b]);
    }
    ids.assign(static_cast<size_t>(batch) * time,
               Vocabulary::instance().padId());
    for (int b = 0; b < batch; ++b) {
        for (int t = 0; t < lengths[b]; ++t)
            ids[static_cast<size_t>(b) * time + t] = (*paths[b])[t];
    }
}

Variable
Circuitformer::forwardBatch(const std::vector<int> &ids, int batch,
                            int time,
                            const std::vector<int> &lengths) const
{
    const Variable pooled = encoder_.encode(ids, batch, time, lengths);
    return head_.forward(pooled); // [B, 3] normalized log targets
}

double
Circuitformer::trainEpoch(const std::vector<PathRecord> &records,
                          nn::Adam &optimizer, Rng &rng, int batch_size,
                          dist::GradientExchange &exchange)
{
    SNS_ASSERT(normalized_, "fitNormalization() before trainEpoch()");
    const int slices = exchange.gradSlices();
    const int world = exchange.worldSize();
    const int rank = exchange.rank();
    SNS_ASSERT(slices > 0 && world > 0 && slices % world == 0,
               "grad_slices must be a positive multiple of world_size");
    const int owned = slices / world;

    std::vector<Variable> params = parameters();
    const size_t flat_elems = dist::flatSize(params);

    // Identical shuffle on every rank: all ranks hold the same records
    // and drive the same epoch RNG stream.
    std::vector<size_t> order(records.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);

    double total = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size(); start += batch_size) {
        const size_t end =
            std::min(order.size(), start + static_cast<size_t>(batch_size));
        const size_t b = end - start;

        // This rank's slices: one independent backward pass each,
        // weighted by sample share, combined along the canonical tree.
        std::vector<std::optional<std::vector<float>>> grad_slots(owned);
        std::vector<std::optional<dist::ScalarPartial>> loss_slots(owned);
        for (int s = 0; s < owned; ++s) {
            const auto [lo, hi] =
                dist::sliceRange(b, slices, rank * owned + s);
            if (lo == hi)
                continue; // empty slice: identity at every world size
            std::vector<const std::vector<TokenId> *> batch_paths;
            Tensor targets({static_cast<int>(hi - lo), 3});
            for (size_t i = lo; i < hi; ++i) {
                const auto &record = records[order[start + i]];
                batch_paths.push_back(&record.tokens);
                const auto y = normalizedTargets(record);
                for (int t = 0; t < 3; ++t)
                    targets.at2(static_cast<int>(i - lo), t) = y[t];
            }
            std::vector<int> ids;
            std::vector<int> lengths;
            int time = 0;
            pack(batch_paths, ids, time, lengths);

            optimizer.zeroGrad();
            Variable loss = mseLoss(
                forwardBatch(ids, static_cast<int>(batch_paths.size()),
                             time, lengths),
                targets);
            loss.backward();
            // w·(slice-mean gradient) is the slice's share of the
            // batch-mean gradient; w depends only on (b, slices).
            const float w = static_cast<float>(hi - lo) /
                            static_cast<float>(b);
            grad_slots[s] = dist::flattenGrads(params, w);
            dist::ScalarPartial part;
            part.sum = static_cast<double>(loss.value()[0]) *
                       static_cast<double>(hi - lo);
            part.count = hi - lo;
            loss_slots[s] = part;
        }

        auto partial = dist::combineTreeGrad(std::move(grad_slots));
        const bool present = partial.has_value();
        std::vector<float> flat =
            present ? std::move(*partial)
                    : std::vector<float>(flat_elems, 0.0f);
        exchange.allreduceGrad(flat, present);
        dist::scatterGrads(params, flat);
        nn::clipGradNorm(params, 5.0);
        optimizer.step();
        exchange.allgatherWeights(params);

        const dist::ScalarPartial batch_loss =
            exchange.reduceLoss(dist::combineTreeLoss(std::move(loss_slots)));
        total += batch_loss.count == 0
                     ? 0.0
                     : batch_loss.sum /
                           static_cast<double>(batch_loss.count);
        ++batches;
    }
    return batches == 0 ? 0.0 : total / batches;
}

double
Circuitformer::evaluateLoss(const std::vector<PathRecord> &records,
                            int batch_size)
{
    SNS_ASSERT(normalized_, "fitNormalization() before evaluateLoss()");
    NoGradGuard no_grad;
    double total = 0.0;
    double weight = 0.0;
    for (size_t start = 0; start < records.size(); start += batch_size) {
        const size_t end = std::min(records.size(),
                                    start + static_cast<size_t>(batch_size));
        std::vector<const std::vector<TokenId> *> batch_paths;
        Tensor targets({static_cast<int>(end - start), 3});
        for (size_t i = start; i < end; ++i) {
            batch_paths.push_back(&records[i].tokens);
            const auto y = normalizedTargets(records[i]);
            for (int t = 0; t < 3; ++t)
                targets.at2(static_cast<int>(i - start), t) = y[t];
        }
        std::vector<int> ids;
        std::vector<int> lengths;
        int time = 0;
        pack(batch_paths, ids, time, lengths);
        const Variable loss = mseLoss(
            forwardBatch(ids, static_cast<int>(batch_paths.size()), time,
                         lengths),
            targets);
        total += loss.value()[0] * static_cast<double>(end - start);
        weight += static_cast<double>(end - start);
    }
    return weight == 0.0 ? 0.0 : total / weight;
}

std::vector<PathPrediction>
Circuitformer::predict(const std::vector<std::vector<TokenId>> &paths,
                       int batch_size, Precision precision) const
{
    SNS_ASSERT(normalized_, "fitNormalization() before predict()");
    SNS_ASSERT(batch_size > 0, "predict() needs batch_size > 0");
    // Int8 runs exclusively through the quantized plan — there is no
    // integer module walk to fall back on. predictBatch() turns these
    // preconditions into V-OPT-PRECISION diagnostics before the call
    // ever reaches this layer.
    const plan::CompiledPlan *active = plan_.get();
    if (precision == Precision::Int8) {
        SNS_ASSERT(qplan_ != nullptr && plan::planEnabled(),
                   "predict: precision=int8 needs a bound quantized "
                   "plan and SNS_PLAN on");
        SNS_ASSERT(batch_size <= qplan_->batchMax(),
                   "predict: precision=int8 batch_size ", batch_size,
                   " exceeds the quantized plan's batch_max ",
                   qplan_->batchMax());
        active = qplan_.get();
    }
    std::vector<PathPrediction> out(paths.size());
    // Batch boundaries depend only on batch_size, never on the thread
    // count, and each forward pass writes a disjoint slice of `out` —
    // so the parallel prediction is bitwise identical to the serial one.
    const size_t stride = static_cast<size_t>(batch_size);
    const size_t num_batches = (paths.size() + stride - 1) / stride;
    par::parallelFor(num_batches, [&](size_t bbegin, size_t bend) {
        NoGradGuard no_grad;
        for (size_t b = bbegin; b < bend; ++b) {
            const size_t start = b * stride;
            const size_t end = std::min(paths.size(), start + stride);
            std::vector<const std::vector<TokenId> *> batch_paths;
            for (size_t i = start; i < end; ++i)
                batch_paths.push_back(&paths[i]);
            std::vector<int> ids;
            std::vector<int> lengths;
            int time = 0;
            pack(batch_paths, ids, time, lengths);
            const int rows = static_cast<int>(batch_paths.size());
            // Planned execution when a verified plan is bound and the
            // batch fits it; bitwise-identical to the module walk
            // (docs/plan.md), so mixing the two paths is sound.
            const float *planned = nullptr;
            if (active != nullptr && plan::planEnabled() &&
                rows <= active->batchMax())
                planned = active->run(ids, lengths, rows, time);
            Variable pred;
            if (planned == nullptr)
                pred = forwardBatch(ids, rows, time, lengths);
            const auto logit = [&](size_t row, int t) {
                return planned != nullptr
                           ? planned[row * 3 + t]
                           : pred.value().at2(static_cast<int>(row), t);
            };
            for (size_t i = 0; i < batch_paths.size(); ++i) {
                PathPrediction p;
                p.timing_ps = std::exp(logit(i, 0) * target_std_[0] +
                                       target_mean_[0]);
                p.area_um2 = std::exp(logit(i, 1) * target_std_[1] +
                                      target_mean_[1]);
                p.power_mw = std::exp(logit(i, 2) * target_std_[2] +
                                      target_mean_[2]);
                out[start + i] = p;
            }
        }
    });
    return out;
}

std::vector<Variable>
Circuitformer::parameters() const
{
    std::vector<Variable> params = encoder_.parameters();
    for (const auto &param : head_.parameters())
        params.push_back(param);
    return params;
}

uint64_t
Circuitformer::fingerprintWith(const std::array<double, 3> &mean,
                               const std::array<double, 3> &std) const
{
    uint64_t hash = kFnvOffsetBasis;
    for (const auto &param : parameters()) {
        const tensor::Tensor &value = param.value();
        hash = fnv1a(value.data(), value.numel() * sizeof(float), hash);
    }
    hash = fnv1a(mean.data(), sizeof(mean), hash);
    hash = fnv1a(std.data(), sizeof(std), hash);
    return hash == 0 ? 1 : hash; // 0 means "unbound" to the cache
}

uint64_t
Circuitformer::parametersFingerprint() const
{
    // FNV-1a over the raw bytes of every weight tensor, then the
    // double-precision normalization statistics. The statistics are
    // hashed at full precision on purpose: save() truncates them to
    // float32, so a freshly-trained model and its reloaded checkpoint
    // correctly fingerprint as *different* models (their predictions
    // differ in the last bits), while two loads of the same checkpoint
    // fingerprint identically.
    return fingerprintWith(target_mean_, target_std_);
}

namespace {

/**
 * double → float32 → double, with the narrowing forced through a real
 * float store. A plain `(double)(float)x` pair here gets (mis)folded
 * away by the vectorizer at -O3 (observed with GCC 12: the packed
 * lanes of the loop skip the cvtpd2ps/cvtps2pd round trip), which
 * silently breaks the save/load fingerprint contract below. The
 * volatile store is the minimal fence that guarantees the value
 * actually passes through float32.
 */
double
snapToFloat(double value)
{
    volatile float snapped = static_cast<float>(value);
    return static_cast<double>(snapped);
}

} // namespace

uint64_t
Circuitformer::parametersFingerprintSnapped() const
{
    std::array<double, 3> mean;
    std::array<double, 3> std;
    for (int t = 0; t < 3; ++t) {
        mean[t] = snapToFloat(target_mean_[t]);
        std[t] = snapToFloat(target_std_[t]);
    }
    return fingerprintWith(mean, std);
}

plan::Plan
Circuitformer::tracePlan(int batch_max) const
{
    // The canonical plan *is* the module walk for this architecture;
    // assert the composed modules actually have that architecture so a
    // future module change cannot silently diverge from the trace.
    const auto dims = head_.layerDims();
    SNS_ASSERT(dims ==
                   std::vector<int>({config_.encoder.d_model,
                                     config_.head_hidden, 3}),
               "tracePlan: head MLP is not the {d_model, head_hidden, 3}"
               " stack the plan IR encodes");

    plan::PlanConfig plan_config;
    plan_config.vocab = config_.encoder.vocab_size;
    plan_config.max_positions = config_.encoder.max_positions;
    plan_config.d_model = config_.encoder.d_model;
    plan_config.heads = config_.encoder.heads;
    plan_config.layers = config_.encoder.layers;
    plan_config.d_ff = config_.encoder.d_ff;
    plan_config.head_hidden = config_.head_hidden;
    plan_config.batch_max = batch_max;
    return plan::buildCanonicalPlan(plan_config, parametersFingerprint());
}

void
Circuitformer::bindPlan(std::shared_ptr<const plan::CompiledPlan> compiled)
{
    if (compiled) {
        SNS_ASSERT(compiled->fingerprint() == parametersFingerprint(),
                   "bindPlan: plan was traced from a different model "
                   "(fingerprint mismatch)");
    }
    plan_ = std::move(compiled);
}

bool
Circuitformer::planActive() const
{
    return plan_ != nullptr && plan::planEnabled();
}

void
Circuitformer::bindQuantPlan(
    std::shared_ptr<const plan::CompiledPlan> compiled)
{
    if (compiled) {
        SNS_ASSERT(compiled->fingerprint() == parametersFingerprint(),
                   "bindQuantPlan: plan was traced from a different "
                   "model (fingerprint mismatch)");
        SNS_ASSERT(compiled->quantized(),
                   "bindQuantPlan: plan carries no int8 side table — "
                   "bind it with bindPlan() instead");
    }
    qplan_ = std::move(compiled);
}

void
Circuitformer::saveTo(std::ostream &out, const std::string &where) const
{
    SNS_ASSERT(normalized_, "save() before fitNormalization()");
    std::vector<Variable> all = parameters();
    // The normalization statistics ride along as one extra tensor.
    // They are float-snapped here; docs/serving.md explains why the
    // fingerprint treats a freshly-trained model and its reloaded twin
    // as different models because of this truncation.
    Tensor norm({6});
    for (int t = 0; t < 3; ++t) {
        norm[t] = static_cast<float>(target_mean_[t]);
        norm[3 + t] = static_cast<float>(target_std_[t]);
    }
    all.emplace_back(norm);
    nn::saveParameters(out, all, where);
}

void
Circuitformer::loadFrom(std::istream &in, const std::string &where)
{
    std::vector<Variable> all = parameters();
    all.emplace_back(Tensor({6}));
    nn::loadParameters(in, all, where);
    const Tensor &norm = all.back().value();
    for (int t = 0; t < 3; ++t) {
        target_mean_[t] = norm[t];
        target_std_[t] = norm[3 + t];
    }
    normalized_ = true;
}

void
Circuitformer::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        throw nn::SerializeError(
            "cannot open weight file for writing: " + path);
    }
    saveTo(out, path);
    if (!out)
        throw nn::SerializeError("short write to weight file: " + path);
}

void
Circuitformer::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw nn::SerializeError("cannot open weight file: " + path);
    loadFrom(in, path);
}

} // namespace sns::core
