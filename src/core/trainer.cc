#include "core/trainer.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dist/shard.hh"
#include "nn/serialize.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "util/fnv.hh"
#include "util/logging.hh"
#include "util/timer.hh"
#include "verify/diagnostics.hh"

namespace sns::core {

namespace {

uint64_t
fnvU64(uint64_t hash, uint64_t value)
{
    return fnv1a(&value, sizeof(value), hash);
}

uint64_t
fnvF64(uint64_t hash, double value)
{
    return fnv1a(&value, sizeof(value), hash);
}

/**
 * FNV-1a over every configuration field that shapes the final model.
 * A resumed run must agree on all of them, or "resume" would silently
 * splice two different training trajectories together.
 */
uint64_t
configFingerprint(const TrainerConfig &config)
{
    uint64_t h = kFnvOffsetBasis;
    h = fnvU64(h, config.seed);
    h = fnvU64(h, static_cast<uint64_t>(config.circuitformer_epochs));
    h = fnvU64(h, static_cast<uint64_t>(config.circuitformer_batch));
    h = fnvF64(h, config.circuitformer_lr);
    h = fnvF64(h, config.validation_fraction);
    h = fnvU64(h, config.seqgan_small ? 1 : 0);

    const nn::TransformerConfig &enc = config.model.encoder;
    h = fnvU64(h, static_cast<uint64_t>(enc.vocab_size));
    h = fnvU64(h, static_cast<uint64_t>(enc.max_positions));
    h = fnvU64(h, static_cast<uint64_t>(enc.d_model));
    h = fnvU64(h, static_cast<uint64_t>(enc.heads));
    h = fnvU64(h, static_cast<uint64_t>(enc.layers));
    h = fnvU64(h, static_cast<uint64_t>(enc.d_ff));
    h = fnvU64(h, static_cast<uint64_t>(config.model.head_hidden));
    h = fnvU64(h, config.model.seed);

    const PathDatasetOptions &pd = config.path_data;
    h = fnvU64(h, pd.max_paths_per_design);
    h = fnvU64(h, pd.markov_paths);
    h = fnvU64(h, pd.seqgan_paths);
    h = fnvU64(h, pd.enable_markov ? 1 : 0);
    h = fnvU64(h, pd.enable_seqgan ? 1 : 0);
    h = fnvU64(h, pd.seed);
    h = fnvF64(h, pd.sampler.k);
    h = fnvU64(h, pd.sampler.max_path_length);
    h = fnvU64(h, pd.sampler.max_paths_per_source);
    h = fnvU64(h, pd.sampler.max_total_paths);
    h = fnvU64(h, pd.sampler.seed);
    h = fnvU64(h, pd.sampler.longest_paths);

    h = fnvU64(h, static_cast<uint64_t>(config.mlp.epochs));
    h = fnvU64(h, static_cast<uint64_t>(config.mlp.batch_size));
    h = fnvF64(h, config.mlp.learning_rate);
    h = fnvF64(h, config.mlp.momentum);
    h = fnvU64(h, config.mlp.seed);

    // grad_slices shapes the numerics (the slice-tree reduction order),
    // so it is part of the trajectory identity. world_size, rank, and
    // the rendezvous are transport choices and deliberately are NOT:
    // that is what makes resuming at a different rank count legal.
    h = fnvU64(h, static_cast<uint64_t>(config.dist.grad_slices));
    return h;
}

uint64_t
hashRecords(uint64_t h, const std::vector<PathRecord> &records)
{
    h = fnvU64(h, records.size());
    for (const auto &record : records) {
        h = fnvU64(h, record.tokens.size());
        h = fnv1a(record.tokens.data(),
                  record.tokens.size() * sizeof(record.tokens[0]), h);
        h = fnvF64(h, record.timing_ps);
        h = fnvF64(h, record.area_um2);
        h = fnvF64(h, record.power_mw);
    }
    return h;
}

/** FNV-1a over the exact train/validation record assignment. */
uint64_t
splitFingerprint(const std::vector<PathRecord> &train_paths,
                 const std::vector<PathRecord> &val_paths)
{
    uint64_t h = kFnvOffsetBasis;
    h = hashRecords(h, train_paths);
    h = hashRecords(h, val_paths);
    return h;
}

void
writeRngState(nn::CheckpointWriter &writer, const Rng::State &state)
{
    for (uint64_t word : state.words)
        writer.u64(word);
    writer.u32(state.has_cached_normal ? 1 : 0);
    writer.f64(state.cached_normal);
}

Rng::State
readRngState(nn::CheckpointReader &reader)
{
    Rng::State state;
    for (auto &word : state.words)
        word = reader.u64();
    state.has_cached_normal = reader.u32() != 0;
    state.cached_normal = reader.f64();
    return state;
}

/** %.17g — round-trips a double exactly through decimal. */
std::string
jsonNumber(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

bool
StderrProgressSink::onEpoch(const EpochProgress &progress)
{
    if (!header_printed_) {
        std::fprintf(stderr,
                     "  epoch   train_loss     val_loss  sec/epoch"
                     "    paths/s  checkpoint\n");
        header_printed_ = true;
    }
    std::fprintf(stderr, "%4d/%-3d %12.6f %12.6f %10.2f %10.1f  %s\n",
                 progress.epoch + 1, progress.total_epochs,
                 progress.train_loss, progress.validation_loss,
                 progress.epoch_seconds, progress.samples_per_sec,
                 progress.checkpoint_path.empty()
                     ? "-"
                     : progress.checkpoint_path.c_str());
    return true;
}

void
StderrProgressSink::onEvent(const std::string &message)
{
    std::fprintf(stderr, "[train] %s\n", message.c_str());
}

JsonlProgressSink::JsonlProgressSink(const std::string &path)
    : out_(std::make_unique<std::ofstream>(path, std::ios::app))
{
    if (!*out_)
        throw std::runtime_error("cannot open JSONL training log: " + path);
}

JsonlProgressSink::~JsonlProgressSink() = default;

bool
JsonlProgressSink::onEpoch(const EpochProgress &progress)
{
    *out_ << "{\"epoch\":" << progress.epoch
          << ",\"total_epochs\":" << progress.total_epochs
          << ",\"train_loss\":" << jsonNumber(progress.train_loss)
          << ",\"validation_loss\":"
          << jsonNumber(progress.validation_loss)
          << ",\"epoch_seconds\":" << jsonNumber(progress.epoch_seconds)
          << ",\"samples_per_sec\":"
          << jsonNumber(progress.samples_per_sec)
          << ",\"train_paths\":" << progress.train_paths
          << ",\"validation_paths\":" << progress.validation_paths
          << ",\"checkpoint\":\"" << jsonEscape(progress.checkpoint_path)
          << "\"}" << std::endl; // endl: flush each line, crash-safe
    return true;
}

void
JsonlProgressSink::onEvent(const std::string &message)
{
    *out_ << "{\"event\":\"" << jsonEscape(message) << "\"}"
          << std::endl;
}

bool
TeeProgressSink::onEpoch(const EpochProgress &progress)
{
    bool keep_going = true;
    for (TrainProgressSink *sink : sinks_)
        keep_going = sink->onEpoch(progress) && keep_going;
    return keep_going;
}

void
TeeProgressSink::onEvent(const std::string &message)
{
    for (TrainProgressSink *sink : sinks_)
        sink->onEvent(message);
}

TrainingInterrupted::TrainingInterrupted(int epoch,
                                         std::string checkpoint_path)
    : std::runtime_error(
          // 1-based in the message to match the progress table.
          "training interrupted after epoch " +
          std::to_string(epoch + 1) +
          (checkpoint_path.empty()
               ? std::string(" (checkpointing disabled)")
               : " (state in " + checkpoint_path + ")")),
      epoch_(epoch),
      checkpoint_path_(std::move(checkpoint_path))
{
}

TrainerConfig
TrainerConfig::fast()
{
    TrainerConfig config;
    config.model = CircuitformerConfig::small();
    config.circuitformer_epochs = 8;
    config.circuitformer_batch = 32;
    config.path_data.max_paths_per_design = 24;
    config.path_data.markov_paths = 48;
    config.path_data.seqgan_paths = 48;
    config.path_data.sampler.max_paths_per_source = 8;
    config.mlp.epochs = 1500;
    config.seqgan_small = true;
    return config;
}

SnsTrainer::SnsTrainer(TrainerConfig config) : config_(config)
{
}

SnsPredictor
SnsTrainer::train(const HardwareDesignDataset &designs,
                  const std::vector<size_t> &train_indices,
                  const synth::Synthesizer &oracle)
{
    Rng rng(config_.seed);

    obs::Registry &registry =
        config_.registry ? *config_.registry : obs::Registry::global();
    obs::Counter &epochs_total = registry.counter("train.epochs_total");
    obs::Counter &checkpoints_total =
        registry.counter("train.checkpoints_total");
    obs::Counter &resumes_total = registry.counter("train.resumes_total");
    obs::Histogram &epoch_latency =
        registry.histogram("train.epoch_latency_us");
    obs::Histogram &checkpoint_latency =
        registry.histogram("train.checkpoint_write_us");

    // Live gauges for the duration of this train() call only.
    struct GaugeState
    {
        std::atomic<double> epoch{0.0};
        std::atomic<double> samples_per_sec{0.0};
        std::atomic<double> train_loss{0.0};
        std::atomic<double> validation_loss{0.0};
    } gauge_state;
    obs::ScopedGauge epoch_gauge(registry, "train.epoch", [&gauge_state] {
        return gauge_state.epoch.load();
    });
    obs::ScopedGauge sps_gauge(registry, "train.samples_per_sec",
                               [&gauge_state] {
                                   return gauge_state.samples_per_sec
                                       .load();
                               });
    obs::ScopedGauge train_loss_gauge(registry, "train.loss.train",
                                      [&gauge_state] {
                                          return gauge_state.train_loss
                                              .load();
                                      });
    obs::ScopedGauge val_loss_gauge(
        registry, "train.loss.validation", [&gauge_state] {
            return gauge_state.validation_loss.load();
        });

    // --- 1. Circuit Path Dataset (Fig. 4 left). -----------------------
    path_dataset_ = buildCircuitPathDataset(designs, train_indices, oracle,
                                            config_.path_data,
                                            config_.seqgan_small);
    inform("circuit path dataset: ", path_dataset_.size(), " paths (",
           path_dataset_.countByOrigin(PathOrigin::Sampled), " sampled, ",
           path_dataset_.countByOrigin(PathOrigin::Markov), " markov, ",
           path_dataset_.countByOrigin(PathOrigin::SeqGan), " seqgan)");

    // Train/validation split of the path records.
    std::vector<size_t> order(path_dataset_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    const size_t val_count = std::max<size_t>(
        1, static_cast<size_t>(config_.validation_fraction *
                               static_cast<double>(order.size())));
    std::vector<PathRecord> train_paths;
    std::vector<PathRecord> val_paths;
    for (size_t i = 0; i < order.size(); ++i) {
        const auto &record = path_dataset_.records()[order[i]];
        if (i < val_count)
            val_paths.push_back(record);
        else
            train_paths.push_back(record);
    }
    SNS_ASSERT(!train_paths.empty(), "empty path training set");

    // --- 2. Circuitformer training (Adam, Table 6). -------------------
    // The RNG draws below happen identically whether training from
    // scratch or resuming: a resume rebuilds the dataset, split, and
    // model deterministically from the seed, then *overwrites* weights,
    // optimizer moments, and both RNG streams with the checkpointed
    // state — which is exactly the state an uninterrupted run would
    // have reached, so the remaining epochs replay bitwise-identically.
    CircuitformerConfig model_config = config_.model;
    model_config.seed = rng.next();
    auto circuitformer = std::make_shared<Circuitformer>(model_config);
    circuitformer->fitNormalization(train_paths);

    nn::Adam optimizer(circuitformer->parameters(),
                       config_.circuitformer_lr);
    Rng epoch_rng = rng.fork();
    loss_curve_.clear();

    const uint64_t config_fp = configFingerprint(config_);
    const uint64_t split_fp = splitFingerprint(train_paths, val_paths);
    const int total_epochs = config_.circuitformer_epochs;
    TrainProgressSink *sink = config_.progress;

    // --- Distributed setup (docs/distributed.md). ---------------------
    // Every rank runs the whole flow above identically (same seed, same
    // dataset, same split); only the epoch loop splits work. The
    // exchange is the sole cross-rank coupling; a single-process run
    // is world 1 over a LocalExchange, where every collective is the
    // identity.
    const dist::DistConfig &dc = config_.dist;
    const auto all_params = circuitformer->parameters();
    verify::enforce(dist::validateDistConfig(dc, all_params.size()),
                    "SnsTrainer::train");
    std::vector<size_t> elems;
    elems.reserve(all_params.size());
    for (const auto &param : all_params)
        elems.push_back(param.value().numel());
    // Tensor-index ZeRO ownership cuts: this rank steps (and
    // checkpoints) the Adam moments of [cuts[rank], cuts[rank + 1]).
    const std::vector<size_t> param_cuts =
        dist::partitionParams(elems, dc.world_size);
    optimizer.shardMoments(param_cuts[dc.rank], param_cuts[dc.rank + 1]);
    std::unique_ptr<dist::GradientExchange> exchange;
    if (dc.world_size > 1) {
        auto channel = dc.channel ? dc.channel
                                  : dist::connectRing(dc.rendezvous,
                                                      dc.rank,
                                                      dc.world_size);
        auto ring = std::make_unique<dist::RingExchange>(
            std::move(channel), dc.world_size, dc.rank, dc.grad_slices,
            &registry);
        ring->handshake(config_fp, split_fp, dist::flatSize(all_params));
        exchange = std::move(ring);
    } else {
        exchange = std::make_unique<dist::LocalExchange>(dc.grad_slices);
    }
    std::vector<size_t> prefix(elems.size() + 1, 0);
    for (size_t i = 0; i < elems.size(); ++i)
        prefix[i + 1] = prefix[i] + elems[i];
    std::vector<size_t> elem_cuts(param_cuts.size());
    for (size_t r = 0; r < param_cuts.size(); ++r)
        elem_cuts[r] = prefix[param_cuts[r]];
    exchange->setWeightPartition(std::move(elem_cuts));
    obs::ScopedGauge world_gauge(registry, "dist.world_size", [this] {
        return static_cast<double>(config_.dist.world_size);
    });
    obs::ScopedGauge rank_gauge(registry, "dist.rank", [this] {
        return static_cast<double>(config_.dist.rank);
    });

    /** Serialize this rank's shard of the full training state after
     * `completed_epoch` and commit it atomically; returns its path. */
    const auto writeCheckpoint = [&](int completed_epoch) {
        WallTimer timer;
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        // One shard per rank (docs/distributed.md §Checkpoints): meta +
        // RNG streams + loss curve (identical everywhere, cheap), rank 0
        // additionally the full model, then this rank's ZeRO-owned Adam
        // moments by global tensor index.
        dist::ShardMeta meta;
        meta.world = static_cast<uint32_t>(dc.world_size);
        meta.rank = static_cast<uint32_t>(dc.rank);
        meta.grad_slices = static_cast<uint32_t>(dc.grad_slices);
        meta.param_count = static_cast<uint32_t>(all_params.size());
        meta.owned_begin = static_cast<uint32_t>(param_cuts[dc.rank]);
        meta.owned_end = static_cast<uint32_t>(param_cuts[dc.rank + 1]);
        meta.config_fp = config_fp;
        meta.split_fp = split_fp;
        meta.completed_epoch = completed_epoch;
        meta.total_epochs = total_epochs;
        dist::writeShardMeta(writer, meta);
        writeRngState(writer, rng.state());
        writeRngState(writer, epoch_rng.state());
        writer.u32(static_cast<uint32_t>(loss_curve_.size()));
        for (const LossPoint &point : loss_curve_) {
            writer.i64(point.epoch);
            writer.f64(point.train_loss);
            writer.f64(point.validation_loss);
        }
        if (dc.rank == 0)
            circuitformer->saveTo(payload, "checkpoint payload");
        writer.i64(optimizer.stepCount());
        writer.u32(meta.owned_end - meta.owned_begin);
        for (size_t i = meta.owned_begin; i < meta.owned_end; ++i) {
            writer.u32(static_cast<uint32_t>(i));
            writer.tensor(optimizer.firstMoment(i));
            writer.tensor(optimizer.secondMoment(i));
        }

        std::filesystem::create_directories(config_.checkpoint_dir);
        const std::string path =
            (std::filesystem::path(config_.checkpoint_dir) /
             dist::shardFileName(completed_epoch, dc.rank, dc.world_size))
                .string();
        nn::commitCheckpoint(path, payload.str());
        // Only rank 0 prunes: retention is epoch-grouped, so it only
        // ever deletes *older* complete epochs, which no peer is still
        // writing (the allreduce lockstep bounds rank skew to less than
        // one epoch).
        if (dc.rank == 0) {
            nn::pruneCheckpoints(config_.checkpoint_dir,
                                 config_.checkpoint_keep <= 0
                                     ? 0
                                     : static_cast<size_t>(
                                           config_.checkpoint_keep));
        }
        checkpoints_total.inc();
        checkpoint_latency.record(
            static_cast<uint64_t>(timer.seconds() * 1e6));
        return path;
    };

    int start_epoch = 0;
    if (!config_.resume_from.empty()) {
        // Merge a complete shard set. Every rank reads every shard;
        // each keeps the slice of the merged optimizer state its NEW
        // ownership cut assigns it — which is how a 4-rank run resumes
        // at 2 ranks (or 1) bitwise-identically.
        std::vector<std::string> files;
        std::string source = config_.resume_from;
        if (std::filesystem::is_directory(source)) {
            files = dist::latestCompleteShardSet(source);
            if (files.empty()) {
                throw nn::SerializeError(
                    "no complete ckpt-*-rNNofMM.ckpt shard set in " +
                    source);
            }
        } else {
            files.push_back(source); // a single world-1 shard
        }
        std::vector<std::string> payloads;
        std::vector<dist::ShardMeta> metas;
        for (const std::string &file : files) {
            payloads.push_back(nn::readCheckpointPayload(file));
            std::istringstream in(payloads.back());
            nn::CheckpointReader reader(in, file);
            metas.push_back(dist::readShardMeta(reader, file));
        }
        verify::enforce(dist::validateShardSet(metas, source),
                        "SnsTrainer::train");
        const dist::ShardMeta &first = metas.front();
        if (first.config_fp != config_fp) {
            throw nn::SerializeError(
                "shard set in " + source +
                " was written under a different training configuration "
                "(config fingerprint mismatch); refusing to resume");
        }
        if (first.split_fp != split_fp) {
            throw nn::SerializeError(
                "shard set in " + source +
                " was trained on a different dataset split "
                "(split fingerprint mismatch); refusing to resume");
        }
        if (first.param_count != all_params.size()) {
            throw nn::SerializeError(
                "shard set in " + source + " covers " +
                std::to_string(first.param_count) +
                " parameter tensors, model has " +
                std::to_string(all_params.size()));
        }
        for (size_t i = 0; i < files.size(); ++i) {
            std::istringstream in(payloads[i]);
            nn::CheckpointReader reader(in, files[i]);
            const dist::ShardMeta meta =
                dist::readShardMeta(reader, files[i]);
            const Rng::State rng_state = readRngState(reader);
            const Rng::State epoch_rng_state = readRngState(reader);
            const uint32_t curve_count = reader.u32();
            std::vector<LossPoint> curve(curve_count);
            for (auto &point : curve) {
                point.epoch = static_cast<int>(reader.i64());
                point.train_loss = reader.f64();
                point.validation_loss = reader.f64();
            }
            if (meta.rank == 0) {
                rng.setState(rng_state);
                epoch_rng.setState(epoch_rng_state);
                loss_curve_ = std::move(curve);
                circuitformer->loadFrom(in, files[i]);
            }
            optimizer.setStepCount(reader.i64());
            const uint32_t owned_count = reader.u32();
            for (uint32_t k = 0; k < owned_count; ++k) {
                const uint32_t idx = reader.u32();
                if (idx >= all_params.size()) {
                    throw nn::SerializeError(
                        "shard " + files[i] +
                        " names parameter tensor " +
                        std::to_string(idx) + " of " +
                        std::to_string(all_params.size()));
                }
                tensor::Tensor m(all_params[idx].value().shape());
                tensor::Tensor v(all_params[idx].value().shape());
                reader.tensor(m);
                reader.tensor(v);
                if (idx >= param_cuts[dc.rank] &&
                    idx < param_cuts[dc.rank + 1])
                    optimizer.setMoments(idx, m, v);
            }
        }
        // loadFrom() float-snaps the normalization statistics (the
        // SNSW block stores them as float32). The uninterrupted run
        // holds them at full double precision, and they feed every
        // training target — so recompute them from the train split,
        // which is fingerprint-identical to the original: bitwise the
        // same doubles fitNormalization produced before the crash.
        circuitformer->fitNormalization(train_paths);
        start_epoch = static_cast<int>(first.completed_epoch) + 1;
        resumes_total.inc();
        const std::string note =
            "resumed rank " + std::to_string(dc.rank) + "/" +
            std::to_string(dc.world_size) + " from " +
            std::to_string(files.size()) + "-shard set in " + source +
            " (saved at world " + std::to_string(first.world) +
            ") at epoch " + std::to_string(start_epoch + 1) + "/" +
            std::to_string(total_epochs);
        inform(note);
        if (sink != nullptr)
            sink->onEvent(note);
    }

    for (int epoch = start_epoch; epoch < total_epochs; ++epoch) {
        WallTimer epoch_timer;
        LossPoint point;
        point.epoch = epoch;
        point.train_loss = circuitformer->trainEpoch(
            train_paths, optimizer, epoch_rng, config_.circuitformer_batch,
            *exchange);
        point.validation_loss = circuitformer->evaluateLoss(val_paths);
        // A NaN/Inf loss means training has diverged; later epochs
        // cannot recover, so flag it the moment it appears.
        if (verify::enabled() && (!std::isfinite(point.train_loss) ||
                                  !std::isfinite(point.validation_loss))) {
            verify::Report report;
            report.error(verify::rules::kTrainLoss,
                         "epoch " + std::to_string(epoch),
                         "non-finite loss (train=" +
                             std::to_string(point.train_loss) +
                             ", validation=" +
                             std::to_string(point.validation_loss) + ")",
                         "lower the learning rate or check the dataset "
                         "labels");
            verify::enforce(std::move(report), "SnsTrainer::train");
        }
        loss_curve_.push_back(point);

        const double seconds = epoch_timer.seconds();
        epochs_total.inc();
        epoch_latency.record(static_cast<uint64_t>(seconds * 1e6));

        EpochProgress progress;
        progress.epoch = epoch;
        progress.total_epochs = total_epochs;
        progress.train_loss = point.train_loss;
        progress.validation_loss = point.validation_loss;
        progress.epoch_seconds = seconds;
        progress.samples_per_sec =
            seconds > 0.0
                ? static_cast<double>(train_paths.size()) / seconds
                : 0.0;
        progress.train_paths = train_paths.size();
        progress.validation_paths = val_paths.size();

        gauge_state.epoch.store(static_cast<double>(epoch + 1));
        gauge_state.samples_per_sec.store(progress.samples_per_sec);
        gauge_state.train_loss.store(point.train_loss);
        gauge_state.validation_loss.store(point.validation_loss);

        const bool checkpointing = !config_.checkpoint_dir.empty();
        const bool final_epoch = epoch + 1 == total_epochs;
        const bool due =
            checkpointing &&
            (final_epoch ||
             (config_.checkpoint_every > 0 &&
              (epoch + 1) % config_.checkpoint_every == 0));
        if (due)
            progress.checkpoint_path = writeCheckpoint(epoch);

        bool keep_going = sink == nullptr || sink->onEpoch(progress);
        // Coherent interruption: a stop on ANY rank (e.g. SIGINT
        // delivered to one process) stops every rank after the SAME
        // epoch, so the per-rank shards of the final checkpoint form
        // one complete resumable set. The vote runs every epoch — it
        // is part of the fixed collective sequence.
        keep_going = !exchange->anyStop(!keep_going);
        if (!keep_going && !final_epoch) {
            if (checkpointing && progress.checkpoint_path.empty())
                progress.checkpoint_path = writeCheckpoint(epoch);
            if (sink != nullptr) {
                sink->onEvent(
                    "stop requested; state through epoch " +
                    std::to_string(epoch + 1) +
                    (progress.checkpoint_path.empty()
                         ? " lost (checkpointing disabled)"
                         : " saved to " + progress.checkpoint_path));
            }
            throw TrainingInterrupted(epoch, progress.checkpoint_path);
        }
    }

    // --- 3. Aggregation MLPs (SGD, Table 6). --------------------------
    // Each design's sampler seed depends only on its dataset index, so
    // the per-design summaries can be computed on the sns::par pool in
    // any order; the compaction below restores train_indices order.
    const size_t num_train = train_indices.size();
    std::vector<AggregateSummary> design_summaries(num_train);
    std::vector<char> has_summary(num_train, 0);
    par::parallelFor(num_train, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const size_t idx = train_indices[i];
            const auto &record = designs.records()[idx];
            sampler::SamplerOptions sopts = config_.path_data.sampler;
            sopts.seed = config_.seed ^ (idx * 0x9e3779b9ULL);
            const auto paths =
                sampler::PathSampler(sopts).sample(record.graph);
            if (paths.empty())
                continue;
            std::vector<std::vector<graphir::TokenId>> token_paths;
            std::vector<size_t> lengths;
            for (const auto &path : paths) {
                token_paths.push_back(path.tokens);
                lengths.push_back(path.nodes.size());
            }
            const auto preds = circuitformer->predict(token_paths);
            design_summaries[i] =
                reduceAggregates(record.graph, preds, lengths);
            has_summary[i] = 1;
        }
    });

    std::vector<AggregateSummary> summaries;
    std::vector<double> timing_truth;
    std::vector<double> area_truth;
    std::vector<double> power_truth;
    for (size_t i = 0; i < num_train; ++i) {
        if (!has_summary[i])
            continue;
        const auto &record = designs.records()[train_indices[i]];
        summaries.push_back(std::move(design_summaries[i]));
        timing_truth.push_back(record.truth.timing_ps);
        area_truth.push_back(record.truth.area_um2);
        power_truth.push_back(record.truth.power_mw);
    }
    SNS_ASSERT(!summaries.empty(), "no designs to fit aggregation MLPs");

    MlpTrainConfig mlp_config = config_.mlp;
    mlp_config.seed = rng.next();
    // Named draws: function-argument evaluation order is unspecified,
    // and the seed sequence (timing, area, power) must match the
    // pre-AggregationHeads trainer exactly.
    const uint64_t timing_seed = rng.next();
    const uint64_t area_seed = rng.next();
    const uint64_t power_seed = rng.next();
    AggregationHeads heads =
        AggregationHeads::make(timing_seed, area_seed, power_seed);
    heads.fit(summaries, timing_truth, area_truth, power_truth,
              mlp_config);

    return SnsPredictor(circuitformer, std::move(heads),
                        config_.path_data.sampler);
}

} // namespace sns::core
