/**
 * @file
 * The SNS training flow (Fig. 4): build the Circuit Path Dataset from
 * the training designs (direct sampling + Markov + SeqGAN), train the
 * Circuitformer (Adam, Table 6), then train the three Aggregation MLPs
 * (SGD, Table 6) on the training designs' aggregated path predictions
 * and ground truth.
 *
 * Training is crash-safe and observable (docs/training.md):
 *
 *   - With TrainerConfig::checkpoint_dir set, the trainer commits a
 *     full-state checkpoint (weights, optimizer moments, RNG streams,
 *     epoch counters, loss history, dataset fingerprints) every
 *     checkpoint_every epochs, atomically, with rolling keep-last-N
 *     retention: one shard file per rank, a single-process run being
 *     world 1. A run killed at any epoch and restarted with
 *     resume_from produces a bitwise-identical final model.
 *   - A pluggable TrainProgressSink observes every epoch (stderr
 *     table, JSONL log, or both via TeeProgressSink) and can request a
 *     graceful stop; sns::obs counters/histograms/gauges expose the
 *     same signals to the STATS machinery.
 */

#ifndef SNS_CORE_TRAINER_HH
#define SNS_CORE_TRAINER_HH

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/datasets.hh"
#include "core/predictor.hh"
#include "dist/exchange.hh"

namespace sns::obs {
class Registry;
}

namespace sns::core {

/** One point of the Fig. 5 loss curves. */
struct LossPoint
{
    int epoch = 0;
    double train_loss = 0.0;
    double validation_loss = 0.0;
};

/** What a TrainProgressSink sees after each completed epoch. */
struct EpochProgress
{
    int epoch = 0;        ///< 0-based index of the epoch just finished
    int total_epochs = 0; ///< configured Circuitformer epoch count
    double train_loss = 0.0;
    double validation_loss = 0.0;
    double epoch_seconds = 0.0;    ///< wall time of this epoch
    double samples_per_sec = 0.0;  ///< training paths / epoch_seconds
    size_t train_paths = 0;
    size_t validation_paths = 0;
    /** Checkpoint committed this epoch, or "" if none was due. */
    std::string checkpoint_path;
};

/**
 * Observer of training progress. onEpoch() returning false requests a
 * graceful stop: the trainer commits a checkpoint (when checkpointing
 * is enabled) and throws TrainingInterrupted — this is how the CLI
 * turns SIGINT into a resumable interruption.
 */
class TrainProgressSink
{
  public:
    virtual ~TrainProgressSink() = default;

    /** Called after every completed epoch; return false to stop. */
    virtual bool onEpoch(const EpochProgress &progress) = 0;

    /** Out-of-band lifecycle notes (resume, interruption). */
    virtual void
    onEvent(const std::string &message)
    {
        (void)message;
    }
};

/** Human-readable epoch table on stderr (`sns-cli train` default). */
class StderrProgressSink : public TrainProgressSink
{
  public:
    bool onEpoch(const EpochProgress &progress) override;
    void onEvent(const std::string &message) override;

  private:
    bool header_printed_ = false;
};

/** One JSON object per epoch, appended to a log file and flushed per
 * line (crash-safe observability; `sns-cli train --log-jsonl`). */
class JsonlProgressSink : public TrainProgressSink
{
  public:
    /** Opens `path` in append mode; throws std::runtime_error if the
     * file cannot be opened. */
    explicit JsonlProgressSink(const std::string &path);
    ~JsonlProgressSink() override;

    bool onEpoch(const EpochProgress &progress) override;
    void onEvent(const std::string &message) override;

  private:
    std::unique_ptr<std::ofstream> out_;
};

/** Fans out to several sinks; stops when ANY child requests a stop
 * (all children still observe every epoch). */
class TeeProgressSink : public TrainProgressSink
{
  public:
    explicit TeeProgressSink(std::vector<TrainProgressSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    bool onEpoch(const EpochProgress &progress) override;
    void onEvent(const std::string &message) override;

  private:
    std::vector<TrainProgressSink *> sinks_; ///< non-owning
};

/**
 * Thrown when a progress sink requests a stop mid-training. Training
 * state up to and including epoch() is safe in checkpointPath() (empty
 * only when checkpointing was disabled); rerun with
 * TrainerConfig::resume_from to continue bitwise-exactly.
 */
class TrainingInterrupted : public std::runtime_error
{
  public:
    TrainingInterrupted(int epoch, std::string checkpoint_path);

    /** Last completed epoch (0-based). */
    int epoch() const { return epoch_; }

    /** Checkpoint holding the interrupted state ("" if disabled). */
    const std::string &checkpointPath() const { return checkpoint_path_; }

  private:
    int epoch_;
    std::string checkpoint_path_;
};

/** End-to-end training configuration. */
struct TrainerConfig
{
    /** Circuit Path Dataset assembly (§4.2). */
    PathDatasetOptions path_data;

    /** Circuitformer model size (Table 2 by default). */
    CircuitformerConfig model;

    /** @name Circuitformer schedule (Table 6)
     * @{
     */
    int circuitformer_epochs = 256;
    int circuitformer_batch = 128;
    double circuitformer_lr = 1e-3;
    /** @} */

    /** Fraction of the path dataset held out for the Fig.-5 curve. */
    double validation_fraction = 0.15;

    /** Aggregation-MLP schedule (Table 6). */
    MlpTrainConfig mlp;

    /** Use the scaled-down SeqGAN schedule (fast runs). */
    bool seqgan_small = true;

    uint64_t seed = 0x7ea1;

    /** @name Crash-safe checkpointing (docs/training.md)
     * @{
     */
    /** Directory for ckpt-NNNNNN-rRRofWW.ckpt shards (one per rank
     * per checkpointed epoch); "" disables. Created on demand. The
     * final epoch is always checkpointed when enabled. */
    std::string checkpoint_dir;

    /** Commit a checkpoint every N completed epochs (<= 0: only the
     * final epoch and interruptions). */
    int checkpoint_every = 1;

    /** Rolling retention: keep only the newest N checkpoints
     * (0 keeps everything). */
    int checkpoint_keep = 3;

    /**
     * Resume source: a directory whose newest complete shard set is
     * merged, or a single world-1 shard file. "" trains from scratch.
     * The checkpoint's config and dataset-split fingerprints must
     * match this config or train() throws nn::SerializeError.
     */
    std::string resume_from;
    /** @} */

    /**
     * Data-parallel training (docs/distributed.md). The defaults (one
     * rank, one gradient slice) are plain single-process training;
     * world_size > 1 requires a rendezvous (or an injected ring
     * channel). Shard checkpoints resume at any admissible rank count,
     * and the final model is bitwise-identical at every power-of-two
     * world size that divides grad_slices.
     */
    dist::DistConfig dist;

    /** Metrics destination; nullptr publishes to
     * obs::Registry::global(). */
    obs::Registry *registry = nullptr;

    /** Per-epoch observer; nullptr trains silently. Non-owning. */
    TrainProgressSink *progress = nullptr;

    /**
     * A configuration small enough for unit tests: tiny model, few
     * epochs, modest path counts. Same code paths, minutes -> seconds.
     */
    static TrainerConfig fast();
};

/** Runs the Fig.-4 training flow and produces an SnsPredictor. */
class SnsTrainer
{
  public:
    explicit SnsTrainer(TrainerConfig config = TrainerConfig());

    /**
     * Train on the given subset of the Hardware Design Dataset.
     * @param oracle the reference synthesizer used to label circuit
     *        paths (the paper's Synopsys DC role)
     * @throws TrainingInterrupted when the progress sink requests a
     *        stop; nn::SerializeError when resume_from is unusable
     */
    SnsPredictor train(const HardwareDesignDataset &designs,
                       const std::vector<size_t> &train_indices,
                       const synth::Synthesizer &oracle);

    /** Fig.-5 loss curve of the last train() call (on resume this
     * includes the epochs restored from the checkpoint). */
    const std::vector<LossPoint> &lossCurve() const { return loss_curve_; }

    /** The Circuit Path Dataset assembled by the last train() call. */
    const CircuitPathDataset &pathDataset() const { return path_dataset_; }

    const TrainerConfig &config() const { return config_; }

  private:
    TrainerConfig config_;
    std::vector<LossPoint> loss_curve_;
    CircuitPathDataset path_dataset_;
};

} // namespace sns::core

#endif // SNS_CORE_TRAINER_HH
