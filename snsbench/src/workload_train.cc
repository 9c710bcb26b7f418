/**
 * @file
 * train: the only workload that runs backward passes, the optimizer
 * and sns::dist — and the one whose accuracy a training change moves.
 *
 * Set-up assembles the data a training run starts from (the smoke
 * designs synthesized, then the Circuit Path Dataset). The measured
 * phase trains the fast configuration (seed 7) without SeqGAN
 * augmentation, slice-deterministically (grad_slices 8), to completion at
 * worlds 1, 2 and 4 in turn over an in-process ring, with pool width 4 /
 * world, until the time is up; the seed picks the world to start with.
 * Every world must reproduce the first run's loss curve and held-out
 * predictions bit for bit, so the held-out accuracy is that of any of
 * them.
 *
 * Epoch times come from the trainer's progress sink, so each rank's own
 * path-dataset assembly inside train() never counts as epoch time.
 */

#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <thread>

#include "core/trainer.hh"
#include "dist/ring.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "synth/synthesizer.hh"
#include "trace.hh"
#include "workloads.hh"

namespace snsbench {

using namespace sns;

namespace {

constexpr int kGradSlices = 8;
constexpr int kWorlds[] = {1, 2, 4};

/** Keeps every epoch's progress and the process CPU time at its end. */
class EpochRecorder : public core::TrainProgressSink
{
  public:
    bool
    onEpoch(const core::EpochProgress &progress) override
    {
        epochs.push_back(progress);
        cpu_at_end.push_back(cpuSeconds());
        return true;
    }

    /**
     * Add the process CPU seconds of epochs 1.. (all ranks of an
     * in-process world included) and their training paths per
     * CPU-second. Epoch 0 has no start mark — it follows the dataset
     * assembly inside train() — and is left out.
     */
    void
    addEpochs(std::vector<double> &cpu_s, std::vector<double> &rates) const
    {
        for (size_t k = 1; k < epochs.size(); ++k) {
            cpu_s.push_back(cpu_at_end[k] - cpu_at_end[k - 1]);
            rates.push_back(static_cast<double>(epochs[k].train_paths) /
                            cpu_s.back());
        }
    }

    std::vector<core::EpochProgress> epochs;
    std::vector<double> cpu_at_end;
};

core::TrainerConfig
trainConfig()
{
    core::TrainerConfig config = core::TrainerConfig::fast();
    config.seed = 7;
    config.dist.grad_slices = kGradSlices;
    // Fitting the SeqGAN would take ~1 CPU-second of every train() call,
    // more than its ~0.4 s of epochs. Without it epochs are most of a
    // world's run, and the worlds take turns every ~0.6 s, so each
    // world's epochs span the whole measured phase.
    config.path_data.enable_seqgan = false;
    return config;
}

/** What rank 0 of one world run leaves behind. */
struct WorldRun
{
    EpochRecorder sink;
    std::vector<core::LossPoint> losses;
    std::unique_ptr<core::SnsPredictor> predictor;
    double allreduce_s = 0.0;
    double bytes_sent = 0.0;
    double checkpoint_write_us = 0.0;
    bool ok = true;
};

WorldRun
runWorld(int world, const EvalSet &set, const synth::Synthesizer &oracle,
         const std::string &checkpoint_dir)
{
    auto ring = world > 1
                    ? dist::localRing(world)
                    : std::vector<std::shared_ptr<dist::RingChannel>>{};
    std::vector<obs::Registry> registries(world);
    std::vector<EpochRecorder> sinks(world);
    WorldRun run;
    std::vector<char> ok(world, 1);
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
        ranks.emplace_back([&, r] {
            core::TrainerConfig config = trainConfig();
            config.dist.world_size = world;
            config.dist.rank = r;
            if (world > 1)
                config.dist.channel = ring[r];
            config.registry = &registries[r];
            config.progress = &sinks[r];
            config.checkpoint_dir = checkpoint_dir;
            core::SnsTrainer trainer(config);
            try {
                auto predictor =
                    trainer.train(set.dataset, set.train_idx, oracle);
                if (r == 0) {
                    run.predictor = std::make_unique<core::SnsPredictor>(
                        std::move(predictor));
                    run.losses = trainer.lossCurve();
                }
            } catch (const std::exception &e) {
                std::cerr << "[snsbench] world " << world << " rank " << r
                          << " failed: " << e.what() << "\n";
                ok[r] = 0;
            }
        });
    }
    for (auto &rank : ranks)
        rank.join();
    run.sink = sinks[0];
    run.allreduce_s = static_cast<double>(
                          registries[0].histogram("dist.allreduce_us")
                              .snapshot()
                              .sum) /
                      1e6;
    run.bytes_sent = static_cast<double>(
        registries[0].counter("dist.bytes_sent").value());
    const auto ckpt =
        registries[0].histogram("train.checkpoint_write_us").snapshot();
    run.checkpoint_write_us = ckpt.count > 0 ? ckpt.mean : 0.0;
    for (const char rank_ok : ok)
        run.ok = run.ok && rank_ok;
    return run;
}

bool
sameLosses(const std::vector<core::LossPoint> &a,
           const std::vector<core::LossPoint> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].train_loss, &b[i].train_loss,
                        sizeof(double)) != 0 ||
            std::memcmp(&a[i].validation_loss, &b[i].validation_loss,
                        sizeof(double)) != 0)
            return false;
    }
    return true;
}

/** FNV-1a digest of `predictor`'s fp64 predictions on the held-out half. */
uint64_t
heldOutDigest(const core::SnsPredictor &predictor, const EvalSet &set)
{
    std::vector<const graphir::Graph *> graphs;
    for (const size_t idx : set.test_idx)
        graphs.push_back(&set.dataset.records()[idx].graph);
    Digest digest;
    digest.add(predictor.predictBatch(graphs));
    return digest.value();
}

} // namespace

void
runTrain(const RunOptions &opts, Report &report)
{
    Tracer tracer;
    Tracer::install(opts.trace ? &tracer : nullptr);
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};
    const core::TrainerConfig base = trainConfig();

    // Set-up: the data a training run starts from.
    std::unique_ptr<EvalSet> set;
    core::CircuitPathDataset path_dataset;
    std::vector<double> setup_s;
    std::vector<double> path_dataset_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        Span span("data.assembly");
        const double start = cpuSeconds();
        set = std::make_unique<EvalSet>(buildEvalSet());
        const auto paths_start = Clock::now();
        path_dataset = core::buildCircuitPathDataset(
            set->dataset, set->train_idx, oracle, base.path_data,
            base.seqgan_small);
        path_dataset_s.push_back(secondsSince(paths_start));
        setup_s.push_back(cpuSeconds() - start);
    }
    report.add("setup_s", "s", median(setup_s), setup_s);
    report.add("data.path_dataset_s", "s", median(path_dataset_s),
               path_dataset_s);

    // The worlds in turn until the time is up, each at least once. A
    // world's rate is the median of its own epochs, so the worlds weigh
    // alike however many runs each gets.
    std::vector<std::vector<double>> world_rates(std::size(kWorlds));
    std::vector<std::vector<double>> world_epoch_s(std::size(kWorlds));
    std::vector<std::vector<double>> world_epoch_cpu_s(std::size(kWorlds));
    std::vector<double> world_allreduce_s(std::size(kWorlds), 0.0);
    std::vector<double> world_bytes(std::size(kWorlds), 0.0);
    double checkpoint_write_us = 0.0;
    WorldRun first;
    uint64_t first_digest = 0;
    const auto start = Clock::now();
    for (size_t i = 0;
         i < std::size(kWorlds) || secondsSince(start) < opts.seconds; ++i) {
        const size_t w = (i + opts.seed) % std::size(kWorlds);
        const int world = kWorlds[w];
        // A traced run checkpoints world 1 for train.checkpoint_write_us.
        const std::string checkpoint_dir =
            opts.trace && world == 1
                ? opts.work_dir + "/checkpoints-" + std::to_string(i)
                : "";
        par::setThreads(kPoolWidth / world);
        WorldRun run;
        {
            Span span("train.run", static_cast<uint64_t>(world));
            run = runWorld(world, *set, oracle, checkpoint_dir);
        }
        par::setThreads(kPoolWidth);
        const size_t epochs = run.sink.epochs.size();
        report.attempt(static_cast<uint64_t>(base.circuitformer_epochs));
        if (!run.ok || run.predictor == nullptr) {
            report.fail(static_cast<uint64_t>(base.circuitformer_epochs) -
                        epochs);
            report.incorrect("world " + std::to_string(world) +
                             " did not finish training");
            continue;
        }
        run.sink.addEpochs(world_epoch_cpu_s[w], world_rates[w]);
        for (const auto &epoch : run.sink.epochs)
            world_epoch_s[w].push_back(epoch.epoch_seconds);
        world_allreduce_s[w] += run.allreduce_s;
        world_bytes[w] += run.bytes_sent;
        if (run.checkpoint_write_us > 0.0)
            checkpoint_write_us = run.checkpoint_write_us;
        const uint64_t digest = heldOutDigest(*run.predictor, *set);
        if (first.predictor == nullptr) {
            first = std::move(run);
            first_digest = digest;
        } else if (!sameLosses(first.losses, run.losses) ||
                   digest != first_digest) {
            report.incorrect("world " + std::to_string(world) +
                             " does not reproduce the first world run");
        }
    }
    // One rate per world (the median of its epochs), combined as the
    // rate of training the same paths once at each world: a change to
    // any one world — allreduce touches only worlds 2 and 4 — moves it.
    std::vector<double> world_rate;
    double cpu_per_path = 0.0;
    for (const auto &rates : world_rates) {
        world_rate.push_back(median(rates));
        cpu_per_path += 1.0 / world_rate.back();
    }
    report.add("throughput", "1/cpu_s",
               static_cast<double>(world_rate.size()) / cpu_per_path,
               world_rate);
    if (first.predictor == nullptr)
        return;
    core::SnsPredictor &predictor = *first.predictor;

    // Accuracy on the held-out half at fp64, and the int8 difference
    // after calibration.
    report.digest("fp64", first_digest);
    predictor.quantize(trainGraphs(*set));
    reportAccuracy(report, predictor, *set, core::Precision::Fp64);

    // The distributed numbers go to every record; a traced run prints
    // them.
    const char *epoch_names[] = {"dist.epoch_s.w1", "dist.epoch_s.w2",
                                 "dist.epoch_s.w4"};
    for (size_t w = 0; w < std::size(kWorlds); ++w) {
        report.add(epoch_names[w], "s", median(world_epoch_s[w]),
                   world_epoch_s[w]);
        const double busy = std::accumulate(world_epoch_s[w].begin(),
                                            world_epoch_s[w].end(), 0.0);
        if (kWorlds[w] == 1 || busy == 0.0)
            continue;
        const std::string suffix = ".w" + std::to_string(kWorlds[w]);
        report.add("dist.allreduce_share" + suffix, "ratio",
                   world_allreduce_s[w] / busy);
        report.add("dist.bytes_per_epoch" + suffix, "bytes",
                   world_bytes[w] /
                       static_cast<double>(world_epoch_s[w].size()));
    }

    if (opts.trace) {
        // CPU cost of the forward pass over one epoch's paths (train and
        // validation split together, at the training batch size; the
        // first call warms up); the rest of a world-1 epoch's CPU time
        // is backward and optimizer.
        std::vector<double> forward_cpu_s;
        for (int rep = 0; rep < 4; ++rep) {
            const double cpu0 = cpuSeconds();
            predictor.circuitformerPtr()->evaluateLoss(
                path_dataset.records(), base.circuitformer_batch);
            if (rep > 0)
                forward_cpu_s.push_back(cpuSeconds() - cpu0);
        }
        const double forward_s = median(forward_cpu_s);
        report.add("train.forward_cpu_s", "cpu_s", forward_s, forward_cpu_s);
        report.add("train.backward_opt_cpu_s", "cpu_s",
                   median(world_epoch_cpu_s[0]) - forward_s);
        report.add("train.checkpoint_write_us", "us", checkpoint_write_us);
        Tracer::install(nullptr);
        report.add("trace.overhead", "ratio", tracingOverhead(tracer));
        tracer.writeChrome(opts.trace_file);
    }
    Tracer::install(nullptr);
}

} // namespace snsbench
