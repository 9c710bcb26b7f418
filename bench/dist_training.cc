/**
 * @file
 * Distributed-training harness (docs/distributed.md §Benchmark).
 *
 * Trains the same configuration at world sizes 1, 2, and 4 — each
 * world runs in-process, one thread per rank over a localRing(), the
 * same transport the TSan leg exercises — and reports:
 *
 *   - epochs/s per world size (on a single core the ranks time-share,
 *     so this measures the protocol's cost, not a speedup; on a
 *     multi-core box the same harness shows the scaling);
 *   - allreduce overhead: the share of rank 0's wall time spent inside
 *     allreduceGrad (dist.allreduce_us over the epoch loop);
 *   - ring traffic per rank (dist.bytes_sent);
 *   - the headline gate: the loss curves and the final predictions of
 *     every world size must be bitwise identical to world 1. A
 *     distributed run that changes a single bit is a broken run.
 *
 * The harness exits 1 unless every world size is bitwise identical;
 * the timings are reported, not gated — on a shared or one-core box
 * they are weather, the determinism contract is climate.
 */

#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/trainer.hh"
#include "dist/ring.hh"
#include "obs/metrics.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"

namespace {

using namespace sns;

constexpr int kGradSlices = 8;

/** What one world-size run leaves behind for comparison. */
struct WorldRun
{
    std::vector<core::LossPoint> curve;       ///< rank 0's loss curve
    std::vector<core::SnsPrediction> preds;   ///< rank 0's test preds
    double train_seconds = 0.0;               ///< rank 0 train() wall
    uint64_t allreduce_us = 0;                ///< rank 0, sum
    uint64_t forward_us = 0;                  ///< rank 0, sum
    uint64_t backward_us = 0;                 ///< rank 0, sum
    uint64_t step_us = 0;                     ///< rank 0, sum
    uint64_t bytes_sent = 0;                  ///< rank 0
    bool ok = false;
};

WorldRun
runWorld(int world, const core::TrainerConfig &base,
         const core::HardwareDesignDataset &dataset,
         const std::vector<size_t> &train_idx,
         const std::vector<size_t> &test_idx,
         const synth::Synthesizer &oracle)
{
    auto ring = world > 1
                    ? dist::localRing(world)
                    : std::vector<std::shared_ptr<dist::RingChannel>>{};
    std::vector<obs::Registry> registries(world);

    WorldRun run;
    run.ok = true;
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
            core::TrainerConfig config = base;
            config.dist.grad_slices = kGradSlices;
            config.dist.world_size = world;
            config.dist.rank = r;
            if (world > 1)
                config.dist.channel = ring[r];
            config.registry = &registries[r];
            core::SnsTrainer trainer(config);
            try {
                WallTimer timer;
                const auto predictor =
                    trainer.train(dataset, train_idx, oracle);
                if (r == 0) {
                    run.train_seconds = timer.seconds();
                    run.curve = trainer.lossCurve();
                    for (const size_t idx : test_idx)
                        run.preds.push_back(predictor.predict(
                            dataset.records()[idx].graph));
                }
            } catch (const std::exception &e) {
                std::cerr << "[bench] world " << world << " rank " << r
                          << " failed: " << e.what() << "\n";
                run.ok = false;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    const auto reduce_snap =
        registries[0].histogram("dist.allreduce_us").snapshot();
    run.allreduce_us = reduce_snap.sum;
    run.forward_us =
        registries[0].histogram("train.forward_us").snapshot().sum;
    run.backward_us =
        registries[0].histogram("train.backward_us").snapshot().sum;
    run.step_us = registries[0].histogram("train.step_us").snapshot().sum;
    run.bytes_sent = registries[0].counter("dist.bytes_sent").value();
    return run;
}

bool
sameBits(const WorldRun &a, const WorldRun &b)
{
    if (a.curve.size() != b.curve.size() ||
        a.preds.size() != b.preds.size())
        return false;
    for (size_t i = 0; i < a.curve.size(); ++i) {
        if (a.curve[i].train_loss != b.curve[i].train_loss ||
            a.curve[i].validation_loss != b.curve[i].validation_loss)
            return false;
    }
    for (size_t i = 0; i < a.preds.size(); ++i) {
        if (a.preds[i].timing_ps != b.preds[i].timing_ps ||
            a.preds[i].area_um2 != b.preds[i].area_um2 ||
            a.preds[i].power_mw != b.preds[i].power_mw)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sns;
    const auto args = bench::BenchArgs::parse(argc, argv);

    // A short schedule on the smoke designs: three full training runs
    // (worlds 1 + 2 + 4 = 7 rank-epochs-worth of work per epoch) have
    // to fit a single-core budget. --epochs/--full scale it up.
    core::TrainerConfig config = core::TrainerConfig::fast();
    config.seed = args.seed;
    config.circuitformer_epochs = args.full ? 24 : 8;
    config.mlp.epochs = args.full ? 4096 : 400;
    if (args.override_epochs > 0)
        config.circuitformer_epochs = args.override_epochs;

    const auto oracle = bench::benchOracle();
    std::cerr << "[bench] synthesizing the smoke dataset...\n";
    const auto dataset = core::HardwareDesignDataset::build(
        designs::DesignLibrary::smokeSet(), oracle);
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);

    const int worlds[] = {1, 2, 4};
    WorldRun runs[3];
    for (int i = 0; i < 3; ++i) {
        std::cerr << "[bench] training at world size " << worlds[i]
                  << "...\n";
        runs[i] = runWorld(worlds[i], config, dataset, train_idx,
                           test_idx, oracle);
        if (!runs[i].ok) {
            std::cerr << "[bench] world " << worlds[i] << " failed\n";
            return 1;
        }
    }

    const bool bitwise =
        sameBits(runs[0], runs[1]) && sameBits(runs[0], runs[2]);
    const int epochs = config.circuitformer_epochs;

    Table table("Distributed training (ring allreduce, in-process)");
    table.setHeader({"world", "epochs/s", "forward ms", "backward ms",
                     "step ms", "allreduce ms", "overhead %",
                     "ring MB sent"});
    for (int i = 0; i < 3; ++i) {
        const WorldRun &run = runs[i];
        const double eps =
            run.train_seconds > 0.0 ? epochs / run.train_seconds : 0.0;
        const double reduce_ms =
            static_cast<double>(run.allreduce_us) / 1e3;
        const double overhead =
            run.train_seconds > 0.0
                ? 100.0 * (static_cast<double>(run.allreduce_us) / 1e6) /
                      run.train_seconds
                : 0.0;
        const auto ms = [](uint64_t us) {
            return formatDouble(static_cast<double>(us) / 1e3, 1);
        };
        table.addRow({std::to_string(worlds[i]), formatDouble(eps, 3),
                      ms(run.forward_us), ms(run.backward_us),
                      ms(run.step_us), formatDouble(reduce_ms, 1),
                      formatDouble(overhead, 2),
                      formatDouble(static_cast<double>(run.bytes_sent) /
                                       (1024.0 * 1024.0),
                                   2)});
    }
    table.print(std::cout);
    args.maybeCsv(table, "dist_training");

    if (!bitwise) {
        std::cerr << "[bench] FAIL: world sizes disagree bitwise\n";
        return 1;
    }
    std::cout << "[bench] worlds 1/2/4 bitwise identical over "
              << epochs << " epochs at " << kGradSlices
              << " gradient slices\n";
    return 0;
}
