/**
 * @file
 * Ablation for §4.2's data augmentation: train the Circuitformer on
 * (a) directly sampled paths only, (b) + Markov-chain paths, (c) +
 * SeqGAN paths, (d) both, and evaluate every variant on the same
 * held-out set of *real* paths sampled from the test designs.
 *
 * Paper claim: augmentation is what makes training viable with ~20
 * input designs, and combining both generators (noisy Markov + longer
 * coherent SeqGAN sequences) beats either alone.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/circuitformer.hh"
#include "dist/exchange.hh"
#include "sampler/path_sampler.hh"
#include "util/string_utils.hh"

int
main(int argc, char **argv)
{
    using namespace sns;
    const auto args = bench::BenchArgs::parse(argc, argv);
    const auto oracle = bench::benchOracle();
    const auto dataset = bench::buildBenchDataset(oracle);
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, args.seed);
    const auto base_config = bench::benchTrainerConfig(args);

    // Held-out evaluation paths: real samples from the *test* designs.
    std::vector<core::PathRecord> holdout;
    {
        Rng rng(args.seed ^ 0xab);
        for (size_t idx : test_idx) {
            sampler::SamplerOptions sopts = base_config.path_data.sampler;
            sopts.seed = rng.next();
            sopts.max_paths_per_source = 2;
            const auto paths = sampler::PathSampler(sopts).sample(
                dataset.records()[idx].graph);
            size_t taken = 0;
            for (const auto &path : paths) {
                if (taken++ >= 12)
                    break;
                const auto truth = oracle.runPath(path.tokens);
                holdout.push_back({path.tokens, truth.timing_ps,
                                   truth.area_um2, truth.power_mw});
            }
        }
    }
    std::cerr << "[bench] " << holdout.size()
              << " held-out real paths from the test designs"
              << std::endl;

    struct Setting
    {
        const char *name;
        bool markov;
        bool seqgan;
    };
    const std::vector<Setting> settings = {
        {"sampled only", false, false},
        {"+ markov", true, false},
        {"+ seqgan", false, true},
        {"+ both (paper)", true, true},
    };

    Table table("Ablation: Circuit Path Dataset augmentation (held-out "
                "loss on real test-design paths; lower better)");
    table.setHeader({"setting", "train paths", "holdout loss"});
    for (const auto &setting : settings) {
        core::PathDatasetOptions options = base_config.path_data;
        options.enable_markov = setting.markov;
        options.enable_seqgan = setting.seqgan;
        const auto path_data = core::buildCircuitPathDataset(
            dataset, train_idx, oracle, options, !args.full);

        core::CircuitformerConfig model_config = base_config.model;
        model_config.seed = args.seed;
        core::Circuitformer model(model_config);
        model.fitNormalization(path_data.records());
        nn::Adam opt(model.parameters(), base_config.circuitformer_lr);
        dist::LocalExchange exchange(1);
        Rng train_rng(args.seed + 2);
        const int epochs =
            std::max(8, base_config.circuitformer_epochs / 2);
        for (int epoch = 0; epoch < epochs; ++epoch) {
            model.trainEpoch(path_data.records(), opt, train_rng,
                             base_config.circuitformer_batch, exchange);
        }
        const double loss = model.evaluateLoss(holdout);
        table.addRow({setting.name, std::to_string(path_data.size()),
                      formatDouble(loss, 4)});
        std::cerr << "  " << setting.name << ": " << loss << std::endl;
    }
    table.print(std::cout);
    args.maybeCsv(table, "ablation_augmentation");
    std::cout << "\nshape check (paper): augmentation is what makes "
                 "scarce-data training viable — every augmented "
                 "setting must beat 'sampled only' on held-out real "
                 "paths.\n";
    return 0;
}
