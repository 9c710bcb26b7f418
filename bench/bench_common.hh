/**
 * @file
 * Shared plumbing for the benchmark harnesses: command-line flags,
 * standard SNS training configurations (a quick default that finishes
 * in minutes on one core, and the paper-scale `--full` settings of
 * Tables 2 and 6), and helpers to train a predictor on the Hardware
 * Design Dataset.
 */

#ifndef SNS_BENCH_BENCH_COMMON_HH
#define SNS_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/evaluation.hh"
#include "designs/designs.hh"
#include "par/thread_pool.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

namespace sns::bench {

/** Parsed command-line options shared by the harnesses. */
struct BenchArgs
{
    bool full = false;       ///< paper-scale settings
    uint64_t seed = 7;
    std::string csv_dir;     ///< optional directory for CSV dumps
    int override_epochs = -1;
    int threads = -1;        ///< sns::par width (0 = all cores,
                             ///< -1 = keep SNS_THREADS / default)
    std::string checkpoint_dir; ///< crash-safe training state
    std::string resume_from;    ///< resume source (file or directory)

    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--full") {
                args.full = true;
            } else if (arg.rfind("--seed=", 0) == 0) {
                args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
            } else if (arg.rfind("--csv-dir=", 0) == 0) {
                args.csv_dir = arg.substr(10);
            } else if (arg.rfind("--epochs=", 0) == 0) {
                args.override_epochs =
                    std::atoi(arg.c_str() + 9);
            } else if (arg.rfind("--threads=", 0) == 0) {
                args.threads = std::atoi(arg.c_str() + 10);
            } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
                args.checkpoint_dir = arg.substr(17);
            } else if (arg.rfind("--resume=", 0) == 0) {
                args.resume_from = arg.substr(9);
            } else if (arg == "--resume") {
                args.resume_from = "@checkpoint-dir"; // resolved below
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "flags: --full --seed=N --epochs=N "
                             "--threads=N --csv-dir=PATH "
                             "--checkpoint-dir=DIR --resume[=SRC]\n";
                std::exit(0);
            } else {
                std::cerr << "unknown flag: " << arg << "\n";
                std::exit(1);
            }
        }
        if (args.threads >= 0)
            par::setThreads(args.threads);
        if (args.resume_from == "@checkpoint-dir") {
            if (args.checkpoint_dir.empty()) {
                std::cerr << "bare --resume needs --checkpoint-dir\n";
                std::exit(1);
            }
            args.resume_from = args.checkpoint_dir;
        }
        return args;
    }

    /** Write a table's CSV next to the other dumps if requested. */
    void
    maybeCsv(const Table &table, const std::string &name) const
    {
        if (!csv_dir.empty())
            table.writeCsv(csv_dir + "/" + name + ".csv");
    }
};

/**
 * The SNS training configuration for benchmarks.
 *
 * Quick mode trains the full Table-2 Circuitformer with a shortened
 * schedule and a moderate path dataset; --full restores the Table-6
 * schedule (256 epochs, larger augmentation) at ~20x the runtime.
 */
inline core::TrainerConfig
benchTrainerConfig(const BenchArgs &args)
{
    core::TrainerConfig config;
    config.seed = args.seed;

    // Path dataset (§4.2): the paper samples 684 paths and augments to
    // ~4700; quick mode stays around a quarter of that.
    config.path_data.sampler.k = 5.0;
    config.path_data.sampler.max_paths_per_source = 8;
    config.path_data.sampler.max_total_paths = 768;
    config.path_data.max_paths_per_design = args.full ? 128 : 48;
    config.path_data.markov_paths = args.full ? 1024 : 192;
    config.path_data.seqgan_paths = args.full ? 3072 : 256;
    config.seqgan_small = !args.full;

    // Circuitformer (Tables 2 and 6).
    config.circuitformer_epochs = args.full ? 256 : 24;
    config.circuitformer_batch = 128;
    config.circuitformer_lr = 1e-3;
    if (!args.full) {
        // Keep the architecture but shrink the FFN for single-core
        // speed; --full restores the exact Table-2 shape.
        config.model.encoder.d_model = 64;
        config.model.encoder.d_ff = 256;
        config.model.encoder.max_positions = 256;
        config.model.head_hidden = 48;
    }
    if (args.override_epochs > 0)
        config.circuitformer_epochs = args.override_epochs;

    // Aggregation MLPs (Table 6).
    config.mlp.epochs = args.full ? 10240 : 4096;

    // Crash-safe checkpointing (docs/training.md).
    config.checkpoint_dir = args.checkpoint_dir;
    config.resume_from = args.resume_from;
    return config;
}

/**
 * A harness's performance or accuracy gate: prints one line, `PASS` or
 * `FAIL`, with the measured value and the bound, and returns whether
 * the value is on the right side of it. `at_most` gates an upper bound
 * (value <= bound) instead of a lower one (value >= bound).
 */
inline bool
gate(const std::string &what, double value, double bound,
     const std::string &unit, bool at_most = false)
{
    const bool pass = at_most ? value <= bound : value >= bound;
    std::cout << (pass ? "PASS " : "FAIL ") << what << ": "
              << formatDouble(value, 3) << unit
              << (at_most ? " <= " : " >= ") << formatDouble(bound, 3)
              << unit << "\n";
    return pass;
}

/** The synthesis oracle used for dataset ground truth. */
inline synth::Synthesizer
benchOracle()
{
    return synth::Synthesizer(synth::SynthesisOptions{});
}

/** Build the 41-design Hardware Design Dataset with progress output. */
inline core::HardwareDesignDataset
buildBenchDataset(const synth::Synthesizer &oracle)
{
    std::cerr << "[bench] synthesizing the 41-design dataset..."
              << std::endl;
    return core::HardwareDesignDataset::build(
        designs::DesignLibrary::paperDataset(), oracle);
}

} // namespace sns::bench

#endif // SNS_BENCH_BENCH_COMMON_HH
