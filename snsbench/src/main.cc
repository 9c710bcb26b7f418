/**
 * @file
 * snsbench — one binary for every workload of the end-to-end benchmark.
 *
 *   snsbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--json FILE] [--trace-file FILE] [--work-dir DIR]
 *   snsbench compare [--benchmark FILE] OLD.jsonl NEW.jsonl
 *   snsbench validate [--benchmark FILE] --result FILE [--trace 0|1]
 *            [--trace-file FILE]
 *
 * A run reads BENCHMARK.json from the working directory, prints its
 * METRIC/DIGEST lines and, as its last stdout line, the result object;
 * --json appends the full record to FILE. Exit status:
 * 0 when every check passed, 1 when an output was wrong (the result
 * still prints, with "correct": false), 2 on a usage error or a
 * failure before any result exists. Options accept `--k v` and `--k=v`.
 */

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unistd.h>

#include "par/thread_pool.hh"
#include "workloads.hh"

namespace snsbench {
int runCompare(int argc, char **argv);
int runValidate(int argc, char **argv);
} // namespace snsbench

namespace {

using namespace snsbench;

constexpr const char *kUsage =
    "usage: snsbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--json FILE] [--trace-file FILE] [--work-dir DIR]\n"
    "       snsbench compare [--benchmark FILE] OLD.jsonl NEW.jsonl\n"
    "       snsbench validate [--benchmark FILE] --result FILE "
    "[--trace 0|1] [--trace-file FILE]\n"
    "workloads: dse_unique dse_unique_int8 dse_boom serve_mixed train\n";

bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::string(argv[1]) == "compare")
        return runCompare(argc, argv);
    if (argc >= 2 && std::string(argv[1]) == "validate")
        return runValidate(argc, argv);

    RunOptions opts;
    std::string workload;
    std::string json_file;
    std::string work_root = ".bench_build/snsbench";
    uint64_t seconds = 10;
    uint64_t trace = 0;
    bool ok = true;
    for (int i = 1; i < argc && ok; ++i) {
        std::string arg = argv[i];
        std::string value;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            ok = false;
            break;
        }
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            ok = parseUnsigned(value, opts.seed);
        else if (arg == "--seconds")
            ok = parseUnsigned(value, seconds) && seconds > 0;
        else if (arg == "--trace")
            ok = parseUnsigned(value, trace) && trace <= 1;
        else if (arg == "--json")
            json_file = value;
        else if (arg == "--trace-file")
            opts.trace_file = value;
        else if (arg == "--work-dir")
            work_root = value;
        else
            ok = false;
    }
    const bool known = workload == "dse_unique" ||
                       workload == "dse_unique_int8" ||
                       workload == "dse_boom" ||
                       workload == "serve_mixed" ||
                       workload == "train";
    if (!ok || !known) {
        std::cerr << kUsage;
        return 2;
    }
    opts.seconds = static_cast<double>(seconds);
    opts.trace = trace == 1;
    // The metrics a run prints are BENCHMARK.json's, in its order.
    std::vector<MetricDef> printed;
    std::string error;
    if (!loadMetricDefs("BENCHMARK.json",
                        opts.trace ? "per_layer" : "end_to_end", printed,
                        error)) {
        std::cerr << "snsbench: " << error << "\n";
        return 2;
    }
    if (opts.trace_file.empty())
        opts.trace_file = work_root + "/trace-" + workload + ".json";

    // Scratch space (saved model, unix sockets, checkpoints) lives in
    // the checkout and goes away with the run. Relative paths keep
    // socket names short.
    opts.work_dir = work_root + "/run-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::create_directories(opts.work_dir, ec);
    if (ec) {
        std::cerr << "snsbench: cannot create " << opts.work_dir << ": "
                  << ec.message() << "\n";
        return 2;
    }

    sns::par::setThreads(kPoolWidth);
    Report report(workload, opts.seed, static_cast<int>(seconds),
                  opts.trace, std::move(printed));
    int status = 0;
    try {
        if (workload == "dse_unique")
            runDseUnique(opts, report, sns::core::Precision::Fp64);
        else if (workload == "dse_unique_int8")
            runDseUnique(opts, report, sns::core::Precision::Int8);
        else if (workload == "dse_boom")
            runDseBoom(opts, report);
        else if (workload == "serve_mixed")
            runServeMixed(opts, report);
        else
            runTrain(opts, report);
    } catch (const std::exception &e) {
        std::cerr << "snsbench: " << workload << " failed: "
                  << e.what() << "\n";
        status = 2;
    }
    std::filesystem::remove_all(opts.work_dir, ec);
    if (status != 0)
        return status;

    report.finish();
    if (!json_file.empty()) {
        std::ofstream out(json_file, std::ios::app);
        out << report.record() << "\n";
        if (!out) {
            std::cerr << "snsbench: cannot append to " << json_file << "\n";
            return 2;
        }
    }
    report.print(std::cout);
    return report.correct() ? 0 : 1;
}
