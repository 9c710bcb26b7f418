/**
 * @file
 * sns-serve throughput harness (docs/serving.md §Benchmarks).
 *
 * Trains a quick predictor, boots an in-process Server on a temp Unix
 * socket, and drives it with closed-loop clients at concurrency 1, 2,
 * 4, and 8 over a corpus of distinct FIR variants (a DSE-shaped
 * workload: every request is a fresh design). Three dispatch styles
 * face off:
 *
 *   serial dispatch — the pre-daemon workflow the ROADMAP calls out:
 *             each request loads the checkpoint (the process-spin-up
 *             cost of `sns-cli predict` per design), predicts one
 *             design, and throws the predictor away, one request at a
 *             time. This is the baseline the headline gate compares
 *             against.
 *   server serial  — max_batch=1: the resident daemon with batching
 *             disabled, one request per predictBatch call.
 *   server batched — max_batch=8 with a 1 ms linger: concurrent
 *             requests coalesce into shared predictBatch calls that
 *             fan out across the sns::par pool.
 *
 * For each (mode, concurrency) cell the harness reports client-side
 * QPS and exact p50/p99 latency and verifies every reply bitwise
 * against a local predictBatch. The headline gate: batched server QPS
 * at concurrency 8 must be >= 2x the serial one-request-at-a-time
 * dispatch baseline. The harness exits 1 on a bitwise mismatch or a
 * failed gate.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/trainer.hh"
#include "netlist/snl_parser.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/string_utils.hh"

namespace {

using namespace sns;
using Clock = std::chrono::steady_clock;

/** An SNL FIR filter with `taps` taps at input width `width` — each
 * (taps, width) pair tokenizes differently, so the corpus exercises
 * the model rather than the path cache. */
std::string
firVariant(int taps, int width)
{
    const int acc = 2 * width;
    std::ostringstream out;
    out << "design fir" << taps << "w" << width << "\n";
    out << "input  x " << width << "\n";
    for (int t = 0; t < taps; ++t)
        out << "reg    c" << t << " " << width << "\n";
    for (int t = 0; t < taps; ++t)
        out << "node   p" << t << " mul " << acc << " x c" << t << "\n";
    out << "reg    z0 " << acc << " p0\n";
    for (int t = 1; t < taps; ++t) {
        out << "node   s" << t << " add " << acc << " p" << t << " z"
            << t - 1 << "\n";
        out << "reg    z" << t << " " << acc << " s" << t << "\n";
    }
    out << "output y " << acc << " z" << taps - 1 << "\n";
    return out.str();
}

struct LevelResult
{
    double qps = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    bool bitwise_ok = true;
};

double
quantile(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(sorted.size())));
    return sorted[idx];
}

/**
 * Drive one server with `concurrency` closed-loop clients that split
 * the corpus evenly, each request timed client-side and checked
 * bitwise against the local reference predictions.
 */
LevelResult
runLevel(const std::string &socket_path,
         const std::vector<std::string> &sources,
         const std::vector<core::SnsPrediction> &reference,
         int concurrency)
{
    const size_t per_client = sources.size() / concurrency;
    std::vector<std::vector<double>> latencies(concurrency);
    std::vector<int> mismatches(concurrency, 0);

    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < concurrency; ++c) {
        clients.emplace_back([&, c] {
            auto client = serve::Client::connectUnix(socket_path);
            const size_t begin = c * per_client;
            const size_t end = begin + per_client;
            for (size_t i = begin; i < end; ++i) {
                const auto t0 = Clock::now();
                const auto reply = client.predict(
                    sources[i], serve::DesignFormat::Snl);
                const auto t1 = Clock::now();
                latencies[c].push_back(
                    std::chrono::duration<double, std::micro>(t1 - t0)
                        .count());
                const auto &want = reference[i];
                if (reply.status != serve::Status::Ok ||
                    reply.prediction.timing_ps != want.timing_ps ||
                    reply.prediction.area_um2 != want.area_um2 ||
                    reply.prediction.power_mw != want.power_mw ||
                    reply.prediction.paths_sampled !=
                        want.paths_sampled ||
                    reply.prediction.critical_path != want.critical_path)
                    ++mismatches[c];
            }
        });
    }
    for (auto &client : clients)
        client.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    LevelResult result;
    std::vector<double> all;
    for (const auto &lat : latencies)
        all.insert(all.end(), lat.begin(), lat.end());
    std::sort(all.begin(), all.end());
    result.qps = static_cast<double>(all.size()) / elapsed;
    result.p50_us = quantile(all, 0.50);
    result.p99_us = quantile(all, 0.99);
    for (const int m : mismatches)
        result.bitwise_ok = result.bitwise_ok && m == 0;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::BenchArgs::parse(argc, argv);
    if (args.threads < 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        par::setThreads(static_cast<int>(
            std::min(8u, hw == 0 ? 1u : hw)));
    }

    // A quick model is plenty: serving throughput depends on the batch
    // shape, not the weights. --full trains the bench-standard config.
    synth::SynthesisOptions oracle_opts;
    oracle_opts.effort = 0.1;
    synth::Synthesizer oracle(oracle_opts);
    std::cerr << "[bench] training the serving model...\n";
    const auto dataset = core::HardwareDesignDataset::build(
        designs::DesignLibrary::smokeSet(), oracle);
    std::vector<size_t> train_idx;
    for (size_t i = 0; i + 2 < dataset.size(); ++i)
        train_idx.push_back(i);
    core::TrainerConfig config = args.full
                                     ? bench::benchTrainerConfig(args)
                                     : core::TrainerConfig::fast();
    config.seed = args.seed;
    core::SnsTrainer trainer(config);
    const auto trained = trainer.train(dataset, train_idx, oracle);

    // Serve from a checkpoint, exactly like the daemon: the baseline
    // reloads it per request, the server loads it once. Loading is a
    // fixed point, so baseline, server, and local reference are all
    // bitwise-identical models.
    const std::string checkpoint =
        (std::filesystem::temp_directory_path() / "sns_serve_bench_ckpt")
            .string();
    trained.save(checkpoint);
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpoint));

    // 64 distinct designs: 4 tap counts x 16 widths.
    std::vector<std::string> sources;
    std::vector<graphir::Graph> graphs;
    for (int taps = 2; taps <= 5; ++taps) {
        for (int w = 0; w < 16; ++w) {
            sources.push_back(firVariant(taps, 8 + 2 * w));
            graphs.push_back(netlist::parseSnl(sources.back()));
        }
    }
    std::vector<const graphir::Graph *> graph_ptrs;
    for (const auto &graph : graphs)
        graph_ptrs.push_back(&graph);
    std::cerr << "[bench] local reference pass over " << graphs.size()
              << " designs...\n";
    const auto reference = predictor->predictBatch(graph_ptrs);

    // Baseline: serial one-request-at-a-time dispatch with no resident
    // daemon — every request pays the checkpoint load that a per-design
    // `sns-cli predict` process would, then predicts one design.
    std::cerr << "[bench] serial one-request-at-a-time dispatch over "
              << graphs.size() << " designs...\n";
    bool all_bitwise = true;
    double qps_serial_dispatch = 0.0;
    {
        const auto start = Clock::now();
        for (size_t i = 0; i < graphs.size(); ++i) {
            const auto fresh = core::SnsPredictor::load(checkpoint);
            const auto pred = fresh.predict(graphs[i]);
            if (pred.timing_ps != reference[i].timing_ps ||
                pred.area_um2 != reference[i].area_um2 ||
                pred.power_mw != reference[i].power_mw)
                all_bitwise = false;
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        qps_serial_dispatch =
            static_cast<double>(graphs.size()) / elapsed;
    }
    std::cout << "serial dispatch: "
              << formatDouble(qps_serial_dispatch, 1) << " qps\n";

    const std::string socket_path =
        (std::filesystem::temp_directory_path() /
         "sns_serve_bench.sock")
            .string();

    Table table("sns-serve throughput: serial vs micro-batched");
    table.setHeader({"mode", "conc", "qps", "p50_us", "p99_us",
                     "bitwise"});
    const std::vector<int> levels = {1, 2, 4, 8};
    double qps_batched_c8 = 0.0;

    for (const bool batched : {false, true}) {
        serve::ServerOptions options;
        options.unix_path = socket_path;
        options.batch.max_batch = batched ? 8 : 1;
        options.batch.max_linger_us = batched ? 1000 : 0;
        const char *mode = batched ? "batched" : "serial";

        for (const int concurrency : levels) {
            // Fresh server (and thus fresh cache) per cell so every
            // cell does identical model work: 64 cold designs.
            obs::Registry registry;
            options.registry = &registry;
            serve::Server server(predictor, options);
            server.start();
            const auto result = runLevel(socket_path, sources,
                                         reference, concurrency);
            server.stop();

            table.addRow({mode, std::to_string(concurrency),
                          formatDouble(result.qps, 1),
                          formatDouble(result.p50_us, 0),
                          formatDouble(result.p99_us, 0),
                          result.bitwise_ok ? "yes" : "NO"});
            all_bitwise = all_bitwise && result.bitwise_ok;
            if (batched && concurrency == 8)
                qps_batched_c8 = result.qps;
        }
    }

    table.print(std::cout);
    args.maybeCsv(table, "serve_throughput");
    std::filesystem::remove_all(checkpoint);

    // The headline gate: the batching daemon at concurrency 8 vs
    // serial one-request-at-a-time dispatch.
    const double speedup = qps_serial_dispatch > 0.0
                               ? qps_batched_c8 / qps_serial_dispatch
                               : 0.0;
    std::cout << "replies bitwise identical to local predictBatch: "
              << (all_bitwise ? "yes" : "NO") << "\n";
    const bool batching_pays =
        bench::gate("batched c8 vs serial dispatch", speedup, 2.0, "x");
    return all_bitwise && batching_pays ? 0 : 1;
}
