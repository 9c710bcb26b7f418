/**
 * @file
 * sns-router cluster scaling harness (docs/cluster.md §Benchmarks).
 *
 * Trains a quick predictor, then serves a fixed FIR-variant corpus
 * through an in-process Router over 1, 2, and 4 sns-serve workers and
 * measures routed QPS at fixed client concurrency. A direct
 * single-server cell (no router) anchors the routing overhead.
 *
 * The cells are sized so the scaling story is *aggregate cache
 * capacity*, which is what a cluster buys on a DSE sweep workload
 * regardless of core count (this harness runs on one core — worker
 * processes cannot scale CPU here). A probe pass measures how many
 * path-cache entries the corpus footprints; each worker then gets a
 * cache capped at 3/4 of that. One worker sweeping the corpus
 * cyclically thrashes its FIFO shards (every entry is evicted just
 * before its next use), while 2 and 4 workers each see only their
 * consistent-hash slice of the designs — which fits — so repeat
 * sweeps run warm. That is exactly the cache-locality dividend the
 * ring's design-fingerprint routing exists to deliver.
 *
 * Every routed reply is verified bitwise against a local predictBatch
 * reference, which (together with the direct cell) demonstrates the
 * cluster-replies-identical-to-single-sns-serve contract. Headline
 * gate: routed QPS with 2 workers must be >= 1.7x routed QPS with
 * 1 worker. The harness exits 1 on a bitwise mismatch or a failed
 * gate.
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cluster/router.hh"
#include "core/trainer.hh"
#include "netlist/snl_parser.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/string_utils.hh"

namespace {

using namespace sns;
using Clock = std::chrono::steady_clock;

/**
 * A design of `chains` independent deep combinational chains whose op
 * and width at every level are drawn from a per-design RNG. The path
 * cache keys on a path's complete token sequence, so a corpus has to
 * be built from paths that *tokenize* apart — structurally repetitive
 * designs (e.g. FIR variants) collapse to a handful of shared entries
 * after §3.1 width rounding. A random 20-deep chain over 5 ops x 4
 * power-of-two widths makes every path's token sequence unique to its
 * design with overwhelming probability, and the per-path
 * Circuitformer forwards it costs when cold dominate the request.
 */
std::string
chainVariant(int index, int chains, int depth)
{
    static const char *const kOps[] = {"and", "or", "xor", "add",
                                       "mul"};
    static const int kWidths[] = {8, 16, 32, 64};
    std::mt19937 rng(0xC1A0u + static_cast<unsigned>(index));
    auto pick = [&rng](const auto &table) {
        return table[rng() % std::size(table)];
    };

    std::ostringstream out;
    out << "design chain" << index << "\n";
    for (int c = 0; c < chains; ++c) {
        out << "input  x" << c << " " << pick(kWidths) << "\n";
        out << "reg    k" << c << " " << pick(kWidths) << "\n";
        int width = 0;
        for (int d = 0; d < depth; ++d) {
            width = pick(kWidths);
            out << "node   n" << c << "_" << d << " " << pick(kOps)
                << " " << width << " ";
            if (d == 0)
                out << "x" << c;
            else
                out << "n" << c << "_" << d - 1;
            out << " k" << c << "\n";
        }
        out << "reg    r" << c << " " << width << " n" << c << "_"
            << depth - 1 << "\n";
        out << "output y" << c << " " << width << " r" << c << "\n";
    }
    return out.str();
}

struct CellResult
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

bool
sameBits(const serve::PredictReply &reply,
         const core::SnsPrediction &want)
{
    return reply.status == serve::Status::Ok &&
           reply.prediction.timing_ps == want.timing_ps &&
           reply.prediction.area_um2 == want.area_um2 &&
           reply.prediction.power_mw == want.power_mw &&
           reply.prediction.paths_sampled == want.paths_sampled &&
           reply.prediction.critical_path == want.critical_path;
}

/** One untimed sweep over the whole corpus — seeds whatever cache
 * state the routing hands each worker. Returns bitwise health. */
bool
warmup(const std::string &socket_path,
       const std::vector<std::string> &sources,
       const std::vector<core::SnsPrediction> &reference)
{
    auto client = serve::Client::connectUnix(socket_path);
    bool ok = true;
    for (size_t i = 0; i < sources.size(); ++i)
        ok = ok && sameBits(client.predict(sources[i],
                                           serve::DesignFormat::Snl),
                            reference[i]);
    return ok;
}

/**
 * The timed phase: `concurrency` closed-loop clients split the corpus
 * evenly and cycle their slices `rounds` times in a fixed order (the
 * FIFO-worst-case access pattern), every reply timed client-side and
 * checked bitwise against the local reference.
 */
CellResult
runTimed(const std::string &socket_path,
         const std::vector<std::string> &sources,
         const std::vector<core::SnsPrediction> &reference,
         int concurrency, int rounds)
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
            for (int r = 0; r < rounds; ++r) {
                for (size_t i = begin; i < end; ++i) {
                    const auto t0 = Clock::now();
                    const auto reply = client.predict(
                        sources[i], serve::DesignFormat::Snl);
                    const auto t1 = Clock::now();
                    latencies[c].push_back(
                        std::chrono::duration<double, std::micro>(t1 -
                                                                  t0)
                            .count());
                    if (!sameBits(reply, reference[i]))
                        ++mismatches[c];
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    CellResult result;
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
        par::setThreads(
            static_cast<int>(std::min(8u, hw == 0 ? 1u : hw)));
    }

    // A quick model is plenty: routing and cache behaviour depend on
    // the corpus shape, not the weights.
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

    const std::string checkpoint =
        (std::filesystem::temp_directory_path() /
         "sns_cluster_bench_ckpt")
            .string();
    trained.save(checkpoint);
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpoint));

    // 48 distinct designs, each with its own unique path population.
    std::vector<std::string> sources;
    std::vector<graphir::Graph> graphs;
    for (int i = 0; i < 48; ++i) {
        sources.push_back(chainVariant(i, /*chains=*/4, /*depth=*/20));
        graphs.push_back(netlist::parseSnl(sources.back()));
    }
    std::vector<const graphir::Graph *> graph_ptrs;
    for (const auto &graph : graphs)
        graph_ptrs.push_back(&graph);
    std::cerr << "[bench] local reference pass over " << graphs.size()
              << " designs...\n";
    const auto reference = predictor->predictBatch(graph_ptrs);

    const auto temp = std::filesystem::temp_directory_path();
    bool all_bitwise = true;

    // Probe: how many path-cache entries does one corpus sweep
    // footprint? An unbounded server answers exactly.
    size_t corpus_entries = 0;
    {
        obs::Registry registry;
        serve::ServerOptions options;
        options.unix_path = (temp / "sns_cluster_bench_probe.sock")
                                .string();
        options.cache_capacity = 0; // unbounded
        options.registry = &registry;
        serve::Server probe(predictor, options);
        probe.start();
        all_bitwise = all_bitwise &&
                      warmup(options.unix_path, sources, reference);
        corpus_entries = probe.cache().stats().entries;
        probe.stop();
    }
    if (corpus_entries == 0) {
        std::cerr << "[bench] probe saw no cache entries; the scaling "
                     "cells would be meaningless\n";
        return 1;
    }

    // Per-worker cache: 3/4 of the corpus footprint, rounded up to a
    // multiple of the shard count so the per-shard cap divides
    // evenly. One worker owning the whole corpus is 4/3 oversubscribed
    // (cyclic sweeps thrash); two workers own about half each, which
    // fits with headroom for ring imbalance.
    const size_t capacity = ((corpus_entries * 3 / 4 + 15) / 16) * 16;
    std::cout << "corpus: " << sources.size() << " designs, "
              << corpus_entries << " path-cache entries; per-worker cap "
              << capacity << "\n";

    const int kConcurrency = 4;
    const int kRounds = 5;

    Table table("sns-router scaling: aggregate cache capacity");
    table.setHeader({"cell", "workers", "qps", "p50_us", "p99_us",
                     "cache_hit_rate", "bitwise"});

    // Anchor: one server, no router, same capacity and load.
    {
        obs::Registry registry;
        serve::ServerOptions options;
        options.unix_path = (temp / "sns_cluster_bench_direct.sock")
                                .string();
        options.cache_capacity = capacity;
        options.registry = &registry;
        serve::Server server(predictor, options);
        server.start();
        all_bitwise = all_bitwise &&
                      warmup(options.unix_path, sources, reference);
        const auto result = runTimed(options.unix_path, sources,
                                     reference, kConcurrency, kRounds);
        const auto stats = server.cache().stats();
        server.stop();
        all_bitwise = all_bitwise && result.bitwise_ok;
        table.addRow({"direct", "1", formatDouble(result.qps, 1),
                      formatDouble(result.p50_us, 0),
                      formatDouble(result.p99_us, 0),
                      formatDouble(stats.hitRate(), 3),
                      result.bitwise_ok ? "yes" : "NO"});
    }

    // Routed cells: 1, 2, 4 workers behind a fresh router each.
    double qps_w1 = 0.0;
    double qps_w2 = 0.0;
    for (const int n_workers : {1, 2, 4}) {
        std::vector<std::unique_ptr<obs::Registry>> registries;
        std::vector<std::unique_ptr<serve::Server>> workers;
        std::vector<cluster::WorkerAddress> addresses;
        for (int w = 0; w < n_workers; ++w) {
            registries.push_back(std::make_unique<obs::Registry>());
            serve::ServerOptions options;
            options.unix_path =
                (temp / ("sns_cluster_bench_w" + std::to_string(w) +
                         ".sock"))
                    .string();
            options.cache_capacity = capacity;
            options.registry = registries.back().get();
            workers.push_back(std::make_unique<serve::Server>(
                predictor, options));
            workers.back()->start();
            addresses.push_back(cluster::WorkerAddress::parse(
                "unix:" + options.unix_path));
        }

        obs::Registry router_registry;
        cluster::RouterOptions router_options;
        router_options.unix_path =
            (temp / "sns_cluster_bench_router.sock").string();
        router_options.workers = addresses;
        router_options.health_period_ms = 0; // all up, no probes
        router_options.registry = &router_registry;
        cluster::Router router(router_options);
        router.start();

        all_bitwise =
            all_bitwise &&
            warmup(router_options.unix_path, sources, reference);
        const auto result =
            runTimed(router_options.unix_path, sources, reference,
                     kConcurrency, kRounds);

        uint64_t hits = 0;
        uint64_t misses = 0;
        for (const auto &worker : workers) {
            const auto stats = worker->cache().stats();
            hits += stats.hits;
            misses += stats.misses;
        }
        const double hit_rate =
            hits + misses == 0
                ? 0.0
                : static_cast<double>(hits) /
                      static_cast<double>(hits + misses);

        router.stop();
        for (auto &worker : workers)
            worker->stop();

        all_bitwise = all_bitwise && result.bitwise_ok;
        table.addRow({"routed", std::to_string(n_workers),
                      formatDouble(result.qps, 1),
                      formatDouble(result.p50_us, 0),
                      formatDouble(result.p99_us, 0),
                      formatDouble(hit_rate, 3),
                      result.bitwise_ok ? "yes" : "NO"});
        if (n_workers == 1)
            qps_w1 = result.qps;
        else if (n_workers == 2)
            qps_w2 = result.qps;
    }

    table.print(std::cout);
    args.maybeCsv(table, "cluster_throughput");
    std::filesystem::remove_all(checkpoint);

    std::cout << "replies bitwise identical to local predictBatch: "
              << (all_bitwise ? "yes" : "NO") << "\n";
    // Headline gate: two workers' aggregate cache over one worker's.
    const bool cluster_scales = bench::gate(
        "2-worker vs 1-worker routed QPS",
        qps_w1 > 0.0 ? qps_w2 / qps_w1 : 0.0, 1.7, "x");
    return all_bitwise && cluster_scales ? 0 : 1;
}
