/**
 * @file
 * Figure 7: SNS prediction runtime vs reference-synthesis runtime,
 * per design, with the average speedup (the paper reports 760x over
 * Synopsys DC on a server; our reference synthesizer is a compressed
 * stand-in, so the *shape* — speedup growing with design size — is the
 * reproduction target, not the absolute factor).
 *
 * Both sides are honest wall-clock measurements of real work: the
 * synthesizer's gate-level sizing schedule scales super-linearly with
 * gate count, while SNS samples a bounded number of paths and runs a
 * fixed-size Transformer over them.
 *
 * With --threads=N the harness additionally measures each SNS
 * prediction on the sns::par pool at width N, reports the
 * single-vs-multi-thread curve, and checks the determinism contract:
 * predictions must be bitwise identical at every thread count
 * (docs/parallelism.md).
 *
 * Two further passes measure the path-prediction cache (docs/perf.md):
 * cold (first visit, misses only) and warm (same designs revisited —
 * the repeated-variant DSE scenario). The determinism check extends to
 * the cached passes: cache-on must equal cache-off bit for bit. The
 * harness exits 1 on a determinism violation or when the warm pass is
 * less than 2x faster than the cold one.
 */

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hh"
#include "perf/path_cache.hh"
#include "plan/runtime.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"

int
main(int argc, char **argv)
{
    using namespace sns;
    const auto args = bench::BenchArgs::parse(argc, argv);
    const int multi_threads = std::max(1, par::configuredThreads());
    // Runtime comparison: model the per-invocation tool setup cost the
    // paper's DC runs pay on every design (result-neutral; see
    // SynthesisOptions::model_setup_cost).
    synth::SynthesisOptions oracle_opts;
    oracle_opts.model_setup_cost = true;
    oracle_opts.modeled_candidates_per_gate = 64;
    const synth::Synthesizer oracle(oracle_opts);
    const auto dataset = bench::buildBenchDataset(oracle);
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, args.seed);

    std::cerr << "[bench] training the predictor..." << std::endl;
    core::SnsTrainer trainer(bench::benchTrainerConfig(args));
    const auto predictor = trainer.train(dataset, train_idx, oracle);

    // Measure every design in the dataset; --full adds a 64-core
    // stencil accelerator (~17M gates) to extend the size axis.
    std::vector<designs::DesignSpec> specs =
        designs::DesignLibrary::paperDataset();
    if (args.full) {
        designs::DesignSpec mega;
        mega.name = "stencil2d_c64_w32";
        mega.base = "stencil2d";
        mega.category = "Other";
        mega.build = [] { return designs::buildStencil2d(64, 32); };
        specs.push_back(mega);
    }

    struct Row
    {
        std::string name;
        double gates = 0.0;
        double synth_s = 0.0;
        double sns_1t_s = 0.0;
        double sns_nt_s = 0.0;
        double sns_walk_s = 0.0;
        double sns_cold_s = 0.0;
        double sns_warm_s = 0.0;
        core::SnsPrediction pred_1t;
        core::SnsPrediction pred_nt;
        core::SnsPrediction pred_walk;
        core::SnsPrediction pred_cold;
        core::SnsPrediction pred_warm;
    };
    std::vector<Row> rows(specs.size());

    // Pass A: reference synthesis + single-thread SNS. One pool width
    // per pass so the pool is not rebuilt per design.
    par::setThreads(1);
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto graph = specs[i].build();
        rows[i].name = specs[i].name;

        WallTimer synth_timer;
        const auto truth = oracle.run(graph);
        rows[i].synth_s = synth_timer.seconds();
        rows[i].gates = truth.gate_count;

        WallTimer sns_timer;
        rows[i].pred_1t = predictor.predict(graph);
        rows[i].sns_1t_s = sns_timer.seconds();
    }

    // Pass B: the same predictions at the requested pool width.
    par::setThreads(multi_threads);
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto graph = specs[i].build();
        WallTimer sns_timer;
        rows[i].pred_nt = predictor.predict(graph);
        rows[i].sns_nt_s = sns_timer.seconds();
    }

    // Pass B': the raw module walk — SNS_PLAN off — on one thread.
    // The static execution plan (docs/plan.md) is on by default in
    // every other pass; this measures what it buys and gates that it
    // changes nothing (bitwise) in what the model predicts.
    par::setThreads(1);
    plan::setPlanEnabled(false);
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto graph = specs[i].build();
        WallTimer walk_timer;
        rows[i].pred_walk = predictor.predict(graph);
        rows[i].sns_walk_s = walk_timer.seconds();
    }
    plan::setPlanEnabled(true);

    // Passes C/D: the path-prediction cache, single-threaded so the
    // timing isolates memoization. Pass C starts cold (every path is a
    // miss and is inserted), pass D revisits the same designs — the
    // fig08-style repeated-variant scenario where DSE sweeps share most
    // of their sampled paths.
    perf::PathPredictionCache cache;
    core::PredictOptions cached_opts;
    cached_opts.cache = &cache;
    par::setThreads(1);
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto graph = specs[i].build();
        const graphir::Graph *one[1] = {&graph};
        WallTimer cold_timer;
        rows[i].pred_cold = predictor.predictBatch(one, cached_opts)[0];
        rows[i].sns_cold_s = cold_timer.seconds();
    }
    const auto cold_stats = cache.stats();
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto graph = specs[i].build();
        const graphir::Graph *one[1] = {&graph};
        WallTimer warm_timer;
        rows[i].pred_warm = predictor.predictBatch(one, cached_opts)[0];
        rows[i].sns_warm_s = warm_timer.seconds();
    }
    const auto warm_stats = cache.stats();

    // Determinism contract: bitwise-identical predictions at any width
    // and with the cache on or off, cold or warm.
    size_t mismatches = 0;
    for (const auto &row : rows) {
        auto equal = [&](const core::SnsPrediction &other) {
            return row.pred_1t.timing_ps == other.timing_ps &&
                   row.pred_1t.area_um2 == other.area_um2 &&
                   row.pred_1t.power_mw == other.power_mw &&
                   row.pred_1t.critical_path == other.critical_path;
        };
        if (!equal(row.pred_nt)) {
            ++mismatches;
            std::cerr << "DETERMINISM VIOLATION: " << row.name
                      << " differs between 1 and " << multi_threads
                      << " threads\n";
        }
        if (!equal(row.pred_cold) || !equal(row.pred_warm)) {
            ++mismatches;
            std::cerr << "DETERMINISM VIOLATION: " << row.name
                      << " differs between cache-off and cache-on\n";
        }
        if (!equal(row.pred_walk)) {
            ++mismatches;
            std::cerr << "DETERMINISM VIOLATION: " << row.name
                      << " differs between the planned hot path and "
                         "the module walk\n";
        }
    }

    Table table("Figure 7: SNS runtime vs reference-synthesis runtime "
                "(wall clock; sns_nt = " +
                std::to_string(multi_threads) + " threads)");
    table.setHeader({"design", "gates", "synth_s", "sns_1t_s", "sns_nt_s",
                     "cold_s", "warm_s", "cache_x", "par_x", "speedup"});
    std::vector<double> speedups;
    std::vector<double> gate_counts;
    std::vector<double> par_speedups;
    std::vector<double> cache_speedups;
    for (const auto &row : rows) {
        const double par_x = row.sns_1t_s / row.sns_nt_s;
        const double cache_x = row.sns_cold_s / row.sns_warm_s;
        const double speedup = row.synth_s / row.sns_nt_s;
        speedups.push_back(speedup);
        par_speedups.push_back(par_x);
        cache_speedups.push_back(cache_x);
        gate_counts.push_back(row.gates);
        table.addRow({row.name, formatEng(row.gates),
                      formatDouble(row.synth_s, 4),
                      formatDouble(row.sns_1t_s, 4),
                      formatDouble(row.sns_nt_s, 4),
                      formatDouble(row.sns_cold_s, 4),
                      formatDouble(row.sns_warm_s, 4),
                      formatDouble(cache_x, 2) + "x",
                      formatDouble(par_x, 2) + "x",
                      formatDouble(speedup, 2) + "x"});
    }
    table.print(std::cout);
    args.maybeCsv(table, "fig07_runtime");

    // Large-design tier: top quartile by gate count (at least 3
    // designs) — intra-design parallelism pays off where there are
    // many sampled paths to spread over the pool.
    std::vector<size_t> order(rows.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return rows[a].gates > rows[b].gates;
    });
    const size_t tier = std::max<size_t>(3, order.size() / 4);
    std::vector<double> large_par;
    for (size_t i = 0; i < std::min(tier, order.size()); ++i)
        large_par.push_back(par_speedups[order[i]]);

    std::cout << "\naverage speedup: "
              << formatDouble(mean(speedups), 2) << "x (geomean "
              << formatDouble(geomean(speedups), 2) << "x)\n";
    std::cout << "parallel speedup (" << multi_threads
              << " threads vs 1): geomean all designs "
              << formatDouble(geomean(par_speedups), 2)
              << "x, large-design tier (top " << large_par.size()
              << " by gates) " << formatDouble(geomean(large_par), 2)
              << "x\n";
    // Cache summary: the warm pass replays the identical design set, so
    // every sampled path resolves from the cache.
    double cold_total_s = 0.0;
    double warm_total_s = 0.0;
    double total_paths = 0.0;
    for (const auto &row : rows) {
        cold_total_s += row.sns_cold_s;
        warm_total_s += row.sns_warm_s;
        total_paths += static_cast<double>(row.pred_warm.paths_sampled);
    }
    const uint64_t warm_hits = warm_stats.hits - cold_stats.hits;
    const uint64_t warm_misses = warm_stats.misses - cold_stats.misses;
    std::cout << "path cache (repeated-variant sweep): cold "
              << formatDouble(cold_total_s, 3) << " s ("
              << formatDouble(total_paths / cold_total_s, 1)
              << " paths/s), warm " << formatDouble(warm_total_s, 3)
              << " s (" << formatDouble(total_paths / warm_total_s, 1)
              << " paths/s), speedup "
              << formatDouble(cold_total_s / warm_total_s, 2)
              << "x; warm pass " << warm_hits << " hits / "
              << warm_misses << " misses, " << warm_stats.entries
              << " entries, " << warm_stats.bytes << " bytes\n";
    double walk_total_s = 0.0;
    double planned_total_s = 0.0;
    for (const auto &row : rows) {
        walk_total_s += row.sns_walk_s;
        planned_total_s += row.sns_1t_s;
    }
    std::cout << "execution plan (planned hot path vs module walk, "
                 "1 thread): walk "
              << formatDouble(walk_total_s, 3) << " s, planned "
              << formatDouble(planned_total_s, 3) << " s, speedup "
              << formatDouble(walk_total_s / planned_total_s, 2)
              << "x (bitwise identical)\n";
    std::cout << "determinism check (1 vs " << multi_threads
              << " threads, cache on vs off, plan on vs off): "
              << (mismatches == 0 ? "PASS (bitwise identical)"
                                  : "FAIL")
              << "\n";
    std::cout << "size-speedup correlation (log-log pearson): "
              << formatDouble(
                     [&] {
                         std::vector<double> lg;
                         std::vector<double> ls;
                         for (size_t i = 0; i < speedups.size(); ++i) {
                             lg.push_back(std::log(gate_counts[i]));
                             ls.push_back(std::log(speedups[i]));
                         }
                         return pearson(lg, ls);
                     }(),
                     3)
              << " (paper shape: strongly positive — bigger designs "
                 "gain more)\n";
    const bool cache_pays = bench::gate(
        "warm-cache speedup", cold_total_s / warm_total_s, 2.0, "x");
    return mismatches == 0 && cache_pays ? 0 : 1;
}
