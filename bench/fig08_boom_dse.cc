/**
 * @file
 * The BOOM case study (§5.6): Figure 8 and Tables 10/11.
 *
 * Enumerates the 2592-configuration Table-10 design space, predicts
 * area/power/timing for every configuration with a trained SNS
 * predictor, scores each with the trace-driven pipeline simulator at the
 * SNS-predicted frequency, extracts the Pareto frontiers (perf vs power and
 * performance vs area), reports the HighPerf / PowerEff / AreaEff
 * picks (Table 11), and verifies 20 random configurations against the
 * reference synthesizer (the paper reports MAEPs of 12.58% area,
 * 29.61% power, 19.78% timing on that check).
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"
#include "boom/boom.hh"
#include "boom/pipeline_sim.hh"
#include "perf/path_cache.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"

namespace {

struct DsePoint
{
    sns::boom::BoomParams params;
    double area_um2 = 0.0;
    double power_mw = 0.0;
    double timing_ps = 0.0;
    double score = 0.0; ///< CoreMark-like, normalized later
};

std::string
describe(const sns::boom::BoomParams &p)
{
    return std::string(sns::boom::branchPredictorName(p.bpred)) + " w" +
           std::to_string(p.core_width) + " m" +
           std::to_string(p.mem_ports) + " f" +
           std::to_string(p.fetch_width) + " rob" +
           std::to_string(p.rob_size) + " prf" +
           std::to_string(p.int_regs) + " iq" +
           std::to_string(p.issue_slots) + " $" +
           std::to_string(p.l1d_ways);
}

/** Indices of the Pareto-optimal points for (maximize score, minimize
 * cost). */
std::vector<size_t>
paretoFront(const std::vector<DsePoint> &points,
            double DsePoint::*cost)
{
    std::vector<size_t> front;
    for (size_t i = 0; i < points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < points.size() && !dominated; ++j) {
            if (j == i)
                continue;
            if (points[j].score >= points[i].score &&
                points[j].*cost <= points[i].*cost &&
                (points[j].score > points[i].score ||
                 points[j].*cost < points[i].*cost)) {
                dominated = true;
            }
        }
        if (!dominated)
            front.push_back(i);
    }
    return front;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sns;
    const auto args = bench::BenchArgs::parse(argc, argv);
    const auto oracle = bench::benchOracle();
    const auto dataset = bench::buildBenchDataset(oracle);
    // Case-study protocol: BOOM/DianNao are outside the Hardware
    // Design Dataset, so the predictor trains on all 41 designs (the
    // paper's case studies do the same — the train/test split only
    // exists for the §5.2 accuracy evaluation).
    std::vector<size_t> train_idx;
    for (size_t i = 0; i < dataset.size(); ++i)
        train_idx.push_back(i);

    std::cerr << "[bench] training the predictor..." << std::endl;
    auto config = bench::benchTrainerConfig(args);
    // DSE-scale inference: tighter path budget per design.
    if (!args.full) {
        config.path_data.sampler.max_paths_per_source = 6;
        config.path_data.sampler.max_total_paths = 384;
    }
    core::SnsTrainer trainer(config);
    const auto predictor = trainer.train(dataset, train_idx, oracle);

    // --- Sweep the 2592-point space. ----------------------------------
    // Performance comes from the trace-driven pipeline simulator (the
    // Chipyard-simulation substitute) on a shared CoreMark-like trace;
    // frequency comes from the SNS timing prediction.
    const auto space = boom::boomDesignSpace();
    const auto trace = boom::SyntheticTrace::coreMark(
        args.full ? 40000 : 12000, args.seed);
    std::cerr << "[bench] predicting " << space.size()
              << " BOOM configurations (SNS + pipeline simulation)..."
              << std::endl;
    WallTimer dse_timer;
    std::vector<DsePoint> points;
    points.reserve(space.size());
    // Sweep in chunks: elaborate a chunk of configurations, predict the
    // whole chunk with one predictBatch (fanned out over the sns::par
    // pool), then score with the pipeline simulator. Chunking bounds
    // the number of elaborated graphs held in memory at once.
    // One cache shared across every chunk: Table-10 variants reuse the
    // same building blocks, so later chunks resolve most sampled paths
    // without touching the Circuitformer (docs/perf.md).
    const size_t chunk = 64;
    perf::PathPredictionCache cache;
    core::PredictOptions popts;
    popts.collect_critical_path = false;
    popts.cache = &cache;
    for (size_t start = 0; start < space.size(); start += chunk) {
        const size_t end = std::min(space.size(), start + chunk);
        std::vector<graphir::Graph> graphs;
        graphs.reserve(end - start);
        for (size_t i = start; i < end; ++i)
            graphs.push_back(boom::buildBoomCore(space[i]));
        std::vector<const graphir::Graph *> ptrs;
        ptrs.reserve(graphs.size());
        for (const auto &graph : graphs)
            ptrs.push_back(&graph);
        const auto preds = predictor.predictBatch(ptrs, popts);
        for (size_t i = start; i < end; ++i) {
            const auto &pred = preds[i - start];
            DsePoint point;
            point.params = space[i];
            point.area_um2 = pred.area_um2;
            point.power_mw = pred.power_mw;
            point.timing_ps = pred.timing_ps;
            const double freq_ghz = 1000.0 / pred.timing_ps;
            boom::PipelineSimulator sim(space[i], args.seed);
            point.score = sim.run(trace).ipc() * freq_ghz;
            points.push_back(point);
        }
        if (end % 512 < chunk)
            std::cerr << "  " << end << "/" << space.size()
                      << std::endl;
    }
    const double dse_seconds = dse_timer.seconds();
    const auto cache_stats = cache.stats();

    // Normalize scores so the fastest design is 1.0 (as in Fig. 8).
    double best_score = 0.0;
    for (const auto &point : points)
        best_score = std::max(best_score, point.score);
    for (auto &point : points)
        point.score /= best_score;

    // --- Table 11 picks. ------------------------------------------------
    size_t high_perf = 0;
    size_t power_eff = 0;
    size_t area_eff = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].score > points[high_perf].score)
            high_perf = i;
        if (points[i].score / points[i].power_mw >
            points[power_eff].score / points[power_eff].power_mw) {
            power_eff = i;
        }
        if (points[i].score / points[i].area_um2 >
            points[area_eff].score / points[area_eff].area_um2) {
            area_eff = i;
        }
    }

    Table picks("Table 11: selected Pareto designs");
    picks.setHeader({"design", "config", "norm_score", "power mW",
                     "area um2"});
    for (auto [label, idx] :
         {std::pair<const char *, size_t>{"HighPerf", high_perf},
          {"PowerEff", power_eff},
          {"AreaEff", area_eff}}) {
        picks.addRow({label, describe(points[idx].params),
                      formatDouble(points[idx].score, 3),
                      formatDouble(points[idx].power_mw, 2),
                      formatDouble(points[idx].area_um2, 0)});
    }
    picks.print(std::cout);
    args.maybeCsv(picks, "table11_picks");

    // --- Fig. 8 series: Pareto fronts. -----------------------------------
    Table front_table("Figure 8: Pareto frontiers (performance vs "
                      "power / area)");
    front_table.setHeader({"frontier", "config", "norm_score",
                           "power mW", "area um2"});
    for (size_t idx : paretoFront(points, &DsePoint::power_mw)) {
        front_table.addRow({"perf-vs-power", describe(points[idx].params),
                            formatDouble(points[idx].score, 3),
                            formatDouble(points[idx].power_mw, 2),
                            formatDouble(points[idx].area_um2, 0)});
    }
    for (size_t idx : paretoFront(points, &DsePoint::area_um2)) {
        front_table.addRow({"perf-vs-area", describe(points[idx].params),
                            formatDouble(points[idx].score, 3),
                            formatDouble(points[idx].power_mw, 2),
                            formatDouble(points[idx].area_um2, 0)});
    }
    front_table.print(std::cout);
    args.maybeCsv(front_table, "fig08_pareto");

    if (!args.csv_dir.empty()) {
        Table all_points;
        all_points.setHeader({"config", "norm_score", "power_mw",
                              "area_um2", "timing_ps", "mem_ports",
                              "issue_slots"});
        for (const auto &point : points) {
            all_points.addRow(
                {describe(point.params), formatDouble(point.score, 4),
                 formatDouble(point.power_mw, 3),
                 formatDouble(point.area_um2, 1),
                 formatDouble(point.timing_ps, 1),
                 std::to_string(point.params.mem_ports),
                 std::to_string(point.params.issue_slots)});
        }
        args.maybeCsv(all_points, "fig08_all_points");
    }

    // --- Paper observation checks. ---------------------------------------
    int single_port_on_front = 0;
    int front_size = 0;
    for (size_t idx : paretoFront(points, &DsePoint::power_mw)) {
        ++front_size;
        single_port_on_front += points[idx].params.mem_ports == 1;
    }
    std::cout << "\nDSE wall time: " << formatDouble(dse_seconds, 1)
              << " s for " << points.size()
              << " designs (paper: 2.1 h for the same sweep vs ~45 "
                 "days of synthesis)\n";
    std::cout << "path cache over the sweep: " << cache_stats.hits
              << " hits / " << cache_stats.misses << " misses ("
              << formatDouble(100.0 * cache_stats.hitRate(), 1)
              << "% hit rate), " << cache_stats.entries << " entries, "
              << cache_stats.bytes << " bytes\n";
    std::cout << "single-memory-port designs on the perf-power "
                 "frontier: "
              << single_port_on_front << "/" << front_size
              << " (paper: all of them)\n";
    std::cout << "PowerEff/AreaEff within 10% of HighPerf performance: "
              << formatDouble(100.0 * points[power_eff].score, 1)
              << "% and "
              << formatDouble(100.0 * points[area_eff].score, 1)
              << "% of best (paper: both > 90%)\n";

    // --- 20-sample verification against the oracle. -----------------------
    std::cerr << "[bench] verifying 20 random configurations against "
                 "the reference synthesizer..."
              << std::endl;
    Rng rng(args.seed ^ 0xb00);
    std::vector<graphir::Graph> verify_graphs;
    verify_graphs.reserve(20);
    for (int i = 0; i < 20; ++i) {
        const auto &params = space[rng.uniformInt(space.size())];
        verify_graphs.push_back(boom::buildBoomCore(params));
    }
    std::vector<const graphir::Graph *> verify_ptrs;
    for (const auto &graph : verify_graphs)
        verify_ptrs.push_back(&graph);
    // Both sides of the check run batched: the reference synthesizer
    // fans the 20 designs over the pool, as does predictBatch.
    const auto truths = oracle.runBatch(verify_ptrs);
    const auto preds = predictor.predictBatch(verify_ptrs, popts);
    std::vector<double> area_t;
    std::vector<double> area_p;
    std::vector<double> power_t;
    std::vector<double> power_p;
    std::vector<double> timing_t;
    std::vector<double> timing_p;
    for (size_t i = 0; i < verify_graphs.size(); ++i) {
        area_t.push_back(truths[i].area_um2);
        area_p.push_back(preds[i].area_um2);
        power_t.push_back(truths[i].power_mw);
        power_p.push_back(preds[i].power_mw);
        timing_t.push_back(truths[i].timing_ps);
        timing_p.push_back(preds[i].timing_ps);
    }
    std::cout << "verification MAEP (paper: area 12.58%, power 29.61%, "
                 "timing 19.78%): area "
              << formatDouble(maep(area_p, area_t), 2) << "%, power "
              << formatDouble(maep(power_p, power_t), 2) << "%, timing "
              << formatDouble(maep(timing_p, timing_t), 2) << "%\n";
    return 0;
}
