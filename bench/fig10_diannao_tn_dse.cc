/**
 * @file
 * Table 13 + Figure 10: DianNao design space exploration over Tn.
 *
 * Predicts all 576 Table-13 configurations with SNS, folds in the
 * cycle-level performance model, and reports per-Tn averages of area,
 * power, area efficiency (inference throughput per unit area) and
 * energy per inference. The paper's finding — Tn = 16 maximizes both
 * efficiency metrics, explaining the original DianNao choice — is the
 * shape to reproduce.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "diannao/diannao.hh"
#include "perf/path_cache.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"

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
    if (!args.full) {
        config.path_data.sampler.max_paths_per_source = 6;
        config.path_data.sampler.max_total_paths = 384;
    }
    core::SnsTrainer trainer(config);
    const auto predictor = trainer.train(dataset, train_idx, oracle);

    const auto layers = diannao::alexNetLikeLayers();
    const auto space = diannao::dianNaoDesignSpace();
    std::cerr << "[bench] predicting " << space.size()
              << " DianNao configurations..." << std::endl;

    struct Accum
    {
        std::vector<double> area;
        std::vector<double> power;
        std::vector<double> area_eff;
        std::vector<double> energy_per_inf;
    };
    std::map<int, Accum> by_tn;

    WallTimer timer;
    // Chunked sweep: elaborate + annotate a chunk of configurations,
    // then predict the whole chunk with one batched call on the pool.
    // One cache shared across every chunk: the Tn sweep reuses datapath
    // building blocks heavily, so most paths resolve without another
    // Circuitformer pass (docs/perf.md).
    const size_t chunk = 64;
    perf::PathPredictionCache cache;
    core::PredictOptions popts;
    popts.collect_critical_path = false;
    popts.cache = &cache;
    for (size_t start = 0; start < space.size(); start += chunk) {
        const size_t end = std::min(space.size(), start + chunk);
        std::vector<diannao::DianNaoDesign> chunk_designs;
        std::vector<diannao::DianNaoPerfModel::Result> chunk_perf;
        chunk_designs.reserve(end - start);
        chunk_perf.reserve(end - start);
        for (size_t i = start; i < end; ++i) {
            auto design = diannao::buildDianNao(space[i]);
            const auto perf =
                diannao::DianNaoPerfModel::run(space[i], layers);
            diannao::DianNaoPerfModel::applyActivities(design, perf);
            chunk_designs.push_back(std::move(design));
            chunk_perf.push_back(perf);
        }
        std::vector<const graphir::Graph *> ptrs;
        ptrs.reserve(chunk_designs.size());
        for (const auto &design : chunk_designs)
            ptrs.push_back(&design.graph);
        const auto preds = predictor.predictBatch(ptrs, popts);

        for (size_t i = start; i < end; ++i) {
            const auto &pred = preds[i - start];
            const double freq_ghz = 1000.0 / pred.timing_ps;
            // One inference = the whole layer stack.
            const double inf_per_s =
                freq_ghz * 1e9 / chunk_perf[i - start].total_cycles;
            auto &acc = by_tn[space[i].tn];
            acc.area.push_back(pred.area_um2);
            acc.power.push_back(pred.power_mw);
            acc.area_eff.push_back(inf_per_s / pred.area_um2);
            acc.energy_per_inf.push_back(pred.power_mw * 1e-3 /
                                         inf_per_s * 1e6); // uJ
        }
        if (end % 128 < chunk)
            std::cerr << "  " << end << "/" << space.size()
                      << std::endl;
    }
    const double sweep_seconds = timer.seconds();
    const auto cache_stats = cache.stats();
    std::cout << "prediction sweep: " << formatDouble(sweep_seconds, 1)
              << " s for " << space.size()
              << " designs (paper: 809 s on its server)\n";
    std::cout << "path cache over the sweep: " << cache_stats.hits
              << " hits / " << cache_stats.misses << " misses ("
              << formatDouble(100.0 * cache_stats.hitRate(), 1)
              << "% hit rate), " << cache_stats.entries << " entries, "
              << cache_stats.bytes << " bytes\n\n";

    Table table("Figure 10: efficiency vs Tn (means over the 144 "
                "configs at each Tn)");
    table.setHeader({"Tn", "area um2", "power mW",
                     "area_eff inf/s/um2", "energy/inf uJ"});
    double best_area_eff = 0.0;
    double best_energy = 1e300;
    int best_area_tn = 0;
    int best_energy_tn = 0;
    for (const auto &[tn, acc] : by_tn) {
        const double area_eff = mean(acc.area_eff);
        const double energy = mean(acc.energy_per_inf);
        if (area_eff > best_area_eff) {
            best_area_eff = area_eff;
            best_area_tn = tn;
        }
        if (energy < best_energy) {
            best_energy = energy;
            best_energy_tn = tn;
        }
        table.addRow({std::to_string(tn), formatDouble(mean(acc.area), 0),
                      formatDouble(mean(acc.power), 2),
                      formatDouble(area_eff * 1e6, 3) + "e-6",
                      formatDouble(energy, 4)});
    }
    table.print(std::cout);
    args.maybeCsv(table, "fig10_tn");

    std::cout << "\nbest area efficiency at Tn=" << best_area_tn
              << ", best energy per inference at Tn=" << best_energy_tn
              << " (paper: both at Tn=16, matching the original "
                 "DianNao choice)\n";
    return 0;
}
