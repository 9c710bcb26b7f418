/**
 * @file
 * Edit-loop session harness (docs/editloop.md §Benchmark).
 *
 * The paper's headline use case (§1) is the interactive loop: a
 * designer tweaks one RTL module, re-predicts, and repeats. This
 * harness scripts exactly that — a 12-module design where one module
 * is edited 100 times, every other module untouched — and races two
 * workflows over the identical revision sequence:
 *
 *   cold    — the stateless workflow: every revision pays a full
 *             uncached predictBatch (re-sample + re-score every path);
 *   session — SnsDesignSession via PredictOptions::session: the first
 *             revision OPENs, each edit is an incremental update that
 *             replays untouched paths from the session's pinned cache
 *             and pays the Circuitformer only inside the edit cone.
 *
 * Every session prediction is checked bitwise against its cold twin —
 * incrementality must be a pure performance move. The harness also
 * verifies the rename fast path (a no-op revision must report noop
 * with zero recompute). Headline gate: the session loop must finish
 * the 100-edit script >= 5x faster than the cold loop,
 * bitwise-identical. The harness exits 1 when any of the three fails.
 */

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/design_session.hh"
#include "core/trainer.hh"
#include "netlist/snl_parser.hh"
#include "util/string_utils.hh"

namespace {

using namespace sns;
using Clock = std::chrono::steady_clock;

constexpr int kModules = 12;  ///< FIR blocks, one SNL module each
constexpr int kEdited = 5;    ///< the module the designer keeps tweaking
constexpr int kEdits = 100;   ///< update() calls after the open()

/**
 * One revision of the design: 12 independent FIR blocks, each inside
 * its own `module` scope. Block `kEdited` is parameterized by the edit
 * counter (tap count and width both move), every other block is fixed
 * — exactly the "tweak one module" shape the session is built for.
 */
std::string
designSource(int edit)
{
    std::ostringstream out;
    out << "design editloop\n";
    for (int m = 0; m < kModules; ++m) {
        int taps = 3 + m % 3;
        int width = 8 + 2 * (m % 5);
        if (m == kEdited) {
            taps = 3 + edit % 4;
            width = 6 + 2 * (edit % 12);
        }
        const int acc = 2 * width;
        out << "module fir" << m << "\n";
        out << "input  x" << m << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "reg    c" << m << "_" << t << " " << width << "\n";
        for (int t = 0; t < taps; ++t)
            out << "node   p" << m << "_" << t << " mul " << acc << " x"
                << m << " c" << m << "_" << t << "\n";
        out << "reg    z" << m << "_0 " << acc << " p" << m << "_0\n";
        for (int t = 1; t < taps; ++t) {
            out << "node   s" << m << "_" << t << " add " << acc << " p"
                << m << "_" << t << " z" << m << "_" << t - 1 << "\n";
            out << "reg    z" << m << "_" << t << " " << acc << " s"
                << m << "_" << t << "\n";
        }
        out << "output y" << m << " " << acc << " z" << m << "_"
            << taps - 1 << "\n";
    }
    return out.str();
}

bool
samePrediction(const core::SnsPrediction &a,
               const core::SnsPrediction &b)
{
    return a.timing_ps == b.timing_ps && a.area_um2 == b.area_um2 &&
           a.power_mw == b.power_mw &&
           a.paths_sampled == b.paths_sampled &&
           a.critical_path == b.critical_path;
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

    // A quick model is plenty: reuse mechanics do not depend on the
    // weights, and both loops run the same predictor object.
    synth::SynthesisOptions oracle_opts;
    oracle_opts.effort = 0.1;
    synth::Synthesizer oracle(oracle_opts);
    std::cerr << "[bench] training the edit-loop model...\n";
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
    const auto predictor = trainer.train(dataset, train_idx, oracle);

    // Revision 0 opens the session; revisions 1..kEdits are the edits.
    std::cerr << "[bench] parsing " << (kEdits + 1)
              << " revisions of the " << kModules
              << "-module design...\n";
    std::vector<graphir::Graph> revisions;
    revisions.reserve(kEdits + 1);
    for (int edit = 0; edit <= kEdits; ++edit)
        revisions.push_back(netlist::parseSnl(designSource(edit)));

    // Cold loop: the stateless workflow, full work per revision.
    std::cerr << "[bench] cold loop (" << (kEdits + 1)
              << " full predictions)...\n";
    std::vector<core::SnsPrediction> cold;
    cold.reserve(revisions.size());
    const auto cold_start = Clock::now();
    for (const auto &revision : revisions)
        cold.push_back(predictor.predict(revision));
    const double cold_s =
        std::chrono::duration<double>(Clock::now() - cold_start)
            .count();

    // Session loop over the identical revisions, driven through the
    // public PredictOptions::session routing (the API the CLI and the
    // server use), checked bitwise against the cold twin as it goes.
    std::cerr << "[bench] session loop (open + " << kEdits
              << " updates)...\n";
    core::SnsDesignSession session;
    core::PredictOptions options;
    options.session = &session;
    bool bitwise = true;
    double reuse_sum = 0.0;
    const auto session_start = Clock::now();
    for (size_t i = 0; i < revisions.size(); ++i) {
        const auto prediction =
            predictor.predict(revisions[i], options);
        bitwise = bitwise && samePrediction(prediction, cold[i]);
        if (i > 0)
            reuse_sum += session.lastDiff().reuseRate();
    }
    const double session_s =
        std::chrono::duration<double>(Clock::now() - session_start)
            .count();
    const double reuse_mean = reuse_sum / kEdits;

    // The rename fast path: re-submitting the last revision unchanged
    // must short-circuit on the fingerprint — no resample, no model.
    const auto noop = predictor.predict(revisions.back(), options);
    const bool noop_ok = samePrediction(noop, cold.back()) &&
                         session.lastDiff().noop &&
                         session.lastDiff().paths_recomputed == 0;
    session.close();

    const double speedup = session_s > 0.0 ? cold_s / session_s : 0.0;

    Table table("edit loop: cold predictBatch vs SnsDesignSession");
    table.setHeader({"workflow", "revisions", "seconds", "per_edit_ms",
                     "reuse"});
    table.addRow({"cold", std::to_string(kEdits + 1),
                  formatDouble(cold_s, 2),
                  formatDouble(1e3 * cold_s / (kEdits + 1), 1), "-"});
    table.addRow({"session", std::to_string(kEdits + 1),
                  formatDouble(session_s, 2),
                  formatDouble(1e3 * session_s / (kEdits + 1), 1),
                  formatDouble(reuse_mean, 3)});
    table.print(std::cout);
    args.maybeCsv(table, "edit_loop");

    std::cout << "session updates bitwise identical to cold: "
              << (bitwise ? "yes" : "NO")
              << "\nno-op revision took the fingerprint fast path: "
              << (noop_ok ? "yes" : "NO") << "\n";
    const bool session_pays =
        bench::gate("session vs cold speedup", speedup, 5.0, "x");
    return bitwise && noop_ok && session_pays ? 0 : 1;
}
