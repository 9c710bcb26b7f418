/**
 * @file
 * sns-dataset — export the paper's two datasets to CSV.
 *
 *   sns-dataset designs [--out=FILE] [--smoke]
 *       the Hardware Design Dataset (Table 4: design, timing, area,
 *       power, plus structural statistics)
 *   sns-dataset paths   [--out=FILE] [--smoke] [--per-design=N]
 *       the Circuit Path Dataset (Table 5: token sequence, timing,
 *       area, power), direct samples only (augmentation is a training
 *       concern; see core::buildCircuitPathDataset)
 *
 * Both default to the 41-design dataset; --smoke uses the 10-design
 * subset for a fast dump.
 */

#include <iostream>
#include <map>
#include <string>

#include "designs/designs.hh"
#include "par/thread_pool.hh"
#include "sampler/path_sampler.hh"
#include "synth/synthesizer.hh"
#include "util/string_utils.hh"
#include "util/table.hh"

namespace {

using namespace sns;

std::map<std::string, std::string>
parseFlags(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!startsWith(arg, "--"))
            continue;
        const auto eq = arg.find('=');
        flags[arg.substr(2, eq == std::string::npos ? eq : eq - 2)] =
            eq == std::string::npos ? std::string("1") : arg.substr(eq + 1);
    }
    return flags;
}

void
emit(const Table &table, const std::map<std::string, std::string> &flags)
{
    const auto it = flags.find("out");
    if (it != flags.end()) {
        table.writeCsv(it->second);
        std::cerr << "wrote " << it->second << "\n";
    } else {
        table.printCsv(std::cout);
    }
}

int
dumpDesigns(const std::map<std::string, std::string> &flags)
{
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};
    const auto specs = flags.count("smoke")
                           ? designs::DesignLibrary::smokeSet()
                           : designs::DesignLibrary::paperDataset();
    Table table;
    table.setHeader({"design", "base", "category", "timing_ps",
                     "area_um2", "power_mw", "gates", "nodes", "edges"});
    // Characterize every design on the pool; rows land in spec order.
    std::vector<std::vector<std::string>> rows(specs.size());
    par::parallelFor(specs.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const auto graph = specs[i].build();
            const auto result = oracle.run(graph);
            rows[i] = {specs[i].name, specs[i].base, specs[i].category,
                       formatDouble(result.timing_ps, 2),
                       formatDouble(result.area_um2, 2),
                       formatDouble(result.power_mw, 5),
                       formatDouble(result.gate_count, 0),
                       std::to_string(graph.numNodes()),
                       std::to_string(graph.numEdges())};
        }
    });
    for (auto &row : rows)
        table.addRow(std::move(row));
    emit(table, flags);
    return 0;
}

int
dumpPaths(const std::map<std::string, std::string> &flags)
{
    const synth::Synthesizer oracle{synth::SynthesisOptions{}};
    const auto specs = flags.count("smoke")
                           ? designs::DesignLibrary::smokeSet()
                           : designs::DesignLibrary::paperDataset();
    size_t per_design = 16;
    if (flags.count("per-design"))
        per_design = std::stoull(flags.at("per-design"));

    const auto &vocab = graphir::Vocabulary::instance();
    Table table;
    table.setHeader({"design", "path", "timing_ps", "area_um2",
                     "power_mw"});
    // Sample per design on the pool, then label all paths in one
    // parallel oracle batch; output order stays design-then-path.
    std::vector<std::vector<sampler::SampledPath>> per(specs.size());
    par::parallelFor(specs.size(), [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            const auto graph = specs[i].build();
            sampler::SamplerOptions sopts;
            sopts.max_paths_per_source = 2;
            sopts.max_total_paths = per_design;
            per[i] = sampler::PathSampler(sopts).sample(graph);
        }
    });
    std::vector<std::vector<graphir::TokenId>> all_tokens;
    for (const auto &paths : per)
        for (const auto &path : paths)
            all_tokens.push_back(path.tokens);
    const auto labels = oracle.runPaths(all_tokens);
    size_t cursor = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        for (const auto &path : per[i]) {
            const auto &label = labels[cursor++];
            std::vector<std::string> names;
            for (graphir::TokenId token : path.tokens)
                names.push_back(vocab.tokenString(token));
            std::string tokens = "[";
            tokens += join(names, " ");
            tokens += ']';
            table.addRow({specs[i].name, tokens,
                          formatDouble(label.timing_ps, 2),
                          formatDouble(label.area_um2, 3),
                          formatDouble(label.power_mw, 6)});
        }
    }
    emit(table, flags);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string command = argc >= 2 ? argv[1] : "";
    const auto flags = parseFlags(argc, argv);
    if (flags.count("threads"))
        sns::par::setThreads(std::stoi(flags.at("threads")));
    if (command == "designs")
        return dumpDesigns(flags);
    if (command == "paths")
        return dumpPaths(flags);
    std::cerr << "usage: sns-dataset designs|paths [--out=FILE] "
                 "[--smoke] [--per-design=N] [--threads=N]\n";
    return 1;
}
