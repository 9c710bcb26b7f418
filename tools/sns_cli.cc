/**
 * @file
 * sns-cli — the command-line face of the library.
 *
 *   sns-cli train   --out=DIR [--dataset=paper|smoke] [--fast] [--seed=N]
 *                   [--checkpoint-dir=DIR] [--checkpoint-every=N]
 *                   [--checkpoint-keep=N] [--resume[=SRC]]
 *                   [--log-jsonl=FILE] [--promote-socket=PATH]
 *                   [--ranks=N | --world-size=N --rank=R
 *                    --rendezvous=SPEC] [--grad-slices=S]
 *   sns-cli predict --model=DIR [--precision=fp64|int8] DESIGN.{snl,v} [...]
 *   sns-cli remote-predict (--socket=PATH | --host=H --port=N) DESIGN [...]
 *   sns-cli promote --model=DIR --canary=DESIGN
 *                   (--workers=SPEC[,SPEC...] | --cluster-socket=PATH
 *                    | --cluster-host=H --cluster-port=N)
 *   sns-cli quantize --model=DIR DESIGN.{snl,v} [...]
 *   sns-cli synth   DESIGN.snl [...]
 *   sns-cli paths   DESIGN.snl [--k=5] [--limit=N]
 *   sns-cli dot     DESIGN.snl
 *
 * `train` runs the Fig.-4 flow on the built-in design dataset and
 * persists the predictor — with --checkpoint-dir it is crash-safe
 * (SIGINT checkpoints and exits; --resume continues to a bitwise-
 * identical model; docs/training.md) and with --promote-socket the
 * fresh model is hot-promoted into a running sns-serve daemon; `predict` loads it and prints area / power /
 * timing plus the located critical path for each SNL design;
 * `remote-predict` sends the same designs to a running sns-serve
 * daemon and prints the identical report; `synth` runs the reference
 * synthesizer for comparison; `paths` dumps sampled complete circuit
 * paths; `dot` emits Graphviz; `plan` prints the static analyzer's view
 * of a saved model's execution plan (docs/plan.md) and can re-emit the
 * verified .snsp.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/promote.hh"
#include "core/evaluation.hh"
#include "core/trainer.hh"
#include "designs/designs.hh"
#include "obs/metrics.hh"
#include "perf/path_cache.hh"
#include "netlist/snl_parser.hh"
#include "netlist/verilog_parser.hh"
#include "par/thread_pool.hh"
#include "sampler/path_sampler.hh"
#include "plan/snsp.hh"
#include "serve/client.hh"
#include "tensor/qgemm.hh"
#include "tensor/simd.hh"
#include "util/string_utils.hh"
#include "util/timer.hh"
#include "verify/plan_check.hh"

namespace {

using namespace sns;

struct CliArgs
{
    std::string command;
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;

    bool has(const std::string &flag) const { return flags.count(flag); }

    std::string
    get(const std::string &flag, const std::string &fallback) const
    {
        const auto it = flags.find(flag);
        return it == flags.end() ? fallback : it->second;
    }
};

CliArgs
parseArgs(int argc, char **argv)
{
    CliArgs args;
    if (argc >= 2)
        args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--")) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                args.flags[arg.substr(2)] = "1";
            else
                args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
}

/** Load .v/.sv as Verilog, anything else as SNL. */
graphir::Graph
loadDesign(const std::string &path)
{
    const auto dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot);
    if (ext == ".v" || ext == ".sv")
        return netlist::loadVerilogFile(path);
    return netlist::loadSnlFile(path);
}

/**
 * Parse a --precision flag value; exits with a usage-style message on
 * anything other than the two spellings validatePredictOptions accepts
 * (V-OPT-PRECISION is the API-level twin of this check).
 */
bool
parsePrecision(const std::string &text, core::Precision &out)
{
    if (text == "fp64") {
        out = core::Precision::Fp64;
        return true;
    }
    if (text == "int8") {
        out = core::Precision::Int8;
        return true;
    }
    std::cerr << "--precision must be fp64 or int8 (got \"" << text
              << "\")\n";
    return false;
}

/** The daemon named by --<prefix>socket=PATH, or else by
 * --<prefix>host=H (default 127.0.0.1) and --<prefix>port=N. */
serve::Endpoint
daemonEndpoint(const CliArgs &args, const std::string &prefix)
{
    serve::Endpoint endpoint;
    endpoint.unix_path = args.get(prefix + "socket", "");
    endpoint.tcp_host = args.get(prefix + "host", "127.0.0.1");
    endpoint.tcp_port = std::stoi(args.get(prefix + "port", "0"));
    return endpoint;
}

/** Wire format for a design file, mirroring loadDesign's dispatch. */
serve::DesignFormat
designFormat(const std::string &path)
{
    const auto dot = path.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : path.substr(dot);
    return (ext == ".v" || ext == ".sv") ? serve::DesignFormat::Verilog
                                         : serve::DesignFormat::Snl;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * The human-readable per-design report, shared verbatim between
 * `predict` and `remote-predict` so their outputs diff clean — the
 * smoke test relies on that to prove server results match local ones.
 */
void
printPrediction(const graphir::Graph &design,
                const core::SnsPrediction &pred)
{
    const auto &vocab = graphir::Vocabulary::instance();
    std::cout << design.name() << ": area "
              << formatDouble(pred.area_um2, 1) << " um2, power "
              << formatDouble(pred.power_mw, 4) << " mW, timing "
              << formatDouble(pred.timing_ps, 1) << " ps  ("
              << pred.paths_sampled << " paths)\n";
    std::cout << "  critical path: ";
    for (size_t i = 0; i < pred.critical_path.size(); ++i) {
        std::cout << (i ? " -> " : "")
                  << vocab.tokenString(design.token(pred.critical_path[i]));
    }
    std::cout << "\n";
}

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  sns-cli train   --out=DIR [--dataset=paper|smoke] "
           "[--fast] [--seed=N] [--threads=N]\n"
        << "                  [--checkpoint-dir=DIR] "
           "[--checkpoint-every=N] [--checkpoint-keep=N]\n"
        << "                  [--resume[=SRC]] [--log-jsonl=FILE]\n"
        << "                  [--promote-socket=PATH | "
           "--promote-host=H --promote-port=N]\n"
        << "                  [--ranks=N | --world-size=N --rank=R "
           "--rendezvous=SPEC] [--grad-slices=S]\n"
        << "  sns-cli predict --model=DIR [--threads=N] [--json] "
           "[--precision=fp64|int8] [--cache[=CAP]] [--cache-stats] "
           "DESIGN.{snl,v} [...]\n"
        << "  sns-cli remote-predict (--socket=PATH | --host=H "
           "--port=N) [--deadline-ms=N] [--precision=fp64|int8] "
           "[--stats] [--stats-json] [--session] DESIGN.{snl,v} "
           "[...]\n"
        << "  sns-cli promote --model=DIR --canary=DESIGN.{snl,v} "
           "(--workers=SPEC[,SPEC...] |\n"
        << "                  --cluster-socket=PATH | "
           "--cluster-host=H --cluster-port=N)\n"
        << "  sns-cli quantize --model=DIR DESIGN.{snl,v} [...]\n"
        << "  sns-cli synth   DESIGN.snl [...]\n"
        << "  sns-cli plan    --model=DIR [--out=FILE.snsp] [--dump]\n"
        << "  sns-cli paths   DESIGN.snl [--k=5] [--limit=20]\n"
        << "  sns-cli dot     DESIGN.snl\n"
        << "--threads=N runs on the sns::par pool (0 = all cores; "
           "results are identical at any width); SNS_THREADS sets the "
           "default.\n"
        << "--cache[=CAP] memoizes path predictions across the designs "
           "of one predict call (CAP entries, default 1M, 0 = "
           "unbounded); predictions are bitwise identical either way. "
           "--cache-stats prints hit/miss counters to stderr.\n"
        << "--precision=int8 runs the quantized inference tier "
           "(docs/quantization.md): the model directory must carry "
           "plan_int8.snsp (write it with `sns-cli quantize`), and "
           "remote-predict needs the served model to carry it too "
           "— the request fails cleanly rather than silently "
           "degrading to fp64.\n"
        << "quantize calibrates the saved model's execution plan on "
           "the given designs' activations and re-saves the directory "
           "with the int8 plan alongside the fp64 one (the fp64 path "
           "stays bitwise identical).\n"
        << "--session drives remote-predict through one server-side "
           "edit-loop session (docs/editloop.md): the first design "
           "OPENs it, each later design is an incremental UPDATE "
           "(only paths touched by the edit are re-predicted), and it "
           "is CLOSEd at the end; per-design reuse stats go to "
           "stderr. Results are bitwise identical to stateless "
           "predictions.\n"
        << "--stats-json prints the STATS reply as one flat JSON "
           "object on stdout (machine-readable twin of --stats; "
           "against an sns-router it carries the merged cluster "
           "report plus the per-worker breakdown).\n"
        << "promote rolls a candidate model across a cluster's "
           "workers one at a time (docs/cluster.md): the candidate "
           "is verified locally first, each worker RELOADs and "
           "answers the --canary design, and the reply must match "
           "the local reference bitwise or the rollout aborts with "
           "the remaining workers untouched. Workers come from "
           "--workers (comma-separated unix:<path>/tcp:<host>:<port> "
           "specs) or are discovered from a running sns-router via "
           "--cluster-socket/--cluster-host/--cluster-port.\n"
        << "--checkpoint-dir=DIR commits resumable training state "
           "every --checkpoint-every=N epochs (keeping the newest "
           "--checkpoint-keep=N checkpoint epochs); SIGINT checkpoints "
           "and exits. --resume[=SRC] continues from SRC (a "
           "directory, default the checkpoint dir, or one world-1 "
           "ckpt-NNNNNN-r00of01.ckpt file) to a "
           "bitwise-identical final model. --log-jsonl=FILE appends "
           "one JSON line per epoch. --promote-socket/--promote-host/"
           "--promote-port hot-reload the freshly saved model into a "
           "running sns-serve daemon.\n"
        << "--ranks=N forks N local data-parallel training ranks over "
           "a deterministic ring allreduce (docs/distributed.md): the "
           "final model is bitwise-identical to a single-rank run at "
           "every power-of-two N that divides --grad-slices (default "
           "8 with --ranks, --world-size or --rank, else 1). "
           "--world-size=N --rank=R --rendezvous=SPEC join one "
           "rank of an explicit multi-process ring instead (SPEC: "
           "unix:<path> or tcp:<host>:<port>); only rank 0 writes the "
           "model and talks to stdout. Checkpoints are per-rank "
           "shards (ckpt-NNNNNN-rRRofWW.ckpt) holding the ZeRO-"
           "partitioned optimizer state; --resume merges the newest "
           "complete shard set and reshards to the current rank "
           "count, so a run killed at --ranks=4 can resume at "
           "--ranks=2 bitwise-exactly. SIGINT triggers a coherent "
           "stop vote: every rank checkpoints the same epoch before "
           "exit 3.\n";
    return 1;
}

/** Set by the SIGINT handler; the stop-flag sink polls it so Ctrl-C
 * finishes the current epoch, checkpoints, and exits cleanly. */
volatile std::sig_atomic_t g_interrupted = 0;

void
onSigint(int)
{
    g_interrupted = 1;
}

/** Turns SIGINT into a graceful stop request. */
struct StopFlagSink : core::TrainProgressSink
{
    bool
    onEpoch(const core::EpochProgress &) override
    {
        return g_interrupted == 0;
    }
};

int cmdTrain(const CliArgs &args);

/** Child pids of the --ranks launcher, so the SIGINT handler can
 * forward a targeted kill -INT (a terminal Ctrl-C already reaches the
 * whole foreground process group). */
std::vector<pid_t> g_rank_pids;

void
onLauncherSigint(int sig)
{
    for (const pid_t pid : g_rank_pids)
        kill(pid, sig);
}

/**
 * --ranks=N: fork N local training ranks wired into one ring
 * (docs/distributed.md). Every child runs the full train flow at world
 * N — only rank 0 talks to stdout, saves the model, and promotes; the
 * launcher's exit code is the worst child's. On SIGINT the ranks vote
 * a coherent stop, every rank commits its shard for the same epoch,
 * and the launcher prints the resume hint.
 */
int
launchTrainRanks(const CliArgs &args, int ranks)
{
    std::string rendezvous = args.get("rendezvous", "");
    if (rendezvous.empty()) {
        rendezvous = "unix:" +
                     (std::filesystem::temp_directory_path() /
                      ("sns-ring-" + std::to_string(getpid())))
                         .string();
    }
    for (int r = 0; r < ranks; ++r) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::cerr << "fork failed for rank " << r << "\n";
            for (const pid_t child : g_rank_pids)
                kill(child, SIGTERM);
            return 1;
        }
        if (pid == 0) {
            CliArgs child = args;
            child.flags.erase("ranks");
            child.flags["world-size"] = std::to_string(ranks);
            child.flags["rank"] = std::to_string(r);
            child.flags["rendezvous"] = rendezvous;
            std::exit(cmdTrain(child));
        }
        g_rank_pids.push_back(pid);
    }
    std::signal(SIGINT, onLauncherSigint);
    int worst = 0;
    for (const pid_t pid : g_rank_pids) {
        int status = 0;
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR)
            continue;
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
        worst = std::max(worst, code);
    }
    if (worst == 3) {
        std::cerr << "interrupted: every rank committed its checkpoint "
                     "shard for the same epoch; rerun the same command "
                     "with --resume to continue bitwise-exactly\n";
    }
    return worst;
}

int
cmdTrain(const CliArgs &args)
{
    if (!args.has("out")) {
        std::cerr << "train requires --out=DIR\n";
        return 1;
    }
    const uint64_t seed = std::stoull(args.get("seed", "7"));
    const bool fast = args.has("fast");
    const std::string which = args.get("dataset", "paper");
    if (args.has("threads"))
        par::setThreads(std::stoi(args.get("threads", "0")));

    // Distributed data-parallel training (docs/distributed.md):
    // --ranks forks a local ring; --world-size/--rank/--rendezvous
    // join one rank of an explicit multi-process ring.
    const int ranks = std::stoi(args.get("ranks", "1"));
    if (ranks > 1 && !args.has("rank"))
        return launchTrainRanks(args, ranks);
    const bool multi_rank = args.has("ranks") || args.has("world-size") ||
                            args.has("rank");
    const int world_size = std::stoi(args.get("world-size", "1"));
    const int rank = std::stoi(args.get("rank", "0"));
    if (rank < 0 || rank >= world_size) {
        std::cerr << "--rank must be in [0, --world-size)\n";
        return 1;
    }

    synth::Synthesizer oracle{synth::SynthesisOptions{}};
    const auto specs = which == "smoke"
                           ? designs::DesignLibrary::smokeSet()
                           : designs::DesignLibrary::paperDataset();
    if (rank == 0)
        std::cerr << "synthesizing the " << specs.size()
                  << "-design dataset...\n";
    const auto dataset =
        core::HardwareDesignDataset::build(specs, oracle);
    std::vector<size_t> all_indices;
    for (size_t i = 0; i < dataset.size(); ++i)
        all_indices.push_back(i);

    core::TrainerConfig config =
        fast ? core::TrainerConfig::fast() : core::TrainerConfig();
    if (!fast) {
        // A balanced single-core default (the full Table-6 schedule is
        // available through the bench harnesses' --full).
        config.circuitformer_epochs = 24;
        config.model.encoder.d_model = 64;
        config.model.encoder.d_ff = 256;
        config.mlp.epochs = 4096;
        config.path_data.max_paths_per_design = 48;
        config.path_data.markov_paths = 192;
        config.path_data.seqgan_paths = 256;
    }
    config.seed = seed;

    // Checkpointing / resume (docs/training.md).
    config.checkpoint_dir = args.get("checkpoint-dir", "");
    config.checkpoint_every =
        std::stoi(args.get("checkpoint-every", "1"));
    config.checkpoint_keep = std::stoi(args.get("checkpoint-keep", "3"));
    if (args.has("resume")) {
        const std::string resume = args.get("resume", "1");
        // Bare --resume parses as "1": continue from the checkpoint dir.
        config.resume_from = resume == "1" ? config.checkpoint_dir : resume;
        if (config.resume_from.empty()) {
            std::cerr << "--resume needs a source: --resume=SRC or "
                         "--checkpoint-dir=DIR\n";
            return 1;
        }
    }

    // Any rank flag defaults to 8 slices, the bitwise anchor: worlds
    // 1, 2, 4, and 8 all reduce to the same gradient bits, so --ranks=1
    // trains the model --ranks=2 does (docs/distributed.md). A plain
    // train keeps one slice.
    config.dist.grad_slices =
        std::stoi(args.get("grad-slices", multi_rank ? "8" : "1"));
    config.dist.world_size = world_size;
    config.dist.rank = rank;
    config.dist.rendezvous = args.get("rendezvous", "");

    // Progress sinks: stderr table + SIGINT stop flag, and optionally
    // a JSONL epoch log. Only rank 0 renders the table — every rank
    // sees identical losses, and the stop flag on each rank feeds the
    // ring's coherent stop vote.
    core::StderrProgressSink table;
    StopFlagSink stop_flag;
    std::unique_ptr<core::JsonlProgressSink> jsonl;
    std::vector<core::TrainProgressSink *> sinks;
    if (rank == 0)
        sinks.push_back(&table);
    sinks.push_back(&stop_flag);
    if (args.has("log-jsonl") && rank == 0) {
        jsonl = std::make_unique<core::JsonlProgressSink>(
            args.get("log-jsonl", ""));
        sinks.push_back(jsonl.get());
    }
    core::TeeProgressSink sink(sinks);
    config.progress = &sink;
    std::signal(SIGINT, onSigint);

    if (rank == 0)
        std::cerr << "training...\n";
    WallTimer timer;
    core::SnsTrainer trainer(config);
    std::unique_ptr<core::SnsPredictor> predictor;
    try {
        predictor = std::make_unique<core::SnsPredictor>(
            trainer.train(dataset, all_indices, oracle));
    } catch (const core::TrainingInterrupted &interrupted) {
        if (rank != 0)
            return 3;
        std::cerr << "interrupted: " << interrupted.what() << "\n";
        if (!interrupted.checkpointPath().empty()) {
            std::cerr << "resume with: sns-cli train --out="
                      << args.get("out", "") << " --checkpoint-dir="
                      << config.checkpoint_dir
                      << (multi_rank
                              ? " --ranks=" + std::to_string(world_size)
                              : "")
                      << (args.has("grad-slices")
                              ? " --grad-slices=" +
                                    args.get("grad-slices", "")
                              : "")
                      << " --resume ...\n";
        }
        return 3;
    }
    const double wall = timer.seconds();
    if (rank != 0)
        return 0; // rank 0 owns stdout, the saved model, and promotion
    predictor->save(args.get("out", ""));
    std::cout << "trained on " << dataset.size() << " designs in "
              << formatDouble(wall, 1) << " s; model saved to "
              << args.get("out", "") << "\n";

    if (!config.checkpoint_dir.empty()) {
        // The checkpoint cost, from the same obs instruments the STATS
        // verb exposes (EXPERIMENTS.md records these numbers).
        const auto written = obs::Registry::global()
                                 .histogram("train.checkpoint_write_us")
                                 .snapshot();
        const double total_s = static_cast<double>(written.sum) / 1e6;
        std::cout << written.count << " checkpoints written in "
                  << formatDouble(total_s, 3) << " s total ("
                  << formatDouble(wall > 0.0 ? 100.0 * total_s / wall
                                             : 0.0,
                                  2)
                  << "% of wall time)\n";
    }

    // Hot-promote the fresh model into a running sns-serve daemon.
    if (args.has("promote-socket") || args.has("promote-port")) {
        auto client =
            serve::Client::connect(daemonEndpoint(args, "promote-"));
        const std::string error = client.reload(args.get("out", ""));
        if (!error.empty()) {
            std::cerr << "promotion failed: " << error << "\n";
            return 2;
        }
        std::cout << "model promoted into the serve daemon\n";
    }
    return 0;
}

int
cmdPredict(const CliArgs &args)
{
    if (!args.has("model") || args.positional.empty()) {
        std::cerr << "predict requires --model=DIR and at least one "
                     ".snl file\n";
        return 1;
    }
    const auto predictor = core::SnsPredictor::load(args.get("model", ""));
    const auto &vocab = graphir::Vocabulary::instance();
    const bool json = args.has("json");

    std::vector<graphir::Graph> designs;
    designs.reserve(args.positional.size());
    for (const auto &path : args.positional)
        designs.push_back(loadDesign(path));
    std::vector<const graphir::Graph *> graphs;
    graphs.reserve(designs.size());
    for (const auto &design : designs)
        graphs.push_back(&design);

    core::PredictOptions options;
    if (args.has("threads"))
        options.threads = std::stoi(args.get("threads", "0"));
    if (!parsePrecision(args.get("precision", "fp64"),
                        options.precision))
        return 1;
    std::unique_ptr<perf::PathPredictionCache> cache;
    if (args.has("cache") || args.has("cache-stats")) {
        perf::PathCacheOptions copts;
        const std::string cap = args.get("cache", "1");
        if (cap != "1") // --cache with no value parses as "1"
            copts.capacity = std::stoull(cap);
        cache = std::make_unique<perf::PathPredictionCache>(copts);
        options.cache = cache.get();
    }
    // Declared intent, checked centrally by validatePredictOptions —
    // API callers who set cache_stats without a cache get V-OPT-CACHE
    // instead of silence (the CLI always builds the cache above).
    options.cache_stats = args.has("cache-stats");
    WallTimer timer;
    const auto preds = predictor.predictBatch(graphs, options);
    const double elapsed = timer.seconds();

    if (cache && args.has("cache-stats")) {
        // The same canonical rendering the server's STATS verb uses,
        // so humans and scrapers read one format everywhere.
        std::cerr << obs::formatCacheStats(cache->stats());
    }

    if (json)
        std::cout << "[\n";
    for (size_t d = 0; d < designs.size(); ++d) {
        const auto &design = designs[d];
        const auto &pred = preds[d];
        if (json) {
            std::cout << "  {\"design\": \"" << design.name()
                      << "\", \"area_um2\": " << pred.area_um2
                      << ", \"power_mw\": " << pred.power_mw
                      << ", \"timing_ps\": " << pred.timing_ps
                      << ", \"paths_sampled\": " << pred.paths_sampled
                      << ", \"critical_path\": [";
            for (size_t i = 0; i < pred.critical_path.size(); ++i) {
                std::cout << (i ? ", " : "") << "\""
                          << vocab.tokenString(
                                 design.token(pred.critical_path[i]))
                          << "\"";
            }
            std::cout << "]}" << (d + 1 < designs.size() ? "," : "")
                      << "\n";
            continue;
        }
        printPrediction(design, pred);
    }
    if (json)
        std::cout << "]\n";
    else
        std::cout << designs.size() << " designs predicted in "
                  << formatDouble(elapsed, 3) << " s on "
                  << par::configuredThreads() << " thread(s)\n";
    return 0;
}

int
cmdRemotePredict(const CliArgs &args)
{
    const bool have_socket = args.has("socket");
    const bool have_port = args.has("port");
    if ((!have_socket && !have_port) ||
        (args.positional.empty() && !args.has("stats") &&
         !args.has("stats-json"))) {
        std::cerr << "remote-predict requires --socket=PATH or "
                     "--host=H --port=N, plus design files (or "
                     "--stats / --stats-json)\n";
        return 1;
    }
    core::Precision precision = core::Precision::Fp64;
    if (!parsePrecision(args.get("precision", "fp64"), precision))
        return 1;
    auto client = serve::Client::connect(daemonEndpoint(args, ""));
    // A server from a build with another protocol version fails here,
    // by name, before any request could be misparsed.
    client.hello();

    const uint32_t deadline_ms =
        static_cast<uint32_t>(std::stoul(args.get("deadline-ms", "0")));
    WallTimer timer;
    size_t predicted = 0;

    if (args.has("session")) {
        // Edit-loop mode: one server-side session across all designs —
        // the first OPENs, later ones are incremental UPDATEs.
        uint64_t session_id = 0;
        for (const auto &path : args.positional) {
            const auto reply =
                session_id == 0
                    ? client.openSession(readWholeFile(path),
                                         designFormat(path), precision)
                    : client.updateSession(session_id,
                                           readWholeFile(path),
                                           designFormat(path),
                                           precision);
            if (reply.status != serve::Status::Ok) {
                std::cerr << path << ": "
                          << serve::statusName(reply.status)
                          << (reply.message.empty() ? "" : ": ")
                          << reply.message << "\n";
                return 2;
            }
            session_id = reply.session_id;
            const auto design = loadDesign(path);
            printPrediction(design, reply.prediction);
            std::cerr << "  session: "
                      << (reply.diff.noop ? "no-op edit, " : "")
                      << reply.diff.paths_reused << "/"
                      << reply.diff.paths_total << " paths reused, "
                      << reply.diff.modules_changed
                      << " module(s) changed\n";
            ++predicted;
        }
        if (session_id != 0) {
            const std::string error = client.closeSession(session_id);
            if (!error.empty())
                std::cerr << "session close failed: " << error << "\n";
        }
    } else {
        for (const auto &path : args.positional) {
            const auto reply =
                client.predict(readWholeFile(path), designFormat(path),
                               deadline_ms, precision);
            if (reply.status != serve::Status::Ok) {
                std::cerr << path << ": "
                          << serve::statusName(reply.status)
                          << (reply.message.empty() ? "" : ": ")
                          << reply.message << "\n";
                return 2;
            }
            // Parse locally only to render token names; the numbers
            // and node ids come straight off the wire.
            const auto design = loadDesign(path);
            printPrediction(design, reply.prediction);
            ++predicted;
        }
    }
    if (args.has("stats"))
        std::cerr << client.stats();
    if (args.has("stats-json"))
        std::cout << obs::statsJson(client.stats()) << "\n";
    if (predicted > 0)
        std::cout << predicted << " designs predicted in "
                  << formatDouble(timer.seconds(), 3)
                  << " s by the remote server\n";
    return 0;
}

/**
 * Roll a candidate model across a cluster's workers with a bitwise
 * canary gate (docs/cluster.md). The worker list comes from
 * --workers=SPEC[,SPEC...] or is discovered from a running sns-router
 * (--cluster-socket / --cluster-host + --cluster-port) via the
 * WORKERS verb. Exit 0 on a full rollout, 2 on an abort (the report
 * says which worker and why; un-walked workers keep the old model).
 */
int
cmdPromote(const CliArgs &args)
{
    if (!args.has("model") || !args.has("canary")) {
        std::cerr << "promote requires --model=DIR and "
                     "--canary=DESIGN.{snl,v}\n";
        return 1;
    }
    const bool have_list = args.has("workers");
    const bool have_router =
        args.has("cluster-socket") || args.has("cluster-port");
    if (have_list == have_router) {
        std::cerr << "promote needs exactly one worker source: "
                     "--workers=SPEC[,SPEC...] or a router "
                     "(--cluster-socket=PATH | --cluster-host=H "
                     "--cluster-port=N)\n";
        return 1;
    }

    cluster::PromoteOptions options;
    options.checkpoint_dir = args.get("model", "");
    const std::string canary_path = args.get("canary", "");
    options.canary_source = readWholeFile(canary_path);
    options.canary_format = designFormat(canary_path);

    if (have_list) {
        const std::string list = args.get("workers", "");
        size_t start = 0;
        while (start <= list.size()) {
            size_t comma = list.find(',', start);
            if (comma == std::string::npos)
                comma = list.size();
            const std::string spec =
                list.substr(start, comma - start);
            if (!spec.empty())
                options.workers.push_back(
                    cluster::WorkerAddress::parse(spec));
            start = comma + 1;
        }
    } else {
        // Ask the router who its workers are.
        auto router =
            serve::Client::connect(daemonEndpoint(args, "cluster-"));
        router.hello();
        const serve::WorkersReply reply = router.workers();
        if (reply.status != serve::Status::Ok) {
            std::cerr << "promote: WORKERS failed: "
                      << serve::statusName(reply.status)
                      << (reply.message.empty() ? "" : ": ")
                      << reply.message << "\n";
            return 2;
        }
        for (const auto &endpoint : reply.workers)
            options.workers.push_back(
                cluster::WorkerAddress::parse(endpoint.address));
    }
    if (options.workers.empty()) {
        std::cerr << "promote: no workers to roll\n";
        return 1;
    }

    const cluster::PromoteReport report =
        cluster::rollingPromote(options);
    for (const auto &line : report.log)
        std::cout << line << "\n";
    if (!report.ok) {
        std::cerr << "promotion aborted after "
                  << report.workers_promoted << "/"
                  << options.workers.size()
                  << " worker(s): " << report.error << "\n";
        return 2;
    }
    std::cout << "promoted " << report.workers_promoted << "/"
              << options.workers.size()
              << " workers, canary bitwise-verified on each\n";
    return 0;
}

/**
 * Calibrate the saved model on the given designs and re-save the
 * directory with plan_int8.snsp alongside the fp64 artifacts
 * (docs/quantization.md). The fp64 model files are rewritten
 * bitwise-identically; only the quantized plan is new.
 */
int
cmdQuantize(const CliArgs &args)
{
    if (!args.has("model") || args.positional.empty()) {
        std::cerr << "quantize requires --model=DIR and at least one "
                     "calibration design\n";
        return 1;
    }
    auto predictor = core::SnsPredictor::load(args.get("model", ""));

    std::vector<graphir::Graph> designs;
    designs.reserve(args.positional.size());
    for (const auto &path : args.positional)
        designs.push_back(loadDesign(path));
    std::vector<const graphir::Graph *> graphs;
    graphs.reserve(designs.size());
    for (const auto &design : designs)
        graphs.push_back(&design);

    WallTimer timer;
    predictor.quantize(graphs);
    predictor.save(args.get("model", ""));
    std::cout << "calibrated on " << designs.size() << " design(s) in "
              << formatDouble(timer.seconds(), 3)
              << " s; quantized plan saved to " << args.get("model", "")
              << "/plan_int8.snsp\n";
    return 0;
}

int
cmdSynth(const CliArgs &args)
{
    if (args.positional.empty()) {
        std::cerr << "synth requires at least one .snl file\n";
        return 1;
    }
    synth::Synthesizer oracle{synth::SynthesisOptions{}};
    for (const auto &path : args.positional) {
        const auto design = loadDesign(path);
        WallTimer timer;
        const auto result = oracle.run(design);
        std::cout << design.name() << ": area "
                  << formatDouble(result.area_um2, 1) << " um2, power "
                  << formatDouble(result.power_mw, 4) << " mW, timing "
                  << formatDouble(result.timing_ps, 1) << " ps, "
                  << formatEng(result.gate_count) << " gates  ("
                  << formatDouble(timer.seconds(), 3) << " s)\n";
    }
    return 0;
}

/**
 * Trace/verify the execution plan of a saved model: print the static
 * analyzer's findings (including the arena/zero-allocation note) and
 * optionally re-serialize the verified plan to --out.
 */
int
cmdPlan(const CliArgs &args)
{
    if (!args.has("model")) {
        std::cerr << "plan requires --model=DIR\n";
        return 1;
    }
    // load() verifies plan.snsp when present (or traces in memory) and
    // binds the compiled plan; surface exactly what got bound.
    const auto predictor = core::SnsPredictor::load(args.get("model", ""));
    const auto &compiled = predictor.circuitformer().boundPlan();
    const plan::Plan &traced = compiled->plan();

    verify::Report report = verify::checkPlan(traced);
    const verify::PlanLayout layout =
        verify::computePlanLayout(traced, report);
    std::cout << "plan: " << traced.ops.size() << " ops, "
              << traced.buffers.size() << " buffers, "
              << traced.weights.size() << " weight refs; arena "
              << layout.total_floats << " floats ("
              << layout.total_floats * sizeof(float) / 1024
              << " KiB), batch_max " << traced.config.batch_max << "\n";
    // The rung each kernel family runs on: the float kernels top out
    // at AVX-512, the integer GEMM climbs to the AMX tiles.
    const int float_level =
        std::min(tensor::simdLevel(), tensor::kSimdAvx512);
    const tensor::AmxTileData tiles = tensor::amxTileData();
    const char *tile_state =
        tiles == tensor::AmxTileData::Granted   ? "granted"
        : tiles == tensor::AmxTileData::Refused ? "refused"
                                                : "not requested";
    std::cout << "simd: fp32 gemm/tanh "
              << tensor::simdLevelName(float_level) << ", qgemm "
              << tensor::simdLevelName(tensor::qgemmLevel())
              << "; AMX tile data " << tile_state << "\n";
    report.print(std::cout, /*include_notes=*/true);

    if (args.has("dump")) {
        for (size_t i = 0; i < traced.ops.size(); ++i) {
            const plan::Op &op = traced.ops[i];
            std::cout << "  %" << op.out << " = "
                      << plan::opKindName(op.kind);
            if (op.epilogue != plan::Epilogue::None)
                std::cout << "+" << plan::epilogueName(op.epilogue);
            for (const uint32_t input : op.inputs)
                std::cout << " %" << input;
            std::cout << "  " << plan::toString(traced.buffers[op.out])
                      << "\n";
        }
    }
    if (report.hasErrors())
        return 1;
    if (args.has("out")) {
        const std::string out_path = args.get("out", "");
        plan::writePlanFile(traced, out_path);
        std::cout << "wrote " << out_path << "\n";
    }
    return 0;
}

int
cmdPaths(const CliArgs &args)
{
    if (args.positional.empty()) {
        std::cerr << "paths requires an .snl file\n";
        return 1;
    }
    const auto design = loadDesign(args.positional[0]);
    sampler::SamplerOptions sopts;
    sopts.k = std::stod(args.get("k", "5"));
    const size_t limit = std::stoull(args.get("limit", "20"));
    const auto paths = sampler::PathSampler(sopts).sample(design);
    const auto &vocab = graphir::Vocabulary::instance();
    std::cout << paths.size() << " complete circuit paths sampled (k="
              << sopts.k << "); showing up to " << limit << ":\n";
    for (size_t p = 0; p < paths.size() && p < limit; ++p) {
        std::cout << "  [";
        for (size_t i = 0; i < paths[p].tokens.size(); ++i) {
            std::cout << (i ? ", " : "")
                      << vocab.tokenString(paths[p].tokens[i]);
        }
        std::cout << "]\n";
    }
    return 0;
}

int
cmdDot(const CliArgs &args)
{
    if (args.positional.empty()) {
        std::cerr << "dot requires an .snl file\n";
        return 1;
    }
    const auto design = loadDesign(args.positional[0]);
    design.writeDot(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parseArgs(argc, argv);
    try {
        if (args.command == "train")
            return cmdTrain(args);
        if (args.command == "predict")
            return cmdPredict(args);
        if (args.command == "remote-predict")
            return cmdRemotePredict(args);
        if (args.command == "promote")
            return cmdPromote(args);
        if (args.command == "quantize")
            return cmdQuantize(args);
        if (args.command == "synth")
            return cmdSynth(args);
        if (args.command == "plan")
            return cmdPlan(args);
        if (args.command == "paths")
            return cmdPaths(args);
        if (args.command == "dot")
            return cmdDot(args);
    } catch (const std::exception &e) {
        // Front-end parse errors (SnlError, VerilogError) and internal
        // invariant failures all derive from std::exception.
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
