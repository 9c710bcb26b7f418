/**
 * @file
 * sns-serve — the prediction daemon (docs/serving.md).
 *
 *   sns-serve --model=DIR (--socket=PATH | --port=N [--host=ADDR])
 *             [--max-batch=16] [--linger-us=1000] [--max-queue=256]
 *             [--cache=CAP] [--threads=N] [--log-period=60]
 *             [--session-ttl=300] [--max-sessions=64]
 *
 * Loads a checkpoint trained by `sns-cli train`, listens on a
 * Unix-domain socket or TCP, and serves PREDICT / STATS / RELOAD /
 * PING — plus the edit-loop session verbs OPEN / UPDATE /
 * CLOSE (docs/editloop.md) — until SIGTERM or SIGINT, which triggers
 * a graceful drain:
 * every admitted request is answered, new work is refused with
 * DRAINING, then the process exits 0.
 */

#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "daemon_signals.hh"
#include "par/thread_pool.hh"
#include "serve/server.hh"

namespace {

using namespace sns;

int
usage()
{
    std::cerr
        << "usage: sns-serve --model=DIR (--socket=PATH | --port=N "
           "[--host=ADDR])\n"
           "                 [--max-batch=16] [--linger-us=1000] "
           "[--max-queue=256]\n"
           "                 [--cache=CAP] [--threads=N] "
           "[--log-period=60]\n"
           "                 [--session-ttl=300] [--max-sessions=64]\n"
           "Serves PREDICT/STATS/RELOAD/PING plus the edit-loop "
           "session verbs\nOPEN/UPDATE/CLOSE over the length-prefixed "
           "binary protocol\n(docs/serving.md); --session-ttl evicts "
           "idle sessions (seconds, 0=never),\n--max-sessions bounds "
           "the session table; SIGTERM drains gracefully.\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            return usage();
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
            flags[arg.substr(2)] = "1";
        else
            flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
    const auto get = [&flags](const char *key, const char *fallback) {
        const auto it = flags.find(key);
        return it == flags.end() ? std::string(fallback) : it->second;
    };
    if (!flags.count("model") ||
        (!flags.count("socket") && !flags.count("port")))
        return usage();

    // Before any thread exists (the pool below, the server's): a
    // SIGTERM from here on waits for the drain.
    const sigset_t stop_signals = blockStopSignals();
    if (flags.count("threads"))
        par::setThreads(std::stoi(get("threads", "0")));

    serve::ServerOptions options;
    options.unix_path = get("socket", "");
    options.tcp_host = get("host", "127.0.0.1");
    options.tcp_port = std::stoi(get("port", "0"));
    options.batch.max_batch =
        std::stoull(get("max-batch", "16"));
    options.batch.max_linger_us = std::stoi(get("linger-us", "1000"));
    options.batch.max_queue = std::stoull(get("max-queue", "256"));
    options.cache_capacity = std::stoull(get("cache", "1048576"));
    options.stats_log_period_s = std::stoi(get("log-period", "60"));
    options.session_ttl_s = std::stoi(get("session-ttl", "300"));
    options.max_sessions = std::stoull(get("max-sessions", "64"));

    try {
        const std::string model_dir = get("model", "");
        std::cerr << "sns-serve: loading " << model_dir << "...\n";
        auto predictor = std::make_shared<const core::SnsPredictor>(
            core::SnsPredictor::load(model_dir));

        serve::Server server(std::move(predictor), options);
        server.start();
        if (!options.unix_path.empty())
            std::cerr << "sns-serve: listening on " << options.unix_path
                      << "\n";
        else
            std::cerr << "sns-serve: listening on " << options.tcp_host
                      << ":" << server.port() << "\n";

        const int sig = waitForStopSignal(stop_signals);
        std::cerr << "sns-serve: signal " << sig << ", draining...\n";
        server.stop();
        std::cerr << "sns-serve: drained, bye\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "sns-serve: error: " << e.what() << "\n";
        return 1;
    }
}
