/**
 * @file
 * sns-router — the cluster front end (docs/cluster.md).
 *
 *   sns-router (--socket=PATH | --port=N [--host=ADDR])
 *              --worker=SPEC [--worker=SPEC ...]
 *              [--vnodes=64] [--health-period-ms=1000]
 *              [--fail-threshold=3]
 *
 * Speaks the full serve protocol to clients and consistent-hashes
 * every request across the given sns-serve workers: PREDICT by
 * design fingerprint, sessions pinned to the worker that opened
 * them. Worker specs are "unix:<path>", "tcp:<host>:<port>", or a
 * bare socket path. STATS merges all workers' snapshots; RELOAD
 * broadcasts (use `sns-cli promote` for the canary-verified rolling
 * rollout); the WORKERS verb lists the membership table. SIGTERM
 * stops cleanly — workers are independent processes and keep
 * running.
 */

#include <iostream>
#include <string>
#include <vector>

#include "cluster/router.hh"
#include "daemon_signals.hh"

namespace {

using namespace sns;

int
usage()
{
    std::cerr
        << "usage: sns-router (--socket=PATH | --port=N "
           "[--host=ADDR])\n"
           "                  --worker=SPEC [--worker=SPEC ...]\n"
           "                  [--vnodes=64] [--health-period-ms=1000]\n"
           "                  [--fail-threshold=3]\n"
           "Routes serve-protocol traffic across sns-serve workers on "
           "a\nconsistent-hash ring (docs/cluster.md): PREDICT by "
           "design\nfingerprint, sessions pinned to their opening "
           "worker. Worker SPECs\nare unix:<path>, tcp:<host>:<port>, "
           "or a bare socket path;\n--health-period-ms paces the "
           "liveness PINGs (0 disables),\n--fail-threshold marks a "
           "worker down after that many consecutive\nprobe failures, "
           "--vnodes sets ring points per worker.\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    cluster::RouterOptions options;
    std::string socket_path;
    std::string host = "127.0.0.1";
    int port = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&arg](size_t prefix) {
            return arg.substr(prefix);
        };
        try {
            if (arg.rfind("--socket=", 0) == 0) {
                socket_path = value(9);
            } else if (arg.rfind("--host=", 0) == 0) {
                host = value(7);
            } else if (arg.rfind("--port=", 0) == 0) {
                port = std::stoi(value(7));
            } else if (arg.rfind("--worker=", 0) == 0) {
                options.workers.push_back(
                    cluster::WorkerAddress::parse(value(9)));
            } else if (arg.rfind("--vnodes=", 0) == 0) {
                options.vnodes = std::stoi(value(9));
            } else if (arg.rfind("--health-period-ms=", 0) == 0) {
                options.health_period_ms = std::stoi(value(19));
            } else if (arg.rfind("--fail-threshold=", 0) == 0) {
                options.fail_threshold = std::stoi(value(17));
            } else {
                return usage();
            }
        } catch (const std::exception &e) {
            std::cerr << "sns-router: bad flag " << arg << ": "
                      << e.what() << "\n";
            return 1;
        }
    }
    if (options.workers.empty() ||
        (socket_path.empty() && port < 0))
        return usage();
    options.unix_path = socket_path;
    options.tcp_host = host;
    options.tcp_port = port < 0 ? 0 : port;

    // Before the router starts a thread: a SIGTERM from here on waits
    // for the clean stop.
    const sigset_t stop_signals = blockStopSignals();
    try {
        cluster::Router router(std::move(options));
        router.start();
        if (!router.options().unix_path.empty())
            std::cerr << "sns-router: listening on "
                      << router.options().unix_path << " ("
                      << router.options().workers.size()
                      << " workers)\n";
        else
            std::cerr << "sns-router: listening on "
                      << router.options().tcp_host << ":"
                      << router.port() << " ("
                      << router.options().workers.size()
                      << " workers)\n";

        const int sig = waitForStopSignal(stop_signals);
        std::cerr << "sns-router: signal " << sig << ", stopping...\n";
        router.stop();
        std::cerr << "sns-router: stopped, bye\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "sns-router: error: " << e.what() << "\n";
        return 1;
    }
}
