/**
 * @file
 * sns-serve — the long-lived prediction daemon (docs/serving.md).
 *
 * One process holds one trained SnsPredictor, one shared
 * perf::PathPredictionCache, and one MicroBatcher. A listener thread
 * accepts Unix-domain or TCP connections; each connection gets a
 * handler thread that decodes frames, parses PREDICT design sources
 * into graphs, and submits tickets to the batcher (the accept loop
 * and connection threads are serve::ConnectionListener's). The batcher's
 * executor coalesces concurrent tickets into single predictBatch
 * calls, so N clients cost one padded Circuitformer pass per batch
 * instead of N process spin-ups — the PR 2 batch API and PR 3 warm
 * cache finally serve traffic the way the ROADMAP intends.
 *
 * Model lifecycle: RELOAD stages a freshly-loaded checkpoint; the
 * *executor* swaps it in between batches (an atomic pointer swap plus
 * a cache clear/re-bind), so no batch ever mixes models, no in-flight
 * request is dropped, and the shared cache can never serve stale
 * predictions — the fingerprint binding of path_cache.hh backstops
 * this at runtime. A checkpoint that fails to load is an ERROR reply,
 * never a dead daemon.
 *
 * Edit-loop sessions (docs/editloop.md): OPEN parses a
 * design and opens a core::SnsDesignSession; UPDATE diffs an edited
 * revision against it and re-predicts only affected paths. Sessions
 * are stateful and per-design, so they bypass the MicroBatcher and run
 * on the handler thread under a per-session mutex, against the current
 * live predictor. A session opened before a RELOAD is detected by its
 * model fingerprint and answered with a clean ERROR (re-open), never a
 * stale prediction. The table is bounded (max_sessions) and idle
 * sessions are TTL-evicted on the listener's poll tick.
 *
 * Shutdown: stop() (the SIGTERM path in tools/sns_serve.cc) stops
 * accepting, lets the batcher drain — every admitted request gets a
 * real answer, later submits get DRAINING — then unblocks and joins
 * every handler. Observability: counters, latency histograms, and
 * queue/cache gauges live in sns::obs; the STATS verb returns the
 * same rendering the CLI prints.
 */

#ifndef SNS_SERVE_SERVER_HH
#define SNS_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/design_session.hh"
#include "core/predictor.hh"
#include "obs/metrics.hh"
#include "perf/path_cache.hh"
#include "serve/batcher.hh"
#include "serve/listener.hh"
#include "serve/protocol.hh"

namespace sns::serve {

/** Server configuration. */
struct ServerOptions
{
    /** Non-empty: listen on this Unix-domain socket path (unlinked on
     * bind and on stop). Empty: listen on TCP. */
    std::string unix_path;

    /** TCP listen address; port 0 binds an ephemeral port (read the
     * resolved one from Server::port()). */
    std::string tcp_host = "127.0.0.1";
    int tcp_port = 0;

    /** Micro-batching and admission control. */
    BatchOptions batch;

    /** Shared path-prediction cache capacity (entries; 0 unbounded). */
    size_t cache_capacity = 1u << 20;

    /** Seconds between periodic stats log lines to stderr; 0 = off. */
    int stats_log_period_s = 0;

    /** Idle seconds before an edit-loop session is evicted (its pinned
     * cache freed); 0 disables TTL eviction. Swept on the listener's
     * poll tick, so eviction lags the deadline by at most ~100 ms. */
    int session_ttl_s = 300;

    /** Maximum concurrently open sessions; OPEN beyond this is
     * answered OVERLOADED (each session pins an unbounded cache, so
     * the table must be bounded). */
    size_t max_sessions = 64;

    /** Where instruments live; tests may pass a private registry. */
    obs::Registry *registry = &obs::Registry::global();
};

/** The daemon. start() to serve, stop() to drain and halt. */
class Server
{
  public:
    Server(std::shared_ptr<const core::SnsPredictor> predictor,
           ServerOptions options);

    /** Stops (gracefully) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the listener; throws std::runtime_error
     * on bind/listen failure. */
    void start();

    /**
     * Graceful shutdown: stop accepting, drain the batcher (every
     * admitted request is answered), unblock and join every handler.
     * Idempotent.
     */
    void stop();

    bool running() const { return running_.load(); }

    /** Resolved TCP port (after start(); 0 for Unix sockets). */
    int port() const { return listener_.port(); }

    const ServerOptions &options() const { return options_; }

    /** The process-shared path cache (e.g. for tests/benchmarks). */
    perf::PathPredictionCache &cache() { return cache_; }

    /** The STATS text: obs render + cache counters, one `name value`
     * line each. */
    std::string statsText() const;

    /**
     * Load `directory` and stage it for an atomic swap before the
     * next batch (the RELOAD verb calls this; callable directly too).
     * Returns "" on success, else the load error message.
     */
    std::string stageReload(const std::string &directory);

    /** Live edit-loop sessions (the serve.sessions_open gauge). */
    size_t sessionsOpen() const;

    /**
     * Soft drain (the DRAIN/RESUME verbs, docs/cluster.md): while
     * paused, new PREDICT/OPEN requests are refused with DRAINING but
     * everything already admitted — queued tickets, open sessions,
     * STATS/PING/RELOAD — keeps being answered. Unlike stop(), this is
     * reversible; a router re-hashes the worker's slice meanwhile.
     */
    void pauseAdmission(bool paused) { admission_paused_.store(paused); }
    bool admissionPaused() const { return admission_paused_.load(); }

  private:
    /** One edit-loop session and its bookkeeping. Handlers hold the
     * entry's shared_ptr while operating, so TTL eviction (which only
     * erases the table slot) can never free a session mid-update. */
    struct SessionEntry
    {
        std::mutex mutex; ///< one caller at a time per session
        core::SnsDesignSession session;
        /** steady_clock time_since_epoch ns; atomic because the TTL
         * sweep reads it under session_mutex_ while handlers write it
         * under the entry mutex. */
        std::atomic<int64_t> last_used_ns{0};
    };

    std::vector<uint8_t> handleRequest(const std::vector<uint8_t> &req);
    std::vector<uint8_t> handlePredict(WireReader &reader);
    std::vector<uint8_t> handleOpen(WireReader &reader);
    std::vector<uint8_t> handleUpdate(WireReader &reader);
    std::vector<uint8_t> handleClose(WireReader &reader);
    /** The OPEN/UPDATE shared tail: predict `graph` through `entry`'s
     * session under its mutex at the requested tier and serialize the
     * OK reply (session id echoed only for OPEN). */
    std::vector<uint8_t> runSession(const std::shared_ptr<SessionEntry> &entry,
                                    const graphir::Graph &graph,
                                    core::Precision precision,
                                    uint64_t echo_session_id,
                                    bool include_session_id);
    void sweepSessions();
    std::vector<core::SnsPrediction>
    runBatch(const std::vector<const graphir::Graph *> &graphs,
             core::Precision precision);
    void logLoop();

    ServerOptions options_;

    /** Current + staged model, both swapped under model_mutex_; the
     * staged one goes live only on the executor thread, between
     * batches (runBatch), so batches never mix models. */
    std::mutex model_mutex_;
    std::shared_ptr<const core::SnsPredictor> predictor_;
    std::shared_ptr<const core::SnsPredictor> staged_predictor_;

    /** Shared PREDICT caches, one per numeric tier: the binding
     * fingerprint is precision-salted (predictionFingerprint), so one
     * cache can never hold both tiers' entries — int8 traffic gets
     * its own. Both are cleared on a model swap. */
    perf::PathPredictionCache cache_;
    perf::PathPredictionCache int8_cache_;
    std::unique_ptr<MicroBatcher> batcher_;

    std::atomic<bool> running_{false};
    std::atomic<bool> admission_paused_{false};
    std::thread logger_;
    std::mutex log_mutex_;
    std::condition_variable log_cv_;

    mutable std::mutex session_mutex_;
    std::unordered_map<uint64_t, std::shared_ptr<SessionEntry>> sessions_;
    std::atomic<uint64_t> next_session_id_{1};

    obs::Counter &protocol_errors_;
    obs::Counter &reloads_total_;
    obs::Counter &session_opens_;
    obs::Counter &session_updates_;
    obs::Counter &session_closes_;
    obs::Counter &session_evicted_ttl_;
    obs::Counter &session_paths_reused_;
    obs::Counter &session_paths_recomputed_;

    /** Last, so it is built after and torn down before everything
     * its handlers touch. */
    ConnectionListener listener_;
};

} // namespace sns::serve

#endif // SNS_SERVE_SERVER_HH
