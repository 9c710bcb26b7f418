/**
 * @file
 * sns-router — the cluster front end (docs/cluster.md).
 *
 * One Router process speaks the full serve protocol to clients and
 * fans the traffic out over N sns-serve workers, each with its own
 * resident predictor and cache shard. Placement is a consistent-hash
 * ring (ring.hh) keyed so that cache locality and session affinity
 * fall out of the hash:
 *
 *   - PREDICT routes by the design source's fingerprint — repeat
 *     predictions of the same design land on the same worker and hit
 *     its warm cache shard.
 *   - OPEN routes by design fingerprint too; the session then *pins*
 *     to that worker. The router virtualizes session ids (workers
 *     number their own tables independently), handing clients a
 *     cluster-wide id and translating UPDATE/CLOSE to the owning
 *     worker's id. A pinned session keeps flowing to its worker even
 *     once that worker is draining — admitted edit loops finish where
 *     they started.
 *
 * Requests are parsed in the one wire layout (protocol.hh) and
 * re-issued through a serve::Client per worker; each worker
 * connection opens with a strict HELLO, so a worker from a build with
 * another protocol version counts as unreachable instead of
 * misparsing frames. The reply blocks round-trip bit-exactly, so
 * cluster replies are byte-identical to a single sns-serve process.
 *
 * Liveness: a health loop PINGs every worker each period; the
 * reply carries the worker's drain bit. A draining or dead worker
 * leaves the ring — only its slice re-hashes — and the router also
 * reacts in-band: a DRAINING reply to proxied work marks the worker
 * immediately and the request retries on the refreshed ring, so an
 * operator DRAIN mid-traffic loses zero admitted requests.
 *
 * STATS fans out and merges (obs::mergeStats): one cluster-wide
 * report of the summable counters plus every worker's full snapshot
 * prefixed `worker<i>.`. RELOAD broadcasts to all workers; the
 * rolling, canary-verified alternative lives in promote.hh.
 */

#ifndef SNS_CLUSTER_ROUTER_HH
#define SNS_CLUSTER_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/membership.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/listener.hh"
#include "serve/protocol.hh"

namespace sns::cluster {

/** Router configuration. */
struct RouterOptions
{
    /** Non-empty: listen on this Unix-domain socket path. Empty:
     * listen on TCP (port 0 = ephemeral; Router::port()). */
    std::string unix_path;
    std::string tcp_host = "127.0.0.1";
    int tcp_port = 0;

    /** The worker set, fixed at start. */
    std::vector<WorkerAddress> workers;

    /** Virtual points per worker on the hash ring. */
    int vnodes = 64;

    /** Health-probe cadence; 0 disables the loop (tests that drive
     * state in-band). */
    int health_period_ms = 1000;

    /** Consecutive probe failures before a worker is Down. */
    int fail_threshold = 3;

    /** Worker (re)connect policy — workers may still be binding
     * their sockets when the router starts. */
    serve::ConnectRetryOptions connect_retry{
        /*max_attempts=*/10, /*initial_backoff_us=*/10'000,
        /*multiplier=*/2, /*max_backoff_us=*/500'000};

    /** Where instruments live; tests may pass a private registry. */
    obs::Registry *registry = &obs::Registry::global();
};

/** The router daemon. start() to serve, stop() to halt. */
class Router
{
  public:
    explicit Router(RouterOptions options);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    void start();

    /** Stop accepting, unblock and join every handler, stop the
     * health loop. Idempotent. Workers are not touched — they drain
     * on their own lifecycle. */
    void stop();

    bool running() const { return running_.load(); }

    /** Resolved TCP port (after start(); 0 for Unix sockets). */
    int port() const { return listener_.port(); }

    const RouterOptions &options() const { return options_; }

    /** The worker table (tests, WORKERS verb). */
    Membership &membership() { return membership_; }

    /** Live virtualized sessions. */
    size_t sessionsOpen() const;

  private:
    /** Where a virtualized session lives. */
    struct SessionRoute
    {
        size_t worker = 0;
        uint64_t worker_session_id = 0;
    };

    /** Per-connection state: this handler's private worker
     * connections (the Client is synchronous; one per handler avoids
     * cross-request locking) and its cached ring. */
    struct HandlerState
    {
        std::vector<std::unique_ptr<serve::Client>> workers;
        HashRing ring;
        uint64_t ring_epoch = 0;
    };

    void healthLoop();
    std::vector<uint8_t> handleRequest(const std::vector<uint8_t> &req,
                                       HandlerState &state);
    std::vector<uint8_t> handlePredict(serve::WireReader &reader,
                                       HandlerState &state);
    std::vector<uint8_t> handleOpen(serve::WireReader &reader,
                                    HandlerState &state);
    std::vector<uint8_t> handleUpdate(serve::WireReader &reader,
                                      HandlerState &state);
    std::vector<uint8_t> handleClose(serve::WireReader &reader,
                                     HandlerState &state);
    std::vector<uint8_t> handleStats(HandlerState &state);
    std::vector<uint8_t> handleReload(serve::WireReader &reader,
                                      HandlerState &state);
    std::vector<uint8_t> handleWorkers();

    /** The ring refreshed against the current membership epoch. */
    const HashRing &ringFor(HandlerState &state);

    /** This handler's connection to worker `index`, connecting (and
     * checking HELLO) on first use. Returns nullptr — after
     * markFailure — when the worker is unreachable. */
    serve::Client *workerConn(HandlerState &state, size_t index);

    /** Drop a handler's cached connection after a transport error. */
    void resetConn(HandlerState &state, size_t index);

    RouterOptions options_;
    Membership membership_;

    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::thread health_;
    std::mutex health_mutex_;
    std::condition_variable health_cv_;
    /** The health loop's own worker connections. */
    std::vector<std::unique_ptr<serve::Client>> health_conns_;

    mutable std::mutex session_mutex_;
    std::unordered_map<uint64_t, SessionRoute> sessions_;
    std::atomic<uint64_t> next_session_id_{1};

    obs::Counter &requests_total_;
    obs::Counter &retries_total_;
    obs::Counter &transport_errors_;
    obs::Counter &protocol_errors_;

    /** Last, so it is built after and torn down before everything
     * its handlers touch. */
    serve::ConnectionListener listener_;
};

} // namespace sns::cluster

#endif // SNS_CLUSTER_ROUTER_HH
