/**
 * @file
 * The socket layer shared by sns-serve, sns-router and the training
 * ring: how an address becomes a listening or a connected stream
 * socket (docs/architecture.md §Socket layer).
 *
 * An Endpoint is one address in one of two transports — a Unix-domain
 * socket path or a TCP host:port — written "unix:<path>",
 * "tcp:<host>:<port>", or a bare path. listenOn() and connectTo() are
 * the only places that build a sockaddr: both refuse a unix path that
 * does not fit sun_path and a host that is not an IPv4 literal, by
 * name, instead of truncating or guessing. This is also the one point
 * where a fault-injecting socket shim would sit.
 */

#ifndef SNS_SERVE_ENDPOINT_HH
#define SNS_SERVE_ENDPOINT_HH

#include <string>
#include <vector>

namespace sns::serve {

/** Where a peer listens. Exactly one transport is set. */
struct Endpoint
{
    std::string unix_path; ///< non-empty: unix transport
    std::string tcp_host = "127.0.0.1";
    int tcp_port = 0; ///< 0 binds an ephemeral port when listening

    /**
     * Parse "unix:<path>", "tcp:<host>:<port>", or a bare path
     * (treated as unix — matches sns-serve --socket). Throws
     * std::invalid_argument on a malformed spec.
     */
    static Endpoint parse(const std::string &spec);

    /** Canonical display form, "unix:<path>" / "tcp:<host>:<port>";
     * parse(display()) round-trips. */
    std::string display() const;
};

/**
 * Bounded connect retry with a deterministic (jitterless) exponential
 * backoff, shared by the serve client and the training ring
 * (dist::connectRing). Transient connect failures — ECONNREFUSED (peer
 * restarting), ENOENT (unix socket not bound yet), EINTR — are retried
 * up to max_attempts with backoffScheduleUs() sleeps between attempts;
 * every other errno fails at once. The schedule carries no jitter on
 * purpose: reconnect timing stays reproducible, matching the
 * repo-wide determinism discipline.
 */
struct ConnectRetryOptions
{
    int max_attempts = 1; ///< 1 = single try, no retry
    int initial_backoff_us = 10'000;
    int multiplier = 2;
    int max_backoff_us = 1'000'000; ///< per-sleep cap
};

/**
 * The sleeps (µs) between connect attempts: max_attempts - 1 entries,
 * entry i = min(initial_backoff_us · multiplier^i, max_backoff_us).
 */
std::vector<int> backoffScheduleUs(const ConnectRetryOptions &options);

/**
 * Open a listening stream socket at `endpoint`: socket, unlink of a
 * stale unix inode left by a killed process, SO_REUSEADDR for TCP,
 * bind, listen(backlog). Returns the fd and stores the bound TCP port
 * (the resolved one when tcp_port is 0; 0 for unix) in `*port`.
 * Throws std::runtime_error naming the endpoint on any failure.
 */
int listenOn(const Endpoint &endpoint, int backlog, int *port = nullptr);

/** Close a socket from listenOn() and unlink its unix path. */
void closeListening(int fd, const Endpoint &endpoint);

/**
 * Connect a stream socket to `endpoint` under `retry`. Returns the
 * connected fd; throws ProtocolError naming the endpoint when the
 * address is unusable or the last attempt fails.
 */
int connectTo(const Endpoint &endpoint, const ConnectRetryOptions &retry);

} // namespace sns::serve

#endif // SNS_SERVE_ENDPOINT_HH
