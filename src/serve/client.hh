/**
 * @file
 * Client side of the sns-serve protocol (docs/serving.md).
 *
 * A Client owns one connection and runs one request/response exchange
 * at a time (`sns-cli remote-predict`, bench/serve_throughput). It is
 * deliberately synchronous: closed-loop callers measure true latency,
 * and concurrency comes from opening more clients — exactly how the
 * throughput bench drives the server.
 *
 * Transport failures (server gone, truncated frame) throw
 * ProtocolError; application-level failures (OVERLOADED, a parse
 * error, DRAINING) come back as a PredictReply status, because
 * admission-control rejections are expected traffic, not exceptions.
 */

#ifndef SNS_SERVE_CLIENT_HH
#define SNS_SERVE_CLIENT_HH

#include <string>

#include "core/design_session.hh"
#include "core/predictor.hh"
#include "serve/endpoint.hh"
#include "serve/protocol.hh"

namespace sns::serve {

/** One PREDICT exchange's result. */
struct PredictReply
{
    Status status = Status::Error;
    /** Valid only when status == Ok; bit-for-bit what a local
     * predictBatch would return for the same design. */
    core::SnsPrediction prediction;
    /** Non-Ok explanation. */
    std::string message;
};

/** One OPEN/UPDATE exchange's result. */
struct SessionReply
{
    Status status = Status::Error;
    /** Server-side session handle (OPEN fills it; UPDATE echoes the
     * one the caller passed). */
    uint64_t session_id = 0;
    /** Valid only when status == Ok; bit-for-bit what a cold local
     * predictBatch would return for the same revision. */
    core::SnsPrediction prediction;
    /** Reuse accounting of this exchange (how much of the work the
     * server answered from the session's pinned cache). */
    core::DiffStats diff;
    /** Non-Ok explanation. */
    std::string message;
};

/** One WORKERS table row (docs/cluster.md). */
struct WorkerEndpoint
{
    /** "unix:<path>" or "tcp:<host>:<port>". */
    std::string address;
    /** 0 up, 1 draining, 2 down. */
    uint8_t state = 0;
};

/** A WORKERS exchange's result. */
struct WorkersReply
{
    Status status = Status::Error;
    std::vector<WorkerEndpoint> workers;
    std::string message;
};

/** A synchronous connection to an sns-serve daemon. */
class Client
{
  public:
    /** Connect to `endpoint`, retrying transient failures under
     * `retry` (default: one try); throws ProtocolError. */
    static Client connect(const Endpoint &endpoint,
                          const ConnectRetryOptions &retry = {});

    /** connect() to a Unix-domain socket path. */
    static Client connectUnix(const std::string &path,
                              const ConnectRetryOptions &retry = {});

    ~Client();

    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Predict one design from source text at `precision`. deadline_ms
     * > 0 asks the server to expire the request if no batch picks it
     * up in time.
     */
    PredictReply
    predict(const std::string &design_source, DesignFormat format,
            uint32_t deadline_ms = 0,
            core::Precision precision = core::Precision::Fp64);

    /** The server's metrics rendering (`name value` lines). */
    std::string stats();

    /** Hot-swap the server's model to a checkpoint directory readable
     * *by the server*. Returns "" on success, else the error. */
    std::string reload(const std::string &directory);

    /** Liveness round trip; throws ProtocolError when the server is
     * unreachable mid-connection. */
    void ping();

    /**
     * Check that the peer speaks exactly kProtocolVersion; throws
     * ProtocolError when it refuses (ERROR) or answers another
     * number. Optional — every verb works without it — but one call
     * right after connecting turns a build mismatch into a clear
     * error instead of a misparsed frame.
     */
    void hello();

    /**
     * Soft-drain the peer: it answers admitted work but refuses new
     * PREDICT/OPEN with DRAINING until resume(). Returns "" on
     * success, else the error.
     */
    std::string drain();

    /** Clear a previous drain(). Same contract as drain(). */
    std::string resume();

    /** Liveness probe: PING plus the reply's drain-state byte.
     * Returns true when the peer is draining; throws ProtocolError
     * when it is unreachable. */
    bool health();

    /** The peer's membership table (WORKERS; routers only — a worker
     * answers Unsupported). */
    WorkersReply workers();

    /**
     * Open an edit-loop session on the server (docs/editloop.md):
     * full prediction now, incremental updates afterwards.
     */
    SessionReply
    openSession(const std::string &design_source, DesignFormat format,
                core::Precision precision = core::Precision::Fp64);

    /** Predict an edited revision through an open session. The
     * precision must match the one the session opened at (the server
     * rejects a switch; CLOSE and re-OPEN instead). */
    SessionReply
    updateSession(uint64_t session_id,
                  const std::string &design_source, DesignFormat format,
                  core::Precision precision = core::Precision::Fp64);

    /** Close a session and free its server-side pinned cache. Returns
     * "" on success, else the error message. */
    std::string closeSession(uint64_t session_id);

  private:
    explicit Client(int fd) : fd_(fd) {}

    std::vector<uint8_t> roundTrip(const std::vector<uint8_t> &payload);

    /** Send a request whose reply is status + message; returns "" on
     * OK, else the message. */
    std::string statusRoundTrip(const WireWriter &request);

    /** Send an OPEN/UPDATE request and decode its reply. */
    SessionReply sessionRoundTrip(const WireWriter &request,
                                  bool expect_session_id);

    int fd_ = -1;
};

} // namespace sns::serve

#endif // SNS_SERVE_CLIENT_HH
