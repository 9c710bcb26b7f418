/**
 * @file
 * The sns-serve wire protocol (docs/serving.md §Protocol).
 *
 * Frames: every message — request or response — is one frame, a
 * little-endian uint32 payload length followed by that many payload
 * bytes. Multi-byte integers and doubles inside the payload are
 * little-endian host order (the client and server are assumed to run
 * on the same or an equally-ordered architecture; this is what makes
 * server responses bit-for-bit identical to a local predictBatch).
 *
 * Requests open with a verb byte, responses with a status byte:
 *
 *   PREDICT  u32 deadline_ms (0 = none), u8 precision,
 *            u8 format (0 snl, 1 verilog), str design source
 *        ->  OK: <prediction>
 *   STATS    (empty) -> OK: str metrics text (obs render + cache)
 *   RELOAD   str checkpoint directory -> OK: (empty)
 *   PING     (empty) -> OK: (empty), u8 draining
 *   HELLO    u32 client protocol version
 *        ->  OK: u32 kProtocolVersion, or ERROR naming both versions
 *   OPEN     u8 precision, u8 format, str design source
 *        ->  OK: u64 session_id, <prediction>, <diff>
 *   UPDATE   u64 session_id, u8 precision, u8 format,
 *            str design source
 *        ->  OK: <prediction>, <diff>
 *   CLOSE    u64 session_id -> OK: (empty)
 *   DRAIN    (empty) -> OK: (empty). Soft drain: the worker keeps
 *            answering admitted and session traffic but refuses new
 *            PREDICT/OPEN with DRAINING until RESUME.
 *   RESUME   (empty) -> OK: (empty). Clears a previous DRAIN.
 *   WORKERS  (empty) -> OK: u32 n, n×(str address, u8 state) — the
 *            router's membership table; addresses are "unix:<path>"
 *            or "tcp:<host>:<port>", state is 0 up, 1 draining,
 *            2 down. Workers themselves answer UNSUPPORTED.
 *
 * with the shared blocks (serve/codec.hh encodes and decodes them)
 *
 *   <prediction> = f64 timing_ps, f64 area_um2, f64 power_mw,
 *                  u64 paths_sampled, u32 n, n×u32 critical-path ids
 *   <diff>       = u8 noop, u64 modules_changed, u64 modules_added,
 *                  u64 modules_removed, u64 modules_total,
 *                  u64 nodes_affected, u64 endpoints_affected,
 *                  u64 paths_total, u64 paths_reused,
 *                  u64 paths_recomputed
 *
 * and `str` a u32 byte length + bytes. Any non-OK status carries a str
 * message. Clients may pipeline requests on one connection; the server
 * answers in order.
 *
 * There is one layout, and every verb is served on every connection.
 * The precision byte is 0 fp64 or 1 int8 (the core::Precision values,
 * docs/quantization.md); the PING drain byte is 1 while admission is
 * paused, so a router's health loop observes drains without extra
 * round trips. HELLO is an optional strict version check: a peer from
 * a build with a different kProtocolVersion gets ERROR naming both
 * numbers, and Client::hello() throws, before any frame is misparsed.
 */

#ifndef SNS_SERVE_PROTOCOL_HH
#define SNS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/container.hh"

namespace sns::serve {

/**
 * The protocol version this build speaks, exactly. It is 4 because
 * the layout above is what earlier builds called version 4, so a peer
 * from such a build that says HELLO 4 sees byte-identical frames.
 */
inline constexpr uint32_t kProtocolVersion = 4;

/** Largest request frame a server or router accepts: a corrupt or
 * hostile length prefix must not become a giant allocation. */
inline constexpr size_t kMaxRequestFrameBytes = size_t(16) << 20;

/** Largest reply frame a client accepts; a longer one is treated as
 * corrupt. */
inline constexpr size_t kMaxReplyFrameBytes = size_t(64) << 20;

/** Request kinds. */
enum class Verb : uint8_t {
    Predict = 1,
    Stats = 2,
    Reload = 3,
    Ping = 4,
    Hello = 5,
    Open = 6,
    Update = 7,
    Close = 8,
    Drain = 9,
    Resume = 10,
    Workers = 11,
};

/** Response status; every non-Ok reply carries a message string. */
enum class Status : uint8_t {
    Ok = 0,
    /** Admission control rejected the request: the batching queue is
     * at max_queue depth. Back off and retry. */
    Overloaded = 1,
    /** The request's deadline expired before a batch picked it up. */
    DeadlineExceeded = 2,
    /** Parse failure, bad frame, model error, … (message says). */
    Error = 3,
    /** The server is draining (SIGTERM); no new work is admitted. */
    Draining = 4,
    /** The verb is not this peer's role: WORKERS sent to a worker,
     * DRAIN/RESUME sent to the router. */
    Unsupported = 5,
};

/** Human-readable status name ("OK", "OVERLOADED", ...). */
const char *statusName(Status status);

/** Design source language of a PREDICT payload. */
enum class DesignFormat : uint8_t { Snl = 0, Verilog = 1 };

/** Malformed frame or payload (underrun, oversize, bad verb). */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** Append-only payload builder: the shared ByteWriter plus the
 * wire's u32-length strings. */
class WireWriter : public ByteWriter
{
  public:
    void str(const std::string &s);

    const std::vector<uint8_t> &bytes() const { return buffer(); }
};

/** Payload reader: the shared ByteReader, throwing ProtocolError on
 * underrun, plus the wire's u32-length strings. */
class WireReader : public ByteReader
{
  public:
    WireReader(const uint8_t *data, size_t size);
    explicit WireReader(const std::vector<uint8_t> &payload)
        : WireReader(payload.data(), payload.size())
    {
    }

    std::string str();

    /** Throws unless the payload was consumed exactly. */
    void expectEnd() const;
};

/**
 * Write one length-prefixed frame to a socket (full write, EINTR
 * retried). Throws ProtocolError on I/O failure (peer gone).
 */
void sendFrame(int fd, const std::vector<uint8_t> &payload);

/**
 * Read one frame. Returns nullopt on clean EOF at a frame boundary;
 * throws ProtocolError on a truncated frame, I/O error, or a payload
 * longer than max_bytes (a corrupt or hostile length prefix must not
 * become an allocation).
 */
std::optional<std::vector<uint8_t>> recvFrame(int fd, size_t max_bytes);

} // namespace sns::serve

#endif // SNS_SERVE_PROTOCOL_HH
