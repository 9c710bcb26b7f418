/**
 * @file
 * The training ring: rank-to-rank byte transport for sns::dist
 * (docs/distributed.md §Wire protocol).
 *
 * Topology is a unidirectional ring — rank r writes to rank
 * (r+1) mod N and reads from rank (r-1+N) mod N. Every message is one
 * serve-protocol frame (a little-endian uint32 payload length followed
 * by that many bytes; see serve/protocol.hh), so the training plane
 * speaks the same framing as the serving plane.
 *
 * Every collective step in the allreduce is "send one frame to the
 * successor while receiving one frame from the predecessor", so the
 * channel exposes exactly that duplex primitive: exchange(). It is
 * implemented with non-blocking sockets and poll(2), which makes the
 * ring deadlock-free for any frame size — a blocking write around the
 * whole ring could otherwise wedge with every rank stuck in send()
 * once frames outgrow the kernel socket buffers.
 *
 * Rendezvous endpoints ("unix:<path>" or "tcp:<host>:<port>") are
 * per-world templates: rank r listens at <path>.<r> (or port+r) and
 * connects to rank r+1's endpoint with deterministic bounded backoff,
 * both through the serve socket layer (serve/endpoint.hh).
 * localRing() builds the same ring over socketpairs inside one process
 * for tests, benches, and the TSan leg.
 */

#ifndef SNS_DIST_RING_HH
#define SNS_DIST_RING_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/endpoint.hh"

namespace sns::dist {

/** Transport or protocol failure on the training ring (peer gone,
 * malformed frame, handshake mismatch). */
class DistError : public std::runtime_error
{
  public:
    explicit DistError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/**
 * One rank's pair of ring sockets. Owns both file descriptors;
 * move-only. Byte counters feed the dist.bytes_* obs counters.
 */
class RingChannel
{
  public:
    /** Adopt connected descriptors (prev = read side, next = write
     * side). Both are switched to non-blocking mode. */
    RingChannel(int prev_fd, int next_fd);
    ~RingChannel();

    RingChannel(const RingChannel &) = delete;
    RingChannel &operator=(const RingChannel &) = delete;

    /**
     * One ring step: send `out` as a frame to the successor while
     * receiving one frame from the predecessor; returns the received
     * payload. Throws DistError on peer failure or a frame longer
     * than max_bytes.
     */
    std::vector<uint8_t> exchange(const std::vector<uint8_t> &out,
                                  size_t max_bytes = kMaxFrameBytes);

    uint64_t bytesSent() const { return sent_; }
    uint64_t bytesReceived() const { return received_; }

    /** Sanity bound on a single frame (a corrupt length prefix must
     * not become an allocation). */
    static constexpr size_t kMaxFrameBytes = size_t(1) << 30;

  private:
    int prev_fd_;
    int next_fd_;
    uint64_t sent_ = 0;
    uint64_t received_ = 0;
};

/**
 * Expand a rendezvous template for one rank: "unix:<path>" becomes
 * "<path>.<rank>", "tcp:<host>:<port>" becomes port + rank. Throws
 * DistError on a malformed template.
 */
std::string rankEndpoint(const std::string &rendezvous, int rank);

/**
 * How connectRing() retries its successor: 50 ms doubling to a 1 s
 * cap, ~65 s of sleep in all — dataset construction happens before
 * the ring forms, so peers may arrive a minute apart.
 */
inline constexpr serve::ConnectRetryOptions kRingConnectRetry{
    /*max_attempts=*/70, /*initial_backoff_us=*/50'000,
    /*multiplier=*/2, /*max_backoff_us=*/1'000'000};

/**
 * Join the ring as `rank` of `world`: listen at this rank's endpoint,
 * connect to the successor's endpoint under kRingConnectRetry, then
 * accept the predecessor. Throws DistError if the ring cannot form —
 * at once on an unusable endpoint (a <path>.<rank> longer than a unix
 * socket path may be) or a non-transient connect error, else when the
 * retry budget runs out.
 */
std::shared_ptr<RingChannel> connectRing(const std::string &rendezvous,
                                         int rank, int world);

/**
 * An in-process ring of `world` channels over socketpairs (element r
 * is rank r's channel). Used by tests, bench/dist_training, and the
 * TSan leg; identical wire behavior to the socket ring.
 */
std::vector<std::shared_ptr<RingChannel>> localRing(int world);

} // namespace sns::dist

#endif // SNS_DIST_RING_HH
