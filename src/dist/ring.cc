#include "dist/ring.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <stdexcept>

#include "serve/protocol.hh"

namespace sns::dist {

namespace {

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        throw DistError("fcntl(O_NONBLOCK): " +
                        std::string(std::strerror(errno)));
}

/** Rank `rank`'s endpoint under `rendezvous`: <path>.<rank> for unix,
 * port + rank for tcp. */
serve::Endpoint
rankAddress(const std::string &rendezvous, int rank)
{
    // Unlike a worker spec, a rendezvous names its transport.
    if (rendezvous.rfind("unix:", 0) != 0 &&
        rendezvous.rfind("tcp:", 0) != 0)
        throw DistError("rendezvous must start with unix: or tcp:, got " +
                        rendezvous);
    serve::Endpoint endpoint;
    try {
        endpoint = serve::Endpoint::parse(rendezvous);
    } catch (const std::invalid_argument &e) {
        throw DistError(std::string("bad rendezvous: ") + e.what());
    }
    if (!endpoint.unix_path.empty())
        endpoint.unix_path += "." + std::to_string(rank);
    else
        endpoint.tcp_port += rank;
    return endpoint;
}

} // namespace

RingChannel::RingChannel(int prev_fd, int next_fd)
    : prev_fd_(prev_fd), next_fd_(next_fd)
{
    setNonBlocking(prev_fd_);
    setNonBlocking(next_fd_);
}

RingChannel::~RingChannel()
{
    if (prev_fd_ >= 0)
        ::close(prev_fd_);
    if (next_fd_ >= 0)
        ::close(next_fd_);
}

std::vector<uint8_t>
RingChannel::exchange(const std::vector<uint8_t> &out, size_t max_bytes)
{
    // Outgoing frame: uint32 LE length prefix + payload (the serve
    // frame format; serve/protocol.hh).
    std::vector<uint8_t> tx(4 + out.size());
    const uint32_t len = static_cast<uint32_t>(out.size());
    std::memcpy(tx.data(), &len, 4);
    std::memcpy(tx.data() + 4, out.data(), out.size());
    size_t tx_pos = 0;

    std::vector<uint8_t> rx_header(4);
    std::vector<uint8_t> rx;
    size_t rx_pos = 0;     // bytes of the current section received
    bool have_len = false; // header parsed, rx holds the payload

    while (tx_pos < tx.size() || !have_len ||
           rx_pos < rx.size()) {
        pollfd fds[2];
        fds[0] = {prev_fd_, POLLIN, 0};
        fds[1] = {next_fd_, POLLOUT, 0};
        const bool want_write = tx_pos < tx.size();
        if (::poll(fds, want_write ? 2 : 1, 30000) <= 0)
            throw DistError("ring peer timed out or poll failed");

        if (want_write && (fds[1].revents & (POLLOUT | POLLERR))) {
            const ssize_t n = ::send(next_fd_, tx.data() + tx_pos,
                                     tx.size() - tx_pos, MSG_NOSIGNAL);
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR)
                throw DistError("ring send failed: " +
                                std::string(std::strerror(errno)));
            if (n > 0) {
                tx_pos += static_cast<size_t>(n);
                sent_ += static_cast<uint64_t>(n);
            }
        }

        if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
            uint8_t *dst = have_len ? rx.data() : rx_header.data();
            const size_t want =
                (have_len ? rx.size() : rx_header.size()) - rx_pos;
            if (want > 0) {
                const ssize_t n =
                    ::recv(prev_fd_, dst + rx_pos, want, 0);
                if (n == 0)
                    throw DistError(
                        "ring predecessor closed the connection");
                if (n < 0 && errno != EAGAIN &&
                    errno != EWOULDBLOCK && errno != EINTR)
                    throw DistError("ring recv failed: " +
                                    std::string(std::strerror(errno)));
                if (n > 0) {
                    rx_pos += static_cast<size_t>(n);
                    received_ += static_cast<uint64_t>(n);
                }
            }
            if (!have_len && rx_pos == rx_header.size()) {
                uint32_t rx_len = 0;
                std::memcpy(&rx_len, rx_header.data(), 4);
                if (rx_len > max_bytes)
                    throw DistError("ring frame of " +
                                    std::to_string(rx_len) +
                                    " bytes exceeds the frame bound");
                rx.resize(rx_len);
                rx_pos = 0;
                have_len = true;
            }
        }
    }
    return rx;
}

std::string
rankEndpoint(const std::string &rendezvous, int rank)
{
    return rankAddress(rendezvous, rank).display();
}

std::shared_ptr<RingChannel>
connectRing(const std::string &rendezvous, int rank, int world)
{
    const serve::Endpoint self = rankAddress(rendezvous, rank);
    const int next = (rank + 1) % world;
    const serve::Endpoint successor = rankAddress(rendezvous, next);

    int listen_fd = -1;
    try {
        listen_fd = serve::listenOn(self, /*backlog=*/4);
    } catch (const std::runtime_error &e) {
        throw DistError("rank " + std::to_string(rank) +
                        " cannot listen: " + e.what());
    }
    int next_fd = -1;
    try {
        next_fd = serve::connectTo(successor, kRingConnectRetry);
    } catch (const serve::ProtocolError &e) {
        serve::closeListening(listen_fd, self);
        throw DistError("rank " + std::to_string(rank) +
                        " cannot reach rank " + std::to_string(next) +
                        ": " + e.what());
    }

    const int prev_fd = ::accept(listen_fd, nullptr, nullptr);
    const int accept_errno = errno;
    serve::closeListening(listen_fd, self);
    if (prev_fd < 0) {
        ::close(next_fd);
        throw DistError("rank " + std::to_string(rank) +
                        " accept failed: " +
                        std::string(std::strerror(accept_errno)));
    }
    return std::make_shared<RingChannel>(prev_fd, next_fd);
}

std::vector<std::shared_ptr<RingChannel>>
localRing(int world)
{
    // pair[r] connects rank r (write side) to rank r+1 (read side).
    std::vector<std::array<int, 2>> pairs(world);
    for (int r = 0; r < world; ++r) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            throw DistError("socketpair: " +
                            std::string(std::strerror(errno)));
        pairs[r] = {sv[0], sv[1]};
    }
    std::vector<std::shared_ptr<RingChannel>> ring(world);
    for (int r = 0; r < world; ++r) {
        const int next_fd = pairs[r][0];
        const int prev_fd = pairs[(r + world - 1) % world][1];
        ring[r] = std::make_shared<RingChannel>(prev_fd, next_fd);
    }
    return ring;
}

} // namespace sns::dist
