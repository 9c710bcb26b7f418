#include "dist/ring.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>

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

/** Endpoint template split into its transport parts. */
struct Endpoint
{
    bool is_unix = false;
    std::string path; ///< unix socket path
    std::string host; ///< tcp host
    int port = 0;     ///< tcp base port
};

Endpoint
parseEndpoint(const std::string &rendezvous)
{
    Endpoint ep;
    if (rendezvous.rfind("unix:", 0) == 0) {
        ep.is_unix = true;
        ep.path = rendezvous.substr(5);
        if (ep.path.empty())
            throw DistError("empty unix rendezvous path: " + rendezvous);
        return ep;
    }
    if (rendezvous.rfind("tcp:", 0) == 0) {
        const std::string rest = rendezvous.substr(4);
        const size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= rest.size()) {
            throw DistError("malformed tcp rendezvous (want "
                            "tcp:<host>:<port>): " + rendezvous);
        }
        ep.host = rest.substr(0, colon);
        try {
            ep.port = std::stoi(rest.substr(colon + 1));
        } catch (const std::exception &) {
            ep.port = -1;
        }
        if (ep.port <= 0 || ep.port > 65535)
            throw DistError("bad tcp rendezvous port: " + rendezvous);
        return ep;
    }
    throw DistError("rendezvous must start with unix: or tcp:, got " +
                    rendezvous);
}

int
listenAt(const Endpoint &ep, int rank)
{
    int fd = -1;
    if (ep.is_unix) {
        const std::string path = ep.path + "." + std::to_string(rank);
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            throw DistError("socket(AF_UNIX): " +
                            std::string(std::strerror(errno)));
        ::unlink(path.c_str()); // stale endpoint from a killed run
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            throw DistError("unix rendezvous path too long: " + path);
        }
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(fd);
            throw DistError("bind(" + path + "): " +
                            std::string(std::strerror(errno)));
        }
    } else {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw DistError("socket(AF_INET): " +
                            std::string(std::strerror(errno)));
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(ep.port + rank));
        if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
            ::close(fd);
            throw DistError("bad tcp rendezvous host: " + ep.host);
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(fd);
            throw DistError("bind(" + ep.host + ":" +
                            std::to_string(ep.port + rank) + "): " +
                            std::string(std::strerror(errno)));
        }
    }
    if (::listen(fd, 4) != 0) {
        ::close(fd);
        throw DistError("listen: " + std::string(std::strerror(errno)));
    }
    return fd;
}

/** Connect to rank `rank`'s endpoint under kRingConnectRetry; returns
 * the fd, or -1 with errno set. */
int
connectTo(const Endpoint &ep, int rank)
{
    if (ep.is_unix) {
        const std::string path = ep.path + "." + std::to_string(rank);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        return serve::connectWithRetry(
            AF_UNIX, reinterpret_cast<const sockaddr *>(&addr),
            sizeof(addr), kRingConnectRetry);
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(ep.port + rank));
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return -1;
    }
    return serve::connectWithRetry(
        AF_INET, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr),
        kRingConnectRetry);
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
    const Endpoint ep = parseEndpoint(rendezvous);
    if (ep.is_unix)
        return "unix:" + ep.path + "." + std::to_string(rank);
    return "tcp:" + ep.host + ":" + std::to_string(ep.port + rank);
}

std::shared_ptr<RingChannel>
connectRing(const std::string &rendezvous, int rank, int world)
{
    const Endpoint ep = parseEndpoint(rendezvous);
    const int listen_fd = listenAt(ep, rank);

    const int next = (rank + 1) % world;
    const int next_fd = connectTo(ep, next);
    if (next_fd < 0) {
        const std::string error = std::strerror(errno);
        ::close(listen_fd);
        throw DistError("rank " + std::to_string(rank) +
                        " cannot reach rank " + std::to_string(next) +
                        " at " + rankEndpoint(rendezvous, next) + ": " +
                        error);
    }

    const int prev_fd = ::accept(listen_fd, nullptr, nullptr);
    ::close(listen_fd);
    if (ep.is_unix)
        ::unlink((ep.path + "." + std::to_string(rank)).c_str());
    if (prev_fd < 0) {
        ::close(next_fd);
        throw DistError("rank " + std::to_string(rank) +
                        " accept failed: " +
                        std::string(std::strerror(errno)));
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
