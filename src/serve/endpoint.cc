#include "serve/endpoint.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hh"

namespace sns::serve {

namespace {

/** A sockaddr built from an Endpoint. */
struct SocketAddress
{
    sockaddr_storage storage{};
    socklen_t size = 0;
    int family = AF_UNIX;

    const sockaddr *
    get() const
    {
        return reinterpret_cast<const sockaddr *>(&storage);
    }
};

/** Build `endpoint`'s address into `out`; returns "" or why the
 * endpoint cannot be one. */
std::string
buildAddress(const Endpoint &endpoint, SocketAddress &out)
{
    if (!endpoint.unix_path.empty()) {
        auto *addr = reinterpret_cast<sockaddr_un *>(&out.storage);
        const std::string &path = endpoint.unix_path;
        if (path.size() >= sizeof(addr->sun_path)) {
            return "unix socket path too long (" +
                   std::to_string(path.size()) + " bytes, limit " +
                   std::to_string(sizeof(addr->sun_path) - 1) +
                   "): " + path;
        }
        addr->sun_family = AF_UNIX;
        std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
        out.size = sizeof(sockaddr_un);
        out.family = AF_UNIX;
        return "";
    }
    auto *addr = reinterpret_cast<sockaddr_in *>(&out.storage);
    if (endpoint.tcp_port < 0 || endpoint.tcp_port > 65535)
        return "tcp port out of range: " + endpoint.display();
    if (::inet_pton(AF_INET, endpoint.tcp_host.c_str(),
                    &addr->sin_addr) != 1)
        return "bad IPv4 address: " + endpoint.tcp_host;
    addr->sin_family = AF_INET;
    addr->sin_port = htons(static_cast<uint16_t>(endpoint.tcp_port));
    out.size = sizeof(sockaddr_in);
    out.family = AF_INET;
    return "";
}

/** Returns the connected fd, or -1 with errno from the last attempt. */
int
connectWithRetry(const SocketAddress &address,
                 const ConnectRetryOptions &retry)
{
    const std::vector<int> sleeps = backoffScheduleUs(retry);
    for (size_t i = 0;; ++i) {
        const int fd = ::socket(address.family, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, address.get(), address.size) == 0)
            return fd;
        const int err = errno;
        ::close(fd);
        errno = err;
        const bool transient =
            err == ECONNREFUSED || err == ENOENT || err == EINTR;
        if (!transient || i >= sleeps.size())
            return -1;
        std::this_thread::sleep_for(std::chrono::microseconds(sleeps[i]));
    }
}

} // namespace

Endpoint
Endpoint::parse(const std::string &spec)
{
    Endpoint endpoint;
    if (spec.rfind("unix:", 0) == 0) {
        endpoint.unix_path = spec.substr(5);
        if (endpoint.unix_path.empty())
            throw std::invalid_argument("empty unix path in worker spec: " +
                                        spec);
        return endpoint;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        const std::string rest = spec.substr(4);
        const size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size())
            throw std::invalid_argument(
                "worker spec needs tcp:<host>:<port>: " + spec);
        endpoint.tcp_host = rest.substr(0, colon);
        try {
            endpoint.tcp_port = std::stoi(rest.substr(colon + 1));
        } catch (const std::exception &) {
            endpoint.tcp_port = 0;
        }
        if (endpoint.tcp_port <= 0 || endpoint.tcp_port > 65535)
            throw std::invalid_argument("bad port in worker spec: " +
                                        spec);
        return endpoint;
    }
    if (spec.empty())
        throw std::invalid_argument("empty worker spec");
    // Bare paths mirror sns-serve --socket.
    endpoint.unix_path = spec;
    return endpoint;
}

std::string
Endpoint::display() const
{
    if (!unix_path.empty())
        return "unix:" + unix_path;
    return "tcp:" + tcp_host + ":" + std::to_string(tcp_port);
}

std::vector<int>
backoffScheduleUs(const ConnectRetryOptions &options)
{
    std::vector<int> sleeps;
    long delay = std::max(options.initial_backoff_us, 0);
    for (int i = 1; i < options.max_attempts; ++i) {
        sleeps.push_back(static_cast<int>(
            std::min<long>(delay, options.max_backoff_us)));
        delay = std::min<long>(delay * std::max(options.multiplier, 1),
                               options.max_backoff_us);
    }
    return sleeps;
}

int
listenOn(const Endpoint &endpoint, int backlog, int *port)
{
    SocketAddress address;
    const std::string unusable = buildAddress(endpoint, address);
    if (!unusable.empty())
        throw std::runtime_error(unusable);
    const int fd = ::socket(address.family, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    const auto failed = [&](const char *call) {
        const std::string error = std::strerror(errno);
        closeListening(fd, endpoint);
        return std::runtime_error(std::string(call) + "(" +
                                  endpoint.display() + "): " + error);
    };
    if (address.family == AF_UNIX) {
        // A killed process leaves its socket inode behind.
        ::unlink(endpoint.unix_path.c_str());
    } else {
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    }
    if (::bind(fd, address.get(), address.size) != 0)
        throw failed("bind");
    if (::listen(fd, backlog) != 0)
        throw failed("listen");
    if (port != nullptr) {
        *port = 0;
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (address.family == AF_INET &&
            ::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            *port = ntohs(bound.sin_port);
    }
    return fd;
}

void
closeListening(int fd, const Endpoint &endpoint)
{
    if (fd >= 0)
        ::close(fd);
    if (!endpoint.unix_path.empty())
        ::unlink(endpoint.unix_path.c_str());
}

int
connectTo(const Endpoint &endpoint, const ConnectRetryOptions &retry)
{
    SocketAddress address;
    const std::string unusable = buildAddress(endpoint, address);
    if (!unusable.empty())
        throw ProtocolError(unusable);
    const int fd = connectWithRetry(address, retry);
    if (fd < 0)
        throw ProtocolError("connect(" + endpoint.display() +
                            "): " + std::strerror(errno));
    return fd;
}

} // namespace sns::serve
