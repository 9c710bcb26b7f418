#include "serve/listener.hh"

#include <cerrno>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/protocol.hh"
#include "util/logging.hh"

namespace sns::serve {

ConnectionListener::ConnectionListener(Endpoint endpoint,
                                       HandlerFactory make_handler,
                                       obs::Counter &connections,
                                       obs::Counter &protocol_errors,
                                       std::function<void()> on_tick)
    : endpoint_(std::move(endpoint)),
      make_handler_(std::move(make_handler)), connections_(connections),
      protocol_errors_(protocol_errors), on_tick_(std::move(on_tick))
{
}

ConnectionListener::~ConnectionListener() { stop(); }

void
ConnectionListener::start()
{
    listen_fd_ = listenOn(endpoint_, /*backlog=*/128, &port_);
    stopping_.store(false);
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
ConnectionListener::stop(const std::function<void()> &drain)
{
    if (!accept_thread_.joinable())
        return;
    // 1. Stop accepting. Joining the accept thread first guarantees
    //    every accepted connection is registered in open_.
    stopping_.store(true);
    accept_thread_.join();
    closeListening(listen_fd_, endpoint_);
    listen_fd_ = -1;

    // 2. The owner's drain step: every admitted request still gets
    //    its real answer.
    if (drain)
        drain();

    // 3. Unblock handlers parked in recvFrame. SHUT_RD only — a
    //    handler mid-reply still owns the write side.
    std::vector<std::thread> finished;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (const auto &connection : open_)
            ::shutdown(connection.first, SHUT_RD);
        closed_cv_.wait(lock, [this] { return open_.empty(); });
        finished.swap(finished_);
    }
    for (auto &handler : finished)
        handler.join();
}

size_t
ConnectionListener::threadsHeld() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_.size() + finished_.size();
}

void
ConnectionListener::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        reapFinished();
        if (on_tick_)
            on_tick_();
        if (ready == 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        connections_.inc();
        FrameHandler handler = make_handler_();
        // The handler deregisters itself under mutex_, so it cannot
        // finish before it is registered here.
        std::lock_guard<std::mutex> lock(mutex_);
        open_.emplace(fd, std::thread([this, fd,
                                       handler = std::move(handler)] {
                          serveConnection(fd, handler);
                      }));
    }
}

void
ConnectionListener::serveConnection(int fd, const FrameHandler &handler)
{
    try {
        while (auto request = recvFrame(fd, kMaxRequestFrameBytes))
            sendFrame(fd, handler(*request));
    } catch (const ProtocolError &) {
        // Corrupt framing or a vanished peer; drop the connection.
        protocol_errors_.inc();
    } catch (const std::exception &e) {
        warn("connection dropped: request handler failed: ", e.what());
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto self = open_.extract(fd);
        finished_.push_back(std::move(self.mapped()));
        closed_cv_.notify_all();
    }
    ::close(fd);
}

void
ConnectionListener::reapFinished()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        finished.swap(finished_);
    }
    for (auto &handler : finished)
        handler.join();
}

} // namespace sns::serve
