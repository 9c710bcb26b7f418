/**
 * @file
 * The connection listener shared by sns-serve (serve::Server) and
 * sns-router (cluster::Router): one listening socket, one accept
 * thread, one handler thread per connection.
 *
 * The accept thread polls the listening socket every 100 ms. On each
 * wake-up it joins the handler threads of connections that have
 * closed, so a long-running daemon holds threads only for its open
 * connections, and runs the owner's tick callback (the server's
 * session TTL sweep). Each accepted connection gets a fresh frame
 * handler from the owner's factory, so per-connection state (the
 * router's worker connections) lives in the handler. The connection
 * thread loops recvFrame -> handler -> sendFrame until the peer
 * closes; a framing or transport ProtocolError drops the connection
 * and counts toward `protocol_errors`. Handlers answer their own
 * failures with an ERROR reply; one that throws anything else is
 * logged and its connection dropped, never the daemon.
 *
 * stop() keeps the daemons' shutdown order: stop accepting, run the
 * owner's drain step (the server's batcher drain), shut down the read
 * side of every open connection — a handler mid-reply still owns its
 * write side — and join every handler.
 */

#ifndef SNS_SERVE_LISTENER_HH
#define SNS_SERVE_LISTENER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "serve/endpoint.hh"

namespace sns::serve {

class ConnectionListener
{
  public:
    /** Answers one request frame; runs on the connection's thread. */
    using FrameHandler =
        std::function<std::vector<uint8_t>(const std::vector<uint8_t> &)>;

    /** Makes the handler for one new connection; whatever it captures
     * lives exactly as long as that connection. */
    using HandlerFactory = std::function<FrameHandler()>;

    /** `connections` counts accepted connections; `protocol_errors`
     * counts connections dropped on a ProtocolError. `on_tick` (may
     * be empty) runs on the accept thread at least every 100 ms. */
    ConnectionListener(Endpoint endpoint, HandlerFactory make_handler,
                       obs::Counter &connections,
                       obs::Counter &protocol_errors,
                       std::function<void()> on_tick = {});

    /** Stops (with no drain step) if still running. */
    ~ConnectionListener();

    ConnectionListener(const ConnectionListener &) = delete;
    ConnectionListener &operator=(const ConnectionListener &) = delete;

    /** Listen at the endpoint and start accepting; throws
     * std::runtime_error when the socket cannot be set up. */
    void start();

    /** Stop accepting, run `drain` (may be empty), shut down the read
     * side of every open connection and join every handler. Unlinks a
     * unix socket path. Idempotent. */
    void stop(const std::function<void()> &drain = {});

    /** Resolved TCP port after start(); 0 for unix sockets. */
    int port() const { return port_; }

    /** Handler threads not yet joined: open connections plus closed
     * ones the accept thread has not reaped yet. */
    size_t threadsHeld() const;

  private:
    void acceptLoop();
    void serveConnection(int fd, const FrameHandler &handler);
    void reapFinished();

    const Endpoint endpoint_;
    const HandlerFactory make_handler_;
    obs::Counter &connections_;
    obs::Counter &protocol_errors_;
    const std::function<void()> on_tick_;

    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_;
    std::condition_variable closed_cv_; ///< a connection left open_
    std::unordered_map<int, std::thread> open_; ///< fd -> its handler
    std::vector<std::thread> finished_; ///< exited, not yet joined

    std::thread accept_thread_;
};

} // namespace sns::serve

#endif // SNS_SERVE_LISTENER_HH
