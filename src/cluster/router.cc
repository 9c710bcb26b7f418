#include "cluster/router.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/codec.hh"
#include "util/logging.hh"

namespace sns::cluster {

using serve::Status;
using serve::Verb;
using serve::WireReader;
using serve::WireWriter;

using serve::statusReply;

namespace {

/** Re-encode a worker's reply bit-exactly (f64 round-trips through
 * the client decode unchanged — this is what keeps cluster replies
 * byte-identical to a single worker's). */
std::vector<uint8_t>
encodePredictReply(const serve::PredictReply &reply)
{
    if (reply.status != Status::Ok)
        return statusReply(reply.status, reply.message);
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    serve::writePrediction(writer, reply.prediction);
    return writer.bytes();
}

std::vector<uint8_t>
encodeSessionReply(const serve::SessionReply &reply,
                   bool include_session_id, uint64_t session_id)
{
    if (reply.status != Status::Ok)
        return statusReply(reply.status, reply.message);
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    if (include_session_id)
        writer.u64(session_id);
    serve::writePrediction(writer, reply.prediction);
    serve::writeDiff(writer, reply.diff);
    return writer.bytes();
}

} // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      membership_(options_.workers, options_.vnodes,
                  options_.fail_threshold),
      connections_total_(
          options_.registry->counter("router.connections_total")),
      requests_total_(
          options_.registry->counter("router.requests_total")),
      retries_total_(
          options_.registry->counter("router.retries_total")),
      transport_errors_(
          options_.registry->counter("router.worker_transport_errors")),
      protocol_errors_(
          options_.registry->counter("router.protocol_errors"))
{
    SNS_ASSERT(!options_.workers.empty(),
               "Router needs at least one worker");
    health_conns_.resize(options_.workers.size());
}

Router::~Router() { stop(); }

void
Router::start()
{
    SNS_ASSERT(!running_.load(), "Router::start() called twice");

    if (!options_.unix_path.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.unix_path.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("unix socket path too long: " +
                                     options_.unix_path);
        std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        ::unlink(options_.unix_path.c_str());
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const std::string err = std::strerror(errno);
            closeListener();
            throw std::runtime_error("bind(" + options_.unix_path +
                                     "): " + err);
        }
    } else {
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
        if (::inet_pton(AF_INET, options_.tcp_host.c_str(),
                        &addr.sin_addr) != 1)
            throw std::runtime_error("bad listen address: " +
                                     options_.tcp_host);
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        const int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const std::string err = std::strerror(errno);
            closeListener();
            throw std::runtime_error(
                "bind(" + options_.tcp_host + ":" +
                std::to_string(options_.tcp_port) + "): " + err);
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            port_ = ntohs(bound.sin_port);
    }

    if (::listen(listen_fd_, 128) != 0) {
        const std::string err = std::strerror(errno);
        closeListener();
        throw std::runtime_error("listen: " + err);
    }

    options_.registry->setGauge("router.sessions_open", [this] {
        return static_cast<double>(sessionsOpen());
    });
    options_.registry->setGauge("router.workers_up", [this] {
        return static_cast<double>(
            membership_.countInState(WorkerState::Up));
    });

    stopping_.store(false);
    running_.store(true);
    listener_ = std::thread([this] { listenLoop(); });
    if (options_.health_period_ms > 0)
        health_ = std::thread([this] { healthLoop(); });
}

void
Router::closeListener()
{
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (!options_.unix_path.empty())
        ::unlink(options_.unix_path.c_str());
}

void
Router::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);

    if (listener_.joinable())
        listener_.join();
    closeListener();

    // Unblock handlers parked in recvFrame; same discipline as
    // serve::Server::stop().
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (const int fd : open_fds_)
            ::shutdown(fd, SHUT_RD);
    }
    for (auto &handler : handlers_) {
        if (handler.joinable())
            handler.join();
    }
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        handlers_.clear();
        open_fds_.clear();
    }

    health_cv_.notify_all();
    if (health_.joinable())
        health_.join();
    health_conns_.clear();

    options_.registry->removeGauge("router.sessions_open");
    options_.registry->removeGauge("router.workers_up");
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        sessions_.clear();
    }
}

void
Router::listenLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        connections_total_.inc();
        std::lock_guard<std::mutex> lock(conn_mutex_);
        open_fds_.insert(fd);
        handlers_.emplace_back([this, fd] { handleConnection(fd); });
    }
}

void
Router::healthLoop()
{
    std::unique_lock<std::mutex> lock(health_mutex_);
    while (!stopping_.load()) {
        for (size_t i = 0; i < health_conns_.size(); ++i) {
            if (stopping_.load())
                return;
            try {
                if (!health_conns_[i]) {
                    const WorkerAddress address =
                        membership_.address(i);
                    // Single try here: the probe loop itself is the
                    // retry schedule, and a blocking backoff would
                    // stall the other workers' probes.
                    auto client = std::make_unique<serve::Client>(
                        !address.unix_path.empty()
                            ? serve::Client::connectUnix(
                                  address.unix_path)
                            : serve::Client::connectTcp(
                                  address.tcp_host,
                                  address.tcp_port));
                    client->hello();
                    health_conns_[i] = std::move(client);
                }
                const bool draining = health_conns_[i]->health();
                membership_.markReachable(i, draining);
            } catch (const serve::ProtocolError &) {
                health_conns_[i].reset();
                membership_.markFailure(i);
            }
        }
        health_cv_.wait_for(
            lock,
            std::chrono::milliseconds(options_.health_period_ms),
            [this] { return stopping_.load(); });
    }
}

void
Router::handleConnection(int fd)
{
    HandlerState state;
    state.workers.resize(options_.workers.size());
    try {
        for (;;) {
            auto request =
                serve::recvFrame(fd, options_.max_frame_bytes);
            if (!request)
                break; // clean EOF
            serve::sendFrame(fd, handleRequest(*request, state));
        }
    } catch (const serve::ProtocolError &) {
        protocol_errors_.inc();
    }
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        open_fds_.erase(fd);
    }
    ::close(fd);
}

const HashRing &
Router::ringFor(HandlerState &state)
{
    const uint64_t epoch = membership_.epoch();
    if (state.ring_epoch != epoch) {
        state.ring = membership_.ring();
        state.ring_epoch = epoch;
    }
    return state.ring;
}

serve::Client *
Router::workerConn(HandlerState &state, size_t index)
{
    if (state.workers[index])
        return state.workers[index].get();
    const WorkerAddress address = membership_.address(index);
    try {
        auto client = std::make_unique<serve::Client>(
            !address.unix_path.empty()
                ? serve::Client::connectUnix(address.unix_path,
                                             options_.connect_retry)
                : serve::Client::connectTcp(address.tcp_host,
                                            address.tcp_port,
                                            options_.connect_retry));
        client->hello();
        state.workers[index] = std::move(client);
        return state.workers[index].get();
    } catch (const serve::ProtocolError &) {
        transport_errors_.inc();
        membership_.markFailure(index);
        return nullptr;
    }
}

void
Router::resetConn(HandlerState &state, size_t index)
{
    state.workers[index].reset();
}

std::vector<uint8_t>
Router::handleRequest(const std::vector<uint8_t> &request,
                      HandlerState &state)
{
    requests_total_.inc();
    WireReader reader(request);
    try {
        const auto verb = static_cast<Verb>(reader.u8());
        switch (verb) {
        case Verb::Predict:
            return handlePredict(reader, state);
        case Verb::Stats:
            reader.expectEnd();
            return handleStats(state);
        case Verb::Reload:
            return handleReload(reader, state);
        case Verb::Ping: {
            reader.expectEnd();
            WireWriter writer;
            writer.u8(static_cast<uint8_t>(Status::Ok));
            writer.str("");
            writer.u8(0); // the router itself never drains
            return writer.bytes();
        }
        case Verb::Hello:
            return serve::answerHello(reader);
        case Verb::Open:
            return handleOpen(reader, state);
        case Verb::Update:
            return handleUpdate(reader, state);
        case Verb::Close:
            return handleClose(reader, state);
        case Verb::Drain:
        case Verb::Resume:
            reader.expectEnd();
            return statusReply(
                Status::Unsupported,
                "the router does not drain; DRAIN/RESUME individual "
                "workers (their addresses are in WORKERS)");
        case Verb::Workers:
            reader.expectEnd();
            return handleWorkers();
        }
        return statusReply(Status::Error, "unknown verb");
    } catch (const serve::ProtocolError &e) {
        protocol_errors_.inc();
        return statusReply(Status::Error,
                           std::string("bad request: ") + e.what());
    }
}

std::vector<uint8_t>
Router::handlePredict(WireReader &reader, HandlerState &state)
{
    const uint32_t deadline_ms = reader.u32();
    const core::Precision precision = serve::readPrecision(reader);
    const auto format =
        static_cast<serve::DesignFormat>(reader.u8());
    const std::string text = reader.str();
    reader.expectEnd();
    const uint64_t key = hashKey(text);

    // One attempt per worker plus one: a DRAINING reply or transport
    // failure marks the member and the next pick runs on the
    // refreshed ring, so an operator DRAIN mid-traffic re-homes the
    // request instead of surfacing the refusal to the client.
    const size_t attempts = options_.workers.size() + 1;
    serve::PredictReply last;
    last.status = Status::Draining;
    last.message = "no routable workers (all draining or down)";
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            retries_total_.inc();
        const size_t index = ringFor(state).pick(key);
        if (index == HashRing::npos)
            break;
        serve::Client *client = workerConn(state, index);
        if (!client) {
            last.status = Status::Error;
            last.message = "worker " +
                           membership_.address(index).display() +
                           " unreachable";
            continue;
        }
        serve::PredictReply reply;
        try {
            reply = client->predict(text, format, deadline_ms,
                                    precision);
        } catch (const serve::ProtocolError &e) {
            transport_errors_.inc();
            membership_.markFailure(index);
            resetConn(state, index);
            last.status = Status::Error;
            last.message = std::string("worker request failed: ") +
                           e.what();
            continue;
        }
        if (reply.status == Status::Draining) {
            membership_.markDraining(index);
            last = reply;
            continue;
        }
        return encodePredictReply(reply);
    }
    return statusReply(last.status, last.message);
}

std::vector<uint8_t>
Router::handleOpen(WireReader &reader, HandlerState &state)
{
    const core::Precision precision = serve::readPrecision(reader);
    const auto format =
        static_cast<serve::DesignFormat>(reader.u8());
    const std::string text = reader.str();
    reader.expectEnd();
    const uint64_t key = hashKey(text);

    const size_t attempts = options_.workers.size() + 1;
    serve::SessionReply last;
    last.status = Status::Draining;
    last.message = "no routable workers (all draining or down)";
    for (size_t attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0)
            retries_total_.inc();
        const size_t index = ringFor(state).pick(key);
        if (index == HashRing::npos)
            break;
        serve::Client *client = workerConn(state, index);
        if (!client) {
            last.status = Status::Error;
            last.message = "worker " +
                           membership_.address(index).display() +
                           " unreachable";
            continue;
        }
        serve::SessionReply reply;
        try {
            reply = client->openSession(text, format, precision);
        } catch (const serve::ProtocolError &e) {
            transport_errors_.inc();
            membership_.markFailure(index);
            resetConn(state, index);
            last.status = Status::Error;
            last.message = std::string("worker request failed: ") +
                           e.what();
            continue;
        }
        if (reply.status == Status::Draining) {
            membership_.markDraining(index);
            last = reply;
            continue;
        }
        if (reply.status != Status::Ok)
            return encodeSessionReply(reply, false, 0);
        // Virtualize the id: workers number their own session tables,
        // so two workers' ids collide — clients see a cluster-wide id
        // and UPDATE/CLOSE translate back to (worker, worker id).
        const uint64_t cluster_id = next_session_id_.fetch_add(1);
        {
            std::lock_guard<std::mutex> lock(session_mutex_);
            sessions_[cluster_id] = {index, reply.session_id};
        }
        return encodeSessionReply(reply, /*include_session_id=*/true,
                                  cluster_id);
    }
    return statusReply(last.status, last.message);
}

std::vector<uint8_t>
Router::handleUpdate(WireReader &reader, HandlerState &state)
{
    const uint64_t cluster_id = reader.u64();
    const core::Precision precision = serve::readPrecision(reader);
    const auto format =
        static_cast<serve::DesignFormat>(reader.u8());
    const std::string text = reader.str();
    reader.expectEnd();

    SessionRoute route;
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        const auto it = sessions_.find(cluster_id);
        if (it == sessions_.end()) {
            return statusReply(Status::Error,
                               "unknown session " +
                                   std::to_string(cluster_id) +
                                   " (never opened, closed, or "
                                   "worker-evicted)");
        }
        route = it->second;
    }

    // Pinned: the session's state lives on its worker — UPDATE flows
    // there even while the worker drains (admitted edit loops finish
    // where they started); there is no alternative placement.
    serve::Client *client = workerConn(state, route.worker);
    if (!client) {
        return statusReply(Status::Error,
                           "session worker " +
                               membership_.address(route.worker)
                                   .display() +
                               " unreachable");
    }
    try {
        const serve::SessionReply reply = client->updateSession(
            route.worker_session_id, text, format, precision);
        return encodeSessionReply(reply, false, 0);
    } catch (const serve::ProtocolError &e) {
        transport_errors_.inc();
        membership_.markFailure(route.worker);
        resetConn(state, route.worker);
        return statusReply(Status::Error,
                           std::string("worker request failed: ") +
                               e.what());
    }
}

std::vector<uint8_t>
Router::handleClose(WireReader &reader, HandlerState &state)
{
    const uint64_t cluster_id = reader.u64();
    reader.expectEnd();
    SessionRoute route;
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        const auto it = sessions_.find(cluster_id);
        if (it == sessions_.end()) {
            return statusReply(Status::Error,
                               "unknown session " +
                                   std::to_string(cluster_id));
        }
        route = it->second;
        sessions_.erase(it);
    }
    serve::Client *client = workerConn(state, route.worker);
    if (!client) {
        return statusReply(Status::Error,
                           "session worker " +
                               membership_.address(route.worker)
                                   .display() +
                               " unreachable (mapping dropped)");
    }
    try {
        const std::string error =
            client->closeSession(route.worker_session_id);
        if (!error.empty())
            return statusReply(Status::Error, error);
        return statusReply(Status::Ok, "");
    } catch (const serve::ProtocolError &e) {
        transport_errors_.inc();
        membership_.markFailure(route.worker);
        resetConn(state, route.worker);
        return statusReply(Status::Error,
                           std::string("worker request failed: ") +
                               e.what());
    }
}

std::vector<uint8_t>
Router::handleStats(HandlerState &state)
{
    // Fan out to every configured worker (any state — a draining
    // worker's counters still matter), merge the summable samples
    // into the cluster-wide view, and keep each worker's full
    // snapshot under a `worker<i>.` prefix. Quantiles and rates are
    // only meaningful per worker, so they live solely in the
    // breakdown (obs::mergeStats drops them from the merge).
    std::vector<std::vector<obs::StatsSample>> snapshots;
    std::string breakdown;
    size_t unreachable = 0;
    for (size_t i = 0; i < options_.workers.size(); ++i) {
        const std::string prefix =
            "worker" + std::to_string(i) + ".";
        serve::Client *client = workerConn(state, i);
        std::string text;
        if (client) {
            try {
                text = client->stats();
            } catch (const serve::ProtocolError &) {
                transport_errors_.inc();
                membership_.markFailure(i);
                resetConn(state, i);
                client = nullptr;
            }
        }
        if (!client) {
            ++unreachable;
            breakdown += prefix + "unreachable 1\n";
            continue;
        }
        snapshots.push_back(obs::parseStats(text));
        size_t start = 0;
        while (start < text.size()) {
            size_t end = text.find('\n', start);
            if (end == std::string::npos)
                end = text.size();
            if (end > start)
                breakdown +=
                    prefix + text.substr(start, end - start) + "\n";
            start = end + 1;
        }
    }

    const std::vector<WorkerInfo> members = membership_.snapshot();
    std::string text;
    const auto line = [&text](const std::string &name, double value) {
        text += name;
        text += ' ';
        text += obs::formatValue(value);
        text += '\n';
    };
    line("cluster.workers", static_cast<double>(members.size()));
    line("cluster.workers_up",
         static_cast<double>(
             membership_.countInState(WorkerState::Up)));
    line("cluster.workers_draining",
         static_cast<double>(
             membership_.countInState(WorkerState::Draining)));
    line("cluster.workers_down",
         static_cast<double>(
             membership_.countInState(WorkerState::Down)));
    line("cluster.stats_unreachable",
         static_cast<double>(unreachable));
    for (const auto &sample : obs::mergeStats(snapshots))
        line(sample.name, sample.value);
    text += options_.registry->render();
    text += breakdown;

    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writer.str(text);
    return writer.bytes();
}

std::vector<uint8_t>
Router::handleReload(WireReader &reader, HandlerState &state)
{
    const std::string directory = reader.str();
    reader.expectEnd();
    // Broadcast: every worker stages the checkpoint. This is the
    // blunt instrument — the canary-verified one-at-a-time rollout
    // lives in promote.hh / `sns-cli promote`.
    std::string errors;
    for (size_t i = 0; i < options_.workers.size(); ++i) {
        serve::Client *client = workerConn(state, i);
        std::string error;
        if (!client) {
            error = "unreachable";
        } else {
            try {
                error = client->reload(directory);
            } catch (const serve::ProtocolError &e) {
                transport_errors_.inc();
                membership_.markFailure(i);
                resetConn(state, i);
                error = e.what();
            }
        }
        if (!error.empty()) {
            if (!errors.empty())
                errors += "; ";
            errors += membership_.address(i).display() + ": " + error;
        }
    }
    if (!errors.empty())
        return statusReply(Status::Error, errors);
    return statusReply(Status::Ok, "");
}

std::vector<uint8_t>
Router::handleWorkers()
{
    const std::vector<WorkerInfo> members = membership_.snapshot();
    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writer.u32(static_cast<uint32_t>(members.size()));
    for (const auto &member : members) {
        writer.str(member.address.display());
        writer.u8(static_cast<uint8_t>(member.state));
    }
    return writer.bytes();
}

size_t
Router::sessionsOpen() const
{
    std::lock_guard<std::mutex> lock(session_mutex_);
    return sessions_.size();
}

} // namespace sns::cluster
