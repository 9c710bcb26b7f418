#include "cluster/router.hh"

#include <chrono>

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
      requests_total_(
          options_.registry->counter("router.requests_total")),
      retries_total_(
          options_.registry->counter("router.retries_total")),
      transport_errors_(
          options_.registry->counter("router.worker_transport_errors")),
      protocol_errors_(
          options_.registry->counter("router.protocol_errors")),
      listener_(
          serve::Endpoint{options_.unix_path, options_.tcp_host,
                          options_.tcp_port},
          [this]() -> serve::ConnectionListener::FrameHandler {
              // Each connection owns its worker connections and ring.
              auto state = std::make_shared<HandlerState>();
              state->workers.resize(options_.workers.size());
              return [this, state](const std::vector<uint8_t> &request) {
                  return handleRequest(request, *state);
              };
          },
          options_.registry->counter("router.connections_total"),
          protocol_errors_)
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

    stopping_.store(false);
    listener_.start();
    options_.registry->setGauge("router.sessions_open", [this] {
        return static_cast<double>(sessionsOpen());
    });
    options_.registry->setGauge("router.workers_up", [this] {
        return static_cast<double>(
            membership_.countInState(WorkerState::Up));
    });

    running_.store(true);
    if (options_.health_period_ms > 0)
        health_ = std::thread([this] { healthLoop(); });
}

void
Router::stop()
{
    if (!running_.exchange(false))
        return;
    stopping_.store(true);
    listener_.stop();

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
                        serve::Client::connect(address));
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
            serve::Client::connect(address, options_.connect_retry));
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
