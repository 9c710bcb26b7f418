#include "serve/server.hh"

#include <chrono>
#include <utility>

#include "netlist/snl_parser.hh"
#include "netlist/verilog_parser.hh"
#include "serve/codec.hh"
#include "util/logging.hh"
#include "verify/diagnostics.hh"

namespace sns::serve {

namespace {

/** Parse a session verb's design payload (format byte + source). */
bool
parseDesign(WireReader &reader, graphir::Graph &graph, std::string &error)
{
    const auto format = static_cast<DesignFormat>(reader.u8());
    const std::string text = reader.str();
    reader.expectEnd();
    try {
        graph = format == DesignFormat::Verilog ? netlist::parseVerilog(text)
                                                : netlist::parseSnl(text);
    } catch (const std::exception &e) {
        error = std::string("design parse error: ") + e.what();
        return false;
    }
    return true;
}

} // namespace

Server::Server(std::shared_ptr<const core::SnsPredictor> predictor,
               ServerOptions options)
    : options_(std::move(options)), predictor_(std::move(predictor)),
      cache_(perf::PathCacheOptions{options_.cache_capacity, 16}),
      int8_cache_(perf::PathCacheOptions{options_.cache_capacity, 16}),
      protocol_errors_(
          options_.registry->counter("serve.protocol_errors")),
      reloads_total_(options_.registry->counter("serve.reloads_total")),
      session_opens_(options_.registry->counter("session.opens_total")),
      session_updates_(
          options_.registry->counter("session.updates_total")),
      session_closes_(
          options_.registry->counter("session.closes_total")),
      session_evicted_ttl_(
          options_.registry->counter("session.evicted_ttl")),
      session_paths_reused_(
          options_.registry->counter("session.paths_reused")),
      session_paths_recomputed_(
          options_.registry->counter("session.paths_recomputed")),
      listener_(
          Endpoint{options_.unix_path, options_.tcp_host,
                   options_.tcp_port},
          [this]() -> ConnectionListener::FrameHandler {
              return [this](const std::vector<uint8_t> &request) {
                  return handleRequest(request);
              };
          },
          options_.registry->counter("serve.connections_total"),
          protocol_errors_,
          // Idle sessions are swept within ~100 ms of their deadline
          // whether or not traffic arrives.
          [this] { sweepSessions(); })
{
    SNS_ASSERT(predictor_ != nullptr, "Server needs a predictor");
}

Server::~Server() { stop(); }

void
Server::start()
{
    SNS_ASSERT(!running_.load(), "Server::start() called twice");

    batcher_ = std::make_unique<MicroBatcher>(
        options_.batch,
        [this](const std::vector<const graphir::Graph *> &graphs,
               core::Precision precision) {
            return runBatch(graphs, precision);
        },
        options_.registry);
    listener_.start();
    options_.registry->setGauge("serve.queue_depth", [this] {
        return static_cast<double>(batcher_->queueDepth());
    });
    options_.registry->setGauge("serve.sessions_open", [this] {
        return static_cast<double>(sessionsOpen());
    });

    running_.store(true);
    if (options_.stats_log_period_s > 0)
        logger_ = std::thread([this] { logLoop(); });
}

void
Server::stop()
{
    if (!running_.exchange(false))
        return;
    // Drain between "stop accepting" and "unblock the handlers": every
    // admitted request gets its real answer; submits from here on get
    // DRAINING.
    listener_.stop([this] { batcher_->drain(); });

    options_.registry->removeGauge("serve.queue_depth");
    options_.registry->removeGauge("serve.sessions_open");
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        sessions_.clear();
    }
    log_cv_.notify_all();
    if (logger_.joinable())
        logger_.join();
}

std::vector<uint8_t>
Server::handleRequest(const std::vector<uint8_t> &request)
{
    WireReader reader(request);
    try {
        const auto verb = static_cast<Verb>(reader.u8());
        switch (verb) {
        case Verb::Predict:
            return handlePredict(reader);
        case Verb::Stats: {
            reader.expectEnd();
            WireWriter writer;
            writer.u8(static_cast<uint8_t>(Status::Ok));
            writer.str(statsText());
            return writer.bytes();
        }
        case Verb::Reload: {
            const std::string directory = reader.str();
            reader.expectEnd();
            const std::string error = stageReload(directory);
            if (!error.empty())
                return statusReply(Status::Error, error);
            return statusReply(Status::Ok, "");
        }
        case Verb::Ping: {
            reader.expectEnd();
            WireWriter writer;
            writer.u8(static_cast<uint8_t>(Status::Ok));
            writer.str("");
            // The drain state rides on every PING reply, so a
            // router's health loop sees DRAIN without an extra round
            // trip.
            writer.u8(admission_paused_.load() ? 1 : 0);
            return writer.bytes();
        }
        case Verb::Hello:
            return answerHello(reader);
        case Verb::Open:
            return handleOpen(reader);
        case Verb::Update:
            return handleUpdate(reader);
        case Verb::Close:
            return handleClose(reader);
        case Verb::Drain:
        case Verb::Resume:
            reader.expectEnd();
            pauseAdmission(verb == Verb::Drain);
            return statusReply(Status::Ok, "");
        case Verb::Workers:
            // Only the router holds a membership table; a worker
            // answers UNSUPPORTED so a mis-pointed CLI degrades
            // cleanly instead of hanging.
            reader.expectEnd();
            return statusReply(Status::Unsupported,
                               "WORKERS is a router verb; this is a "
                               "single sns-serve worker");
        }
        return statusReply(Status::Error, "unknown verb");
    } catch (const ProtocolError &e) {
        // Framing is intact (frames are length-delimited); answer and
        // keep the connection.
        protocol_errors_.inc();
        return statusReply(Status::Error,
                           std::string("bad request: ") + e.what());
    }
}

std::vector<uint8_t>
Server::handlePredict(WireReader &reader)
{
    const uint32_t deadline_ms = reader.u32();
    const core::Precision precision = readPrecision(reader);
    const auto format = static_cast<DesignFormat>(reader.u8());
    const std::string text = reader.str();
    reader.expectEnd();
    // Soft drain (DRAIN): refuse new work before it is admitted —
    // everything already in the queue still gets its real answer.
    if (admission_paused_.load())
        return statusReply(Status::Draining, "worker is draining");

    auto ticket = std::make_unique<Ticket>();
    ticket->precision = precision;
    try {
        ticket->graph = format == DesignFormat::Verilog
                            ? netlist::parseVerilog(text)
                            : netlist::parseSnl(text);
    } catch (const std::exception &e) {
        return statusReply(Status::Error,
                           std::string("design parse error: ") +
                               e.what());
    }
    if (deadline_ms > 0) {
        ticket->has_deadline = true;
        ticket->deadline = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(deadline_ms);
    }

    auto future = ticket->promise.get_future();
    switch (batcher_->submit(ticket)) {
    case MicroBatcher::Admit::Overloaded:
        return statusReply(Status::Overloaded,
                           "queue full (" +
                               std::to_string(
                                   batcher_->options().max_queue) +
                               " pending)");
    case MicroBatcher::Admit::Draining:
        return statusReply(Status::Draining, "server is draining");
    case MicroBatcher::Admit::Ok:
        break;
    }

    const Outcome outcome = future.get();
    if (outcome.status != Status::Ok)
        return statusReply(outcome.status, outcome.message);

    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    writePrediction(writer, outcome.prediction);
    return writer.bytes();
}

std::vector<uint8_t>
Server::runSession(const std::shared_ptr<SessionEntry> &entry,
                   const graphir::Graph &graph,
                   core::Precision precision, uint64_t echo_session_id,
                   bool include_session_id)
{
    // Sessions are stateful and per-design: they bypass the batcher
    // and run here on the handler thread, against the newest loaded
    // model. A staged reload is *read* here (sessions must not serve a
    // model the operator already replaced) but the live swap — which
    // rebinds the shared PREDICT cache — stays the executor's job, so
    // it can never race an in-flight batch's cache inserts; sessions
    // only touch their own pinned caches.
    std::shared_ptr<const core::SnsPredictor> predictor;
    {
        std::lock_guard<std::mutex> lock(model_mutex_);
        predictor = staged_predictor_ ? staged_predictor_ : predictor_;
    }

    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->session.isOpen() &&
        entry->session.boundModel() != predictor->modelFingerprint()) {
        // The model was hot-reloaded after this session opened; its
        // pinned predictions belong to the old weights (V-SESS-MODEL).
        return statusReply(Status::Error,
                           "session was opened under a different model "
                           "(the server reloaded); CLOSE and re-OPEN");
    }

    // An int8 request against a model with no scales must be a clean
    // reply, not a fatal V-OPT-PRECISION abort inside predict.
    if (precision == core::Precision::Int8 && !predictor->quantized()) {
        return statusReply(Status::Error,
                           "precision=int8 but the served model "
                           "carries no int8 scales (quantize the "
                           "checkpoint and RELOAD)");
    }
    // A session is pinned to the tier it opened at; switching
    // mid-session is a clean error (V-SESS-MODEL), same as a model
    // swap — the pinned predictions belong to the opening tier.
    if (entry->session.isOpen() &&
        entry->session.precision() != precision) {
        return statusReply(
            Status::Error,
            std::string("session opened at precision ") +
                core::precisionName(entry->session.precision()) +
                " but this request asks for " +
                core::precisionName(precision) +
                "; CLOSE and re-OPEN to switch");
    }

    core::SnsPrediction prediction;
    core::PredictOptions session_options;
    session_options.precision = precision;
    try {
        prediction =
            entry->session.predict(*predictor, graph, session_options);
    } catch (const std::exception &e) {
        return statusReply(Status::Error,
                           std::string("session predict failed: ") +
                               e.what());
    }
    entry->last_used_ns.store(std::chrono::steady_clock::now()
                                  .time_since_epoch()
                                  .count(),
                              std::memory_order_relaxed);

    const core::DiffStats &diff = entry->session.lastDiff();
    session_paths_reused_.inc(diff.paths_reused);
    session_paths_recomputed_.inc(diff.paths_recomputed);

    WireWriter writer;
    writer.u8(static_cast<uint8_t>(Status::Ok));
    if (include_session_id)
        writer.u64(echo_session_id);
    writePrediction(writer, prediction);
    writeDiff(writer, diff);
    return writer.bytes();
}

std::vector<uint8_t>
Server::handleOpen(WireReader &reader)
{
    const core::Precision precision = readPrecision(reader);
    graphir::Graph graph;
    std::string error;
    if (!parseDesign(reader, graph, error))
        return statusReply(Status::Error, error);
    // Soft drain: no new sessions; open sessions keep updating so
    // admitted edit loops finish wherever they started.
    if (admission_paused_.load())
        return statusReply(Status::Draining, "worker is draining");

    auto entry = std::make_shared<SessionEntry>();
    entry->last_used_ns.store(std::chrono::steady_clock::now()
                                  .time_since_epoch()
                                  .count(),
                              std::memory_order_relaxed);
    const uint64_t id = next_session_id_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        if (sessions_.size() >= options_.max_sessions) {
            return statusReply(
                Status::Overloaded,
                "session table full (" +
                    std::to_string(options_.max_sessions) +
                    " open); CLOSE a session or raise --max-sessions");
        }
        sessions_.emplace(id, entry);
    }
    session_opens_.inc();
    return runSession(entry, graph, precision, id,
                      /*include_session_id=*/true);
}

std::vector<uint8_t>
Server::handleUpdate(WireReader &reader)
{
    const uint64_t id = reader.u64();
    const core::Precision precision = readPrecision(reader);
    graphir::Graph graph;
    std::string error;
    if (!parseDesign(reader, graph, error))
        return statusReply(Status::Error, error);

    std::shared_ptr<SessionEntry> entry;
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        const auto it = sessions_.find(id);
        if (it != sessions_.end())
            entry = it->second;
    }
    if (!entry) {
        return statusReply(Status::Error,
                           "unknown session " + std::to_string(id) +
                               " (never opened, closed, or TTL-evicted)");
    }
    session_updates_.inc();
    return runSession(entry, graph, precision, id,
                      /*include_session_id=*/false);
}

std::vector<uint8_t>
Server::handleClose(WireReader &reader)
{
    const uint64_t id = reader.u64();
    reader.expectEnd();
    std::shared_ptr<SessionEntry> entry;
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        const auto it = sessions_.find(id);
        if (it == sessions_.end())
            return statusReply(Status::Error,
                               "unknown session " + std::to_string(id));
        entry = std::move(it->second);
        sessions_.erase(it);
    }
    // Free the pinned cache under the entry mutex so a racing UPDATE
    // that already grabbed the shared_ptr finishes first.
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->session.close();
    session_closes_.inc();
    return statusReply(Status::Ok, "");
}

void
Server::sweepSessions()
{
    if (options_.session_ttl_s <= 0)
        return;
    const int64_t deadline_ns =
        (std::chrono::steady_clock::now() -
         std::chrono::seconds(options_.session_ttl_s))
            .time_since_epoch()
            .count();
    std::vector<std::shared_ptr<SessionEntry>> evicted;
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if (it->second->last_used_ns.load(
                    std::memory_order_relaxed) < deadline_ns) {
                evicted.push_back(std::move(it->second));
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &entry : evicted) {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->session.close();
        session_evicted_ttl_.inc();
    }
}

size_t
Server::sessionsOpen() const
{
    std::lock_guard<std::mutex> lock(session_mutex_);
    return sessions_.size();
}

std::vector<core::SnsPrediction>
Server::runBatch(const std::vector<const graphir::Graph *> &graphs,
                 core::Precision precision)
{
    // This runs on the batcher's executor — the only thread that ever
    // touches the model or inserts into the caches — so swapping the
    // staged checkpoint here makes hot-reload atomic per batch: no
    // batch mixes models, and clearing the caches before first use of
    // the new model can never race an old-model insert.
    std::shared_ptr<const core::SnsPredictor> predictor;
    {
        std::lock_guard<std::mutex> lock(model_mutex_);
        if (staged_predictor_) {
            predictor_ = std::move(staged_predictor_);
            staged_predictor_ = nullptr;
            cache_.clear(); // unbind; the new model re-binds below
            int8_cache_.clear();
        }
        predictor = predictor_;
    }
    // An int8 batch against a model with no scales must become a clean
    // Error outcome for its tickets, not a fatal V-OPT-PRECISION abort
    // inside predictBatch (the executor catches exceptions).
    if (precision == core::Precision::Int8 && !predictor->quantized()) {
        throw std::runtime_error(
            "precision=int8 but the served model carries no int8 "
            "scales (quantize the checkpoint and RELOAD)");
    }
    core::PredictOptions options;
    options.precision = precision;
    // One cache per tier: the binding fingerprint is precision-salted,
    // so fp64 and int8 entries must never share a cache.
    options.cache = precision == core::Precision::Int8 ? &int8_cache_
                                                       : &cache_;
    return predictor->predictBatch(graphs, options);
}

std::string
Server::stageReload(const std::string &directory)
{
    try {
        auto loaded = std::make_shared<const core::SnsPredictor>(
            core::SnsPredictor::load(directory));
        std::lock_guard<std::mutex> lock(model_mutex_);
        staged_predictor_ = std::move(loaded);
    } catch (const verify::VerifyError &e) {
        // A checkpoint that *parses* but fails static analysis (a
        // corrupt or mismatched plan.snsp, bad container hash, ...) —
        // name the analyzer so operators reach for sns_lint, not the
        // serializer.
        return std::string("verification failed: ") + e.what();
    } catch (const std::exception &e) {
        return e.what();
    }
    reloads_total_.inc();
    return "";
}

std::string
Server::statsText() const
{
    std::string text = options_.registry->render() +
                       obs::formatCacheStats(cache_.stats());
    const auto int8 = int8_cache_.stats();
    const auto line = [&text](const char *name, double value) {
        text += name;
        text += ' ';
        text += obs::formatValue(value);
        text += '\n';
    };
    line("cache_int8.hits", static_cast<double>(int8.hits));
    line("cache_int8.misses", static_cast<double>(int8.misses));
    line("cache_int8.entries", static_cast<double>(int8.entries));
    return text;
}

void
Server::logLoop()
{
    obs::Registry &registry = *options_.registry;
    obs::Counter &ok = registry.counter("serve.requests_ok");
    obs::Counter &total = registry.counter("serve.requests_total");
    obs::Counter &overloaded =
        registry.counter("serve.rejected_overloaded");
    obs::Histogram &latency =
        registry.histogram("serve.request_latency_us");
    std::unique_lock<std::mutex> lock(log_mutex_);
    while (running_.load()) {
        log_cv_.wait_for(
            lock, std::chrono::seconds(options_.stats_log_period_s));
        if (!running_.load())
            break;
        const auto snap = latency.snapshot();
        const auto stats = cache_.stats();
        inform("serve: requests=", total.value(), " ok=", ok.value(),
               " overloaded=", overloaded.value(),
               " p50_us=", static_cast<uint64_t>(snap.p50),
               " p99_us=", static_cast<uint64_t>(snap.p99),
               " queue=", batcher_->queueDepth(), " cache_hit_rate=",
               obs::formatValue(stats.hitRate()));
    }
}

} // namespace sns::serve
