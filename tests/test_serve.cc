/**
 * @file
 * Tests for sns::serve: wire protocol encode/decode and framing, the
 * micro-batching queue (coalescing, overload, deadlines, drain), and
 * the full server loop — end-to-end bitwise agreement with a local
 * predictBatch, STATS, hot reload, and graceful shutdown — and the
 * connection listener's thread reaping. Run under
 * TSan by tools/run_lint.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/trainer.hh"
#include "obs/metrics.hh"
#include "designs/designs.hh"
#include "netlist/snl_parser.hh"
#include "par/thread_pool.hh"
#include "serve/batcher.hh"
#include "serve/client.hh"
#include "serve/codec.hh"
#include "serve/listener.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace sns::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, WriterReaderRoundTrip)
{
    WireWriter writer;
    writer.u8(7);
    writer.u32(0xDEADBEEF);
    writer.u64(0x0123456789ABCDEFull);
    writer.f64(3.141592653589793);
    writer.str("hello frame");

    WireReader reader(writer.bytes());
    EXPECT_EQ(reader.u8(), 7);
    EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(reader.f64(), 3.141592653589793); // bitwise
    EXPECT_EQ(reader.str(), "hello frame");
    EXPECT_EQ(reader.remaining(), 0u);
    EXPECT_NO_THROW(reader.expectEnd());
}

TEST(ProtocolTest, UnderrunAndTrailingBytesThrow)
{
    WireWriter writer;
    writer.u32(42);
    WireReader short_read(writer.bytes());
    EXPECT_THROW((void)short_read.u64(), ProtocolError);

    WireReader trailing(writer.bytes());
    (void)trailing.u8();
    EXPECT_THROW(trailing.expectEnd(), ProtocolError);
}

TEST(ProtocolTest, StringLengthIsBoundsChecked)
{
    // A str whose length prefix exceeds the remaining payload must be
    // rejected, not read out of bounds.
    WireWriter writer;
    writer.u32(1000); // claims 1000 bytes follow; none do
    WireReader reader(writer.bytes());
    EXPECT_THROW((void)reader.str(), ProtocolError);
}

TEST(ProtocolTest, FramesCrossASocketPair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    WireWriter writer;
    writer.str("ping");
    writer.u32(99);
    sendFrame(fds[0], writer.bytes());

    const auto got = recvFrame(fds[1], 1 << 20);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, writer.bytes());

    // Clean close at a frame boundary reads as EOF, not an error.
    ::close(fds[0]);
    EXPECT_FALSE(recvFrame(fds[1], 1 << 20).has_value());
    ::close(fds[1]);
}

TEST(ProtocolTest, OversizedFrameIsRejected)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<uint8_t> big(4096, 0xAB);
    sendFrame(fds[0], big);
    // Tiny cap: the receiver must refuse before allocating the payload.
    EXPECT_THROW((void)recvFrame(fds[1], 64), ProtocolError);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ProtocolTest, StatusNames)
{
    EXPECT_STREQ(statusName(Status::Ok), "OK");
    EXPECT_STREQ(statusName(Status::Overloaded), "OVERLOADED");
    EXPECT_STREQ(statusName(Status::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
    EXPECT_STREQ(statusName(Status::Draining), "DRAINING");
}

// ---------------------------------------------------------------------
// MicroBatcher

/** A ticket carrying a trivial graph. */
std::unique_ptr<Ticket>
makeTicket(uint32_t deadline_ms = 0)
{
    auto ticket = std::make_unique<Ticket>();
    ticket->enqueued = std::chrono::steady_clock::now();
    if (deadline_ms > 0) {
        ticket->has_deadline = true;
        ticket->deadline =
            ticket->enqueued + std::chrono::milliseconds(deadline_ms);
    }
    return ticket;
}

core::SnsPrediction
stubPrediction(double base)
{
    core::SnsPrediction pred;
    pred.timing_ps = base;
    pred.area_um2 = base * 2;
    pred.power_mw = base * 3;
    pred.paths_sampled = 1;
    return pred;
}

TEST(MicroBatcherTest, CoalescesConcurrentRequestsIntoFewerBatches)
{
    obs::Registry registry;
    BatchOptions options;
    options.max_batch = 8;
    options.max_linger_us = 20000; // generous: let the queue fill
    std::atomic<size_t> batches{0};
    MicroBatcher batcher(
        options,
        [&batches](const std::vector<const graphir::Graph *> &graphs,
                   core::Precision) {
            batches.fetch_add(1);
            std::vector<core::SnsPrediction> preds;
            for (size_t i = 0; i < graphs.size(); ++i)
                preds.push_back(stubPrediction(double(i) + 1));
            return preds;
        },
        &registry);

    constexpr size_t kRequests = 16;
    std::vector<std::future<Outcome>> futures;
    std::vector<std::unique_ptr<Ticket>> tickets;
    for (size_t i = 0; i < kRequests; ++i) {
        auto ticket = makeTicket();
        futures.push_back(ticket->promise.get_future());
        ASSERT_EQ(batcher.submit(ticket), MicroBatcher::Admit::Ok);
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, Status::Ok);

    // 16 requests on an 8-wide batcher with a long linger must ride in
    // far fewer than 16 batches (>= 2 by the width cap alone).
    EXPECT_LE(batches.load(), kRequests - 1);
    EXPECT_GE(batches.load(), 2u);
    EXPECT_EQ(registry.counter("serve.requests_ok").value(), kRequests);
    EXPECT_EQ(registry.counter("serve.batched_designs_total").value(),
              kRequests);
    EXPECT_EQ(registry.counter("serve.batches_total").value(),
              batches.load());
    EXPECT_EQ(
        registry.histogram("serve.request_latency_us").snapshot().count,
        kRequests);
}

TEST(MicroBatcherTest, BoundedQueueRejectsOverload)
{
    obs::Registry registry;
    BatchOptions options;
    options.max_batch = 1;
    options.max_queue = 2;
    options.max_linger_us = 0;

    // Block the executor so the queue genuinely backs up.
    std::promise<void> release;
    std::shared_future<void> released(release.get_future());
    MicroBatcher batcher(
        options,
        [released](const std::vector<const graphir::Graph *> &graphs,
                   core::Precision) {
            released.wait();
            return std::vector<core::SnsPrediction>(graphs.size());
        },
        &registry);

    // First ticket occupies the executor; then fill the queue.
    std::vector<std::future<Outcome>> futures;
    size_t admitted = 0;
    size_t overloaded = 0;
    for (size_t i = 0; i < 16; ++i) {
        auto ticket = makeTicket();
        auto future = ticket->promise.get_future();
        const auto admit = batcher.submit(ticket);
        if (admit == MicroBatcher::Admit::Ok) {
            ++admitted;
            futures.push_back(std::move(future));
        } else {
            EXPECT_EQ(admit, MicroBatcher::Admit::Overloaded);
            ASSERT_NE(ticket, nullptr) << "rejected ticket handed back";
            ++overloaded;
        }
        if (overloaded >= 3)
            break;
    }
    EXPECT_GT(overloaded, 0u);
    // Every admitted request still resolves once the executor unblocks.
    release.set_value();
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, Status::Ok);
    EXPECT_EQ(registry.counter("serve.rejected_overloaded").value(),
              overloaded);
    batcher.drain();
}

TEST(MicroBatcherTest, ExpiredDeadlinesAreRejectedAtDispatch)
{
    obs::Registry registry;
    BatchOptions options;
    options.max_batch = 4;
    options.max_linger_us = 0;

    std::promise<void> release;
    std::shared_future<void> released(release.get_future());
    std::promise<void> entered;
    auto entered_future = entered.get_future();
    std::atomic<size_t> designs_seen{0};
    std::atomic<bool> first_call{true};
    MicroBatcher batcher(
        options,
        [released, &entered, &designs_seen, &first_call](
            const std::vector<const graphir::Graph *> &graphs,
            core::Precision) {
            if (first_call.exchange(false))
                entered.set_value();
            released.wait();
            designs_seen.fetch_add(graphs.size());
            return std::vector<core::SnsPrediction>(graphs.size());
        },
        &registry);

    // Occupy the executor, then queue a request whose 1 ms deadline
    // will be long gone when the executor finally picks it up. Waiting
    // for the executor to enter the first batch guarantees the doomed
    // ticket can't ride along in it.
    auto blocker = makeTicket();
    auto blocker_future = blocker->promise.get_future();
    ASSERT_EQ(batcher.submit(blocker), MicroBatcher::Admit::Ok);
    entered_future.wait();
    auto doomed = makeTicket(1);
    auto doomed_future = doomed->promise.get_future();
    ASSERT_EQ(batcher.submit(doomed), MicroBatcher::Admit::Ok);

    std::this_thread::sleep_for(20ms);
    release.set_value();
    EXPECT_EQ(blocker_future.get().status, Status::Ok);
    EXPECT_EQ(doomed_future.get().status, Status::DeadlineExceeded);
    EXPECT_EQ(registry.counter("serve.rejected_deadline").value(), 1u);
    batcher.drain();
    // The expired design never reached the model.
    EXPECT_EQ(designs_seen.load(), 1u);
}

TEST(MicroBatcherTest, DrainAnswersAdmittedAndRefusesNew)
{
    obs::Registry registry;
    BatchOptions options;
    options.max_batch = 4;
    options.max_linger_us = 50000;
    MicroBatcher batcher(
        options,
        [](const std::vector<const graphir::Graph *> &graphs,
           core::Precision) {
            return std::vector<core::SnsPrediction>(graphs.size());
        },
        &registry);

    auto admitted = makeTicket();
    auto admitted_future = admitted->promise.get_future();
    ASSERT_EQ(batcher.submit(admitted), MicroBatcher::Admit::Ok);

    batcher.drain();
    EXPECT_EQ(admitted_future.get().status, Status::Ok)
        << "admitted before drain() must still get a real answer";

    auto late = makeTicket();
    EXPECT_EQ(batcher.submit(late), MicroBatcher::Admit::Draining);
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(registry.counter("serve.rejected_draining").value(), 1u);
    batcher.drain(); // idempotent
}

TEST(MicroBatcherTest, BatchFnExceptionBecomesErrorOutcome)
{
    obs::Registry registry;
    BatchOptions options;
    options.max_linger_us = 0;
    MicroBatcher batcher(
        options,
        [](const std::vector<const graphir::Graph *> &,
           core::Precision) -> std::vector<core::SnsPrediction> {
            throw std::runtime_error("model exploded");
        },
        &registry);
    auto ticket = makeTicket();
    auto future = ticket->promise.get_future();
    ASSERT_EQ(batcher.submit(ticket), MicroBatcher::Admit::Ok);
    const auto outcome = future.get();
    EXPECT_EQ(outcome.status, Status::Error);
    EXPECT_NE(outcome.message.find("model exploded"), std::string::npos);
    EXPECT_EQ(registry.counter("serve.request_errors").value(), 1u);
}

// ---------------------------------------------------------------------
// Server end to end

constexpr const char *kFirSnl = R"(design fir2
input  x 16
node   p0 mul 32 x c0
node   p1 mul 32 x c1
reg    c0 16
reg    c1 16
reg    z0 32 p0
node   s1 add 32 p1 z0
reg    z1 32 s1
output y  32 z1
)";

constexpr const char *kMacSnl = R"(design mac
input  a 8
input  b 8
node   m mul 16 a b
reg    acc 16 s
node   s add 16 m acc
output q 16 acc
)";

/** One tiny trained checkpoint shared by the server tests. */
const std::string &
checkpointDir()
{
    static const std::string dir = [] {
        synth::SynthesisOptions opts;
        opts.effort = 0.1;
        synth::Synthesizer oracle(opts);
        const auto dataset = core::HardwareDesignDataset::build(
            designs::DesignLibrary::smokeSet(), oracle);
        std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
        core::SnsTrainer trainer(core::TrainerConfig::fast());
        const auto predictor = trainer.train(dataset, train_idx, oracle);
        const auto path = (std::filesystem::temp_directory_path() /
                           "sns_serve_test_model")
                              .string();
        predictor.save(path);
        par::setThreads(1);
        return path;
    }();
    return dir;
}

std::string
tempSocketPath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("sns_serve_test_") + tag + ".sock"))
        .string();
}

TEST(ServerTest, RemotePredictionsMatchLocalBitwise)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));

    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("bitwise");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    // Local reference: the exact predictor instance the server holds,
    // through its own shared cache's semantics (cache on/off is
    // bitwise identical per PR 3, so a plain uncached call suffices).
    const auto fir = netlist::parseSnl(kFirSnl);
    const auto mac = netlist::parseSnl(kMacSnl);
    const graphir::Graph *graphs[2] = {&fir, &mac};
    const auto local = predictor->predictBatch(graphs);

    auto client = Client::connectUnix(options.unix_path);
    const auto remote_fir = client.predict(kFirSnl, DesignFormat::Snl);
    const auto remote_mac = client.predict(kMacSnl, DesignFormat::Snl);
    ASSERT_EQ(remote_fir.status, Status::Ok);
    ASSERT_EQ(remote_mac.status, Status::Ok);

    EXPECT_EQ(remote_fir.prediction.timing_ps, local[0].timing_ps);
    EXPECT_EQ(remote_fir.prediction.area_um2, local[0].area_um2);
    EXPECT_EQ(remote_fir.prediction.power_mw, local[0].power_mw);
    EXPECT_EQ(remote_fir.prediction.paths_sampled,
              local[0].paths_sampled);
    EXPECT_EQ(remote_fir.prediction.critical_path,
              local[0].critical_path);
    EXPECT_EQ(remote_mac.prediction.timing_ps, local[1].timing_ps);
    EXPECT_EQ(remote_mac.prediction.area_um2, local[1].area_um2);
    EXPECT_EQ(remote_mac.prediction.power_mw, local[1].power_mw);
    EXPECT_EQ(remote_mac.prediction.critical_path,
              local[1].critical_path);

    // Warm-cache second pass: still identical.
    const auto again = client.predict(kFirSnl, DesignFormat::Snl);
    ASSERT_EQ(again.status, Status::Ok);
    EXPECT_EQ(again.prediction.timing_ps, local[0].timing_ps);
    EXPECT_EQ(again.prediction.area_um2, local[0].area_um2);

    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, StatsReportsTrafficAndCache)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("stats");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    client.ping();
    ASSERT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);
    ASSERT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);

    const std::string stats = client.stats();
    EXPECT_NE(stats.find("serve.requests_total 2\n"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("serve.requests_ok 2\n"), std::string::npos);
    EXPECT_NE(stats.find("serve.batches_total"), std::string::npos);
    EXPECT_NE(stats.find("serve.connections_total 1\n"),
              std::string::npos);
    EXPECT_NE(stats.find("serve.queue_depth"), std::string::npos);
    EXPECT_NE(stats.find("cache.hits"), std::string::npos);
    // The identical second request must have hit the shared cache.
    EXPECT_GT(server.cache().stats().hits, 0u);

    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, MalformedPayloadGetsErrorReplyAndConnectionSurvives)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("badpayload");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    // An unparseable design is an application error, not a dead
    // connection: the client sees ERROR and can keep going.
    const auto bad = client.predict("this is not snl", DesignFormat::Snl);
    EXPECT_EQ(bad.status, Status::Error);
    EXPECT_FALSE(bad.message.empty());
    // So is a precision byte that names no tier.
    const auto bad_tier = client.predict(kFirSnl, DesignFormat::Snl, 0,
                                         static_cast<core::Precision>(7));
    EXPECT_EQ(bad_tier.status, Status::Error);
    EXPECT_NE(bad_tier.message.find("unknown precision byte 7"),
              std::string::npos)
        << bad_tier.message;
    const auto good = client.predict(kFirSnl, DesignFormat::Snl);
    EXPECT_EQ(good.status, Status::Ok);

    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, HotReloadKeepsServingAndRebindsCache)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("reload");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    const auto before = client.predict(kFirSnl, DesignFormat::Snl);
    ASSERT_EQ(before.status, Status::Ok);

    // Reloading a bad path is an error reply, not a dead daemon.
    const std::string err = client.reload("/nonexistent/model");
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);

    // Reloading the same checkpoint: bitwise-identical predictions
    // (the round-trip fixed point) through the re-bound cache.
    EXPECT_EQ(client.reload(checkpointDir()), "");
    const auto after = client.predict(kFirSnl, DesignFormat::Snl);
    ASSERT_EQ(after.status, Status::Ok);
    EXPECT_EQ(after.prediction.timing_ps, before.prediction.timing_ps);
    EXPECT_EQ(after.prediction.area_um2, before.prediction.area_um2);
    EXPECT_EQ(after.prediction.power_mw, before.prediction.power_mw);
    EXPECT_EQ(after.prediction.critical_path,
              before.prediction.critical_path);
    EXPECT_EQ(registry.counter("serve.reloads_total").value(), 1u);

    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, ConcurrentClientsAllSucceedAndCoalesce)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("concurrent");
    options.batch.max_linger_us = 5000;
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    const auto fir = netlist::parseSnl(kFirSnl);
    const graphir::Graph *one[1] = {&fir};
    const auto local = predictor->predictBatch(one);

    constexpr int kClients = 8;
    constexpr int kPerClient = 4;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&options, &local, &failures] {
            auto client = Client::connectUnix(options.unix_path);
            for (int i = 0; i < kPerClient; ++i) {
                const auto reply =
                    client.predict(kFirSnl, DesignFormat::Snl);
                if (reply.status != Status::Ok ||
                    reply.prediction.timing_ps != local[0].timing_ps ||
                    reply.prediction.area_um2 != local[0].area_um2)
                    failures.fetch_add(1);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(registry.counter("serve.requests_ok").value(),
              uint64_t(kClients) * kPerClient);
    // Concurrent closed-loop clients must have shared batches at least
    // once (strictly fewer batches than requests).
    EXPECT_LT(registry.counter("serve.batches_total").value(),
              uint64_t(kClients) * kPerClient);

    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, TcpTransportWorks)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options; // empty unix_path -> TCP on an ephemeral port
    options.registry = &registry;
    Server server(predictor, options);
    server.start();
    ASSERT_GT(server.port(), 0);

    auto client = Client::connect(Endpoint{"", "127.0.0.1", server.port()});
    client.ping();
    EXPECT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);
    server.stop();
    par::setThreads(1);
}

TEST(ServerTest, StopIsGracefulAndIdempotent)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("stop");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();
    {
        auto client = Client::connectUnix(options.unix_path);
        ASSERT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
                  Status::Ok);
    }
    server.stop();
    server.stop(); // idempotent
    EXPECT_FALSE(server.running());
    // The socket file is gone after shutdown.
    EXPECT_FALSE(std::filesystem::exists(options.unix_path));
    par::setThreads(1);
}

TEST(ListenerTest, FinishedConnectionThreadsAreReaped)
{
    // A daemon that has served many short connections must not keep
    // one dead, unjoined handler thread per connection it ever had.
    obs::Registry registry;
    obs::Counter &connections = registry.counter("connections");
    obs::Counter &errors = registry.counter("protocol_errors");
    const std::string path = tempSocketPath("reap");
    ConnectionListener listener(
        Endpoint{path},
        []() -> ConnectionListener::FrameHandler {
            return [](const std::vector<uint8_t> &request) {
                WireReader reader(request);
                reader.u8(); // the HELLO verb
                return answerHello(reader);
            };
        },
        connections, errors);
    listener.start();

    for (int i = 0; i < 256; ++i) {
        auto client = Client::connectUnix(path);
        client.hello();
    }
    EXPECT_LE(listener.threadsHeld(), 8u);
    // Within a few poll ticks every closed connection is joined.
    for (int tick = 0; tick < 40 && listener.threadsHeld() > 0; ++tick)
        std::this_thread::sleep_for(50ms);
    EXPECT_EQ(listener.threadsHeld(), 0u);
    EXPECT_EQ(connections.value(), 256u);
    EXPECT_EQ(errors.value(), 0u);

    listener.stop();
    EXPECT_FALSE(std::filesystem::exists(path));
}

// ---------------------------------------------------------------------
// HELLO and the edit-loop session verbs

/** A second checkpoint with different weights (different seed) for the
 * stale-session-after-reload test. */
const std::string &
checkpointDir2()
{
    static const std::string dir = [] {
        synth::SynthesisOptions opts;
        opts.effort = 0.1;
        synth::Synthesizer oracle(opts);
        const auto dataset = core::HardwareDesignDataset::build(
            designs::DesignLibrary::smokeSet(), oracle);
        std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
        core::TrainerConfig config = core::TrainerConfig::fast();
        config.seed += 1;
        core::SnsTrainer trainer(config);
        const auto predictor = trainer.train(dataset, train_idx, oracle);
        const auto path = (std::filesystem::temp_directory_path() /
                           "sns_serve_test_model2")
                              .string();
        predictor.save(path);
        par::setThreads(1);
        return path;
    }();
    return dir;
}

/** A two-module SNL design; `width1` parameterizes module "rhs" so an
 * edit touches exactly one of the two modules. */
std::string
duoSnl(int width1)
{
    std::ostringstream out;
    out << "design duo\n";
    out << "module lhs\n";
    out << "input  a 8\n";
    out << "reg    ca 8\n";
    out << "node   pa mul 16 a ca\n";
    out << "reg    za 16 pa\n";
    out << "output qa 16 za\n";
    out << "module rhs\n";
    out << "input  b " << width1 << "\n";
    out << "reg    cb " << width1 << "\n";
    out << "node   pb mul " << 2 * width1 << " b cb\n";
    out << "reg    zb " << 2 * width1 << " pb\n";
    out << "output qb " << 2 * width1 << " zb\n";
    return out.str();
}

void
expectSamePrediction(const core::SnsPrediction &got,
                     const core::SnsPrediction &want)
{
    EXPECT_EQ(got.timing_ps, want.timing_ps);
    EXPECT_EQ(got.area_um2, want.area_um2);
    EXPECT_EQ(got.power_mw, want.power_mw);
    EXPECT_EQ(got.paths_sampled, want.paths_sampled);
    EXPECT_EQ(got.critical_path, want.critical_path);
}

TEST(SessionServeTest, HelloNegotiatesVersionTwo)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("hello");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    // The strict check passes against a server from this build, is
    // repeatable, and leaves the connection serving.
    auto client = Client::connectUnix(options.unix_path);
    EXPECT_NO_THROW(client.hello());
    EXPECT_NO_THROW(client.hello());
    EXPECT_FALSE(client.health());

    server.stop();
    par::setThreads(1);
}

TEST(SessionServeTest, OpenUpdateCloseRoundTripMatchesLocalBitwise)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("session");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    // Cold local references for both revisions.
    const auto base = netlist::parseSnl(duoSnl(8));
    const auto edited = netlist::parseSnl(duoSnl(12));
    const auto cold_base = predictor->predict(base);
    const auto cold_edited = predictor->predict(edited);

    auto client = Client::connectUnix(options.unix_path);
    client.hello();

    const auto opened = client.openSession(duoSnl(8), DesignFormat::Snl);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;
    ASSERT_NE(opened.session_id, 0u);
    expectSamePrediction(opened.prediction, cold_base);
    EXPECT_EQ(opened.diff.paths_reused, 0u);
    EXPECT_EQ(opened.diff.modules_total, 2u);
    EXPECT_EQ(server.sessionsOpen(), 1u);

    // Editing one of the two modules reuses the other's paths.
    const auto updated = client.updateSession(
        opened.session_id, duoSnl(12), DesignFormat::Snl);
    ASSERT_EQ(updated.status, Status::Ok) << updated.message;
    EXPECT_EQ(updated.session_id, opened.session_id);
    expectSamePrediction(updated.prediction, cold_edited);
    EXPECT_FALSE(updated.diff.noop);
    EXPECT_EQ(updated.diff.modules_changed, 1u);
    EXPECT_GT(updated.diff.paths_reused, 0u);
    EXPECT_GT(updated.diff.paths_recomputed, 0u);

    // A no-op revision takes the fingerprint fast path on the server.
    const auto noop = client.updateSession(
        opened.session_id, duoSnl(12), DesignFormat::Snl);
    ASSERT_EQ(noop.status, Status::Ok) << noop.message;
    EXPECT_TRUE(noop.diff.noop);
    expectSamePrediction(noop.prediction, cold_edited);

    // Session metrics: gauge + counters in the STATS text.
    const std::string stats = client.stats();
    EXPECT_NE(stats.find("serve.sessions_open 1"), std::string::npos);
    EXPECT_NE(stats.find("session.opens_total 1"), std::string::npos);
    EXPECT_NE(stats.find("session.updates_total 2"), std::string::npos);

    EXPECT_EQ(client.closeSession(opened.session_id), "");
    EXPECT_EQ(server.sessionsOpen(), 0u);

    // The id is dead after CLOSE.
    const auto stale = client.updateSession(
        opened.session_id, duoSnl(12), DesignFormat::Snl);
    EXPECT_EQ(stale.status, Status::Error);
    EXPECT_NE(stale.message.find("unknown session"), std::string::npos);

    server.stop();
    par::setThreads(1);
}

TEST(SessionServeTest, SessionTableIsBoundedByMaxSessions)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("maxsess");
    options.registry = &registry;
    options.max_sessions = 1;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    client.hello();
    const auto first = client.openSession(duoSnl(8), DesignFormat::Snl);
    ASSERT_EQ(first.status, Status::Ok) << first.message;

    const auto second = client.openSession(duoSnl(10), DesignFormat::Snl);
    EXPECT_EQ(second.status, Status::Overloaded);
    EXPECT_NE(second.message.find("session table full"),
              std::string::npos);

    // CLOSE frees the slot.
    EXPECT_EQ(client.closeSession(first.session_id), "");
    EXPECT_EQ(client.openSession(duoSnl(10), DesignFormat::Snl).status,
              Status::Ok);

    server.stop();
    par::setThreads(1);
}

TEST(SessionServeTest, IdleSessionsAreEvictedByTtl)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("ttl");
    options.registry = &registry;
    options.session_ttl_s = 1;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    client.hello();
    const auto opened = client.openSession(duoSnl(8), DesignFormat::Snl);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;
    EXPECT_EQ(server.sessionsOpen(), 1u);

    // The listen loop sweeps every poll tick; after the TTL the slot
    // must be gone and the id must answer with a clean error.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.sessionsOpen() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(50ms);
    EXPECT_EQ(server.sessionsOpen(), 0u);
    EXPECT_EQ(registry.counter("session.evicted_ttl").value(), 1u);

    const auto stale = client.updateSession(
        opened.session_id, duoSnl(8), DesignFormat::Snl);
    EXPECT_EQ(stale.status, Status::Error);
    EXPECT_NE(stale.message.find("TTL"), std::string::npos);

    server.stop();
    par::setThreads(1);
}

TEST(SessionServeTest, UpdateAfterHotReloadGetsCleanStaleError)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("stale");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    client.hello();
    const auto opened = client.openSession(duoSnl(8), DesignFormat::Snl);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;

    // Swap to a model with different weights: the session's pinned
    // predictions are no longer valid, and the server must say so
    // instead of silently mixing models.
    ASSERT_EQ(client.reload(checkpointDir2()), "");
    const auto stale = client.updateSession(
        opened.session_id, duoSnl(10), DesignFormat::Snl);
    EXPECT_EQ(stale.status, Status::Error);
    EXPECT_NE(stale.message.find("re-OPEN"), std::string::npos);

    // Re-opening under the new model works and is bitwise against it.
    const auto reopened =
        client.openSession(duoSnl(10), DesignFormat::Snl);
    ASSERT_EQ(reopened.status, Status::Ok) << reopened.message;
    const auto fresh = core::SnsPredictor::load(checkpointDir2());
    expectSamePrediction(reopened.prediction,
                         fresh.predict(netlist::parseSnl(duoSnl(10))));

    server.stop();
    par::setThreads(1);
}

TEST(SessionServeTest, StatsCacheHitRateUsesTheSharedFormatter)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("fmtstats");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    // Repeat one design so the shared cache has hits and misses and
    // the rate is a non-trivial fraction.
    ASSERT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);
    ASSERT_EQ(client.predict(kFirSnl, DesignFormat::Snl).status,
              Status::Ok);

    // STATS renders the cache block through obs::formatCacheStats —
    // the exact formatter `sns-cli predict --cache-stats` prints with,
    // so the hit_rate line must equal formatValue(hits / probes).
    const std::string stats = client.stats();
    double hits = -1.0;
    double misses = -1.0;
    std::string rate_text;
    std::istringstream lines(stats);
    std::string name;
    std::string value;
    while (lines >> name >> value) {
        if (name == "cache.hits")
            hits = std::stod(value);
        else if (name == "cache.misses")
            misses = std::stod(value);
        else if (name == "cache.hit_rate")
            rate_text = value;
    }
    ASSERT_GE(hits, 1.0);
    ASSERT_GE(misses, 1.0);
    ASSERT_FALSE(rate_text.empty());
    EXPECT_EQ(rate_text, obs::formatValue(hits / (hits + misses)));

    server.stop();
    par::setThreads(1);
}

// ---------------------------------------------------------------------
// The precision byte (docs/quantization.md)

/** A calibrated variant of the shared checkpoint: same training, then
 * quantize() before save(), so plan_int8.snsp rides along. */
const std::string &
quantizedCheckpointDir()
{
    static const std::string dir = [] {
        synth::SynthesisOptions opts;
        opts.effort = 0.1;
        synth::Synthesizer oracle(opts);
        const auto dataset = core::HardwareDesignDataset::build(
            designs::DesignLibrary::smokeSet(), oracle);
        std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
        core::SnsTrainer trainer(core::TrainerConfig::fast());
        auto predictor = trainer.train(dataset, train_idx, oracle);
        std::vector<const graphir::Graph *> calibration;
        for (size_t idx : train_idx)
            calibration.push_back(&dataset.records()[idx].graph);
        predictor.quantize(calibration);
        const auto path = (std::filesystem::temp_directory_path() /
                           "sns_serve_test_model_int8")
                              .string();
        predictor.save(path);
        par::setThreads(1);
        return path;
    }();
    return dir;
}

TEST(QuantServeTest, PrecisionByteRoundTripsThroughV3Bitwise)
{
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(quantizedCheckpointDir()));
    ASSERT_TRUE(predictor->quantized());
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("qwire");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    // Local references at both tiers through the exact served model.
    const auto fir = netlist::parseSnl(kFirSnl);
    const auto local_fp64 = predictor->predict(fir);
    core::PredictOptions int8;
    int8.precision = core::Precision::Int8;
    const auto local_int8 = predictor->predict(fir, int8);

    auto client = Client::connectUnix(options.unix_path);
    client.hello();

    const auto remote_int8 = client.predict(
        kFirSnl, DesignFormat::Snl, 0, core::Precision::Int8);
    ASSERT_EQ(remote_int8.status, Status::Ok) << remote_int8.message;
    EXPECT_EQ(remote_int8.prediction.timing_ps, local_int8.timing_ps);
    EXPECT_EQ(remote_int8.prediction.area_um2, local_int8.area_um2);
    EXPECT_EQ(remote_int8.prediction.power_mw, local_int8.power_mw);

    // The same connection serves fp64 untouched — two tiers, two
    // caches, no crosstalk.
    const auto remote_fp64 = client.predict(kFirSnl, DesignFormat::Snl);
    ASSERT_EQ(remote_fp64.status, Status::Ok);
    EXPECT_EQ(remote_fp64.prediction.timing_ps, local_fp64.timing_ps);
    EXPECT_NE(remote_int8.prediction.timing_ps,
              remote_fp64.prediction.timing_ps);

    // Sessions pin the tier they opened at; a mid-session switch is a
    // clean Error, and the same-tier update still answers bitwise.
    const auto opened = client.openSession(
        kFirSnl, DesignFormat::Snl, core::Precision::Int8);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;
    expectSamePrediction(opened.prediction, local_int8);
    const auto switched = client.updateSession(
        opened.session_id, kFirSnl, DesignFormat::Snl,
        core::Precision::Fp64);
    EXPECT_EQ(switched.status, Status::Error);
    EXPECT_NE(switched.message.find("re-OPEN"), std::string::npos)
        << switched.message;
    const auto same_tier = client.updateSession(
        opened.session_id, kFirSnl, DesignFormat::Snl,
        core::Precision::Int8);
    ASSERT_EQ(same_tier.status, Status::Ok) << same_tier.message;
    EXPECT_TRUE(same_tier.diff.noop);
    expectSamePrediction(same_tier.prediction, local_int8);

    server.stop();
    par::setThreads(1);
}

TEST(QuantServeTest, Int8AgainstUnquantizedModelIsCleanError)
{
    // The served checkpoint has no scales: an int8 request must come
    // back as an application Error naming the fix, and the connection
    // must keep serving fp64 afterwards.
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(checkpointDir()));
    ASSERT_FALSE(predictor->quantized());
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("qnoscales");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    auto client = Client::connectUnix(options.unix_path);
    client.hello();
    const auto denied = client.predict(
        kFirSnl, DesignFormat::Snl, 0, core::Precision::Int8);
    EXPECT_EQ(denied.status, Status::Error);
    EXPECT_NE(denied.message.find("no int8 scales"), std::string::npos)
        << denied.message;

    const auto fp64 = client.predict(kFirSnl, DesignFormat::Snl);
    EXPECT_EQ(fp64.status, Status::Ok);

    server.stop();
    par::setThreads(1);
}

TEST(VersionCheckTest, EveryVerbWorksWithoutHello)
{
    // HELLO is an optional check, not a gate: a connection that never
    // sends it gets the one wire layout — precision byte included —
    // and answers bitwise equal to local predictions.
    auto predictor = std::make_shared<const core::SnsPredictor>(
        core::SnsPredictor::load(quantizedCheckpointDir()));
    obs::Registry registry;
    ServerOptions options;
    options.unix_path = tempSocketPath("nohello");
    options.registry = &registry;
    Server server(predictor, options);
    server.start();

    core::PredictOptions int8;
    int8.precision = core::Precision::Int8;
    const auto local_fp64 = predictor->predict(netlist::parseSnl(kFirSnl));
    const auto local_int8 =
        predictor->predict(netlist::parseSnl(kFirSnl), int8);
    const auto base_int8 =
        predictor->predict(netlist::parseSnl(duoSnl(8)), int8);
    const auto edited_int8 =
        predictor->predict(netlist::parseSnl(duoSnl(12)), int8);

    auto client = Client::connectUnix(options.unix_path);
    const auto fp64 = client.predict(kFirSnl, DesignFormat::Snl);
    ASSERT_EQ(fp64.status, Status::Ok) << fp64.message;
    expectSamePrediction(fp64.prediction, local_fp64);
    const auto quant = client.predict(kFirSnl, DesignFormat::Snl, 0,
                                      core::Precision::Int8);
    ASSERT_EQ(quant.status, Status::Ok) << quant.message;
    expectSamePrediction(quant.prediction, local_int8);

    const auto opened = client.openSession(duoSnl(8), DesignFormat::Snl,
                                           core::Precision::Int8);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;
    expectSamePrediction(opened.prediction, base_int8);
    const auto updated =
        client.updateSession(opened.session_id, duoSnl(12),
                             DesignFormat::Snl, core::Precision::Int8);
    ASSERT_EQ(updated.status, Status::Ok) << updated.message;
    expectSamePrediction(updated.prediction, edited_int8);
    EXPECT_EQ(client.closeSession(opened.session_id), "");
    EXPECT_EQ(server.sessionsOpen(), 0u);

    server.stop();
    par::setThreads(1);
}

} // namespace
} // namespace sns::serve
