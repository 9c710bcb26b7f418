/**
 * @file
 * Tests for sns::cluster: the consistent-hash ring, worker addresses
 * and membership states, the connect-retry backoff schedule, the
 * obs stats merge helpers, the router end to end (bitwise agreement
 * with a single worker, session virtualization, zero-loss drain,
 * merged STATS, the HELLO version check), and the canary-verified
 * rolling promote. Run under TSan by tools/run_lint.sh.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cluster/membership.hh"
#include "cluster/promote.hh"
#include "cluster/ring.hh"
#include "cluster/router.hh"
#include "core/trainer.hh"
#include "designs/designs.hh"
#include "dist/ring.hh"
#include "netlist/snl_parser.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "serve/client.hh"
#include "serve/listener.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace sns::cluster {
namespace {

using namespace std::chrono_literals;
using serve::Status;
using serve::Verb;

// ---------------------------------------------------------------------
// HashRing

std::vector<HashRing::Member>
members(std::initializer_list<const char *> ids)
{
    std::vector<HashRing::Member> out;
    size_t index = 0;
    for (const char *id : ids)
        out.push_back({id, index++});
    return out;
}

TEST(RingTest, DeterministicAndCoversAllWorkers)
{
    const HashRing a(members({"unix:/a", "unix:/b", "unix:/c"}), 64);
    const HashRing b(members({"unix:/a", "unix:/b", "unix:/c"}), 64);
    EXPECT_EQ(a.pointCount(), 3u * 64u);

    std::set<size_t> owners;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t key = hashKey("design " + std::to_string(i));
        // Same member set -> same placement, always.
        EXPECT_EQ(a.pick(key), b.pick(key));
        owners.insert(a.pick(key));
    }
    // With 64 vnodes each, every worker owns a slice of 1000 keys.
    EXPECT_EQ(owners.size(), 3u);
}

TEST(RingTest, RemovingAMemberOnlyRehomesItsSlice)
{
    // The drain guarantee: when C leaves the ring, keys owned by A or
    // B stay exactly where they were — only C's slice re-homes.
    const HashRing full(members({"unix:/a", "unix:/b", "unix:/c"}), 64);
    const HashRing reduced(members({"unix:/a", "unix:/b"}), 64);
    size_t rehomed = 0;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t key = hashKey("key " + std::to_string(i));
        const size_t before = full.pick(key);
        const size_t after = reduced.pick(key);
        if (before == 2) {
            ++rehomed;
            EXPECT_NE(after, HashRing::npos);
        } else {
            EXPECT_EQ(after, before);
        }
    }
    EXPECT_GT(rehomed, 0u) << "C never owned anything?";
}

TEST(RingTest, EmptyRingPicksNpos)
{
    const HashRing empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.pick(hashKey("anything")), HashRing::npos);
}

// ---------------------------------------------------------------------
// WorkerAddress

TEST(AddressTest, ParsesAllThreeSpecForms)
{
    const auto unix_spec = WorkerAddress::parse("unix:/tmp/w0.sock");
    EXPECT_EQ(unix_spec.unix_path, "/tmp/w0.sock");
    EXPECT_EQ(unix_spec.display(), "unix:/tmp/w0.sock");

    const auto tcp_spec = WorkerAddress::parse("tcp:10.0.0.7:7311");
    EXPECT_TRUE(tcp_spec.unix_path.empty());
    EXPECT_EQ(tcp_spec.tcp_host, "10.0.0.7");
    EXPECT_EQ(tcp_spec.tcp_port, 7311);
    EXPECT_EQ(tcp_spec.display(), "tcp:10.0.0.7:7311");

    // A bare path matches sns-serve --socket usage.
    const auto bare = WorkerAddress::parse("/tmp/w1.sock");
    EXPECT_EQ(bare.unix_path, "/tmp/w1.sock");

    // Display strings parse back to themselves (the ring id contract).
    EXPECT_EQ(WorkerAddress::parse(tcp_spec.display()).display(),
              tcp_spec.display());

    EXPECT_THROW(WorkerAddress::parse(""), std::invalid_argument);
    EXPECT_THROW(WorkerAddress::parse("unix:"), std::invalid_argument);
    EXPECT_THROW(WorkerAddress::parse("tcp:host"),
                 std::invalid_argument);
    EXPECT_THROW(WorkerAddress::parse("tcp:host:notaport"),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Membership

TEST(MembershipTest, FailureThresholdAndRecoveryDriveTheRing)
{
    Membership table({WorkerAddress::parse("unix:/a"),
                      WorkerAddress::parse("unix:/b")},
                     /*vnodes=*/16, /*fail_threshold=*/3);
    EXPECT_EQ(table.size(), 2u);
    const uint64_t epoch0 = table.epoch();
    EXPECT_EQ(table.countInState(WorkerState::Up), 2u);

    // Below the threshold the worker stays routable.
    table.markFailure(0);
    table.markFailure(0);
    EXPECT_EQ(table.snapshot()[0].state, WorkerState::Up);
    EXPECT_EQ(table.epoch(), epoch0);

    // The third consecutive failure takes it down (one epoch bump).
    table.markFailure(0);
    EXPECT_EQ(table.snapshot()[0].state, WorkerState::Down);
    EXPECT_EQ(table.epoch(), epoch0 + 1);
    EXPECT_EQ(table.countInState(WorkerState::Down), 1u);

    // The ring now only contains worker 1.
    const HashRing ring = table.ring();
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(ring.pick(hashKey("k" + std::to_string(i))), 1u);

    // A successful probe restores it and resets the failure count.
    table.markReachable(0, /*draining=*/false);
    EXPECT_EQ(table.snapshot()[0].state, WorkerState::Up);
    EXPECT_EQ(table.snapshot()[0].consecutive_failures, 0);

    // In-band DRAINING evidence leaves the ring immediately; a probe
    // that still sees the drain bit keeps it out.
    table.markDraining(1);
    EXPECT_EQ(table.snapshot()[1].state, WorkerState::Draining);
    table.markReachable(1, /*draining=*/true);
    EXPECT_EQ(table.snapshot()[1].state, WorkerState::Draining);
    table.markReachable(1, /*draining=*/false);
    EXPECT_EQ(table.snapshot()[1].state, WorkerState::Up);

    // Same-state marks do not churn the epoch.
    const uint64_t epoch1 = table.epoch();
    table.markReachable(1, /*draining=*/false);
    EXPECT_EQ(table.epoch(), epoch1);
}

// ---------------------------------------------------------------------
// Connect retry backoff (serve::Client and dist::connectRing)

TEST(BackoffTest, ScheduleIsDeterministicExponentialAndCapped)
{
    serve::ConnectRetryOptions retry;
    retry.max_attempts = 5;
    retry.initial_backoff_us = 10'000;
    retry.multiplier = 2;
    retry.max_backoff_us = 60'000;
    const auto sleeps = serve::backoffScheduleUs(retry);
    // max_attempts - 1 sleeps, doubling, clamped at the cap. No
    // jitter: the same options always yield the same schedule.
    ASSERT_EQ(sleeps.size(), 4u);
    EXPECT_EQ(sleeps[0], 10'000);
    EXPECT_EQ(sleeps[1], 20'000);
    EXPECT_EQ(sleeps[2], 40'000);
    EXPECT_EQ(sleeps[3], 60'000);
    EXPECT_EQ(serve::backoffScheduleUs(retry), sleeps);

    serve::ConnectRetryOptions single;
    single.max_attempts = 1;
    EXPECT_TRUE(serve::backoffScheduleUs(single).empty());

    // The training ring rides the same schedule and keeps at least a
    // minute of patience: peers finish dataset synthesis seconds to
    // a minute apart before the ring forms.
    const auto ring = serve::backoffScheduleUs(dist::kRingConnectRetry);
    EXPECT_GE(std::accumulate(ring.begin(), ring.end(), int64_t{0}),
              int64_t{60'000'000});
}

TEST(BackoffTest, ConnectRetriesUntilTheSocketAppears)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "sns_cluster_test_lateworker.sock")
            .string();
    ::unlink(path.c_str());

    // Bind the socket only after a delay: the first attempts see
    // ENOENT (transient) and the retry schedule must carry the client
    // over the gap.
    std::thread late([&path] {
        std::this_thread::sleep_for(100ms);
        const serve::Endpoint endpoint{path};
        const int fd = serve::listenOn(endpoint, 1);
        const int conn = ::accept(fd, nullptr, nullptr);
        ::close(conn);
        serve::closeListening(fd, endpoint);
    });

    serve::ConnectRetryOptions retry;
    retry.max_attempts = 20;
    retry.initial_backoff_us = 20'000;
    retry.multiplier = 2;
    retry.max_backoff_us = 100'000;
    EXPECT_NO_THROW({ auto client = serve::Client::connectUnix(path, retry); });
    late.join();

    // Exhaustion against a never-appearing socket still throws.
    serve::ConnectRetryOptions brief;
    brief.max_attempts = 2;
    brief.initial_backoff_us = 1'000;
    EXPECT_THROW(serve::Client::connectUnix(
                     "/nonexistent/sns_cluster_never.sock", brief),
                 serve::ProtocolError);

    // A non-transient errno (ENOTDIR) fails at once instead of
    // sleeping out the schedule.
    serve::ConnectRetryOptions patient;
    patient.max_attempts = 50;
    patient.initial_backoff_us = 100'000;
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(serve::Client::connectUnix("/dev/null/sns.sock", patient),
                 serve::ProtocolError);
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

// ---------------------------------------------------------------------
// obs stats merge helpers

TEST(StatsMergeTest, ParseMergeAndJson)
{
    const auto a = obs::parseStats("serve.requests_total 10\n"
                                   "cache.hit_rate 0.5\n"
                                   "latency.p99 120\n"
                                   "junk-line-without-value\n"
                                   "queue.depth 2\n");
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0].name, "serve.requests_total");
    EXPECT_EQ(a[0].value, 10.0);

    const auto b = obs::parseStats("serve.requests_total 32\n"
                                   "cache.hit_rate 0.25\n"
                                   "latency.mean 80\n"
                                   "queue.depth 1\n");

    EXPECT_TRUE(obs::nonSummableStat("cache.hit_rate"));
    EXPECT_TRUE(obs::nonSummableStat("latency.p50"));
    EXPECT_TRUE(obs::nonSummableStat("latency.p90"));
    EXPECT_TRUE(obs::nonSummableStat("latency.p99"));
    EXPECT_TRUE(obs::nonSummableStat("latency.mean"));
    EXPECT_FALSE(obs::nonSummableStat("serve.requests_total"));

    // Merge: counters/gauges sum; quantiles, means, and rates are not
    // summable across processes and must be dropped, not averaged.
    const auto merged = obs::mergeStats({a, b});
    const auto value = [&merged](const std::string &name) -> double {
        for (const auto &sample : merged)
            if (sample.name == name)
                return sample.value;
        return -1.0;
    };
    EXPECT_EQ(value("serve.requests_total"), 42.0);
    EXPECT_EQ(value("queue.depth"), 3.0);
    EXPECT_EQ(value("cache.hit_rate"), -1.0);
    EXPECT_EQ(value("latency.p99"), -1.0);
    EXPECT_EQ(value("latency.mean"), -1.0);
    // Sorted by name for a stable rendering.
    for (size_t i = 1; i < merged.size(); ++i)
        EXPECT_LT(merged[i - 1].name, merged[i].name);

    // JSON: one flat object through the shared value formatter.
    const std::string json = obs::statsJson("b 2\na 1.5\n");
    EXPECT_EQ(json.find('{'), 0u);
    EXPECT_NE(json.find("\"a\": " + obs::formatValue(1.5)),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"b\": " + obs::formatValue(2.0)),
              std::string::npos);
    EXPECT_EQ(json.back(), '}');
}

// ---------------------------------------------------------------------
// Shared fixtures: checkpoints, designs, socket paths

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

/** A two-module design; `width1` parameterizes module "rhs" so an
 * edit touches exactly one module (mirrors test_serve.cc). */
std::string
duoSnl(int width1)
{
    std::string out = "design duo\n"
                      "module lhs\n"
                      "input  a 8\n"
                      "reg    ca 8\n"
                      "node   pa mul 16 a ca\n"
                      "reg    za 16 pa\n"
                      "output qa 16 za\n"
                      "module rhs\n";
    const std::string w = std::to_string(width1);
    const std::string w2 = std::to_string(2 * width1);
    out += "input  b " + w + "\n";
    out += "reg    cb " + w + "\n";
    out += "node   pb mul " + w2 + " b cb\n";
    out += "reg    zb " + w2 + " pb\n";
    out += "output qb " + w2 + " zb\n";
    return out;
}

/** One tiny trained checkpoint shared by the cluster tests. */
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
                           "sns_cluster_test_model")
                              .string();
        predictor.save(path);
        par::setThreads(1);
        return path;
    }();
    return dir;
}

/** A second checkpoint with different weights — the promote
 * candidate. */
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
                           "sns_cluster_test_model2")
                              .string();
        predictor.save(path);
        par::setThreads(1);
        return path;
    }();
    return dir;
}

std::string
tempSocketPath(const std::string &tag)
{
    return (std::filesystem::temp_directory_path() /
            ("sns_cluster_test_" + tag + ".sock"))
        .string();
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

/** N real sns-serve workers plus one router over them, on temp unix
 * sockets. health_period_ms = 0 keeps membership purely in-band so
 * tests drive state transitions deterministically. */
struct TestCluster
{
    std::shared_ptr<const core::SnsPredictor> predictor;
    std::vector<std::unique_ptr<obs::Registry>> registries;
    std::vector<std::unique_ptr<serve::Server>> workers;
    std::vector<std::string> worker_paths;
    obs::Registry router_registry;
    std::unique_ptr<Router> router;
    std::string router_path;

    TestCluster(const std::string &tag, size_t n,
                int health_period_ms = 0,
                const std::string &checkpoint = checkpointDir())
    {
        predictor = std::make_shared<const core::SnsPredictor>(
            core::SnsPredictor::load(checkpoint));
        RouterOptions options;
        for (size_t i = 0; i < n; ++i) {
            worker_paths.push_back(
                tempSocketPath(tag + "_w" + std::to_string(i)));
            registries.push_back(std::make_unique<obs::Registry>());
            serve::ServerOptions wopts;
            wopts.unix_path = worker_paths.back();
            wopts.registry = registries.back().get();
            workers.push_back(
                std::make_unique<serve::Server>(predictor, wopts));
            workers.back()->start();
            WorkerAddress address;
            address.unix_path = worker_paths.back();
            options.workers.push_back(address);
        }
        router_path = tempSocketPath(tag + "_router");
        options.unix_path = router_path;
        options.health_period_ms = health_period_ms;
        options.registry = &router_registry;
        router = std::make_unique<Router>(std::move(options));
        router->start();
    }

    ~TestCluster()
    {
        router->stop();
        for (auto &worker : workers)
            worker->stop();
        par::setThreads(1);
    }

    /** Which worker index the router's current ring routes `source`
     * to (PREDICT and OPEN both key on the design source hash). */
    size_t owner(const std::string &source) const
    {
        return router->membership().ring().pick(hashKey(source));
    }

    /** A v4 control connection straight to worker `index`. */
    serve::Client workerControl(size_t index)
    {
        auto client = serve::Client::connectUnix(worker_paths[index]);
        client.hello();
        return client;
    }
};

// ---------------------------------------------------------------------
// Router end to end

TEST(ClusterE2E, PredictThroughRouterMatchesSingleWorkerBitwise)
{
    TestCluster cluster("bitwise", 2);

    // Local reference through the exact predictor the workers hold.
    const auto fir = netlist::parseSnl(kFirSnl);
    const auto mac = netlist::parseSnl(kMacSnl);
    const graphir::Graph *graphs[2] = {&fir, &mac};
    const auto local = cluster.predictor->predictBatch(graphs);

    auto client = serve::Client::connectUnix(cluster.router_path);
    const auto remote_fir =
        client.predict(kFirSnl, serve::DesignFormat::Snl);
    const auto remote_mac =
        client.predict(kMacSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(remote_fir.status, Status::Ok) << remote_fir.message;
    ASSERT_EQ(remote_mac.status, Status::Ok) << remote_mac.message;
    expectSamePrediction(remote_fir.prediction, local[0]);
    expectSamePrediction(remote_mac.prediction, local[1]);

    // The routed reply is also byte-for-byte what the owning worker
    // answers directly — the router re-encodes without perturbation.
    auto direct = serve::Client::connectUnix(
        cluster.worker_paths[cluster.owner(kFirSnl)]);
    const auto straight =
        direct.predict(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(straight.status, Status::Ok);
    expectSamePrediction(remote_fir.prediction, straight.prediction);

    // Repeats are stable (and now warm in the owner's cache).
    const auto again = client.predict(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(again.status, Status::Ok);
    expectSamePrediction(again.prediction, local[0]);
}

TEST(ClusterE2E, SessionsVirtualizeIdsAndPinToTheirWorker)
{
    TestCluster cluster("sessions", 2);

    const auto cold_base =
        cluster.predictor->predict(netlist::parseSnl(duoSnl(8)));
    const auto cold_edited =
        cluster.predictor->predict(netlist::parseSnl(duoSnl(12)));
    const auto cold_fir =
        cluster.predictor->predict(netlist::parseSnl(kFirSnl));

    auto client = serve::Client::connectUnix(cluster.router_path);
    client.hello();

    // Two sessions; whichever workers they land on, the router hands
    // out distinct cluster-wide ids (workers both start numbering at
    // 1, so without virtualization these could collide).
    const auto first =
        client.openSession(duoSnl(8), serve::DesignFormat::Snl);
    ASSERT_EQ(first.status, Status::Ok) << first.message;
    expectSamePrediction(first.prediction, cold_base);
    const auto second =
        client.openSession(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(second.status, Status::Ok) << second.message;
    expectSamePrediction(second.prediction, cold_fir);
    EXPECT_NE(first.session_id, second.session_id);
    EXPECT_EQ(cluster.router->sessionsOpen(), 2u);

    // Updates translate to the owning worker's id and stay bitwise;
    // the diff accounting proves the worker really reused the pinned
    // session (not a fresh full predict).
    const auto updated = client.updateSession(
        first.session_id, duoSnl(12), serve::DesignFormat::Snl);
    ASSERT_EQ(updated.status, Status::Ok) << updated.message;
    expectSamePrediction(updated.prediction, cold_edited);
    EXPECT_FALSE(updated.diff.noop);
    EXPECT_GT(updated.diff.paths_reused, 0u);

    // CLOSE frees the route; the id is dead afterwards.
    EXPECT_EQ(client.closeSession(first.session_id), "");
    EXPECT_EQ(cluster.router->sessionsOpen(), 1u);
    const auto stale = client.updateSession(
        first.session_id, duoSnl(12), serve::DesignFormat::Snl);
    EXPECT_EQ(stale.status, Status::Error);
    EXPECT_NE(stale.message.find("unknown session"), std::string::npos);

    // An id the router never allocated is refused at the router.
    const auto bogus = client.updateSession(
        99999, duoSnl(12), serve::DesignFormat::Snl);
    EXPECT_EQ(bogus.status, Status::Error);
    EXPECT_NE(bogus.message.find("unknown session"), std::string::npos);

    EXPECT_EQ(client.closeSession(second.session_id), "");
    EXPECT_EQ(cluster.router->sessionsOpen(), 0u);
}

TEST(ClusterE2E, DrainRehomesNewWorkAndKeepsPinnedSessions)
{
    TestCluster cluster("drain", 2);
    auto client = serve::Client::connectUnix(cluster.router_path);
    client.hello();

    // Open a session that pins to kFirSnl's owner, then drain that
    // worker out from under it.
    const size_t owner = cluster.owner(kFirSnl);
    const auto opened =
        client.openSession(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;

    auto control = cluster.workerControl(owner);
    EXPECT_EQ(control.drain(), "");
    EXPECT_TRUE(control.health());

    // New PREDICTs for the drained worker's key re-home transparently:
    // the router sees DRAINING in-band, refreshes the ring, retries on
    // the other worker — the client never sees the refusal.
    const auto local =
        cluster.predictor->predict(netlist::parseSnl(kFirSnl));
    const auto rehomed =
        client.predict(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(rehomed.status, Status::Ok) << rehomed.message;
    expectSamePrediction(rehomed.prediction, local);
    EXPECT_EQ(cluster.router->membership().snapshot()[owner].state,
              WorkerState::Draining);
    EXPECT_GE(
        cluster.router_registry.counter("router.retries_total").value(),
        1u);

    // The admitted session keeps flowing to the draining worker.
    const auto pinned = client.updateSession(
        opened.session_id, kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(pinned.status, Status::Ok) << pinned.message;
    EXPECT_TRUE(pinned.diff.noop);
    expectSamePrediction(pinned.prediction, local);

    // Draining both workers leaves nothing routable: the refusal is
    // surfaced (DRAINING, not a hang or a transport error).
    auto other = cluster.workerControl(1 - owner);
    EXPECT_EQ(other.drain(), "");
    const auto refused =
        client.predict(kMacSnl, serve::DesignFormat::Snl);
    EXPECT_EQ(refused.status, Status::Draining);

    // RESUME puts the workers back; new traffic flows again. (The
    // router learns through the next in-band success or health probe;
    // with probes off we clear the states directly.)
    EXPECT_EQ(control.resume(), "");
    EXPECT_EQ(other.resume(), "");
    EXPECT_FALSE(control.health());
    cluster.router->membership().markReachable(0, false);
    cluster.router->membership().markReachable(1, false);
    EXPECT_EQ(client.predict(kFirSnl, serve::DesignFormat::Snl).status,
              Status::Ok);
    EXPECT_EQ(client.closeSession(opened.session_id), "");
}

TEST(ClusterE2E, HealthLoopObservesDrainAndRecovery)
{
    TestCluster cluster("health", 2, /*health_period_ms=*/25);
    const auto deadline_in = [] {
        return std::chrono::steady_clock::now() + 5s;
    };

    auto control = cluster.workerControl(0);
    EXPECT_EQ(control.drain(), "");
    // The PING loop picks the drain bit up without any client traffic.
    auto deadline = deadline_in();
    while (cluster.router->membership().snapshot()[0].state !=
               WorkerState::Draining &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(5ms);
    EXPECT_EQ(cluster.router->membership().snapshot()[0].state,
              WorkerState::Draining);

    EXPECT_EQ(control.resume(), "");
    deadline = deadline_in();
    while (cluster.router->membership().snapshot()[0].state !=
               WorkerState::Up &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(5ms);
    EXPECT_EQ(cluster.router->membership().snapshot()[0].state,
              WorkerState::Up);

    // Killing a worker drives it Down after fail_threshold probes...
    cluster.workers[1]->stop();
    deadline = deadline_in();
    while (cluster.router->membership().snapshot()[1].state !=
               WorkerState::Down &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(5ms);
    EXPECT_EQ(cluster.router->membership().snapshot()[1].state,
              WorkerState::Down);

    // ...and traffic keeps flowing on the survivor.
    auto client = serve::Client::connectUnix(cluster.router_path);
    EXPECT_EQ(client.predict(kFirSnl, serve::DesignFormat::Snl).status,
              Status::Ok);
    EXPECT_EQ(client.predict(kMacSnl, serve::DesignFormat::Snl).status,
              Status::Ok);
}

TEST(ClusterE2E, ConcurrentTrafficSurvivesMidStreamDrainLossFree)
{
    // The zero-loss drain gate, under TSan in tools/run_lint.sh:
    // concurrent clients running predicts and pinned session updates
    // through the router while a worker drains and resumes mid-
    // traffic. Every admitted request must answer Ok — any DRAINING
    // or transport error surfacing to a client is a lost request.
    TestCluster cluster("concurrent", 2, /*health_period_ms=*/20);
    const size_t owner = cluster.owner(kFirSnl);

    constexpr int kClients = 3;
    constexpr int kIterations = 6;
    std::atomic<int> failures{0};
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&cluster, &failures, &done, c] {
            auto client =
                serve::Client::connectUnix(cluster.router_path);
            const std::string design = duoSnl(8 + 2 * c);
            const auto opened =
                client.openSession(design, serve::DesignFormat::Snl);
            if (opened.status != Status::Ok)
                failures.fetch_add(1);
            for (int i = 0; i < kIterations; ++i) {
                if (client
                        .predict(kFirSnl, serve::DesignFormat::Snl)
                        .status != Status::Ok)
                    failures.fetch_add(1);
                const auto updated = client.updateSession(
                    opened.session_id, design,
                    serve::DesignFormat::Snl);
                if (updated.status != Status::Ok)
                    failures.fetch_add(1);
            }
            if (!client.closeSession(opened.session_id).empty())
                failures.fetch_add(1);
            done.fetch_add(1);
        });
    }

    // Mid-traffic: drain the hot worker, let the rerouting happen,
    // then resume it before the clients finish.
    {
        auto control = cluster.workerControl(owner);
        std::this_thread::sleep_for(30ms);
        if (!control.drain().empty())
            failures.fetch_add(1);
        while (done.load() < kClients / 2 && failures.load() == 0)
            std::this_thread::sleep_for(10ms);
        if (!control.resume().empty())
            failures.fetch_add(1);
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterE2E, StatsMergeAcrossWorkers)
{
    TestCluster cluster("stats", 2);
    auto client = serve::Client::connectUnix(cluster.router_path);

    // Traffic on both workers' slices, with one repeat for cache hits.
    ASSERT_EQ(client.predict(kFirSnl, serve::DesignFormat::Snl).status,
              Status::Ok);
    ASSERT_EQ(client.predict(kFirSnl, serve::DesignFormat::Snl).status,
              Status::Ok);
    ASSERT_EQ(client.predict(kMacSnl, serve::DesignFormat::Snl).status,
              Status::Ok);

    const std::string stats = client.stats();
    // Cluster-wide header lines.
    EXPECT_NE(stats.find("cluster.workers 2\n"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("cluster.workers_up 2\n"), std::string::npos);
    EXPECT_NE(stats.find("cluster.workers_draining 0\n"),
              std::string::npos);
    // The merged roll-up sums the workers' counters.
    EXPECT_NE(stats.find("serve.requests_total 3\n"),
              std::string::npos)
        << stats;
    // Per-worker breakdown rides along under worker<i>. prefixes.
    EXPECT_NE(stats.find("worker0.serve."), std::string::npos);
    EXPECT_NE(stats.find("worker1.serve."), std::string::npos);
    // Rates and quantiles never appear merged — no unprefixed
    // hit_rate line, only the per-worker ones.
    EXPECT_EQ(stats.rfind("cache.hit_rate", 0), std::string::npos);
    EXPECT_EQ(stats.find("\ncache.hit_rate"), std::string::npos);
    // But the per-worker one is preserved.
    const size_t hot = cluster.owner(kFirSnl);
    EXPECT_NE(stats.find("worker" + std::to_string(hot) +
                         ".cache.hit_rate"),
              std::string::npos);
    // The router's own instruments render too.
    EXPECT_NE(stats.find("router.requests_total"), std::string::npos);
}

// ---------------------------------------------------------------------
// The HELLO version check and per-role verbs

/** A scriptable fake peer on a unix socket: each request frame is
 * answered through `handler` (verb, payload reader) -> reply payload,
 * behind the same serve::ConnectionListener the daemons use. Lets
 * tests stand up mismatched or lying servers the real Server cannot be
 * configured into. */
class FakeServer
{
  public:
    using Handler = std::function<std::vector<uint8_t>(
        Verb, serve::WireReader &)>;

    FakeServer(std::string path, Handler handler)
        : path_(std::move(path)),
          listener_(
              serve::Endpoint{path_},
              [handler = std::move(handler)]()
                  -> serve::ConnectionListener::FrameHandler {
                  return [handler](const std::vector<uint8_t> &request) {
                      serve::WireReader reader(request);
                      const auto verb = static_cast<Verb>(reader.u8());
                      return handler(verb, reader);
                  };
              },
              registry_.counter("connections"),
              registry_.counter("protocol_errors"))
    {
        listener_.start();
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    obs::Registry registry_;
    serve::ConnectionListener listener_;
};

/** status + str reply payload. */
std::vector<uint8_t>
fakeStatus(Status status, const std::string &message)
{
    serve::WireWriter writer;
    writer.u8(static_cast<uint8_t>(status));
    writer.str(message);
    return writer.bytes();
}

TEST(VersionCheckTest, MismatchedHelloIsRefusedAndConnectionSurvives)
{
    // A HELLO carrying another version, or trailing bytes after the
    // u32, gets ERROR naming both numbers — from a worker and from the
    // router alike — and the connection keeps serving.
    TestCluster cluster("mismatch", 1);
    for (const std::string &path :
         {cluster.worker_paths[0], cluster.router_path}) {
        // A raw connection, for hand-rolled frames.
        const int fd = serve::connectTo(serve::Endpoint{path}, {});

        serve::WireWriter old_version;
        old_version.u8(static_cast<uint8_t>(Verb::Hello));
        old_version.u32(3);
        serve::WireWriter trailing;
        trailing.u8(static_cast<uint8_t>(Verb::Hello));
        trailing.u32(serve::kProtocolVersion);
        trailing.u8(0);
        for (const auto *hello : {&old_version, &trailing}) {
            serve::sendFrame(fd, hello->bytes());
            const auto raw = serve::recvFrame(fd, 1 << 20);
            ASSERT_TRUE(raw.has_value()) << path;
            serve::WireReader reader(*raw);
            EXPECT_EQ(static_cast<Status>(reader.u8()), Status::Error);
            const std::string message = reader.str();
            const std::string sent = hello == &old_version ? "3" : "4";
            EXPECT_NE(message.find("client sent " + sent),
                      std::string::npos)
                << message;
            EXPECT_NE(message.find("exactly version " +
                                   std::to_string(serve::kProtocolVersion)),
                      std::string::npos)
                << message;
        }

        serve::WireWriter ping;
        ping.u8(static_cast<uint8_t>(Verb::Ping));
        serve::sendFrame(fd, ping.bytes());
        const auto pong = serve::recvFrame(fd, 1 << 20);
        ASSERT_TRUE(pong.has_value()) << path;
        serve::WireReader reader(*pong);
        EXPECT_EQ(static_cast<Status>(reader.u8()), Status::Ok);
        ::close(fd);
    }
}

TEST(VersionCheckTest, ClientRejectsADifferentServerVersion)
{
    // A peer that answers HELLO with another number (or refuses it
    // outright, as builds without HELLO do) makes hello() throw.
    FakeServer newer(tempSocketPath("fake_newer"),
                     [](Verb verb, serve::WireReader &) {
                         if (verb != Verb::Hello)
                             return fakeStatus(Status::Error,
                                               "unknown verb");
                         serve::WireWriter writer;
                         writer.u8(static_cast<uint8_t>(Status::Ok));
                         writer.u32(5);
                         return writer.bytes();
                     });
    auto client = serve::Client::connectUnix(newer.path());
    EXPECT_THROW(client.hello(), serve::ProtocolError);

    FakeServer older(tempSocketPath("fake_older"),
                     [](Verb, serve::WireReader &) {
                         return fakeStatus(Status::Error, "unknown verb");
                     });
    auto refused = serve::Client::connectUnix(older.path());
    EXPECT_THROW(refused.hello(), serve::ProtocolError);
}

TEST(NegotiationTest, WorkerAnswersClusterVerbsUnsupportedMidSession)
{
    // WORKERS is a router verb: a single worker answers UNSUPPORTED,
    // and the connection survives, mid-session.
    TestCluster cluster("midsession", 1);
    auto client = serve::Client::connectUnix(cluster.worker_paths[0]);
    client.hello();
    const auto opened =
        client.openSession(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(opened.status, Status::Ok) << opened.message;

    const auto table = client.workers();
    EXPECT_EQ(table.status, Status::Unsupported);
    EXPECT_NE(table.message.find("router"), std::string::npos);

    // The session is untouched by the refused verb.
    const auto updated = client.updateSession(
        opened.session_id, kFirSnl, serve::DesignFormat::Snl);
    EXPECT_EQ(updated.status, Status::Ok) << updated.message;
    EXPECT_EQ(client.closeSession(opened.session_id), "");
}

TEST(ClusterE2E, RouterCarriesPrecisionAndAnswersWorkers)
{
    TestCluster cluster("precision", 2);
    auto client = serve::Client::connectUnix(cluster.router_path);
    client.hello();

    // The precision byte crosses both hops: the unquantized workers
    // answer the application error a direct connection would.
    const auto int8 = client.predict(kFirSnl, serve::DesignFormat::Snl,
                                     0, core::Precision::Int8);
    EXPECT_EQ(int8.status, Status::Error);
    EXPECT_NE(int8.message.find("no int8 scales"), std::string::npos)
        << int8.message;

    // Control verbs answer at the router: WORKERS lists the
    // membership; DRAIN names the per-worker procedure instead of
    // draining the whole cluster by accident.
    const auto table = client.workers();
    ASSERT_EQ(table.status, Status::Ok) << table.message;
    ASSERT_EQ(table.workers.size(), 2u);
    EXPECT_EQ(table.workers[0].address,
              "unix:" + cluster.worker_paths[0]);
    EXPECT_EQ(table.workers[0].state, 0u);
    EXPECT_EQ(table.workers[1].state, 0u);
    EXPECT_NE(client.drain(), "");
}

// ---------------------------------------------------------------------
// Rolling promote

TEST(PromoteTest, SamePredictionBitsComparesBitwise)
{
    core::SnsPrediction a;
    a.timing_ps = 1.5;
    a.area_um2 = 2.5;
    a.power_mw = 3.5;
    a.paths_sampled = 7;
    a.critical_path = {1, 2, 3};
    core::SnsPrediction b = a;
    EXPECT_TRUE(samePredictionBits(a, b));
    b.timing_ps = std::nextafter(b.timing_ps, 2.0);
    EXPECT_FALSE(samePredictionBits(a, b));
    b = a;
    b.critical_path.push_back(4);
    EXPECT_FALSE(samePredictionBits(a, b));
    // Negative zero differs from zero by bits — promote must treat a
    // sign flip as a real mismatch.
    core::SnsPrediction z1, z2;
    z1.timing_ps = 0.0;
    z2.timing_ps = -0.0;
    EXPECT_FALSE(samePredictionBits(z1, z2));
}

TEST(PromoteTest, RollingPromoteSwapsEveryWorkerCanaryVerified)
{
    TestCluster cluster("promote_ok", 2);

    PromoteOptions options;
    options.checkpoint_dir = checkpointDir2();
    options.canary_source = kFirSnl;
    for (const auto &path : cluster.worker_paths)
        options.workers.push_back(WorkerAddress::parse(path));

    const PromoteReport report = rollingPromote(options);
    EXPECT_TRUE(report.ok) << report.error;
    EXPECT_EQ(report.workers_promoted, 2u);
    EXPECT_TRUE(report.error.empty());
    EXPECT_FALSE(report.log.empty());

    // Every worker now answers bitwise from the candidate.
    const auto candidate = core::SnsPredictor::load(checkpointDir2());
    const auto want = candidate.predict(netlist::parseSnl(kMacSnl));
    for (const auto &path : cluster.worker_paths) {
        auto direct = serve::Client::connectUnix(path);
        const auto got =
            direct.predict(kMacSnl, serve::DesignFormat::Snl);
        ASSERT_EQ(got.status, Status::Ok) << got.message;
        expectSamePrediction(got.prediction, want);
    }
    par::setThreads(1);
}

TEST(PromoteTest, CorruptCandidateAbortsBeforeTouchingAnyWorker)
{
    TestCluster cluster("promote_corrupt", 2);

    // A deliberately corrupted copy of the checkpoint: same files,
    // largest one truncated to half. Local verification must reject
    // it before any worker sees a RELOAD.
    const auto corrupt_dir = std::filesystem::temp_directory_path() /
                             "sns_cluster_test_corrupt_model";
    std::filesystem::remove_all(corrupt_dir);
    std::filesystem::create_directories(corrupt_dir);
    std::filesystem::path victim;
    uintmax_t victim_size = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(checkpointDir())) {
        std::filesystem::copy(entry.path(),
                              corrupt_dir / entry.path().filename());
        if (entry.is_regular_file() &&
            entry.file_size() > victim_size) {
            victim_size = entry.file_size();
            victim = corrupt_dir / entry.path().filename();
        }
    }
    ASSERT_FALSE(victim.empty());
    std::filesystem::resize_file(victim, victim_size / 2);

    PromoteOptions options;
    options.checkpoint_dir = corrupt_dir.string();
    options.canary_source = kFirSnl;
    for (const auto &path : cluster.worker_paths)
        options.workers.push_back(WorkerAddress::parse(path));

    const PromoteReport report = rollingPromote(options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.workers_promoted, 0u);
    EXPECT_NE(report.error.find("before rollout"), std::string::npos)
        << report.error;

    // Zero workers touched: both still answer from the old model.
    const auto want =
        cluster.predictor->predict(netlist::parseSnl(kFirSnl));
    for (const auto &path : cluster.worker_paths) {
        auto direct = serve::Client::connectUnix(path);
        const auto got =
            direct.predict(kFirSnl, serve::DesignFormat::Snl);
        ASSERT_EQ(got.status, Status::Ok);
        expectSamePrediction(got.prediction, want);
    }
    std::filesystem::remove_all(corrupt_dir);
    par::setThreads(1);
}

TEST(PromoteTest, CanaryMismatchAbortsAndSparesRemainingWorkers)
{
    // Worker 0 is a liar: it acknowledges RELOAD but serves zeroed
    // predictions — exactly the "staged model is not the verified
    // candidate" failure the canary exists to catch. The rollout must
    // abort at worker 0; worker 1 (real) must never be reloaded.
    FakeServer liar(
        tempSocketPath("promote_liar"),
        [](Verb verb, serve::WireReader &) -> std::vector<uint8_t> {
            if (verb == Verb::Hello) {
                serve::WireWriter writer;
                writer.u8(static_cast<uint8_t>(Status::Ok));
                writer.u32(serve::kProtocolVersion);
                return writer.bytes();
            }
            if (verb == Verb::Reload)
                return fakeStatus(Status::Ok, "");
            if (verb == Verb::Predict) {
                serve::WireWriter writer;
                writer.u8(static_cast<uint8_t>(Status::Ok));
                writer.f64(0.0); // timing_ps
                writer.f64(0.0); // area_um2
                writer.f64(0.0); // power_mw
                writer.u64(1);   // paths_sampled
                writer.u32(0);   // empty critical path
                return writer.bytes();
            }
            return fakeStatus(Status::Error, "unexpected verb");
        });

    TestCluster cluster("promote_mismatch", 1);

    PromoteOptions options;
    options.checkpoint_dir = checkpointDir2();
    options.canary_source = kFirSnl;
    options.workers.push_back(WorkerAddress::parse(liar.path()));
    options.workers.push_back(
        WorkerAddress::parse(cluster.worker_paths[0]));

    const PromoteReport report = rollingPromote(options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.workers_promoted, 0u);
    EXPECT_NE(report.error.find("bitwise"), std::string::npos)
        << report.error;

    // The real worker behind the failure still serves the old model.
    const auto want =
        cluster.predictor->predict(netlist::parseSnl(kFirSnl));
    auto direct =
        serve::Client::connectUnix(cluster.worker_paths[0]);
    const auto got = direct.predict(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(got.status, Status::Ok);
    expectSamePrediction(got.prediction, want);
    par::setThreads(1);
}

TEST(PromoteTest, UnreachableWorkerAbortsAndNamesIt)
{
    TestCluster cluster("promote_reloadfail", 2);

    // A dead worker address at the front of the walk: connect fails
    // after the bounded retries and the rollout aborts with zero
    // workers promoted — the reachable workers behind it are spared.
    PromoteOptions options;
    options.checkpoint_dir = checkpointDir2();
    options.canary_source = kFirSnl;
    options.connect_retry.max_attempts = 2;
    options.connect_retry.initial_backoff_us = 1'000;
    options.workers.push_back(WorkerAddress::parse(
        tempSocketPath("promote_deadworker_nobody_listens")));
    options.workers.push_back(
        WorkerAddress::parse(cluster.worker_paths[0]));

    const PromoteReport report = rollingPromote(options);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.workers_promoted, 0u);
    EXPECT_NE(report.error.find("promote_deadworker"),
              std::string::npos)
        << report.error;

    // The workers after the dead one were never walked.
    const auto want =
        cluster.predictor->predict(netlist::parseSnl(kFirSnl));
    auto direct =
        serve::Client::connectUnix(cluster.worker_paths[0]);
    const auto got = direct.predict(kFirSnl, serve::DesignFormat::Snl);
    ASSERT_EQ(got.status, Status::Ok);
    expectSamePrediction(got.prediction, want);
    par::setThreads(1);
}

} // namespace
} // namespace sns::cluster
