/**
 * @file
 * serve_mixed: an open loop through an in-process cluster::Router in
 * front of two serve::Server workers over unix sockets — the only
 * workload that crosses the wire protocol, the micro-batcher, the
 * router and the graphir diff of edit-loop sessions.
 *
 * Traffic: one generator of kConnections threads, each with its own
 * connection, sends a seeded Poisson schedule at three fixed rates
 * (kRateShares of the frozen capacity kCapacityRps), seconds/3 each.
 * 90% of requests are PREDICTs drawn Zipf(1.1) from 512 two-chain
 * designs; 10% are UPDATEs on 8 edit-loop sessions of the 12-module
 * FIR design, one module edited per update. Every request is timed
 * from its scheduled send time, so a stalled generator shows as
 * latency, and the generator's own lateness is reported.
 *
 * Every reply is checked bitwise after the run: PREDICTs against a
 * local predictBatch of the same design, UPDATEs against a cold local
 * prediction of the same revision.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "cluster/ring.hh"
#include "cluster/router.hh"
#include "graphir/diff.hh"
#include "netlist/snl_parser.hh"
#include "obs/metrics.hh"
#include "perf/path_cache.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "trace.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace snsbench {

using namespace sns;

namespace {

constexpr int kConnections = 4;
constexpr int kWorkers = 2;
constexpr int kCorpus = 512;
constexpr int kSessions = 8;
constexpr int kFirModules = 12;
/** firDesign() sources repeat with the edit counter modulo this. */
constexpr int kEditPeriod = 12;
constexpr double kZipfExponent = 1.1;
constexpr double kPredictShare = 0.9;
constexpr double kLatencyLimitMs = 50.0;
/** Length of the windows `throughput` takes its medians over. */
constexpr double kWindowS = 0.25;
/**
 * The capacity C the rates are shares of, frozen so every run offers
 * the same load. Ten traced runs on a 4-vCPU virtual machine measured
 * the warm closed-loop capacity serve.capacity_rps at a median of 1618
 * (quartiles 1477 and 2169), but offered 0.3/0.6/0.9 x 1600 the top
 * phase of all ten runs missed the latency limit and `throughput`
 * spread by 65% (records in calibration.jsonl). C is frozen lower,
 * where the 0.9 C phase runs near the limit and the metric stays
 * steady.
 */
constexpr double kCapacityRps = 1000.0;
constexpr double kRateShares[] = {0.3, 0.6, 0.9};
/** The phase (0.6 C) serve.p50_ms, p99_ms and edit_p50_ms report. */
constexpr int kReportPhase = 1;

/** One scheduled request. */
struct Request
{
    double due_s = 0.0; ///< offset from the start of the schedule
    int phase = 0;
    bool update = false;
    int design = 0;  ///< corpus index (PREDICT)
    int session = 0; ///< session index (UPDATE)
    int edit = 0;    ///< revision number of the session (UPDATE)
};

/** What one request came back with. */
struct Outcome
{
    double sent_s = 0.0;
    double done_s = 0.0;
    bool answered = false; ///< false: transport error
    serve::Status status = serve::Status::Error;
    core::SnsPrediction prediction;
    core::DiffStats diff;
};

/** The inputs every set-up and the generator share. */
struct Inputs
{
    std::vector<std::string> corpus;   ///< PREDICT designs
    std::vector<std::string> warmup;   ///< never requested when measuring
    /** firDesign source per (session, edit % kEditPeriod). */
    std::vector<std::vector<std::string>> revisions;

    const std::string &
    revision(int session, int edit) const
    {
        return revisions[session][edit % kEditPeriod];
    }
};

int
editedModule(int session)
{
    return (5 + session) % kFirModules;
}

/** Two workers, a router, kConnections connected clients and kSessions
 * open sessions. Destruction closes the clients, then stops the router
 * and drains the workers. */
struct Cluster
{
    std::vector<std::unique_ptr<obs::Registry>> registries;
    std::vector<std::unique_ptr<serve::Server>> workers;
    std::vector<std::string> worker_paths;
    obs::Registry router_registry;
    std::unique_ptr<cluster::Router> router;
    std::vector<serve::Client> clients;
    std::vector<uint64_t> session_ids;
    std::vector<int> session_edit; ///< next edit number per session

    ~Cluster()
    {
        clients.clear();
        if (router)
            router->stop();
        for (auto &worker : workers)
            worker->stop();
    }
};

std::unique_ptr<Cluster>
startCluster(const RunOptions &opts, const std::string &model_dir,
             const Inputs &inputs)
{
    auto c = std::make_unique<Cluster>();
    std::vector<cluster::WorkerAddress> addresses;
    for (int w = 0; w < kWorkers; ++w) {
        c->registries.push_back(std::make_unique<obs::Registry>());
        serve::ServerOptions options;
        options.unix_path = opts.work_dir + "/w" + std::to_string(w) + ".sock";
        options.registry = c->registries.back().get();
        c->workers.push_back(std::make_unique<serve::Server>(
            std::make_shared<const core::SnsPredictor>(
                core::SnsPredictor::load(model_dir)),
            options));
        c->workers.back()->start();
        c->worker_paths.push_back(options.unix_path);
        addresses.push_back(
            cluster::WorkerAddress::parse("unix:" + options.unix_path));
    }
    cluster::RouterOptions router_options;
    router_options.unix_path = opts.work_dir + "/router.sock";
    router_options.workers = addresses;
    router_options.registry = &c->router_registry;
    c->router = std::make_unique<cluster::Router>(router_options);
    c->router->start();
    for (int i = 0; i < kConnections; ++i) {
        c->clients.push_back(
            serve::Client::connectUnix(router_options.unix_path));
        c->clients.back().hello();
    }

    // Warm-up: every connection at once, so the batchers and the pool
    // threads behind both workers run before anything is timed.
    std::vector<std::thread> threads;
    for (int i = 0; i < kConnections; ++i) {
        threads.emplace_back([&, i] {
            for (size_t d = i; d < inputs.warmup.size(); d += kConnections)
                c->clients[i].predict(inputs.warmup[d],
                                      serve::DesignFormat::Snl);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int s = 0; s < kSessions; ++s) {
        const auto reply = c->clients[s % kConnections].openSession(
            inputs.revision(s, 0), serve::DesignFormat::Snl);
        if (reply.status != serve::Status::Ok)
            throw std::runtime_error("OPEN failed: " + reply.message);
        c->session_ids.push_back(reply.session_id);
        c->session_edit.push_back(1);
    }
    return c;
}

/** A seeded schedule of `count_per_phase`-shaped Poisson arrivals at
 * the phase rates, `phase_s` seconds per phase. Edit numbers continue
 * from `session_edit`, which is advanced. */
std::vector<Request>
makeSchedule(Rng &rng, const std::vector<double> &cdf,
             const std::vector<int> &rank_to_design,
             std::vector<int> &session_edit,
             const std::vector<double> &rates, double phase_s)
{
    std::vector<Request> schedule;
    for (size_t p = 0; p < rates.size(); ++p) {
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - rng.uniform()) / rates[p];
            if (t >= phase_s)
                break;
            Request r;
            r.due_s = static_cast<double>(p) * phase_s + t;
            r.phase = static_cast<int>(p);
            r.update = rng.uniform() >= kPredictShare;
            if (r.update) {
                r.session = static_cast<int>(rng.uniformInt(
                    static_cast<uint64_t>(kSessions)));
                r.edit = session_edit[r.session]++;
            } else {
                const double u = rng.uniform();
                const size_t rank = static_cast<size_t>(
                    std::upper_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                r.design = rank_to_design[std::min(rank, cdf.size() - 1)];
            }
            schedule.push_back(r);
        }
    }
    return schedule;
}

/** The summed serve.queue_depth gauge of the workers. */
double
queueDepth(const Cluster &c)
{
    double depth = 0.0;
    for (const auto &registry : c.registries) {
        for (const auto &sample : registry->snapshot()) {
            if (sample.name == "serve.queue_depth")
                depth += sample.value;
        }
    }
    return depth;
}

/** Process CPU seconds at a wall-clock offset from the schedule's start. */
struct CpuMark
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

Clock::time_point
after(Clock::time_point start, double seconds)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

/**
 * Send `schedule` over every connection of `c`, each request at its
 * due time (open loop), or back to back when `closed_loop`. With
 * `cpu_marks`, a CPU mark is taken every kWindowS while it runs; with
 * `queue_max`, every 8th request also samples the workers' queue depth.
 */
std::vector<Outcome>
drive(Cluster &c, const Inputs &inputs, const std::vector<Request> &schedule,
      bool closed_loop, std::vector<CpuMark> *cpu_marks, double *queue_max)
{
    std::vector<Outcome> outcomes(schedule.size());
    std::atomic<size_t> next{0};
    std::mutex queue_mutex;
    const auto start = Clock::now();
    std::atomic<bool> running{true};
    std::thread marker;
    if (cpu_marks != nullptr) {
        marker = std::thread([&] {
            for (int i = 0; running; ++i) {
                std::this_thread::sleep_until(after(start, i * kWindowS));
                cpu_marks->push_back({secondsSince(start), cpuSeconds()});
            }
        });
    }
    std::vector<std::thread> threads;
    for (int i = 0; i < kConnections; ++i) {
        threads.emplace_back([&, i] {
            serve::Client &client = c.clients[i];
            for (;;) {
                const size_t k = next.fetch_add(1);
                if (k >= schedule.size())
                    break;
                const Request &r = schedule[k];
                if (!closed_loop)
                    std::this_thread::sleep_until(after(start, r.due_s));
                Outcome &o = outcomes[k];
                Span span("serve.request", k);
                o.sent_s = secondsSince(start);
                try {
                    if (r.update) {
                        const auto reply = client.updateSession(
                            c.session_ids[r.session],
                            inputs.revision(r.session, r.edit),
                            serve::DesignFormat::Snl);
                        o.status = reply.status;
                        o.prediction = reply.prediction;
                        o.diff = reply.diff;
                    } else {
                        const auto reply =
                            client.predict(inputs.corpus[r.design],
                                           serve::DesignFormat::Snl);
                        o.status = reply.status;
                        o.prediction = reply.prediction;
                    }
                    o.answered = true;
                } catch (const std::exception &) {
                    o.answered = false;
                }
                o.done_s = secondsSince(start);
                if (queue_max != nullptr && k % 8 == 0) {
                    const double depth = queueDepth(c);
                    std::lock_guard<std::mutex> lock(queue_mutex);
                    *queue_max = std::max(*queue_max, depth);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    running = false;
    if (marker.joinable())
        marker.join();
    return outcomes;
}

/**
 * throughput: requests answered within the latency limit per CPU-second
 * of the whole process (clients, router and workers), so trading
 * latency for CPU, or failing requests, lowers it. Each window between
 * two CPU marks gives one rate; each phase takes the median of its
 * windows, so a stall of the host spoils a few windows rather than the
 * run; the phases combine weighted by their good requests, as one
 * run's good requests over its CPU-seconds would. `good_done_s` holds
 * the sorted completion times of the good requests.
 */
void
reportGoodPerCpuSecond(Report &report, const std::vector<CpuMark> &marks,
                       const std::vector<double> &good_done_s,
                       const std::vector<uint64_t> &phase_good,
                       double phase_s)
{
    std::vector<std::vector<double>> phase_rates(phase_good.size());
    std::vector<double> all_rates;
    for (size_t i = 0; i + 1 < marks.size(); ++i) {
        const size_t phase = static_cast<size_t>(marks[i].wall_s / phase_s);
        const double cpu_s = marks[i + 1].cpu_s - marks[i].cpu_s;
        if (phase >= phase_good.size() || cpu_s <= 0.0)
            continue;
        const auto first = std::lower_bound(
            good_done_s.begin(), good_done_s.end(), marks[i].wall_s);
        const auto last = std::lower_bound(first, good_done_s.end(),
                                           marks[i + 1].wall_s);
        phase_rates[phase].push_back(static_cast<double>(last - first) /
                                     cpu_s);
        all_rates.push_back(phase_rates[phase].back());
    }
    double good = 0.0;
    double cpu_s = 0.0;
    for (size_t p = 0; p < phase_good.size(); ++p) {
        const double rate = median(phase_rates[p]);
        if (rate <= 0.0)
            continue;
        good += static_cast<double>(phase_good[p]);
        cpu_s += static_cast<double>(phase_good[p]) / rate;
    }
    report.add("throughput", "1/cpu_s", cpu_s > 0.0 ? good / cpu_s : 0.0,
               all_rates);
}

/** Closed-loop capacity of the mix: kConnections connections sending
 * back to back, requests completed per second. */
double
closedLoopCapacity(Cluster &c, const Inputs &inputs, Rng &rng,
                   const std::vector<double> &cdf,
                   const std::vector<int> &rank_to_design)
{
    // ~3 s of work at the frozen capacity; only the count matters.
    const auto schedule = makeSchedule(rng, cdf, rank_to_design,
                                       c.session_edit, {kCapacityRps}, 3.0);
    const auto outcomes = drive(c, inputs, schedule, true, nullptr, nullptr);
    double end_s = 0.0;
    for (const auto &o : outcomes)
        end_s = std::max(end_s, o.done_s);
    return end_s > 0.0 ? static_cast<double>(outcomes.size()) / end_s : 0.0;
}

/** Server, router, cache and diff metrics of a traced run. */
void
reportServingLayers(Report &report, Cluster &c, const Inputs &inputs,
                    const std::vector<Request> &schedule,
                    const std::vector<Outcome> &outcomes)
{
    double latency_count = 0.0;
    double p50_weighted = 0.0;
    double batches = 0.0;
    double batched = 0.0;
    double overloaded = 0.0;
    double deadline = 0.0;
    std::vector<double> requests;
    for (const auto &registry : c.registries) {
        const auto snap =
            registry->histogram("serve.request_latency_us").snapshot();
        latency_count += static_cast<double>(snap.count);
        p50_weighted += snap.p50 * static_cast<double>(snap.count);
        batches += registry->counter("serve.batches_total").value();
        batched += registry->counter("serve.batched_designs_total").value();
        overloaded += registry->counter("serve.rejected_overloaded").value();
        deadline += registry->counter("serve.rejected_deadline").value();
        requests.push_back(static_cast<double>(
            registry->counter("serve.requests_total").value()));
    }
    report.add("serve.server_p50_us", "us",
               latency_count > 0.0 ? p50_weighted / latency_count : 0.0);
    report.add("serve.batch_size_mean", "designs",
               batches > 0.0 ? batched / batches : 0.0);
    report.add("serve.rejected_overloaded", "count", overloaded);
    report.add("serve.rejected_deadline", "count", deadline);
    const double mean_requests =
        std::accumulate(requests.begin(), requests.end(), 0.0) /
        static_cast<double>(requests.size());
    report.add("router.imbalance", "ratio",
               mean_requests > 0.0
                   ? *std::max_element(requests.begin(), requests.end()) /
                         mean_requests
                   : 0.0);
    report.add("router.retries", "count",
               static_cast<double>(
                   c.router_registry.counter("router.retries_total").value()));

    perf::CacheStats cache;
    for (const auto &worker : c.workers) {
        const auto stats = worker->cache().stats();
        cache.hits += stats.hits;
        cache.misses += stats.misses;
        cache.evictions += stats.evictions;
    }
    report.add("cache.hit_ratio", "ratio", cache.hitRate());
    report.add("cache.evictions", "count",
               static_cast<double>(cache.evictions));

    // router.hop_us: the same warm design routed and sent straight to
    // its owner (the ring the router itself resolves), interleaved.
    std::vector<serve::Client> direct;
    for (const auto &path : c.worker_paths) {
        direct.push_back(serve::Client::connectUnix(path));
        direct.back().hello();
    }
    const auto ring = c.router->membership().ring();
    std::vector<double> routed_us;
    std::vector<double> direct_us;
    size_t probes = 0;
    for (size_t k = 0; k < schedule.size() && probes < 64; ++k) {
        if (schedule[k].update || !outcomes[k].answered)
            continue;
        ++probes;
        const std::string &text = inputs.corpus[schedule[k].design];
        serve::Client &owner = direct[ring.pick(cluster::hashKey(text))];
        for (int round = 0; round < 3; ++round) {
            auto t0 = Clock::now();
            const auto via_router =
                c.clients[0].predict(text, serve::DesignFormat::Snl);
            routed_us.push_back(1e6 * secondsSince(t0));
            t0 = Clock::now();
            const auto via_owner = owner.predict(text, serve::DesignFormat::Snl);
            direct_us.push_back(1e6 * secondsSince(t0));
            if (!samePrediction(via_router.prediction, via_owner.prediction))
                report.incorrect("routed reply differs from the owner's");
        }
    }
    report.add("router.hop_us", "us", median(routed_us) - median(direct_us));

    // serve.wire_us: what a request pays for the wire alone — a PING
    // round trip straight to a worker (socket, framing, dispatch).
    std::vector<double> ping_us;
    for (int round = 0; round < 256; ++round) {
        const auto t0 = Clock::now();
        direct[round % direct.size()].ping();
        ping_us.push_back(1e6 * secondsSince(t0));
    }
    report.add("serve.wire_us", "us", median(ping_us), ping_us);

    // graphir.diff_us: each session's consecutive revisions diffed
    // locally, the work an UPDATE starts with.
    for (int s = 0; s < kSessions; ++s) {
        std::vector<graphir::Graph> revisions;
        for (int e = 0; e < kEditPeriod; ++e)
            revisions.push_back(netlist::parseSnl(inputs.revision(s, e)));
        for (int e = 1; e < kEditPeriod; ++e) {
            Span span("graphir.diff", static_cast<uint64_t>(s));
            graphir::diffGraphs(revisions[e - 1], revisions[e]);
        }
    }
    const auto stats = Tracer::active()->stats();
    const auto diff = stats.find("graphir.diff");
    if (diff != stats.end())
        report.add("graphir.diff_us", "us",
                   diff->second.total_us /
                       static_cast<double>(diff->second.count));
}

/** Local reference predictions, checked against every answered reply.
 * With tracing on, the reference for PREDICT designs is built by the
 * traced local pass (and checked against predictBatch itself). */
void
verify(Report &report, const core::SnsPredictor &predictor,
       const Inputs &inputs, const std::vector<Request> &schedule,
       const std::vector<Outcome> &outcomes, bool trace)
{
    std::vector<int> designs;
    std::map<std::pair<int, int>, size_t> revision_slot;
    for (size_t k = 0; k < schedule.size(); ++k) {
        const Request &r = schedule[k];
        if (r.update)
            revision_slot.emplace(
                std::make_pair(r.session, r.edit % kEditPeriod), 0);
        else
            designs.push_back(r.design);
    }
    std::sort(designs.begin(), designs.end());
    designs.erase(std::unique(designs.begin(), designs.end()),
                  designs.end());

    std::vector<graphir::Graph> graphs;
    for (const int d : designs) {
        Span span("netlist.parse", static_cast<uint64_t>(d));
        graphs.push_back(netlist::parseSnl(inputs.corpus[d]));
    }
    perf::PathPredictionCache cache;
    core::PredictOptions options;
    options.cache = &cache;
    const auto ptrs = pointers(graphs);
    std::vector<core::SnsPrediction> reference;
    TracedCounts counts;
    if (trace) {
        reference = tracedPredict(predictor, ptrs, options, 0, counts);
        core::PredictOptions plain;
        const auto want = predictor.predictBatch(ptrs, plain);
        for (size_t i = 0; i < want.size(); ++i) {
            if (!samePrediction(want[i], reference[i]))
                report.incorrect("traced pass differs from predictBatch");
        }
        reportPredictionLayers(report, predictor, core::Precision::Fp64,
                               counts);
    } else {
        reference = predictor.predictBatch(ptrs, options);
    }
    std::vector<size_t> design_slot(inputs.corpus.size(), 0);
    for (size_t i = 0; i < designs.size(); ++i)
        design_slot[designs[i]] = i;

    std::vector<graphir::Graph> revision_graphs;
    for (auto &[key, slot] : revision_slot) {
        slot = revision_graphs.size();
        revision_graphs.push_back(
            netlist::parseSnl(inputs.revision(key.first, key.second)));
    }
    const auto revision_reference =
        predictor.predictBatch(pointers(revision_graphs));

    for (size_t k = 0; k < schedule.size(); ++k) {
        const Request &r = schedule[k];
        const Outcome &o = outcomes[k];
        if (!o.answered || o.status != serve::Status::Ok)
            continue;
        const core::SnsPrediction &want =
            r.update ? revision_reference[revision_slot.at(
                           {r.session, r.edit % kEditPeriod})]
                     : reference[design_slot[r.design]];
        if (!samePrediction(o.prediction, want)) {
            report.incorrect(std::string(r.update ? "UPDATE" : "PREDICT") +
                             " reply " + std::to_string(k) +
                             " differs from the local prediction");
            return;
        }
    }
}

} // namespace

void
runServeMixed(const RunOptions &opts, Report &report)
{
    const EvalSet set = buildEvalSet();
    const std::string model_dir = opts.work_dir + "/model";
    trainServingModel(set, model_dir);

    Inputs inputs;
    for (int i = 0; i < kCorpus; ++i)
        inputs.corpus.push_back(chainDesign(opts.seed, i, 2, 10));
    for (int i = 0; i < 4 * kConnections; ++i)
        inputs.warmup.push_back(
            chainDesign(opts.seed, (uint64_t(1) << 40) + i, 2, 10));
    inputs.revisions.resize(kSessions);
    for (int s = 0; s < kSessions; ++s) {
        for (int e = 0; e < kEditPeriod; ++e)
            inputs.revisions[s].push_back(
                firDesign(s, editedModule(s), e));
    }

    std::unique_ptr<Cluster> cluster;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        cluster.reset(); // tear the previous set-up down first
        const double start = cpuSeconds();
        cluster = startCluster(opts, model_dir, inputs);
        setup_s.push_back(cpuSeconds() - start);
    }
    report.add("setup_s", "s", median(setup_s), setup_s);

    // The schedule: Zipf popularity over a seeded rank -> design map.
    Rng rng(mixSeed(opts.seed, 0x5e7e));
    std::vector<int> rank_to_design(kCorpus);
    for (int i = 0; i < kCorpus; ++i)
        rank_to_design[i] = i;
    rng.shuffle(rank_to_design);
    std::vector<double> cdf(kCorpus);
    double mass = 0.0;
    for (int r = 0; r < kCorpus; ++r) {
        mass += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
        cdf[r] = mass;
    }
    for (double &v : cdf)
        v /= mass;
    std::vector<double> rates;
    for (const double share : kRateShares)
        rates.push_back(share * kCapacityRps);
    const double phase_s = opts.seconds / static_cast<double>(rates.size());
    const auto schedule = makeSchedule(rng, cdf, rank_to_design,
                                       cluster->session_edit, rates, phase_s);

    Tracer tracer;
    Tracer::install(opts.trace ? &tracer : nullptr);
    double queue_max = 0.0;
    std::vector<CpuMark> cpu_marks;
    const auto outcomes = drive(*cluster, inputs, schedule, false, &cpu_marks,
                                opts.trace ? &queue_max : nullptr);
    Tracer::install(nullptr);

    // Per phase: latencies from the due time, failures, lateness.
    const size_t phases = rates.size();
    std::vector<std::vector<double>> predict_ms(phases);
    std::vector<std::vector<double>> update_ms(phases);
    std::vector<std::vector<double>> all_ms(phases);
    std::vector<std::vector<double>> phase_lateness_ms(phases);
    std::vector<uint64_t> phase_failed(phases, 0);
    std::vector<double> lateness_ms;
    std::vector<uint64_t> phase_good(phases, 0);
    std::vector<double> good_done_s;
    size_t reused = 0;
    size_t session_paths = 0;
    for (size_t k = 0; k < schedule.size(); ++k) {
        const Request &r = schedule[k];
        const Outcome &o = outcomes[k];
        report.attempt();
        lateness_ms.push_back(1e3 * (o.sent_s - r.due_s));
        phase_lateness_ms[r.phase].push_back(lateness_ms.back());
        if (!o.answered || o.status != serve::Status::Ok) {
            report.fail();
            ++phase_failed[r.phase];
            continue;
        }
        const double ms = 1e3 * (o.done_s - r.due_s);
        (r.update ? update_ms : predict_ms)[r.phase].push_back(ms);
        all_ms[r.phase].push_back(ms);
        if (ms <= kLatencyLimitMs) {
            ++phase_good[r.phase];
            good_done_s.push_back(o.done_s);
        }
        if (r.update) {
            reused += o.diff.paths_reused;
            session_paths += o.diff.paths_total;
        }
    }
    std::sort(good_done_s.begin(), good_done_s.end());
    // The wall-clock view (latency at 0.6 C, goodput, the highest rate
    // meeting the limit) goes to every record and prints with the
    // per-layer metrics.
    reportGoodPerCpuSecond(report, cpu_marks, good_done_s, phase_good,
                           phase_s);
    report.add("serve.goodput_rps", "1/s",
               static_cast<double>(good_done_s.size()) / opts.seconds);
    report.add("serve.p50_ms", "ms", median(predict_ms[kReportPhase]),
               predict_ms[kReportPhase]);
    report.add("serve.p99_ms", "ms",
               quantile(predict_ms[kReportPhase], 0.99));
    report.add("serve.edit_p50_ms", "ms", median(update_ms[kReportPhase]),
               update_ms[kReportPhase]);
    report.add("session.reuse_ratio", "ratio",
               session_paths == 0 ? 0.0
                                  : static_cast<double>(reused) /
                                        static_cast<double>(session_paths));
    report.add("loadgen.lateness_p99_ms", "ms", quantile(lateness_ms, 0.99));
    // The highest rate whose p99 meets the limit with no failures and no
    // backlog left growing at the end of the phase. Each phase's p99 of
    // all requests goes to the record, to show how close the top rate
    // runs to the limit.
    double max_ok = 0.0;
    for (size_t p = 0; p < phases; ++p) {
        const auto &late = phase_lateness_ms[p];
        const std::vector<double> tail(
            late.begin() + static_cast<long>(late.size() * 3 / 4),
            late.end());
        const double p99 = quantile(all_ms[p], 0.99);
        report.add("serve.phase" + std::to_string(p) + ".p99_ms", "ms", p99);
        if (phase_failed[p] == 0 && !all_ms[p].empty() &&
            p99 <= kLatencyLimitMs && median(tail) <= kLatencyLimitMs)
            max_ok = rates[p];
    }
    report.add("serve.max_ok_rate", "1/s", max_ok);

    // The reference and the accuracy come from a local copy of the
    // served model.
    const core::SnsPredictor local = core::SnsPredictor::load(model_dir);
    Tracer::install(opts.trace ? &tracer : nullptr);
    verify(report, local, inputs, schedule, outcomes, opts.trace);
    if (opts.trace) {
        reportServingLayers(report, *cluster, inputs, schedule, outcomes);
        report.add("serve.queue_depth_max", "count", queue_max);
        report.add("serve.capacity_rps", "1/s",
                   closedLoopCapacity(*cluster, inputs, rng, cdf,
                                      rank_to_design));
        report.add("trace.overhead", "ratio", tracingOverhead(tracer));
    }
    Tracer::install(nullptr);
    if (opts.trace)
        tracer.writeChrome(opts.trace_file);
    reportAccuracy(report, local, set, core::Precision::Fp64);
}

} // namespace snsbench
