/**
 * @file
 * The dynamic micro-batching queue at the heart of sns-serve
 * (docs/serving.md §Batching).
 *
 * Concurrent clients each submit one design; a single executor thread
 * coalesces whatever is queued into one `predictBatch` call, which
 * then fans the designs out across the sns::par pool. Two knobs shape
 * a batch: `max_batch` caps how many designs ride together, and
 * `max_linger_us` caps how long the executor waits for company once
 * work is pending — an idle server dispatches a lone request after at
 * most the linger, a busy one fills batches without waiting at all.
 *
 * Admission control is explicit and fail-fast: a bounded queue
 * (`max_queue`) turns overload into an immediate OVERLOADED outcome
 * instead of unbounded memory growth and collapse; per-request
 * deadlines expire queued work at dispatch time (DEADLINE_EXCEEDED)
 * so a stale request never wastes model time; and drain() stops
 * admission (DRAINING) while every already-admitted request still
 * gets a real answer — the graceful-SIGTERM half of the server.
 *
 * The single-executor design is also what keeps serving deterministic:
 * batches never run concurrently, so a shared path cache sees one
 * writer and predictions stay bitwise reproducible (the batch *split*
 * varies with traffic; the per-design bits never do, per the PR 2/3
 * padding and cache contracts).
 */

#ifndef SNS_SERVE_BATCHER_HH
#define SNS_SERVE_BATCHER_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/predictor.hh"
#include "obs/metrics.hh"
#include "serve/protocol.hh"

namespace sns::serve {

/** Batching and admission knobs. */
struct BatchOptions
{
    /** Most designs coalesced into one predictBatch call. */
    size_t max_batch = 16;

    /** Longest the executor lingers for more work once a request is
     * pending, measured from the oldest pending request's arrival. */
    int max_linger_us = 1000;

    /** Queued-request bound; submits beyond it are OVERLOADED. */
    size_t max_queue = 256;
};

/** What a request resolved to. */
struct Outcome
{
    Status status = Status::Error;
    core::SnsPrediction prediction;
    std::string message;
};

/** One admitted design waiting for (or riding in) a batch. */
struct Ticket
{
    graphir::Graph graph;
    /** Numeric tier this request runs at (the precision byte). The executor
     * groups same-tier tickets into one predictBatch call — a batch
     * never mixes precisions, mirroring how it never mixes models. */
    core::Precision precision = core::Precision::Fp64;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    std::promise<Outcome> promise;
};

/** The bounded queue + single executor thread. */
class MicroBatcher
{
  public:
    /** Runs one coalesced batch at one numeric tier; result i belongs
     * to input graph i. Exceptions become an Error outcome for the
     * whole batch. */
    using BatchFn = std::function<std::vector<core::SnsPrediction>(
        const std::vector<const graphir::Graph *> &, core::Precision)>;

    /** Instruments are created in `registry` (global by default;
     * tests pass their own for exact counts). */
    MicroBatcher(BatchOptions options, BatchFn fn,
                 obs::Registry *registry = &obs::Registry::global());

    /** Drains (every admitted request is answered) and joins. */
    ~MicroBatcher();

    MicroBatcher(const MicroBatcher &) = delete;
    MicroBatcher &operator=(const MicroBatcher &) = delete;

    enum class Admit {
        Ok,         ///< queued; the ticket's promise will be fulfilled
        Overloaded, ///< queue at max_queue — ticket returned unfilled
        Draining,   ///< drain() started — ticket returned unfilled
    };

    /**
     * Admit one request. On Ok the batcher takes the ticket and
     * guarantees its promise resolves (prediction, deadline expiry,
     * or error — even through drain()). On rejection the ticket is
     * handed back so the caller can reply without touching the
     * promise machinery.
     */
    Admit submit(std::unique_ptr<Ticket> &ticket);

    /**
     * Stop admitting, answer everything already queued, and join the
     * executor. Idempotent; called by the destructor.
     */
    void drain();

    /** Requests currently queued (a gauge, racy by nature). */
    size_t queueDepth() const;

    const BatchOptions &options() const { return options_; }

  private:
    void executorLoop();
    void finish(std::unique_ptr<Ticket> ticket, Outcome outcome);

    BatchOptions options_;
    BatchFn fn_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<std::unique_ptr<Ticket>> queue_;
    bool draining_ = false;
    std::mutex join_mutex_; ///< serializes drain()'s join

    obs::Counter &requests_total_;
    obs::Counter &requests_ok_;
    obs::Counter &rejected_overloaded_;
    obs::Counter &rejected_deadline_;
    obs::Counter &rejected_draining_;
    obs::Counter &request_errors_;
    obs::Counter &batches_total_;
    obs::Counter &batched_designs_total_;
    obs::Histogram &request_latency_us_;

    std::thread executor_; ///< last member: starts after the counters
};

} // namespace sns::serve

#endif // SNS_SERVE_BATCHER_HH
