/**
 * @file
 * Worker membership for the serve cluster (docs/cluster.md).
 *
 * The router holds one Membership table: every configured worker with
 * its address and a liveness state driven by the health loop's PING
 * cadence and by in-band evidence from proxied traffic:
 *
 *   Up       — routable; in the ring.
 *   Draining — answering admitted/session traffic but refusing new
 *              PREDICT/OPEN (the worker acknowledged DRAIN, or its
 *              PING reply carries the drain bit). Out of the ring
 *              for new work; pinned sessions keep flowing to it.
 *   Down     — `fail_threshold` consecutive transport failures. Out
 *              of the ring; a later successful PING restores Up.
 *
 * State changes bump an epoch counter; handlers rebuild their cached
 * ring only when the epoch moved, so the hot path is one relaxed load
 * per request. The table is process-wide and mutex-guarded — it
 * changes at health-probe cadence, not per request.
 */

#ifndef SNS_CLUSTER_MEMBERSHIP_HH
#define SNS_CLUSTER_MEMBERSHIP_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/ring.hh"
#include "serve/endpoint.hh"

namespace sns::cluster {

/** Where one worker listens: "unix:<path>", "tcp:<host>:<port>" or
 * a bare path; display() is also the worker's stable ring id. */
using WorkerAddress = serve::Endpoint;

/** Liveness state (the WORKERS verb's wire encoding). */
enum class WorkerState : uint8_t { Up = 0, Draining = 1, Down = 2 };

const char *workerStateName(WorkerState state);

/** One worker's row in the table. */
struct WorkerInfo
{
    WorkerAddress address;
    WorkerState state = WorkerState::Up;
    int consecutive_failures = 0;
};

/** The router's worker table. Thread-safe. */
class Membership
{
  public:
    Membership(std::vector<WorkerAddress> addresses, int vnodes,
               int fail_threshold);

    size_t size() const { return worker_count_; }

    /** Monotonic; bumped on every state change. */
    uint64_t epoch() const { return epoch_.load(); }

    /** The current ring over Up workers (rebuilt on state change;
     * cheap to copy — handlers cache it keyed on epoch()). */
    HashRing ring() const;

    /** Snapshot of every row, in configuration order. */
    std::vector<WorkerInfo> snapshot() const;

    WorkerAddress address(size_t index) const;

    /** Health-probe verdicts. markReachable resets the failure count
     * and applies the PING-reported drain state; markFailure counts
     * toward Down at fail_threshold. */
    void markReachable(size_t index, bool draining);
    void markFailure(size_t index);

    /** In-band evidence from proxied traffic: a DRAINING reply takes
     * the worker out of the ring immediately, ahead of the next
     * health probe. */
    void markDraining(size_t index);

    size_t countInState(WorkerState state) const;

  private:
    void setStateLocked(size_t index, WorkerState state);

    mutable std::mutex mutex_;
    std::vector<WorkerInfo> workers_;
    const size_t worker_count_;
    const int vnodes_;
    const int fail_threshold_;
    std::atomic<uint64_t> epoch_{1};
};

} // namespace sns::cluster

#endif // SNS_CLUSTER_MEMBERSHIP_HH
