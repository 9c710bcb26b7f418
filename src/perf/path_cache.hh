/**
 * @file
 * sns::perf — the inference fast path (docs/perf.md).
 *
 * PathPredictionCache is a thread-safe, content-addressed memo of
 * Circuitformer path predictions: key = the complete token sequence of
 * a sampled circuit path (addressed by its FNV-1a hash, verified by
 * full token comparison, so hash collisions can never alias), value =
 * the de-normalized PathPrediction triple. DSE sweeps hammer the
 * predictor with hundreds of design variants that share most of their
 * sampled paths; with a cache held across predictBatch() calls each
 * unique path pays the Transformer exactly once.
 *
 * Why memoization is sound: a path's prediction depends only on its
 * token sequence — Circuitformer batches are padded and key-masked, so
 * a path's row is bitwise independent of which batch it rides in
 * (asserted end-to-end by PredictBatchTest.CacheOnOffBitwiseIdentical).
 * Cached replay therefore returns the exact bits the model would
 * recompute.
 *
 * Concurrency and determinism: the map is sharded by key hash, one
 * mutex per shard. Eviction is per shard, FIFO in insertion order, and
 * capacity is enforced deterministically (a single-threaded fill
 * always evicts the same keys in the same order). Under concurrent
 * mixed workloads the hit/miss *split* may vary run to run — the
 * *predictions* never do, because every value is a pure function of
 * its key.
 *
 * Sharing contract: one cache may be shared across threads, across
 * predictBatch calls, and across *predictor instances* — provided
 * every writer runs the same Circuitformer weights, because a cached
 * value is only key-determined under a fixed model. That precondition
 * is enforced, not just documented: the first predictor to use the
 * cache binds it to its weight fingerprint (`bindModel`), any later
 * user with different weights is rejected, and `clear()` unbinds so a
 * hot-reloaded server re-binds its fresh model (docs/serving.md).
 */

#ifndef SNS_PERF_PATH_CACHE_HH
#define SNS_PERF_PATH_CACHE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/circuitformer.hh"
#include "graphir/vocabulary.hh"

namespace sns::perf {

/** FNV-1a (64-bit) over the raw bytes of a token sequence. */
uint64_t hashTokens(std::span<const graphir::TokenId> tokens);

/** Monotonic + instantaneous counters of one cache (a snapshot). */
struct CacheStats
{
    uint64_t hits = 0;       ///< paths whose lookup returned a value
    uint64_t misses = 0;     ///< paths whose lookup found nothing
    uint64_t inserts = 0;    ///< entries added (re-inserts excluded)
    uint64_t evictions = 0;  ///< entries displaced at capacity
    size_t entries = 0;      ///< resident entries right now
    size_t bytes = 0;        ///< approximate resident footprint

    /** hits / (hits + misses), 0 when never probed. */
    double hitRate() const
    {
        const uint64_t probes = hits + misses;
        return probes == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(probes);
    }
};

/** Construction knobs. */
struct PathCacheOptions
{
    /** Maximum resident entries, enforced per shard (each shard holds
     * capacity / shards, so the bound is exact when keys spread and
     * conservative otherwise). 0 means unbounded. */
    size_t capacity = 1u << 20;

    /** Mutex shards; rounded up to 1. More shards = less contention
     * under concurrent predictBatch designs. */
    size_t shards = 16;
};

/** Sharded, bounded, content-addressed path-prediction memo. */
class PathPredictionCache
{
  public:
    explicit PathPredictionCache(PathCacheOptions options = {});

    PathPredictionCache(const PathPredictionCache &) = delete;
    PathPredictionCache &operator=(const PathPredictionCache &) = delete;

    /**
     * Probe for a path. On hit copies the cached triple into `out` and
     * returns true; counts one hit or one miss either way.
     */
    bool lookup(std::span<const graphir::TokenId> tokens,
                core::PathPrediction &out) const;

    /**
     * lookup() with the key's hash already known: `hash` must be
     * hashTokens(tokens), as sampler::PathSet::tokenHash carries it.
     * The hash only picks the shard and bucket; the full token
     * comparison still decides a hit.
     *
     * `uses` is the number of sampled paths this one probe answers
     * for: the predictor probes once per distinct token sequence of a
     * design, and adds the sequence's path count to `hits` or
     * `misses`, so the counters stay per path (hits + misses equals
     * the paths probed) and `uses` = 1 counts like the span form.
     */
    bool lookup(std::span<const graphir::TokenId> tokens, uint64_t hash,
                core::PathPrediction &out, uint64_t uses = 1) const;

    /**
     * Memoize a path's prediction. Re-inserting a resident key is a
     * no-op (values are pure functions of the key, so the resident
     * value is already correct — this is what makes concurrent
     * duplicate computes benign). At capacity the shard evicts its
     * oldest-inserted entries first (FIFO).
     */
    void insert(std::span<const graphir::TokenId> tokens,
                const core::PathPrediction &value);

    /** insert() with `hash` == hashTokens(tokens) already known. */
    void insert(std::span<const graphir::TokenId> tokens, uint64_t hash,
                const core::PathPrediction &value);

    /**
     * Bind the cache to a model's weight fingerprint (nonzero; see
     * core::Circuitformer::parametersFingerprint). Returns true if the
     * cache was unbound (it binds now) or already bound to the same
     * fingerprint; false on a conflicting bind — the caller must treat
     * that as a fatal sharing bug, since mixing models in one cache
     * would serve one model's predictions for another's paths.
     */
    bool bindModel(uint64_t fingerprint);

    /** The bound fingerprint, 0 while unbound. */
    uint64_t boundModel() const;

    /** Consistent per-shard snapshot, aggregated over shards. */
    CacheStats stats() const;

    /** Drop every entry, zero all counters, and unbind the model
     * fingerprint (the next bindModel() starts fresh). */
    void clear();

    size_t capacity() const { return capacity_; }
    size_t shardCount() const { return shards_.size(); }

  private:
    struct Entry
    {
        std::vector<graphir::TokenId> tokens;
        core::PathPrediction value;
    };

    /** One lock's worth of the map. Hash buckets hold every entry
     * whose full hash collides; the FIFO queue records insertion
     * order for eviction. */
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<uint64_t, std::vector<Entry>> buckets;
        std::deque<uint64_t> fifo; ///< hashes in insertion order
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t inserts = 0;
        uint64_t evictions = 0;
        size_t entries = 0;
        size_t bytes = 0;
    };

    Shard &shardFor(uint64_t hash) const
    {
        return shards_[hash % shards_.size()];
    }

    size_t capacity_ = 0;
    size_t shard_capacity_ = 0; ///< 0 = unbounded
    /** Weight fingerprint of the model whose predictions live here;
     * 0 = unbound. CAS-bound on first use, reset by clear(). */
    std::atomic<uint64_t> bound_model_{0};
    mutable std::vector<Shard> shards_;
};

} // namespace sns::perf

#endif // SNS_PERF_PATH_CACHE_HH
