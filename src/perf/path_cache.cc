#include "perf/path_cache.hh"

#include <algorithm>

#include "util/fnv.hh"

namespace sns::perf {

namespace {

/** Approximate resident footprint of one entry. */
size_t
entryBytes(const std::vector<graphir::TokenId> &tokens)
{
    return tokens.size() * sizeof(graphir::TokenId) +
           sizeof(std::vector<graphir::TokenId>) +
           sizeof(core::PathPrediction);
}

} // namespace

uint64_t
hashTokens(std::span<const graphir::TokenId> tokens)
{
    // FNV-1a, 64-bit, over the raw token bytes (little-endian, like
    // the serve wire format). Content addressing: the same sequence
    // hashes the same in any process, which is what lets one cache be
    // shared across predictor instances (the serve daemon shares it
    // across workers and hot-reloads; see the header sharing contract
    // and bindModel()).
    return fnv1a(tokens.data(), tokens.size_bytes());
}

PathPredictionCache::PathPredictionCache(PathCacheOptions options)
    : capacity_(options.capacity),
      shards_(std::max<size_t>(1, options.shards))
{
    if (capacity_ > 0) {
        shard_capacity_ =
            (capacity_ + shards_.size() - 1) / shards_.size();
        shard_capacity_ = std::max<size_t>(1, shard_capacity_);
    }
}

bool
PathPredictionCache::lookup(std::span<const graphir::TokenId> tokens,
                            core::PathPrediction &out) const
{
    const uint64_t hash = hashTokens(tokens);
    Shard &shard = shardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.buckets.find(hash);
    if (it != shard.buckets.end()) {
        for (const Entry &entry : it->second) {
            if (entry.tokens.size() == tokens.size() &&
                std::equal(tokens.begin(), tokens.end(),
                           entry.tokens.begin())) {
                out = entry.value;
                ++shard.hits;
                return true;
            }
        }
    }
    ++shard.misses;
    return false;
}

void
PathPredictionCache::insert(std::span<const graphir::TokenId> tokens,
                            const core::PathPrediction &value)
{
    const uint64_t hash = hashTokens(tokens);
    Shard &shard = shardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mutex);

    auto &bucket = shard.buckets[hash];
    for (const Entry &entry : bucket) {
        if (entry.tokens.size() == tokens.size() &&
            std::equal(tokens.begin(), tokens.end(),
                       entry.tokens.begin())) {
            return; // resident: values are key-determined, keep it
        }
    }

    Entry entry;
    entry.tokens.assign(tokens.begin(), tokens.end());
    entry.value = value;
    shard.bytes += entryBytes(entry.tokens);
    bucket.push_back(std::move(entry));
    shard.fifo.push_back(hash);
    ++shard.entries;
    ++shard.inserts;

    // FIFO eviction: the oldest-inserted entry of this shard goes
    // first. Within one hash bucket entries are appended in insertion
    // order, so popping the bucket front matches the FIFO queue.
    while (shard_capacity_ > 0 && shard.entries > shard_capacity_) {
        const uint64_t victim_hash = shard.fifo.front();
        shard.fifo.pop_front();
        const auto victim_it = shard.buckets.find(victim_hash);
        if (victim_it == shard.buckets.end() ||
            victim_it->second.empty())
            continue; // stale queue entry (should not happen)
        auto &victim_bucket = victim_it->second;
        shard.bytes -= entryBytes(victim_bucket.front().tokens);
        victim_bucket.erase(victim_bucket.begin());
        if (victim_bucket.empty())
            shard.buckets.erase(victim_it);
        --shard.entries;
        ++shard.evictions;
    }
}

bool
PathPredictionCache::bindModel(uint64_t fingerprint)
{
    uint64_t expected = 0;
    if (bound_model_.compare_exchange_strong(expected, fingerprint))
        return true; // was unbound — bound now
    return expected == fingerprint;
}

uint64_t
PathPredictionCache::boundModel() const
{
    return bound_model_.load();
}

CacheStats
PathPredictionCache::stats() const
{
    CacheStats total;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        total.hits += shard.hits;
        total.misses += shard.misses;
        total.inserts += shard.inserts;
        total.evictions += shard.evictions;
        total.entries += shard.entries;
        total.bytes += shard.bytes;
    }
    return total;
}

void
PathPredictionCache::clear()
{
    bound_model_.store(0);
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.buckets.clear();
        shard.fifo.clear();
        shard.hits = 0;
        shard.misses = 0;
        shard.inserts = 0;
        shard.evictions = 0;
        shard.entries = 0;
        shard.bytes = 0;
    }
}

} // namespace sns::perf
