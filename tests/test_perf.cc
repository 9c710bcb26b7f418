/**
 * @file
 * Tests for sns::perf — the content-addressed path-prediction cache:
 * hashing, hit/miss/byte accounting, deterministic FIFO eviction at
 * capacity, re-insert semantics, and concurrent mixed access (the
 * TSan leg of tools/run_lint.sh runs this suite at SNS_THREADS=4).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "perf/path_cache.hh"

namespace sns::perf {
namespace {

using graphir::TokenId;

/** A distinct token sequence per seed (content-addressed test keys). */
std::vector<TokenId>
keyFor(int seed, int length = 6)
{
    std::vector<TokenId> tokens;
    tokens.reserve(length);
    for (int i = 0; i < length; ++i)
        tokens.push_back(static_cast<TokenId>(seed * 131 + i));
    return tokens;
}

/** A value derived from the key, mirroring the real invariant that
 * cached predictions are pure functions of the token sequence. */
core::PathPrediction
valueFor(int seed)
{
    core::PathPrediction value;
    value.timing_ps = 100.0 + seed;
    value.area_um2 = 10.0 + seed;
    value.power_mw = 1.0 + seed;
    return value;
}

TEST(PathHash, ContentAddressed)
{
    const auto a = keyFor(1);
    const auto b = keyFor(1);
    const auto c = keyFor(2);
    EXPECT_EQ(hashTokens(a), hashTokens(b));
    EXPECT_NE(hashTokens(a), hashTokens(c));

    // Order and length matter.
    std::vector<TokenId> reversed(a.rbegin(), a.rend());
    EXPECT_NE(hashTokens(a), hashTokens(reversed));
    std::vector<TokenId> prefix(a.begin(), a.end() - 1);
    EXPECT_NE(hashTokens(a), hashTokens(prefix));

    // Known FNV-1a property: the empty sequence hashes to the offset
    // basis (pins the constants against accidental edits).
    EXPECT_EQ(hashTokens(std::span<const TokenId>{}),
              0xcbf29ce484222325ull);
}

TEST(PathPredictionCache, LookupInsertRoundTripAndAccounting)
{
    PathPredictionCache cache;
    core::PathPrediction out;

    EXPECT_FALSE(cache.lookup(keyFor(1), out));
    cache.insert(keyFor(1), valueFor(1));
    ASSERT_TRUE(cache.lookup(keyFor(1), out));
    EXPECT_EQ(out.timing_ps, valueFor(1).timing_ps);
    EXPECT_EQ(out.area_um2, valueFor(1).area_um2);
    EXPECT_EQ(out.power_mw, valueFor(1).power_mw);
    EXPECT_FALSE(cache.lookup(keyFor(2), out));

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 1.0 / 3.0);
}

TEST(PathPredictionCache, HashedFormsAgreeWithSpanForms)
{
    // Two caches fed the same probes, one through the span forms and
    // one with the hash precomputed: every hit, miss, value and
    // counter must match.
    PathPredictionCache by_span;
    PathPredictionCache by_hash;
    const auto probe = [&](int seed) {
        const auto key = keyFor(seed, 3 + seed % 5);
        core::PathPrediction a;
        core::PathPrediction b;
        const bool hit_a = by_span.lookup(key, a);
        const bool hit_b = by_hash.lookup(key, hashTokens(key), b);
        EXPECT_EQ(hit_a, hit_b) << "key " << seed;
        if (hit_a && hit_b) {
            EXPECT_EQ(a.timing_ps, b.timing_ps) << "key " << seed;
            EXPECT_EQ(a.area_um2, b.area_um2) << "key " << seed;
            EXPECT_EQ(a.power_mw, b.power_mw) << "key " << seed;
        }
    };
    for (int seed = 0; seed < 40; ++seed) {
        probe(seed); // miss
        const auto key = keyFor(seed, 3 + seed % 5);
        by_span.insert(key, valueFor(seed));
        by_hash.insert(key, hashTokens(key), valueFor(seed));
        probe(seed);     // hit
        probe(seed / 2); // hit, re-probing an earlier key
    }
    // Mixed forms address the same entries.
    core::PathPrediction out;
    const auto key = keyFor(7, 3 + 7 % 5);
    EXPECT_TRUE(by_span.lookup(key, hashTokens(key), out));
    EXPECT_TRUE(by_hash.lookup(key, out));
    EXPECT_EQ(out.timing_ps, valueFor(7).timing_ps);

    const CacheStats a = by_span.stats();
    const CacheStats b = by_hash.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.entries, b.entries);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.misses, 40u);
    EXPECT_EQ(a.hits, 81u);
}

TEST(PathPredictionCache, HashedLookupCountsEveryPathItAnswers)
{
    // One hashed probe answering for n paths adds exactly n to hits on
    // a hit and n to misses on a miss.
    PathPredictionCache cache;
    const auto key = keyFor(4);
    const uint64_t hash = hashTokens(key);
    core::PathPrediction out;
    EXPECT_FALSE(cache.lookup(key, hash, out, 5));
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 0u);
    cache.insert(key, hash, valueFor(4));
    ASSERT_TRUE(cache.lookup(key, hash, out, 7));
    EXPECT_EQ(out.timing_ps, valueFor(4).timing_ps);
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 7u);

    // uses = 1 counts like the span form, on a hit and on a miss.
    PathPredictionCache by_hash;
    PathPredictionCache by_span;
    by_hash.insert(key, hash, valueFor(4));
    by_span.insert(key, valueFor(4));
    const auto other = keyFor(5);
    EXPECT_TRUE(by_hash.lookup(key, hash, out, 1));
    EXPECT_TRUE(by_span.lookup(key, out));
    EXPECT_FALSE(by_hash.lookup(other, hashTokens(other), out, 1));
    EXPECT_FALSE(by_span.lookup(other, out));
    EXPECT_EQ(by_hash.stats().hits, 1u);
    EXPECT_EQ(by_hash.stats().misses, 1u);
    EXPECT_EQ(by_span.stats().hits, 1u);
    EXPECT_EQ(by_span.stats().misses, 1u);
}

TEST(PathPredictionCache, SequencesForcedUnderOneHashKeepTheirValues)
{
    // The hash only picks the shard and bucket; a hit needs the full
    // token sequence. Two different sequences stored under one forced
    // hash must each get their own value, and a third one under that
    // hash must miss.
    PathPredictionCache cache;
    const uint64_t hash = 0x5eedull;
    const auto first = keyFor(1);
    const auto second = keyFor(2);
    cache.insert(first, hash, valueFor(1));
    cache.insert(second, hash, valueFor(2));
    cache.insert(first, hash, valueFor(9)); // resident: kept as is

    core::PathPrediction out;
    ASSERT_TRUE(cache.lookup(first, hash, out));
    EXPECT_EQ(out.timing_ps, valueFor(1).timing_ps);
    ASSERT_TRUE(cache.lookup(second, hash, out));
    EXPECT_EQ(out.timing_ps, valueFor(2).timing_ps);
    EXPECT_FALSE(cache.lookup(keyFor(3), hash, out));

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 2u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(PathPredictionCache, ReinsertKeepsResidentValue)
{
    PathPredictionCache cache;
    cache.insert(keyFor(1), valueFor(1));
    // Values are pure functions of the key; a duplicate insert (e.g.
    // two designs racing on the same path) must keep the resident
    // entry and not count as a new insert.
    cache.insert(keyFor(1), valueFor(1));
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(PathPredictionCache, DeterministicFifoEvictionAtCapacity)
{
    PathCacheOptions options;
    options.capacity = 4;
    options.shards = 1; // single shard: eviction order fully visible
    const int total = 7;

    auto fill = [&] {
        auto cache = std::make_unique<PathPredictionCache>(options);
        for (int i = 0; i < total; ++i)
            cache->insert(keyFor(i), valueFor(i));
        return cache;
    };

    const auto cache = fill();
    const CacheStats stats = cache->stats();
    EXPECT_EQ(stats.inserts, static_cast<uint64_t>(total));
    EXPECT_EQ(stats.evictions, static_cast<uint64_t>(total - 4));
    EXPECT_EQ(stats.entries, 4u);

    // FIFO: the oldest three inserts were displaced, the newest four
    // survive.
    core::PathPrediction out;
    for (int i = 0; i < total - 4; ++i)
        EXPECT_FALSE(cache->lookup(keyFor(i), out)) << "key " << i;
    for (int i = total - 4; i < total; ++i)
        EXPECT_TRUE(cache->lookup(keyFor(i), out)) << "key " << i;

    // Determinism: replaying the same insertion sequence reproduces
    // the same survivor set and the same counters.
    const auto replay = fill();
    const CacheStats again = replay->stats();
    EXPECT_EQ(again.evictions, stats.evictions);
    EXPECT_EQ(again.entries, stats.entries);
    EXPECT_EQ(again.bytes, stats.bytes);
    for (int i = 0; i < total; ++i) {
        core::PathPrediction a;
        core::PathPrediction b;
        EXPECT_EQ(cache->lookup(keyFor(i), a),
                  replay->lookup(keyFor(i), b))
            << "key " << i;
    }
}

TEST(PathPredictionCache, EvictionReleasesBytes)
{
    PathCacheOptions options;
    options.capacity = 2;
    options.shards = 1;
    PathPredictionCache cache(options);
    cache.insert(keyFor(0), valueFor(0));
    cache.insert(keyFor(1), valueFor(1));
    const size_t full = cache.stats().bytes;
    cache.insert(keyFor(2), valueFor(2));
    // One in, one out, same-sized entries: footprint is unchanged and
    // strictly positive.
    EXPECT_EQ(cache.stats().bytes, full);
    EXPECT_EQ(cache.stats().entries, 2u);

    cache.clear();
    const CacheStats cleared = cache.stats();
    EXPECT_EQ(cleared.entries, 0u);
    EXPECT_EQ(cleared.bytes, 0u);
    EXPECT_EQ(cleared.hits, 0u);
    EXPECT_EQ(cleared.misses, 0u);
    EXPECT_EQ(cleared.inserts, 0u);
    EXPECT_EQ(cleared.evictions, 0u);
}

TEST(PathPredictionCache, UnboundedWhenCapacityZero)
{
    PathCacheOptions options;
    options.capacity = 0;
    options.shards = 4;
    PathPredictionCache cache(options);
    for (int i = 0; i < 1000; ++i)
        cache.insert(keyFor(i), valueFor(i));
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 1000u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(PathPredictionCache, ConcurrentMixedAccessKeepsValuesKeyed)
{
    // DSE-shaped contention: several threads insert and look up
    // overlapping key ranges. The split between hits and misses is
    // timing-dependent, but every probe must be counted, every hit
    // must return the key's canonical value, and the capacity bound
    // must hold. Runs under the TSan leg of tools/run_lint.sh.
    PathCacheOptions options;
    options.capacity = 64;
    options.shards = 8;
    PathPredictionCache cache(options);

    constexpr int kThreads = 4;
    constexpr int kKeys = 48; // overlapping, below capacity
    constexpr int kRounds = 50;
    std::vector<std::thread> workers;
    std::atomic<uint64_t> observed_hits{0};
    std::atomic<bool> value_mismatch{false};
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                const int seed = (round * 7 + t * 13) % kKeys;
                core::PathPrediction out;
                if (cache.lookup(keyFor(seed), out)) {
                    observed_hits.fetch_add(1);
                    if (out.timing_ps != valueFor(seed).timing_ps ||
                        out.area_um2 != valueFor(seed).area_um2 ||
                        out.power_mw != valueFor(seed).power_mw) {
                        value_mismatch.store(true);
                    }
                } else {
                    cache.insert(keyFor(seed), valueFor(seed));
                }
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_FALSE(value_mismatch.load());
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<uint64_t>(kThreads) * kRounds);
    EXPECT_EQ(stats.hits, observed_hits.load());
    EXPECT_LE(stats.entries, 64u);
    EXPECT_EQ(stats.entries, stats.inserts - stats.evictions);
}

TEST(PathPredictionCache, BindModelIsFirstComeFirstServed)
{
    PathPredictionCache cache;
    EXPECT_EQ(cache.boundModel(), 0u);
    EXPECT_TRUE(cache.bindModel(0xABCD)) << "first binder wins";
    EXPECT_EQ(cache.boundModel(), 0xABCDu);
    EXPECT_TRUE(cache.bindModel(0xABCD)) << "same model rebinds freely";
    EXPECT_FALSE(cache.bindModel(0x1234))
        << "a different model must be refused";
    EXPECT_EQ(cache.boundModel(), 0xABCDu);
}

TEST(PathPredictionCache, ClearUnbindsForTheNextModel)
{
    // The hot-reload sequence: clear() evicts everything and drops the
    // binding so the incoming model can adopt the cache.
    PathPredictionCache cache;
    ASSERT_TRUE(cache.bindModel(7));
    cache.insert(keyFor(1), valueFor(1));
    cache.clear();
    EXPECT_EQ(cache.boundModel(), 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_TRUE(cache.bindModel(9));
    EXPECT_EQ(cache.boundModel(), 9u);
}

TEST(PathPredictionCache, ConcurrentBindersAgreeOnOneWinner)
{
    // Racing binders (serve workers sharing one cache) must settle on
    // exactly one fingerprint; losers are told so, not corrupted.
    PathPredictionCache cache;
    constexpr int kThreads = 8;
    std::vector<std::thread> workers;
    std::atomic<int> wins{0};
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&cache, &wins, t] {
            if (cache.bindModel(static_cast<uint64_t>(t) + 1))
                wins.fetch_add(1);
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(wins.load(), 1);
    const uint64_t winner = cache.boundModel();
    EXPECT_GE(winner, 1u);
    EXPECT_LE(winner, static_cast<uint64_t>(kThreads));
}

} // namespace
} // namespace sns::perf
