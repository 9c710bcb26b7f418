/**
 * @file
 * 64-bit FNV-1a, the one content hash behind the checkpoint and plan
 * container digests, model fingerprints, the path cache keys, the
 * graph-diff signatures, and the cluster ring.
 */

#ifndef SNS_UTIL_FNV_HH
#define SNS_UTIL_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sns {

/** FNV-1a 64-bit offset basis (the hash of the empty input). */
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime. */
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/**
 * The offset basis with its last decimal digit dropped
 * (14695981039346656037 -> 1469598103934665603). The cluster ring and
 * the graph-diff signatures were published seeded with it; they keep
 * it so ring placements and signatures stay bitwise stable.
 */
inline constexpr uint64_t kFnvShortBasis = 1469598103934665603ull;

/**
 * FNV-1a over `size` bytes at `data`, continuing from `seed`. Streaming:
 * hashing A then B with the first result as B's seed equals hashing the
 * concatenation A·B in one call.
 */
inline uint64_t
fnv1a(const void *data, size_t size, uint64_t seed = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/**
 * fnv1a over the four bytes of `word` in memory order, continuing from
 * `seed`: always equal to fnv1a(&word, sizeof(word), seed), but taken
 * from the value, not from memory. A zero byte's step is a bare
 * multiply by the prime, so on a little-endian host the zero high
 * bytes of a small word (a token id, a node id) fold into one multiply
 * by a power of the prime. A hash extended word by word in a hot loop
 * (the path sampler's prefix hashes) then carries a dependency chain of
 * one or two multiplies per word instead of four.
 */
inline uint64_t
fnv1aWord(uint32_t word, uint64_t seed)
{
    constexpr bool kLittle = std::endian::native == std::endian::little;
    constexpr uint64_t kPrime3 = kFnvPrime * kFnvPrime * kFnvPrime;
    constexpr uint64_t kPrime4 = kPrime3 * kFnvPrime;
    if (kLittle && word < 0x100)
        return (seed ^ word) * kPrime4;
    if (kLittle && word < 0x10000)
        return (((seed ^ (word & 0xffu)) * kFnvPrime) ^ (word >> 8)) *
               kPrime3;
    for (int i = 0; i < 4; ++i) {
        const int byte = kLittle ? i : 3 - i;
        seed ^= (word >> (8 * byte)) & 0xffu;
        seed *= kFnvPrime;
    }
    return seed;
}

} // namespace sns

#endif // SNS_UTIL_FNV_HH
