/**
 * @file
 * 64-bit FNV-1a, the one content hash behind the checkpoint and plan
 * container digests, model fingerprints, the path cache keys, the
 * graph-diff signatures, and the cluster ring.
 */

#ifndef SNS_UTIL_FNV_HH
#define SNS_UTIL_FNV_HH

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

} // namespace sns

#endif // SNS_UTIL_FNV_HH
