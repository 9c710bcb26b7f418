/**
 * @file
 * Consistent-hash ring for the serve cluster (docs/cluster.md).
 *
 * Each worker contributes `vnodes` virtual points to a 64-bit ring
 * (FNV-1a of "<worker-id>#<replica>"); a request key is hashed onto
 * the ring and owned by the first point clockwise. The properties the
 * router leans on:
 *
 *   - Stability: adding or removing one worker re-homes only the key
 *     ranges adjacent to its points (~1/N of the keyspace), so a
 *     drain re-hashes the drained worker's slice and nothing else —
 *     every other worker keeps its warm cache shard. This is the same
 *     ring discipline as the chunked ring-allreduce the membership
 *     protocol is modeled on.
 *   - Determinism: the ring is a pure function of the member set and
 *     vnode count. Two routers configured identically route
 *     identically, and tests can predict placements.
 *
 * The ring itself is immutable; the router rebuilds it (cheap —
 * N·vnodes sorted points) whenever membership changes.
 */

#ifndef SNS_CLUSTER_RING_HH
#define SNS_CLUSTER_RING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sns::cluster {

/** FNV-1a of a string key (design source, session key, ...) — the
 * ring's point and key hash. */
uint64_t hashKey(const std::string &key);

/** An immutable consistent-hash ring over worker indices. */
class HashRing
{
  public:
    /**
     * Build a ring from worker ids (stable across rebuilds — use the
     * worker's address string, not its current vector position) and
     * the member→index mapping the router resolves picks through.
     * `members` pairs each id with the caller's worker index; an
     * empty member set yields an empty ring (pick() returns npos).
     */
    struct Member
    {
        std::string id;
        size_t index = 0;
    };

    static constexpr size_t npos = static_cast<size_t>(-1);

    HashRing() = default;
    HashRing(const std::vector<Member> &members, int vnodes);

    /** The worker index owning `key`, or npos on an empty ring. */
    size_t pick(uint64_t key) const;

    size_t pointCount() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

  private:
    struct Point
    {
        uint64_t hash;
        size_t index;
    };

    std::vector<Point> points_; ///< sorted by hash
};

} // namespace sns::cluster

#endif // SNS_CLUSTER_RING_HH
