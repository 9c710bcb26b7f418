#include "cluster/ring.hh"

#include <algorithm>

#include "util/fnv.hh"

namespace sns::cluster {

uint64_t
hashKey(const std::string &key)
{
    return fnv1a(key.data(), key.size(), kFnvShortBasis);
}

HashRing::HashRing(const std::vector<Member> &members, int vnodes)
{
    points_.reserve(members.size() * static_cast<size_t>(vnodes));
    for (const Member &member : members) {
        for (int replica = 0; replica < vnodes; ++replica) {
            const std::string point_key =
                member.id + "#" + std::to_string(replica);
            points_.push_back(
                {hashKey(point_key), member.index});
        }
    }
    std::sort(points_.begin(), points_.end(),
              [](const Point &a, const Point &b) {
                  // Tie-break on index so the ring is deterministic
                  // even under (astronomically unlikely) hash ties.
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.index < b.index;
              });
}

size_t
HashRing::pick(uint64_t key) const
{
    if (points_.empty())
        return npos;
    // First point clockwise of the key; wrap to the start past the
    // highest point.
    const auto it = std::lower_bound(
        points_.begin(), points_.end(), key,
        [](const Point &p, uint64_t k) { return p.hash < k; });
    return it == points_.end() ? points_.front().index : it->index;
}

} // namespace sns::cluster
