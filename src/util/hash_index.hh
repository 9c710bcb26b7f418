/**
 * @file
 * An open-addressing index from 64-bit content hashes to dense ids,
 * for deduplicating sequences whose hash is already known (the path
 * sampler's node-sequence set, the predictor's distinct token paths).
 */

#ifndef SNS_UTIL_HASH_INDEX_HH
#define SNS_UTIL_HASH_INDEX_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace sns {

/**
 * Maps content hashes to the dense ids 0, 1, 2, ... of distinct keys.
 * The index stores only (hash, id) pairs; the caller keeps the keys
 * and decides equality, so two different keys under one hash each get
 * their own id. clear() keeps the table, so an index reused across
 * inputs stops allocating once it has grown to the largest one.
 */
class HashIndex
{
  public:
    /** Forget every key; the table keeps its size. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

    /** Number of ids handed out since the last clear(). */
    size_t size() const { return size_; }

    /**
     * Look up the key with content hash `hash`; `same(id)` must say
     * whether the key already stored as `id` equals it. Returns that
     * id and false when one matches; otherwise records the key as the
     * next id, size(), and returns it and true.
     */
    template <class Same>
    std::pair<uint32_t, bool>
    findOrInsert(uint64_t hash, Same &&same)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        const size_t mask = slots_.size() - 1;
        for (size_t i = home(hash);; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.id == kEmpty) {
                SNS_ASSERT(size_ < kEmpty, "HashIndex: too many keys");
                slot = {hash, static_cast<uint32_t>(size_)};
                return {static_cast<uint32_t>(size_++), true};
            }
            if (slot.hash == hash && same(slot.id))
                return {slot.id, false};
        }
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot
    {
        uint64_t hash = 0;
        uint32_t id = kEmpty;
    };

    /** Fibonacci hashing: the top bits of hash * 2^64/phi, so a hash
     * whose entropy sits in its high bits still spreads. */
    size_t
    home(uint64_t hash) const
    {
        return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >>
                                   (64 - bits_));
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        bits_ = std::max(bits_ + 1, 6);
        slots_.assign(size_t{1} << bits_, Slot{});
        const size_t mask = slots_.size() - 1;
        for (const Slot &slot : old) {
            if (slot.id == kEmpty)
                continue;
            size_t i = home(slot.hash);
            while (slots_[i].id != kEmpty)
                i = (i + 1) & mask;
            slots_[i] = slot;
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
    int bits_ = 0; ///< log2 of slots_.size() once grown
};

} // namespace sns

#endif // SNS_UTIL_HASH_INDEX_HH
