#include "dist/exchange.hh"

#include <cstring>

#include "obs/metrics.hh"
#include "util/container.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace sns::dist {

namespace {

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Owner chunk c of a flat vector of E elements (N chunks). */
std::pair<size_t, size_t>
chunkRange(size_t elems, int world, int c)
{
    const size_t lo = elems * static_cast<size_t>(c) /
                      static_cast<size_t>(world);
    const size_t hi = elems * static_cast<size_t>(c + 1) /
                      static_cast<size_t>(world);
    return {lo, hi};
}

/** Ring distance from rank q to rank c (hops along the send
 * direction). */
int
ringDistance(int q, int c, int world)
{
    return (c - q + world) % world;
}

/** A reader over a ring frame; an underrun throws DistError. */
ByteReader
frameReader(const std::vector<uint8_t> &frame)
{
    return ByteReader(frame.data(), frame.size(), 0,
                      [](const ByteReader &, const void *) {
                          throw DistError("ring frame underrun");
                      });
}

void
readFloats(ByteReader &in, float *out, size_t count)
{
    std::memcpy(out, in.bytes(count * sizeof(float)),
                count * sizeof(float));
}

} // namespace

verify::Report
validateDistConfig(const DistConfig &config, size_t param_tensors)
{
    verify::Report report;
    const std::string where = "TrainerConfig::dist";
    if (!isPowerOfTwo(config.world_size)) {
        report.error(verify::rules::kDistWorld, where,
                     "world_size " + std::to_string(config.world_size) +
                         " is not a positive power of two",
                     "the slice tree only aligns across power-of-two "
                     "rank counts");
    }
    if (config.rank < 0 || config.rank >= config.world_size) {
        report.error(verify::rules::kDistWorld, where,
                     "rank " + std::to_string(config.rank) +
                         " outside [0, " +
                         std::to_string(config.world_size) + ")");
    }
    if (!isPowerOfTwo(config.grad_slices)) {
        report.error(verify::rules::kDistSlices, where,
                     "grad_slices " +
                         std::to_string(config.grad_slices) +
                         " is not a positive power of two");
    } else if (config.world_size > config.grad_slices) {
        report.error(verify::rules::kDistSlices, where,
                     "world_size " + std::to_string(config.world_size) +
                         " exceeds grad_slices " +
                         std::to_string(config.grad_slices),
                     "each rank needs at least one slice subtree");
    }
    if (config.world_size > 1 && param_tensors > 0 &&
        static_cast<size_t>(config.world_size) > param_tensors) {
        report.error(verify::rules::kDistWorld, where,
                     "world_size " + std::to_string(config.world_size) +
                         " exceeds the " +
                         std::to_string(param_tensors) +
                         " parameter tensors available to shard");
    }
    if (config.world_size > 1 && !config.channel &&
        config.rendezvous.empty()) {
        report.error(verify::rules::kDistEndpoint, where,
                     "world_size > 1 needs a rendezvous endpoint or an "
                     "injected ring channel",
                     "pass unix:<path> or tcp:<host>:<port>");
    }
    if (!config.rendezvous.empty()) {
        try {
            rankEndpoint(config.rendezvous, 0);
        } catch (const DistError &err) {
            report.error(verify::rules::kDistEndpoint, where,
                         err.what());
        }
    }
    return report;
}

std::pair<size_t, size_t>
sliceRange(size_t n, int slices, int s)
{
    const size_t lo = n * static_cast<size_t>(s) /
                      static_cast<size_t>(slices);
    const size_t hi = n * static_cast<size_t>(s + 1) /
                      static_cast<size_t>(slices);
    return {lo, hi};
}

std::vector<size_t>
partitionParams(const std::vector<size_t> &elems, int world)
{
    std::vector<size_t> prefix(elems.size() + 1, 0);
    for (size_t i = 0; i < elems.size(); ++i)
        prefix[i + 1] = prefix[i] + elems[i];
    const size_t total = prefix.back();

    std::vector<size_t> cuts(static_cast<size_t>(world) + 1, 0);
    cuts[world] = elems.size();
    size_t t = 0;
    for (int r = 1; r < world; ++r) {
        const size_t target = total * static_cast<size_t>(r) /
                              static_cast<size_t>(world);
        while (t < elems.size() && prefix[t] < target)
            ++t;
        // prefix[t] is the first boundary at or past the even share;
        // the boundary before it may be closer. Never step back onto
        // the previous cut — that would leave a rank empty.
        if (t > cuts[r - 1] + 1 &&
            target - prefix[t - 1] < prefix[t] - target)
            --t;
        cuts[r] = t;
    }
    return cuts;
}

std::optional<std::vector<float>>
combineTreeGrad(std::vector<std::optional<std::vector<float>>> slots)
{
    SNS_ASSERT(isPowerOfTwo(static_cast<int>(slots.size())),
               "tree combine needs a power-of-two slot count");
    while (slots.size() > 1) {
        std::vector<std::optional<std::vector<float>>> next(
            slots.size() / 2);
        for (size_t i = 0; i < next.size(); ++i) {
            auto &lo = slots[2 * i];
            auto &hi = slots[2 * i + 1];
            if (lo && hi) {
                for (size_t j = 0; j < lo->size(); ++j)
                    (*lo)[j] += (*hi)[j];
                next[i] = std::move(lo);
            } else if (lo) {
                next[i] = std::move(lo);
            } else if (hi) {
                next[i] = std::move(hi);
            }
        }
        slots = std::move(next);
    }
    return std::move(slots[0]);
}

ScalarPartial
combineTreeLoss(std::vector<std::optional<ScalarPartial>> slots)
{
    SNS_ASSERT(isPowerOfTwo(static_cast<int>(slots.size())),
               "tree combine needs a power-of-two slot count");
    while (slots.size() > 1) {
        std::vector<std::optional<ScalarPartial>> next(slots.size() / 2);
        for (size_t i = 0; i < next.size(); ++i) {
            const auto &lo = slots[2 * i];
            const auto &hi = slots[2 * i + 1];
            if (lo && hi)
                next[i] = ScalarPartial{lo->sum + hi->sum,
                                        lo->count + hi->count};
            else if (lo)
                next[i] = lo;
            else if (hi)
                next[i] = hi;
        }
        slots = std::move(next);
    }
    return slots[0] ? *slots[0] : ScalarPartial{};
}

size_t
flatSize(const std::vector<tensor::Variable> &params)
{
    size_t total = 0;
    for (const auto &param : params)
        total += param.value().numel();
    return total;
}

std::vector<float>
flattenGrads(const std::vector<tensor::Variable> &params, float weight)
{
    std::vector<float> flat(flatSize(params), 0.0f);
    size_t at = 0;
    for (const auto &param : params) {
        const size_t n = param.value().numel();
        if (param.hasGrad()) {
            const tensor::Tensor &grad = param.grad();
            for (size_t j = 0; j < n; ++j)
                flat[at + j] = grad[j] * weight;
        }
        at += n;
    }
    return flat;
}

void
scatterGrads(std::vector<tensor::Variable> &params,
             const std::vector<float> &flat)
{
    size_t at = 0;
    for (auto &param : params) {
        tensor::Tensor &grad = param.impl()->ensureGrad();
        const size_t n = grad.numel();
        std::memcpy(grad.data(), flat.data() + at, n * sizeof(float));
        at += n;
    }
    SNS_ASSERT(at == flat.size(), "flat gradient size mismatch");
}

void
GradientExchange::setWeightPartition(std::vector<size_t> elem_cuts)
{
    SNS_ASSERT(elem_cuts.size() ==
                   static_cast<size_t>(world_) + 1,
               "weight partition needs world+1 cuts");
    elem_cuts_ = std::move(elem_cuts);
}

RingExchange::RingExchange(std::shared_ptr<RingChannel> channel,
                           int world, int rank, int grad_slices,
                           obs::Registry *registry)
    : GradientExchange(world, rank, grad_slices),
      channel_(std::move(channel)),
      registry_(registry)
{
    SNS_ASSERT(channel_ != nullptr, "RingExchange needs a channel");
}

void
RingExchange::flushByteCounters()
{
    if (registry_ == nullptr)
        return;
    const uint64_t sent = channel_->bytesSent();
    const uint64_t received = channel_->bytesReceived();
    registry_->counter("dist.bytes_sent").inc(sent - published_sent_);
    registry_->counter("dist.bytes_received")
        .inc(received - published_received_);
    published_sent_ = sent;
    published_received_ = received;
}

void
RingExchange::handshake(uint64_t config_fp, uint64_t split_fp,
                        uint64_t param_elems)
{
    // "SNSD" + version 1, then the ring-consistency fields.
    ByteWriter hello;
    hello.bytes("SNSD", 4);
    hello.u32(1);
    hello.u32(static_cast<uint32_t>(world_));
    hello.u32(static_cast<uint32_t>(rank_));
    hello.u32(static_cast<uint32_t>(slices_));
    for (uint64_t word : {config_fp, split_fp, param_elems})
        hello.u64(word);

    const std::vector<uint8_t> peer = channel_->exchange(hello.buffer());
    if (peer.size() != hello.buffer().size() ||
        std::memcmp(peer.data(), "SNSD", 4) != 0)
        throw DistError("ring handshake: malformed hello frame");
    ByteReader in(peer.data() + 4, peer.size() - 4);
    const uint32_t version = in.u32();
    const uint32_t peer_world = in.u32();
    const uint32_t peer_rank = in.u32();
    const uint32_t peer_slices = in.u32();
    uint64_t peer_words[3];
    for (uint64_t &word : peer_words)
        word = in.u64();

    const uint32_t want_rank =
        static_cast<uint32_t>((rank_ + world_ - 1) % world_);
    if (version != 1)
        throw DistError("ring handshake: protocol version " +
                        std::to_string(version) + ", expected 1");
    if (peer_world != static_cast<uint32_t>(world_) ||
        peer_rank != want_rank)
        throw DistError(
            "ring handshake: predecessor is rank " +
            std::to_string(peer_rank) + "/" +
            std::to_string(peer_world) + ", expected rank " +
            std::to_string(want_rank) + "/" + std::to_string(world_));
    if (peer_slices != static_cast<uint32_t>(slices_))
        throw DistError("ring handshake: grad_slices mismatch (" +
                        std::to_string(peer_slices) + " vs " +
                        std::to_string(slices_) + ")");
    if (peer_words[0] != config_fp)
        throw DistError("ring handshake: config fingerprint mismatch "
                        "(ranks run different training configurations)");
    if (peer_words[1] != split_fp)
        throw DistError("ring handshake: split fingerprint mismatch "
                        "(ranks see different dataset splits)");
    if (peer_words[2] != param_elems)
        throw DistError("ring handshake: parameter count mismatch");
    flushByteCounters();
}

void
RingExchange::allreduceGrad(std::vector<float> &flat, bool present)
{
    const WallTimer timer;
    const size_t elems = flat.size();
    const int n = world_;

    // Owner buffer: rank partials for MY chunk, indexed by source rank.
    const auto [my_lo, my_hi] = chunkRange(elems, n, rank_);
    std::vector<std::optional<std::vector<float>>> owner_slots(n);
    if (present)
        owner_slots[rank_] = std::vector<float>(flat.begin() + my_lo,
                                                flat.begin() + my_hi);

    // Phase R (reduce-scatter by raw relay): at step s, rank r sends
    // the partial of rank q = (r - s) mod n, restricted to the chunks
    // still travelling (distance q->c greater than s). One chunk is
    // delivered per hop, so the frame shrinks each step.
    //
    // Held state between steps: q's partial data for in-flight chunks.
    std::vector<float> held; // chunk data, ascending chunk order
    bool held_present = present;
    for (int s = 0; s < n - 1; ++s) {
        const int q_out = (rank_ - s + n) % n;
        ByteWriter frame;
        frame.u8('R');
        frame.u32(static_cast<uint32_t>(s));
        frame.u32(static_cast<uint32_t>(q_out));
        frame.u8(held_present ? 1 : 0);
        if (held_present) {
            if (s == 0) {
                for (int c = 0; c < n; ++c) {
                    if (ringDistance(q_out, c, n) <= s)
                        continue;
                    const auto [lo, hi] = chunkRange(elems, n, c);
                    frame.bytes(flat.data() + lo,
                                (hi - lo) * sizeof(float));
                }
            } else {
                frame.bytes(held.data(), held.size() * sizeof(float));
            }
        }

        const std::vector<uint8_t> got = channel_->exchange(frame.buffer());
        ByteReader in = frameReader(got);
        if (in.u8() != 'R')
            throw DistError("allreduce: bad reduce-scatter frame tag");
        const uint32_t in_step = in.u32();
        const uint32_t q_in = in.u32();
        const uint32_t want_q =
            static_cast<uint32_t>((rank_ - s - 1 + n) % n);
        if (in_step != static_cast<uint32_t>(s) || q_in != want_q)
            throw DistError("allreduce: reduce-scatter frame out of "
                            "order (ranks out of sync)");
        const bool in_present = in.u8() != 0;

        // Unpack: the delivered chunk (distance s+1 == arrival here)
        // lands in the owner buffer; farther chunks are held for the
        // next hop.
        std::vector<float> next_held;
        for (int c = 0; c < n; ++c) {
            const int d = ringDistance(static_cast<int>(q_in), c, n);
            if (d <= s)
                continue;
            const auto [lo, hi] = chunkRange(elems, n, c);
            if (d == s + 1) {
                // c == rank_: delivery.
                if (in_present) {
                    std::vector<float> data(hi - lo);
                    readFloats(in, data.data(), data.size());
                    owner_slots[q_in] = std::move(data);
                }
            } else {
                const size_t at = next_held.size();
                next_held.resize(at + (hi - lo));
                if (in_present)
                    readFloats(in, next_held.data() + at, hi - lo);
            }
        }
        held = std::move(next_held);
        held_present = in_present;
    }

    // Owner reduction: canonical rank-order tree — the upper levels of
    // the world-size-1 slice tree.
    auto reduced = combineTreeGrad(std::move(owner_slots));
    std::vector<float> my_chunk =
        reduced ? std::move(*reduced)
                : std::vector<float>(my_hi - my_lo, 0.0f);

    // Phase G (allgather): circulate reduced chunks n-1 steps.
    {
        const auto [lo, hi] = chunkRange(elems, n, rank_);
        std::memcpy(flat.data() + lo, my_chunk.data(),
                    (hi - lo) * sizeof(float));
    }
    std::vector<float> carry = std::move(my_chunk);
    for (int t = 0; t < n - 1; ++t) {
        const int c_out = (rank_ - t + n) % n;
        ByteWriter frame;
        frame.u8('G');
        frame.u32(static_cast<uint32_t>(t));
        frame.u32(static_cast<uint32_t>(c_out));
        frame.bytes(carry.data(), carry.size() * sizeof(float));

        const std::vector<uint8_t> got = channel_->exchange(frame.buffer());
        ByteReader in = frameReader(got);
        if (in.u8() != 'G')
            throw DistError("allreduce: bad allgather frame tag");
        const uint32_t in_step = in.u32();
        const uint32_t c_in = in.u32();
        const uint32_t want_c =
            static_cast<uint32_t>((rank_ - t - 1 + n) % n);
        if (in_step != static_cast<uint32_t>(t) || c_in != want_c)
            throw DistError("allreduce: allgather frame out of order "
                            "(ranks out of sync)");
        const auto [lo, hi] = chunkRange(elems, n, c_in);
        carry.resize(hi - lo);
        readFloats(in, carry.data(), carry.size());
        std::memcpy(flat.data() + lo, carry.data(),
                    (hi - lo) * sizeof(float));
    }

    if (registry_ != nullptr) {
        registry_->histogram("dist.allreduce_us")
            .record(static_cast<uint64_t>(timer.seconds() * 1e6));
    }
    flushByteCounters();
}

ScalarPartial
RingExchange::reduceLoss(const ScalarPartial &mine)
{
    // Allgather the n partials, then combine along the rank tree.
    std::vector<std::optional<ScalarPartial>> slots(world_);
    slots[rank_] = mine;

    ScalarPartial carry = mine;
    for (int t = 0; t < world_ - 1; ++t) {
        ByteWriter frame;
        frame.f64(carry.sum);
        frame.u64(carry.count);
        const std::vector<uint8_t> got = channel_->exchange(frame.buffer());
        ByteReader in = frameReader(got);
        carry.sum = in.f64();
        carry.count = in.u64();
        if (in.remaining() != 0)
            throw DistError("loss allgather: bad frame size");
        slots[(rank_ - t - 1 + world_) % world_] = carry;
    }
    flushByteCounters();
    // count == 0 partials are identity slots, same as empty slices.
    for (auto &slot : slots) {
        if (slot && slot->count == 0)
            slot.reset();
    }
    return combineTreeLoss(std::move(slots));
}

bool
RingExchange::anyStop(bool mine)
{
    uint8_t carry = mine ? 1 : 0;
    bool any = mine;
    for (int t = 0; t < world_ - 1; ++t) {
        const std::vector<uint8_t> in =
            channel_->exchange(std::vector<uint8_t>{carry});
        if (in.size() != 1)
            throw DistError("stop vote: bad frame size");
        carry = in[0];
        any = any || carry != 0;
    }
    flushByteCounters();
    return any;
}

void
RingExchange::allgatherWeights(std::vector<tensor::Variable> &params)
{
    SNS_ASSERT(elem_cuts_.size() ==
                   static_cast<size_t>(world_) + 1,
               "allgatherWeights needs setWeightPartition first");
    const WallTimer timer;

    // Work in flat element space: copy owned values out, circulate,
    // write received ranges back into the tensors they cover.
    const auto readRange = [&](size_t lo, size_t hi) {
        std::vector<float> out(hi - lo);
        size_t at = 0;
        for (auto &param : params) {
            const size_t n = param.value().numel();
            const size_t t_lo = at;
            const size_t t_hi = at + n;
            at = t_hi;
            if (t_hi <= lo || t_lo >= hi)
                continue;
            const size_t from = std::max(lo, t_lo);
            const size_t to = std::min(hi, t_hi);
            std::memcpy(out.data() + (from - lo),
                        param.value().data() + (from - t_lo),
                        (to - from) * sizeof(float));
        }
        return out;
    };
    const auto writeRange = [&](size_t lo, size_t hi,
                                const std::vector<float> &data) {
        size_t at = 0;
        for (auto &param : params) {
            const size_t n = param.value().numel();
            const size_t t_lo = at;
            const size_t t_hi = at + n;
            at = t_hi;
            if (t_hi <= lo || t_lo >= hi)
                continue;
            const size_t from = std::max(lo, t_lo);
            const size_t to = std::min(hi, t_hi);
            std::memcpy(param.valueMutable().data() + (from - t_lo),
                        data.data() + (from - lo),
                        (to - from) * sizeof(float));
        }
    };

    std::vector<float> carry =
        readRange(elem_cuts_[rank_], elem_cuts_[rank_ + 1]);
    for (int t = 0; t < world_ - 1; ++t) {
        ByteWriter frame;
        frame.u8('W');
        frame.u32(static_cast<uint32_t>(t));
        frame.bytes(carry.data(), carry.size() * sizeof(float));
        const std::vector<uint8_t> got = channel_->exchange(frame.buffer());
        ByteReader in = frameReader(got);
        if (in.u8() != 'W')
            throw DistError("weight allgather: bad frame tag");
        const uint32_t in_step = in.u32();
        if (in_step != static_cast<uint32_t>(t))
            throw DistError("weight allgather: frame out of order");
        const int src = (rank_ - t - 1 + world_) % world_;
        const size_t lo = elem_cuts_[src];
        const size_t hi = elem_cuts_[src + 1];
        carry.resize(hi - lo);
        readFloats(in, carry.data(), carry.size());
        writeRange(lo, hi, carry);
    }

    if (registry_ != nullptr) {
        registry_->histogram("dist.allreduce_us")
            .record(static_cast<uint64_t>(timer.seconds() * 1e6));
    }
    flushByteCounters();
}

} // namespace sns::dist
