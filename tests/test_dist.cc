/**
 * @file
 * Tests for sns::dist — the training ring transport, the canonical
 * slice-tree reduction, ZeRO parameter partitioning, rank-sharded
 * checkpoints, and the headline guarantees: N-rank training is
 * bitwise-identical to 1-rank sliced training, and a killed multi-rank
 * run resumes bitwise-identically at a different rank count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "core/trainer.hh"
#include "designs/designs.hh"
#include "dist/exchange.hh"
#include "dist/ring.hh"
#include "dist/shard.hh"
#include "nn/serialize.hh"
#include "obs/metrics.hh"
#include "serve/client.hh"
#include "util/rng.hh"
#include "verify/analyzer.hh"

namespace sns::dist {
namespace {

using core::EpochProgress;
using core::HardwareDesignDataset;
using core::SnsTrainer;
using core::TrainerConfig;
using core::TrainingInterrupted;
using core::TrainProgressSink;
using designs::DesignLibrary;

// --- Slice geometry and the canonical tree. ------------------------

TEST(SliceTest, SliceRangePartitionsAnyBatch)
{
    for (size_t n : {1u, 2u, 5u, 31u, 32u, 33u, 100u}) {
        for (int slices : {1, 2, 4, 8, 16}) {
            size_t covered = 0;
            size_t prev_hi = 0;
            for (int s = 0; s < slices; ++s) {
                const auto [lo, hi] = sliceRange(n, slices, s);
                EXPECT_EQ(lo, prev_hi);
                EXPECT_LE(hi, n);
                covered += hi - lo;
                prev_hi = hi;
            }
            EXPECT_EQ(covered, n) << "n=" << n << " S=" << slices;
            EXPECT_EQ(prev_hi, n);
        }
    }
}

TEST(SliceTest, SliceBoundariesAreWorldIndependent)
{
    // The same slice index maps to the same sample range no matter how
    // slices are grouped into ranks — the boundaries only depend on
    // (n, S). This is the root of the bitwise guarantee.
    const size_t n = 23;
    const int slices = 8;
    std::vector<std::pair<size_t, size_t>> ranges;
    for (int s = 0; s < slices; ++s)
        ranges.push_back(sliceRange(n, slices, s));
    // Regrouping by world size never consults world; re-evaluate and
    // compare to the stored values.
    for (int s = 0; s < slices; ++s)
        EXPECT_EQ(sliceRange(n, slices, s), ranges[s]);
}

TEST(TreeTest, CombineTreeGradIsBalancedNotSequential)
{
    // Four single-element slices with values chosen so that
    // ((a+b)+(c+d)) differs from (((a+b)+c)+d) in float.
    const float a = 1e8f, b = -1e8f, c = 1.0f, d = 1.0f;
    std::vector<std::optional<std::vector<float>>> slots;
    slots.push_back(std::vector<float>{a});
    slots.push_back(std::vector<float>{b});
    slots.push_back(std::vector<float>{c});
    slots.push_back(std::vector<float>{d});
    const auto combined = combineTreeGrad(std::move(slots));
    ASSERT_TRUE(combined.has_value());
    EXPECT_EQ((*combined)[0], (a + b) + (c + d));
}

TEST(TreeTest, CombineTreeSkipsAbsentSlots)
{
    std::vector<std::optional<std::vector<float>>> slots(4);
    slots[2] = std::vector<float>{3.0f, 4.0f};
    const auto combined = combineTreeGrad(std::move(slots));
    ASSERT_TRUE(combined.has_value());
    EXPECT_EQ((*combined)[0], 3.0f);
    EXPECT_EQ((*combined)[1], 4.0f);

    std::vector<std::optional<std::vector<float>>> empty(8);
    EXPECT_FALSE(combineTreeGrad(std::move(empty)).has_value());
}

TEST(TreeTest, RankSubtreesComposeToTheFullTree)
{
    // Reducing each rank's aligned slice subtree first, then combining
    // the rank partials, must give the same bits as the full
    // world-1 tree — for every admissible world size.
    Rng rng(7);
    const int slices = 8;
    const size_t elems = 37;
    std::vector<std::optional<std::vector<float>>> leaves(slices);
    for (int s = 0; s < slices; ++s) {
        if (s == 5)
            continue; // one absent slice
        std::vector<float> grad(elems);
        for (auto &g : grad)
            g = static_cast<float>(rng.normal()) * 1e3f;
        leaves[s] = std::move(grad);
    }

    const auto full = combineTreeGrad(leaves);
    ASSERT_TRUE(full.has_value());
    for (int world : {2, 4, 8}) {
        const int owned = slices / world;
        std::vector<std::optional<std::vector<float>>> rank_partials(
            world);
        for (int r = 0; r < world; ++r) {
            std::vector<std::optional<std::vector<float>>> mine(
                leaves.begin() + r * owned,
                leaves.begin() + (r + 1) * owned);
            rank_partials[r] = combineTreeGrad(std::move(mine));
        }
        const auto composed = combineTreeGrad(std::move(rank_partials));
        ASSERT_TRUE(composed.has_value()) << "world=" << world;
        EXPECT_EQ(*full, *composed) << "world=" << world;
    }
}

TEST(PartitionTest, PartitionParamsBalancesWholeTensors)
{
    const std::vector<size_t> elems = {100, 5, 5, 90, 10, 200, 1, 1};
    for (int world : {1, 2, 4}) {
        const auto cuts = partitionParams(elems, world);
        ASSERT_EQ(cuts.size(), static_cast<size_t>(world) + 1);
        EXPECT_EQ(cuts.front(), 0u);
        EXPECT_EQ(cuts.back(), elems.size());
        for (size_t r = 0; r + 1 < cuts.size(); ++r)
            EXPECT_LE(cuts[r], cuts[r + 1]);
    }
    // More ranks than tensors still yields a (degenerate) partition.
    const auto tight = partitionParams({7, 9}, 2);
    EXPECT_EQ(tight, (std::vector<size_t>{0, 1, 2}));
}

TEST(ConfigTest, ValidateDistConfigEnforcesRules)
{
    DistConfig config;
    config.grad_slices = 8;
    config.world_size = 3; // not a power of two
    config.rendezvous = "unix:/tmp/sns-ring";
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistWorld));

    config.world_size = 4;
    config.rank = 4; // out of range
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistWorld));

    config.rank = 0;
    config.grad_slices = 2; // world > slices
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistSlices));

    config.grad_slices = 6; // not a power of two
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistSlices));

    config.grad_slices = 8;
    config.rendezvous.clear(); // world > 1 needs a rendezvous
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistEndpoint));

    config.rendezvous = "bogus:endpoint";
    EXPECT_TRUE(validateDistConfig(config, 10).hasRule(
        verify::rules::kDistEndpoint));

    config.rendezvous = "unix:/tmp/sns-ring";
    EXPECT_FALSE(validateDistConfig(config, 10).hasErrors());

    // A clean world-1 config needs no rendezvous.
    DistConfig solo;
    solo.grad_slices = 4;
    EXPECT_FALSE(validateDistConfig(solo, 10).hasErrors());
}

// --- The ring transport. -------------------------------------------

TEST(RingTest, ExchangeCirculatesFramesOfAnySize)
{
    auto ring = localRing(3);
    // Frames larger than any socket buffer force the poll loop to
    // interleave partial sends and receives — the deadlock-freedom
    // claim under test.
    const size_t big = 4u << 20;
    std::vector<std::thread> threads;
    std::vector<std::vector<uint8_t>> got(3);
    for (int r = 0; r < 3; ++r) {
        threads.emplace_back([&, r] {
            std::vector<uint8_t> frame(r == 0 ? big : 16,
                                       static_cast<uint8_t>('a' + r));
            got[r] = ring[r]->exchange(frame);
        });
    }
    for (auto &thread : threads)
        thread.join();
    // Rank r receives rank (r-1+3)%3's frame.
    EXPECT_EQ(got[1].size(), big);
    EXPECT_EQ(got[1][0], 'a');
    EXPECT_EQ(got[2].size(), 16u);
    EXPECT_EQ(got[2][0], 'b');
    EXPECT_EQ(got[0].size(), 16u);
    EXPECT_EQ(got[0][0], 'c');
    EXPECT_GT(ring[0]->bytesSent(), big);
}

TEST(RingTest, RankEndpointTemplates)
{
    EXPECT_EQ(rankEndpoint("unix:/tmp/ring", 2), "unix:/tmp/ring.2");
    EXPECT_EQ(rankEndpoint("tcp:127.0.0.1:9000", 3),
              "tcp:127.0.0.1:9003");
    EXPECT_THROW(rankEndpoint("bogus", 0), DistError);
}

TEST(RingTest, OverlongUnixPathIsRefusedByName)
{
    // sun_path holds 107 bytes plus the NUL. Rank 9's "<base>.9" fits
    // exactly; rank 10's "<base>.10" is one byte too long, and must be
    // refused by name — never truncated to "<base>.1", which is
    // another rank's socket.
    const std::string base =
        (std::filesystem::temp_directory_path() / "sns-ring-").string();
    ASSERT_LT(base.size(), 100u);
    const std::string stem = base + std::string(105 - base.size(), 'x');
    ASSERT_EQ((stem + ".9").size(), 107u);
    const std::string too_long = stem + ".10";

    const auto expect_named = [&too_long](const std::function<void()> &call,
                                          const char *who) {
        try {
            call();
            ADD_FAILURE() << who << " accepted " << too_long;
        } catch (const std::exception &e) {
            EXPECT_NE(std::string(e.what()).find(too_long),
                      std::string::npos)
                << who << ": " << e.what();
        }
    };
    expect_named(
        [&] { serve::Client::connect(serve::Endpoint{too_long}); },
        "Client::connect");
    EXPECT_THROW(serve::Client::connect(serve::Endpoint{too_long}),
                 serve::ProtocolError);
    expect_named([&] { serve::listenOn(serve::Endpoint{too_long}, 1); },
                 "listenOn");
    // At once: an unusable endpoint is not a transient failure to
    // sleep out the ~65 s kRingConnectRetry budget on.
    const auto start = std::chrono::steady_clock::now();
    expect_named([&] { connectRing("unix:" + stem, 9, 11); },
                 "connectRing");
    EXPECT_THROW(connectRing("unix:" + stem, 9, 11), DistError);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1));
    // The failed rank leaves no socket behind.
    EXPECT_FALSE(std::filesystem::exists(stem + ".9"));
}

TEST(RingTest, HandshakeRejectsMismatchedConfig)
{
    auto ring = localRing(2);
    RingExchange ex0(ring[0], 2, 0, 8, nullptr);
    RingExchange ex1(ring[1], 2, 1, 8, nullptr);
    std::string error1;
    std::thread peer([&] {
        try {
            ex1.handshake(/*config_fp=*/1, /*split_fp=*/2,
                          /*param_elems=*/100);
        } catch (const DistError &e) {
            error1 = e.what();
        }
    });
    EXPECT_THROW(ex0.handshake(/*config_fp=*/999, /*split_fp=*/2,
                               /*param_elems=*/100),
                 DistError);
    peer.join();
    EXPECT_NE(error1.find("config fingerprint"), std::string::npos);
}

/** Run `body(rank)` on `world` threads and join. */
void
onAllRanks(int world, const std::function<void(int)> &body)
{
    std::vector<std::thread> threads;
    std::vector<std::string> errors(world);
    for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
            try {
                body(r);
            } catch (const std::exception &e) {
                errors[r] = e.what();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int r = 0; r < world; ++r)
        EXPECT_TRUE(errors[r].empty()) << "rank " << r << ": " << errors[r];
}

TEST(RingTest, AllreduceMatchesTheLocalTreeBitwise)
{
    const int slices = 8;
    const size_t elems = 1033; // not a multiple of any world size
    Rng rng(11);
    std::vector<std::optional<std::vector<float>>> leaves(slices);
    for (int s = 0; s < slices; ++s) {
        if (s == 3)
            continue; // absent slice
        std::vector<float> grad(elems);
        for (auto &g : grad)
            g = static_cast<float>(rng.normal());
        leaves[s] = std::move(grad);
    }
    const auto expected = combineTreeGrad(leaves);
    ASSERT_TRUE(expected.has_value());

    for (int world : {2, 4}) {
        auto ring = localRing(world);
        const int owned = slices / world;
        std::vector<std::vector<float>> results(world);
        onAllRanks(world, [&](int r) {
            std::vector<std::optional<std::vector<float>>> mine(
                leaves.begin() + r * owned,
                leaves.begin() + (r + 1) * owned);
            auto partial = combineTreeGrad(std::move(mine));
            const bool present = partial.has_value();
            std::vector<float> flat =
                present ? std::move(*partial)
                        : std::vector<float>(elems, 0.0f);
            RingExchange exchange(ring[r], world, r, slices, nullptr);
            exchange.allreduceGrad(flat, present);
            results[r] = std::move(flat);
        });
        for (int r = 0; r < world; ++r)
            EXPECT_EQ(results[r], *expected) << "world=" << world
                                             << " rank=" << r;
    }
}

TEST(RingTest, ReduceLossAndStopVotesAgreeOnEveryRank)
{
    const int world = 4;
    auto ring = localRing(world);
    std::vector<ScalarPartial> losses(world);
    std::vector<int> stops(world, 0);
    onAllRanks(world, [&](int r) {
        RingExchange exchange(ring[r], world, r, 8, nullptr);
        ScalarPartial mine;
        if (r != 2) { // rank 2 had no samples
            mine.sum = 10.0 * (r + 1);
            mine.count = r + 1;
        }
        losses[r] = exchange.reduceLoss(mine);
        stops[r] = exchange.anyStop(r == 3) ? 1 : 0;
    });
    for (int r = 0; r < world; ++r) {
        EXPECT_EQ(losses[r].sum, (10.0 + 20.0) + 40.0) << "rank " << r;
        EXPECT_EQ(losses[r].count, 1u + 2u + 4u);
        EXPECT_EQ(stops[r], 1) << "rank " << r;
    }
}

TEST(RingTest, ByteCountersPublishToTheRegistry)
{
    const int world = 2;
    auto ring = localRing(world);
    std::vector<obs::Registry> registries(world);
    onAllRanks(world, [&](int r) {
        RingExchange exchange(ring[r], world, r, 2, &registries[r]);
        std::vector<float> flat(64, 1.0f);
        exchange.allreduceGrad(flat, true);
    });
    for (int r = 0; r < world; ++r) {
        EXPECT_GT(registries[r].counter("dist.bytes_sent").value(), 0u);
        EXPECT_GT(registries[r].counter("dist.bytes_received").value(),
                  0u);
        EXPECT_EQ(registries[r]
                      .histogram("dist.allreduce_us")
                      .snapshot()
                      .count,
                  1u);
    }
}

// --- Shard names, metas, sets. -------------------------------------

TEST(ShardTest, FileNameRoundTrip)
{
    EXPECT_EQ(shardFileName(123, 1, 4), "ckpt-000123-r01of04.ckpt");
    const auto parsed = parseShardName("ckpt-000123-r01of04.ckpt");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->epoch, 123);
    EXPECT_EQ(parsed->rank, 1);
    EXPECT_EQ(parsed->world, 4);

    // Paths parse by basename; plain checkpoints and garbage do not.
    EXPECT_TRUE(parseShardName("/a/b/ckpt-000001-r00of01.ckpt"));
    EXPECT_FALSE(parseShardName("ckpt-000123.ckpt"));
    EXPECT_FALSE(parseShardName("ckpt-000123-r04of04.ckpt")); // rank>=world
    EXPECT_FALSE(parseShardName("ckpt-000123-r01of04.ckpt.bak"));
}

ShardMeta
makeMeta(uint32_t world, uint32_t rank, uint32_t begin, uint32_t end)
{
    ShardMeta meta;
    meta.world = world;
    meta.rank = rank;
    meta.grad_slices = 8;
    meta.param_count = 10;
    meta.owned_begin = begin;
    meta.owned_end = end;
    meta.config_fp = 0xabc;
    meta.split_fp = 0xdef;
    meta.completed_epoch = 3;
    meta.total_epochs = 6;
    return meta;
}

TEST(ShardTest, MetaRoundTripThroughCheckpointPayload)
{
    const ShardMeta meta = makeMeta(4, 2, 5, 8);
    std::ostringstream out;
    nn::CheckpointWriter writer(out);
    writeShardMeta(writer, meta);
    std::istringstream in(out.str());
    nn::CheckpointReader reader(in, "test payload");
    const ShardMeta back = readShardMeta(reader, "test payload");
    EXPECT_EQ(back.world, meta.world);
    EXPECT_EQ(back.rank, meta.rank);
    EXPECT_EQ(back.grad_slices, meta.grad_slices);
    EXPECT_EQ(back.param_count, meta.param_count);
    EXPECT_EQ(back.owned_begin, meta.owned_begin);
    EXPECT_EQ(back.owned_end, meta.owned_end);
    EXPECT_EQ(back.config_fp, meta.config_fp);
    EXPECT_EQ(back.split_fp, meta.split_fp);
    EXPECT_EQ(back.completed_epoch, meta.completed_epoch);
    EXPECT_EQ(back.total_epochs, meta.total_epochs);
}

TEST(ShardTest, ReadShardMetaRefusesWrongProducer)
{
    std::ostringstream out;
    nn::CheckpointWriter writer(out);
    writer.str("sns-trainer-v1"); // the retired plain format's tag
    std::istringstream in(out.str());
    nn::CheckpointReader reader(in, "plain");
    EXPECT_THROW(readShardMeta(reader, "plain"), nn::SerializeError);
}

TEST(ShardTest, ValidateShardSetCatchesBrokenSets)
{
    // A complete healthy 2-rank set.
    std::vector<ShardMeta> good = {makeMeta(2, 0, 0, 6),
                                   makeMeta(2, 1, 6, 10)};
    EXPECT_FALSE(validateShardSet(good, "set").hasErrors());

    // Missing rank.
    std::vector<ShardMeta> missing = {makeMeta(2, 0, 0, 6)};
    EXPECT_TRUE(validateShardSet(missing, "set").hasRule(
        verify::rules::kShardSet));

    // Duplicate rank.
    std::vector<ShardMeta> dup = {makeMeta(2, 0, 0, 6),
                                  makeMeta(2, 0, 0, 6)};
    EXPECT_TRUE(
        validateShardSet(dup, "set").hasRule(verify::rules::kShardSet));

    // Coverage gap: tensor 5 owned by nobody.
    std::vector<ShardMeta> gap = {makeMeta(2, 0, 0, 5),
                                  makeMeta(2, 1, 6, 10)};
    EXPECT_TRUE(
        validateShardSet(gap, "set").hasRule(verify::rules::kShardSet));

    // Mixed fingerprints: two different runs.
    std::vector<ShardMeta> mixed = good;
    mixed[1].config_fp ^= 1;
    EXPECT_TRUE(validateShardSet(mixed, "set").hasRule(
        verify::rules::kShardSet));

    // Bad owned range on one shard.
    std::vector<ShardMeta> bad_range = good;
    bad_range[1].owned_end = 11;
    EXPECT_TRUE(validateShardSet(bad_range, "set").hasRule(
        verify::rules::kShardMeta));

    EXPECT_TRUE(validateShardSet({}, "set").hasErrors());
}

std::string
freshDir(const char *name)
{
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

void
touch(const std::string &path)
{
    // listCheckpoints() skips files too small to hold a container
    // header, so give the stand-in some ballast.
    std::ofstream out(path);
    out << "stand-in checkpoint bytes";
}

TEST(ShardTest, LatestCompleteShardSetSkipsPartialEpochs)
{
    const std::string dir = freshDir("sns_dist_sets");
    // Epoch 1: complete 2-rank set. Epoch 2: one of 4 shards (a killed
    // run's partial commit). Plus an unsharded epoch-3 checkpoint,
    // which shard-set discovery must ignore.
    touch(dir + "/" + shardFileName(1, 0, 2));
    touch(dir + "/" + shardFileName(1, 1, 2));
    touch(dir + "/" + shardFileName(2, 1, 4));
    touch(dir + "/ckpt-000003.ckpt");

    int epoch = -1;
    const auto files = latestCompleteShardSet(dir, &epoch);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(epoch, 1);
    EXPECT_NE(files[0].find("r00of02"), std::string::npos);
    EXPECT_NE(files[1].find("r01of02"), std::string::npos);

    // Completing epoch 2 moves the answer forward.
    touch(dir + "/" + shardFileName(2, 0, 4));
    touch(dir + "/" + shardFileName(2, 2, 4));
    touch(dir + "/" + shardFileName(2, 3, 4));
    const auto newer = latestCompleteShardSet(dir, &epoch);
    EXPECT_EQ(newer.size(), 4u);
    EXPECT_EQ(epoch, 2);
    std::filesystem::remove_all(dir);
}

TEST(ShardTest, ListAndPruneTreatShardSetsAsEpochUnits)
{
    const std::string dir = freshDir("sns_dist_prune");
    // Mixed population: unsharded (retired-format) epochs 1 and 4,
    // sharded epochs 2 and 3.
    touch(dir + "/ckpt-000001.ckpt");
    touch(dir + "/" + shardFileName(2, 0, 2));
    touch(dir + "/" + shardFileName(2, 1, 2));
    touch(dir + "/" + shardFileName(3, 0, 2));
    touch(dir + "/" + shardFileName(3, 1, 2));
    touch(dir + "/ckpt-000004.ckpt");

    // listCheckpoints sees all six files, name-sorted (== epoch order).
    const auto all = nn::listCheckpoints(dir);
    ASSERT_EQ(all.size(), 6u);
    EXPECT_NE(all[0].find("ckpt-000001"), std::string::npos);
    EXPECT_NE(all[5].find("ckpt-000004"), std::string::npos);

    // keep=2 keeps the two newest EPOCHS: the epoch-3 shard pair and
    // the plain epoch-4 file — not the four newest files.
    nn::pruneCheckpoints(dir, 2);
    const auto kept = nn::listCheckpoints(dir);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_NE(kept[0].find("ckpt-000003-r00of02"), std::string::npos);
    EXPECT_NE(kept[1].find("ckpt-000003-r01of02"), std::string::npos);
    EXPECT_NE(kept[2].find("ckpt-000004"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(ShardTest, LintFlagsTruncatedAndInconsistentShardMeta)
{
    const std::string dir = freshDir("sns_dist_lint");

    // A valid container whose payload stops mid-meta: the container
    // checks pass, C-SHARD-TRUNCATED fires.
    {
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        writer.str("sns-dist-trainer-v1");
        writer.u32(1); // layout
        writer.u32(4); // world — then nothing
        const std::string path = dir + "/" + shardFileName(1, 0, 4);
        nn::commitCheckpoint(path, payload.str());
        const auto report = verify::checkCheckpointFile(path);
        EXPECT_TRUE(report.hasErrors());
        EXPECT_TRUE(report.hasRule(verify::rules::kShardTruncated));
    }

    // A full meta block with inadmissible values: C-SHARD-META.
    {
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        ShardMeta meta = makeMeta(3, 5, 8, 20); // world not 2^k, rank
                                                // out of range, owned
                                                // range past the end
        meta.grad_slices = 6;
        writeShardMeta(writer, meta);
        const std::string path = dir + "/bad-meta.ckpt";
        // Name intentionally not ckpt-* so only the meta rules fire.
        nn::commitCheckpoint(path, payload.str());
        const auto report = verify::checkCheckpointFile(path);
        EXPECT_TRUE(report.hasRule(verify::rules::kShardMeta));
    }

    // A healthy shard whose file was renamed to a different rank:
    // set discovery would merge the wrong shards, so lint objects.
    {
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        writeShardMeta(writer, makeMeta(4, 2, 5, 8));
        const std::string path = dir + "/" + shardFileName(3, 1, 4);
        nn::commitCheckpoint(path, payload.str());
        const auto report = verify::checkCheckpointFile(path);
        EXPECT_TRUE(report.hasRule(verify::rules::kShardMeta));
    }

    // A non-shard SNSC payload (here the retired plain format's) stays
    // untouched by the shard rules.
    {
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        writer.str("sns-trainer-v1");
        const std::string path = dir + "/ckpt-000009.ckpt";
        nn::commitCheckpoint(path, payload.str());
        EXPECT_FALSE(verify::checkCheckpointFile(path).hasErrors());
    }
    std::filesystem::remove_all(dir);
}

// --- End-to-end: the bitwise world-size guarantee. -----------------

synth::Synthesizer
oracle()
{
    synth::SynthesisOptions opts;
    opts.effort = 0.1;
    return synth::Synthesizer(opts);
}

const HardwareDesignDataset &
smokeDataset()
{
    static const HardwareDesignDataset dataset =
        HardwareDesignDataset::build(DesignLibrary::smokeSet(), oracle());
    return dataset;
}

/** A scaled-down sliced-training configuration. */
TrainerConfig
distTestConfig()
{
    TrainerConfig config = TrainerConfig::fast();
    config.circuitformer_epochs = 4;
    config.mlp.epochs = 200;
    config.dist.grad_slices = 4;
    return config;
}

struct WorldResult
{
    std::vector<core::LossPoint> curve;
    std::vector<core::SnsPrediction> predictions;
};

/** Train a full world in one process (rank r on thread r over a
 * localRing), checkpointing into `dir`; returns rank 0's results. */
WorldResult
trainWorld(int world, const std::string &dir,
           TrainProgressSink *rank0_sink = nullptr,
           const std::string &resume_from = "")
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);
    auto ring = world > 1 ? localRing(world)
                          : std::vector<std::shared_ptr<RingChannel>>{};

    WorldResult result;
    std::vector<obs::Registry> registries(world);
    std::vector<std::string> errors(world);
    std::vector<std::thread> threads;
    for (int r = 0; r < world; ++r) {
        threads.emplace_back([&, r] {
            TrainerConfig config = distTestConfig();
            config.dist.world_size = world;
            config.dist.rank = r;
            if (world > 1)
                config.dist.channel = ring[r];
            config.checkpoint_dir = dir;
            config.checkpoint_keep = 0;
            config.registry = &registries[r];
            config.resume_from = resume_from;
            if (r == 0)
                config.progress = rank0_sink;
            SnsTrainer trainer(config);
            try {
                const auto predictor =
                    trainer.train(dataset, train_idx, oracle());
                if (r == 0) {
                    result.curve = trainer.lossCurve();
                    for (size_t idx : test_idx)
                        result.predictions.push_back(predictor.predict(
                            dataset.records()[idx].graph));
                }
            } catch (const TrainingInterrupted &) {
                if (r == 0)
                    result.curve = trainer.lossCurve();
            } catch (const std::exception &e) {
                errors[r] = e.what();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int r = 0; r < world; ++r)
        EXPECT_TRUE(errors[r].empty()) << "rank " << r << ": " << errors[r];
    return result;
}

void
expectSameResult(const WorldResult &a, const WorldResult &b,
                 const char *label)
{
    ASSERT_EQ(a.curve.size(), b.curve.size()) << label;
    for (size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_EQ(a.curve[i].train_loss, b.curve[i].train_loss)
            << label << " epoch " << i;
        EXPECT_EQ(a.curve[i].validation_loss, b.curve[i].validation_loss)
            << label << " epoch " << i;
    }
    ASSERT_EQ(a.predictions.size(), b.predictions.size()) << label;
    for (size_t i = 0; i < a.predictions.size(); ++i) {
        EXPECT_EQ(a.predictions[i].timing_ps, b.predictions[i].timing_ps)
            << label;
        EXPECT_EQ(a.predictions[i].area_um2, b.predictions[i].area_um2)
            << label;
        EXPECT_EQ(a.predictions[i].power_mw, b.predictions[i].power_mw)
            << label;
    }
}

TEST(DistTrainingTest, WorldSizesProduceBitwiseIdenticalModels)
{
    const std::string dir1 = freshDir("sns_dist_w1");
    const std::string dir2 = freshDir("sns_dist_w2");
    const std::string dir4 = freshDir("sns_dist_w4");

    const WorldResult w1 = trainWorld(1, dir1);
    const WorldResult w2 = trainWorld(2, dir2);
    const WorldResult w4 = trainWorld(4, dir4);
    ASSERT_FALSE(w1.curve.empty());
    ASSERT_FALSE(w1.predictions.empty());
    expectSameResult(w1, w2, "world 1 vs 2");
    expectSameResult(w1, w4, "world 1 vs 4");

    // Every epoch committed a complete shard set; rank 0's final shard
    // embeds the model, higher ranks' shards carry only their moments.
    int epoch = -1;
    const auto set4 = latestCompleteShardSet(dir4, &epoch);
    ASSERT_EQ(set4.size(), 4u);
    EXPECT_EQ(epoch, 3);
    for (const auto &file : set4)
        EXPECT_FALSE(verify::checkCheckpointFile(file).hasErrors());
    EXPECT_GT(std::filesystem::file_size(set4[0]),
              std::filesystem::file_size(set4[1]));

    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir2);
    std::filesystem::remove_all(dir4);
}

/** Requests a stop after `stop_after` observed epochs. */
struct StopAfterSink : TrainProgressSink
{
    explicit StopAfterSink(int stop_after) : stop_after_(stop_after) {}
    bool
    onEpoch(const EpochProgress &progress) override
    {
        seen.push_back(progress);
        return static_cast<int>(seen.size()) < stop_after_;
    }
    int stop_after_;
    std::vector<EpochProgress> seen;
};

TEST(DistTrainingTest, KilledRunResumesAtADifferentRankCount)
{
    const std::string dir_ref = freshDir("sns_dist_ref");
    const std::string dir_killed = freshDir("sns_dist_killed");
    const std::string dir_resumed = freshDir("sns_dist_resumed");

    // Reference: an uninterrupted world-1 sliced run.
    const WorldResult reference = trainWorld(1, dir_ref);

    // Kill a 4-rank run after epoch 2 — the SIGINT is delivered to
    // rank 0 only; the stop vote halts every rank after the same epoch
    // with a complete shard set on disk.
    StopAfterSink stopper(2);
    trainWorld(4, dir_killed, &stopper);
    ASSERT_EQ(stopper.seen.size(), 2u);
    int epoch = -1;
    const auto set = latestCompleteShardSet(dir_killed, &epoch);
    ASSERT_EQ(set.size(), 4u);
    EXPECT_EQ(epoch, 1); // 0-based epoch of the coherent interruption

    // Resume the 4-rank shards at world 2 — the merged optimizer state
    // reshards to the new cuts — and finish. Bitwise identical to the
    // uninterrupted run.
    const WorldResult resumed =
        trainWorld(2, dir_resumed, nullptr, dir_killed);
    expectSameResult(reference, resumed, "reference vs 4->2 resume");

    std::filesystem::remove_all(dir_ref);
    std::filesystem::remove_all(dir_killed);
    std::filesystem::remove_all(dir_resumed);
}

} // namespace
} // namespace sns::dist
