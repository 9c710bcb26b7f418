/**
 * @file
 * Tests for Algorithm 1 — complete-circuit-path sampling.
 */

#include <gtest/gtest.h>

#include <set>

#include "boom/boom.hh"
#include "core/trainer.hh"
#include "designs/designs.hh"
#include "netlist/circuit_builder.hh"
#include "perf/path_cache.hh"
#include "sampler/path_sampler.hh"
#include "util/fnv.hh"

namespace sns::sampler {
namespace {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;
using netlist::CircuitBuilder;

Graph
buildMac()
{
    CircuitBuilder cb("mac8");
    const NodeId a = cb.input(8);
    const NodeId b = cb.input(8);
    const NodeId m = cb.mul(16, a, b);
    const NodeId acc = cb.dff(16);
    const NodeId s = cb.add(16, m, acc);
    cb.connect(s, acc);
    cb.output(16, {acc});
    return cb.build();
}

SamplerOptions
exhaustive()
{
    SamplerOptions opts;
    opts.k = 1.0;
    opts.max_paths_per_source = 1000000;
    opts.max_total_paths = 1000000;
    return opts;
}

TEST(PathSamplerTest, ExhaustiveMacYieldsFourPaths)
{
    // Figure 2(c): the MAC has exactly four complete circuit paths.
    const auto paths = PathSampler(exhaustive()).sample(buildMac());
    EXPECT_EQ(paths.size(), 4u);
}

TEST(PathSamplerTest, AllPathsStartAndEndOnEndpoints)
{
    const auto g = buildMac();
    const auto paths = PathSampler(exhaustive()).sample(g);
    for (const auto &path : paths) {
        ASSERT_GE(path.nodes.size(), 2u);
        EXPECT_TRUE(g.isEndpoint(path.nodes.front()));
        EXPECT_TRUE(g.isEndpoint(path.nodes.back()));
        // Interior vertices are combinational.
        for (size_t i = 1; i + 1 < path.nodes.size(); ++i)
            EXPECT_FALSE(g.isEndpoint(path.nodes[i]));
    }
}

TEST(PathSamplerTest, PathsFollowGraphEdges)
{
    const auto g = buildMac();
    const auto paths = PathSampler(exhaustive()).sample(g);
    for (const auto &path : paths) {
        for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
            const auto &succ = g.successors(path.nodes[i]);
            EXPECT_NE(std::find(succ.begin(), succ.end(),
                                path.nodes[i + 1]),
                      succ.end());
        }
    }
}

TEST(PathSamplerTest, TokensMirrorNodes)
{
    const auto g = buildMac();
    const auto paths = PathSampler(exhaustive()).sample(g);
    for (const auto &path : paths) {
        ASSERT_EQ(path.tokens.size(), path.nodes.size());
        for (size_t i = 0; i < path.nodes.size(); ++i)
            EXPECT_EQ(path.tokens[i], g.token(path.nodes[i]));
    }
}

TEST(PathSamplerTest, RegisterFeedbackLoopSampledOnce)
{
    const auto g = buildMac();
    const auto paths = PathSampler(exhaustive()).sample(g);
    // Find the acc -> add -> acc feedback path.
    int feedback = 0;
    for (const auto &path : paths) {
        if (path.nodes.size() == 3 && path.nodes.front() == path.nodes.back())
            ++feedback;
    }
    EXPECT_EQ(feedback, 1);
}

TEST(PathSamplerTest, DeterministicPerSeed)
{
    const auto g = buildMac();
    SamplerOptions opts;
    opts.seed = 99;
    const auto a = PathSampler(opts).sample(g);
    const auto b = PathSampler(opts).sample(g);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].nodes, b[i].nodes);
}

/** A wide design with heavy fanout to exercise branch thinning. */
Graph
buildWide(int lanes)
{
    CircuitBuilder cb("wide");
    const NodeId x = cb.input(32);
    std::vector<NodeId> outs;
    for (int i = 0; i < lanes; ++i) {
        const NodeId y = cb.input(32);
        const NodeId s = cb.add(32, x, y);
        outs.push_back(cb.reg(s));
    }
    cb.output(32, outs);
    return cb.build();
}

TEST(PathSamplerTest, LargerKSamplesFewerPaths)
{
    const auto g = buildWide(40);
    SamplerOptions k1 = exhaustive();
    SamplerOptions k5 = exhaustive();
    k5.k = 5.0;
    SamplerOptions kinf = exhaustive();
    kinf.k = 1e9;
    const auto all = PathSampler(k1).sample(g);
    const auto some = PathSampler(k5).sample(g);
    const auto few = PathSampler(kinf).sample(g);
    EXPECT_GT(all.size(), some.size());
    EXPECT_GT(some.size(), few.size());
    EXPECT_GE(few.size(), 1u) << "at least one successor is always taken";
}

TEST(PathSamplerTest, RespectsTotalCap)
{
    const auto g = buildWide(64);
    SamplerOptions opts = exhaustive();
    opts.max_total_paths = 10;
    const auto paths = PathSampler(opts).sample(g);
    EXPECT_LE(paths.size(), 10u);
}

TEST(PathSamplerTest, RespectsPerSourceCap)
{
    const auto g = buildWide(64);
    SamplerOptions opts = exhaustive();
    opts.max_paths_per_source = 3;
    opts.longest_paths = 0; // deterministic deep paths bypass the cap
    const auto paths = PathSampler(opts).sample(g);
    std::map<graphir::NodeId, int> per_source;
    for (const auto &path : paths)
        ++per_source[path.nodes.front()];
    for (const auto &[src, count] : per_source)
        EXPECT_LE(count, 3);
}

TEST(PathSamplerTest, RespectsLengthCap)
{
    // A long combinational chain exceeding the cap yields no path.
    CircuitBuilder cb("deep");
    NodeId x = cb.input(8);
    for (int i = 0; i < 40; ++i)
        x = cb.bnot(8, x);
    cb.output(8, {cb.reg(x)});
    const auto g = cb.build();

    SamplerOptions tight = exhaustive();
    tight.max_path_length = 10;
    const auto capped = PathSampler(tight).sample(g);
    // Only the short dff -> out path survives; the 42-vertex chain
    // through the NOT cascade is abandoned.
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_LE(capped[0].nodes.size(), 10u);

    SamplerOptions loose = exhaustive();
    loose.max_path_length = 512;
    EXPECT_EQ(PathSampler(loose).sample(g).size(), 2u);
}

TEST(PathSamplerTest, ExhaustiveCountMatchesCombinatorics)
{
    // Two inputs each fan out to 3 independent adders -> 6 paths, plus
    // none from the output port.
    CircuitBuilder cb("fan");
    const NodeId a = cb.input(16);
    const NodeId b = cb.input(16);
    std::vector<NodeId> regs;
    for (int i = 0; i < 3; ++i)
        regs.push_back(cb.reg(cb.add(16, a, b)));
    cb.output(16, regs);
    const auto g = cb.build();
    const auto paths = PathSampler(exhaustive()).sample(g);
    // a->addN->reg (3), b->addN->reg (3), regN->out (3).
    EXPECT_EQ(paths.size(), 9u);
}

TEST(DeepPathTest, FindsChainsRandomSamplingMisses)
{
    // A 64-deep adder chain with a fanout escape at every stage: a
    // random walk follows the full chain with probability ~2^-63, but
    // the deterministic deepest-path supplement must always find it.
    CircuitBuilder cb("escape_chain");
    NodeId x = cb.dff(16);
    const NodeId escape_sel = cb.input(4);
    for (int i = 0; i < 63; ++i) {
        const NodeId stay = cb.add(16, x, x);
        const NodeId escape = cb.reg(16, cb.mux(16, escape_sel, x, x));
        (void)escape;
        x = stay;
    }
    cb.output(16, {cb.reg(x)});
    const auto g = cb.build();

    SamplerOptions opts;
    opts.k = 5.0;
    opts.max_paths_per_source = 4;
    opts.longest_paths = 4;
    const auto paths = PathSampler(opts).sample(g);

    size_t longest = 0;
    for (const auto &path : paths)
        longest = std::max(longest, path.nodes.size());
    EXPECT_GE(longest, 60u) << "deepest-path supplement missing";

    SamplerOptions no_deep = opts;
    no_deep.longest_paths = 0;
    size_t longest_random = 0;
    for (const auto &path : PathSampler(no_deep).sample(g))
        longest_random = std::max(longest_random, path.nodes.size());
    EXPECT_LT(longest_random, 60u)
        << "random sampling should practically never walk the chain";
}

TEST(DeepPathTest, DeepPathsAreValidWalks)
{
    const auto g = buildMac();
    SamplerOptions opts;
    opts.longest_paths = 8;
    const auto paths = PathSampler(opts).sample(g);
    for (const auto &path : paths) {
        EXPECT_TRUE(g.isEndpoint(path.nodes.front()));
        EXPECT_TRUE(g.isEndpoint(path.nodes.back()));
        for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
            const auto &succ = g.successors(path.nodes[i]);
            EXPECT_NE(std::find(succ.begin(), succ.end(),
                                path.nodes[i + 1]),
                      succ.end());
        }
    }
}

/** `chains` register-bounded adder chains of `depth` stages. Every
 * stage also reads the neighbouring chain and is tapped into two
 * registers, so each chain vertex fans out six ways and branch
 * thinning keeps two; each chain feeds back into its head register. */
Graph
buildChains(int chains, int depth)
{
    CircuitBuilder cb("chains");
    std::vector<NodeId> heads;
    for (int c = 0; c < chains; ++c)
        heads.push_back(cb.dff(16));
    std::vector<NodeId> cursor = heads;
    for (int d = 0; d < depth; ++d) {
        std::vector<NodeId> next;
        for (int c = 0; c < chains; ++c) {
            next.push_back(
                cb.add(16, cursor[c], cursor[(c + 1) % chains]));
            for (int tap = 2; tap <= 3; ++tap)
                cb.reg(cb.add(16, cursor[c], cursor[(c + tap) % chains]));
        }
        cursor = next;
    }
    std::vector<NodeId> outs;
    for (int c = 0; c < chains; ++c) {
        cb.connect(cursor[c], heads[c]);
        outs.push_back(cb.reg(cursor[c]));
    }
    cb.output(16, outs);
    return cb.build();
}

/** FNV-1a over every path's length and node ids, in sample order. */
uint64_t
nodeFingerprint(const std::vector<SampledPath> &paths)
{
    uint64_t hash = kFnvOffsetBasis;
    for (const auto &path : paths) {
        const uint64_t length = path.nodes.size();
        hash = fnv1a(&length, sizeof(length), hash);
        hash = fnv1a(path.nodes.data(),
                     path.nodes.size() * sizeof(NodeId), hash);
    }
    return hash;
}

TEST(PathSamplerTest, SampleIsPinned)
{
    // Golden output of Algorithm 1: which paths are sampled, in which
    // order, for BOOM configurations, a chain design and a systolic
    // array, at the default and the fast-training sampler options.
    // Every RNG draw, the path order and the dedup rule feed these
    // values, so a sampler rewrite that changes any of them fails here.
    struct Case
    {
        const char *name;
        Graph graph;
        uint64_t default_pin;
        uint64_t fast_pin;
    };
    const auto space = boom::boomDesignSpace();
    const Case cases[] = {
        {"boom_0", boom::buildBoomCore(space[0]), 0xb4e0c7b6f939e228ull,
         0x24fcd04aa56df8cdull},
        {"boom_777", boom::buildBoomCore(space[777]),
         0x8df4348e72decc70ull, 0x220863a9f91991f8ull},
        {"boom_1500", boom::buildBoomCore(space[1500]),
         0xd892e7a829f2ac5aull, 0x3e266d19241101cbull},
        {"boom_2591", boom::buildBoomCore(space[2591]),
         0x2adfe8d61b74a537ull, 0x1aaf99f6b7c74bedull},
        {"chains", buildChains(8, 20), 0xa8c92561cc325e13ull,
         0x5033cd484f8af27aull},
        {"systolic", designs::buildSystolicArray(8, 8, 16),
         0x0cddcb6e3be31bcdull, 0x0cddcb6e3be31bcdull},
    };
    const SamplerOptions fast = core::TrainerConfig::fast().path_data.sampler;
    PathSet set; // reused across designs, as a predictor's pool chunk does
    for (const Case &c : cases) {
        for (const bool is_fast : {false, true}) {
            const PathSampler sampler(is_fast ? fast : SamplerOptions());
            const auto paths = sampler.sample(c.graph);
            EXPECT_EQ(nodeFingerprint(paths),
                      is_fast ? c.fast_pin : c.default_pin)
                << c.name << (is_fast ? " fast: " : " default: ")
                << std::hex << "0x" << nodeFingerprint(paths) << std::dec
                << ", " << paths.size() << " paths";

            // The flat set holds the same paths, and the token hash it
            // carries is the cache key hashTokens computes.
            sampler.sample(c.graph, set);
            ASSERT_EQ(set.size(), paths.size()) << c.name;
            for (size_t i = 0; i < set.size(); ++i) {
                const auto nodes = set.nodes(i);
                const auto tokens = set.tokens(i);
                ASSERT_TRUE(std::equal(nodes.begin(), nodes.end(),
                                       paths[i].nodes.begin(),
                                       paths[i].nodes.end()))
                    << c.name << " path " << i;
                ASSERT_TRUE(std::equal(tokens.begin(), tokens.end(),
                                       paths[i].tokens.begin(),
                                       paths[i].tokens.end()))
                    << c.name << " path " << i;
                EXPECT_EQ(set.length(i), nodes.size());
                EXPECT_EQ(set.tokenHash(i), perf::hashTokens(tokens))
                    << c.name << " path " << i;
            }
        }
    }
}

/** Parameterized sweep: invariants hold for every k. */
class KSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(KSweep, InvariantsHoldForEveryK)
{
    const auto g = buildWide(32);
    SamplerOptions opts;
    opts.k = GetParam();
    opts.seed = 7;
    const auto paths = PathSampler(opts).sample(g);
    EXPECT_FALSE(paths.empty());
    std::set<std::vector<graphir::NodeId>> unique;
    for (const auto &path : paths) {
        EXPECT_TRUE(g.isEndpoint(path.nodes.front()));
        EXPECT_TRUE(g.isEndpoint(path.nodes.back()));
        EXPECT_LE(path.nodes.size(), opts.max_path_length);
        unique.insert(path.nodes);
    }
    // Sampling the same source twice can only come from distinct
    // branches, so all paths from one run are distinct walks.
    EXPECT_EQ(unique.size(), paths.size());
}

INSTANTIATE_TEST_SUITE_P(Ks, KSweep,
                         ::testing::Values(1.0, 2.0, 3.0, 5.0, 10.0, 1e9));

} // namespace
} // namespace sns::sampler
