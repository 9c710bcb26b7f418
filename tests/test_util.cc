/**
 * @file
 * Unit tests for the utility layer: RNG, statistics/metrics, strings,
 * table rendering, and the FNV-1a hash.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/fnv.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/string_utils.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace sns {
namespace {

TEST(Fnv, PublishedVectorsAndStreaming)
{
    // The published 64-bit FNV-1a test vectors; every checkpoint, plan
    // and cache digest in the repo rests on these constants.
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    // Streaming: hashing "a" then "b" equals hashing "ab" in one call.
    EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), fnv1a("ab", 2));
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.uniformInt(uint64_t{7});
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u) << "all residues should appear";
}

TEST(Rng, SignedUniformIntInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.uniformInt(int64_t{-3}, int64_t{3});
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasExpectedMoments)
{
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(9);
    std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
    std::vector<int> counts(4, 0);
    const int trials = 40000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.categorical(weights)];
    EXPECT_EQ(counts[2], 0) << "zero-weight class must never be drawn";
    EXPECT_NEAR(counts[0] / double(trials), 0.1, 0.02);
    EXPECT_NEAR(counts[1] / double(trials), 0.3, 0.02);
    EXPECT_NEAR(counts[3] / double(trials), 0.6, 0.02);
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(13);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.shuffle(shuffled);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(shuffled.begin(), shuffled.end());
    EXPECT_EQ(a, b);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(21);
    Rng child = parent.fork();
    EXPECT_NE(parent.next(), child.next());
}

TEST(RunningStats, MeanVarianceMinMax)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Metrics, RrsePerfectPredictionIsZero)
{
    std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(rrse(truth, truth), 0.0);
}

TEST(Metrics, RrseMeanPredictorScoresOne)
{
    std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> mean_pred(4, 2.5);
    EXPECT_NEAR(rrse(mean_pred, truth), 1.0, 1e-12);
}

TEST(Metrics, RrseScaleInvariant)
{
    std::vector<double> truth = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> pred = {1.1, 2.2, 2.7, 4.4};
    std::vector<double> truth_k;
    std::vector<double> pred_k;
    for (size_t i = 0; i < truth.size(); ++i) {
        truth_k.push_back(truth[i] * 1000.0);
        pred_k.push_back(pred[i] * 1000.0);
    }
    EXPECT_NEAR(rrse(pred, truth), rrse(pred_k, truth_k), 1e-9);
}

TEST(Metrics, MaepMatchesHandComputation)
{
    std::vector<double> truth = {10.0, 20.0};
    std::vector<double> pred = {11.0, 18.0};
    // (0.1 + 0.1) / 2 * 100 = 10%
    EXPECT_NEAR(maep(pred, truth), 10.0, 1e-9);
}

TEST(Metrics, MaepSkipsZeroTruth)
{
    std::vector<double> truth = {0.0, 10.0};
    std::vector<double> pred = {5.0, 15.0};
    EXPECT_NEAR(maep(pred, truth), 50.0, 1e-9);
}

TEST(Metrics, PearsonDetectsPerfectCorrelation)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    std::vector<double> up = {2.0, 4.0, 6.0, 8.0};
    std::vector<double> down = {8.0, 6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson(xs, up), 1.0, 1e-12);
    EXPECT_NEAR(pearson(xs, down), -1.0, 1e-12);
}

TEST(Metrics, GeomeanOfPowersOfTwo)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Metrics, QuantileInterpolates)
{
    std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto fields = split("a,,b", ',');
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitWhitespaceDropsEmpties)
{
    const auto fields = splitWhitespace("  a \t b\nc  ");
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[2], "c");
}

TEST(Strings, TrimStripsBothEnds)
{
    EXPECT_EQ(trim("  hello \t"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, JoinAndStartsWith)
{
    EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
    EXPECT_TRUE(startsWith("mul16", "mul"));
    EXPECT_FALSE(startsWith("mu", "mul"));
}

TEST(Strings, FormatHelpers)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatEng(1234567.0), "1.23M");
    EXPECT_EQ(formatEng(12.0), "12.00");
}

TEST(TableTest, RendersAlignedAsciiAndCsv)
{
    Table table("Caption");
    table.setHeader({"design", "area"});
    table.addRow({"mac8", "123.4"});
    table.addRow({"fft", "9"});

    std::ostringstream ascii;
    table.print(ascii);
    const std::string text = ascii.str();
    EXPECT_NE(text.find("Caption"), std::string::npos);
    EXPECT_NE(text.find("design"), std::string::npos);
    EXPECT_NE(text.find("mac8"), std::string::npos);

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_EQ(csv.str(), "design,area\nmac8,123.4\nfft,9\n");
}

TEST(TableTest, CsvEscapesSpecialCharacters)
{
    Table table;
    table.addRow({"a,b", "say \"hi\""});
    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_EQ(csv.str(), "\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Timer, MeasuresNonNegativeTime)
{
    WallTimer timer;
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i)
        sink = sink + std::sqrt(double(i));
    EXPECT_GE(timer.seconds(), 0.0);
    EXPECT_GE(timer.milliseconds(), timer.seconds());
}

} // namespace
} // namespace sns
