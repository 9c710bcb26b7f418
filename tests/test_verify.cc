/**
 * @file
 * Unit tests for the sns::verify static analyzer: one clean and one
 * corrupted artifact per checker (cycle, multi-driver, width mismatch,
 * dangling net, out-of-vocab token, NaN label), plus the enforcement
 * machinery (modes, collection, counters) and the dataset-file linter
 * over the bundled fixtures.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gen/path_check.hh"
#include "graphir/vocabulary.hh"
#include "netlist/snl_parser.hh"
#include "nn/serialize.hh"
#include "plan/ir.hh"
#include "plan/snsp.hh"
#include "verify/analyzer.hh"
#include "verify/plan_check.hh"

#include <sys/resource.h>

namespace sns::verify {
namespace {

using graphir::Graph;
using graphir::NodeId;
using graphir::NodeType;
using graphir::TokenId;
using graphir::Vocabulary;

TokenId
tok(const char *name)
{
    const auto id = Vocabulary::instance().parse(name);
    EXPECT_TRUE(id.has_value()) << name;
    return *id;
}

/** The Figure-2 multiply-accumulate circuit; lints clean. */
Graph
buildCleanMac()
{
    Graph g("mac8");
    const NodeId a = g.addNode(NodeType::Io, 8);
    const NodeId b = g.addNode(NodeType::Io, 8);
    const NodeId m = g.addNode(NodeType::Mul, 16);
    const NodeId s = g.addNode(NodeType::Add, 16);
    const NodeId acc = g.addNode(NodeType::Dff, 16);
    const NodeId out = g.addNode(NodeType::Io, 16);
    g.addEdge(a, m);
    g.addEdge(b, m);
    g.addEdge(m, s);
    g.addEdge(acc, s);
    g.addEdge(s, acc);
    g.addEdge(acc, out);
    return g;
}

TEST(GraphAnalyzerTest, CleanDesignHasNoFindings)
{
    const auto report = GraphAnalyzer().run(buildCleanMac());
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Warning), 0u);
}

TEST(GraphAnalyzerTest, DetectsCombinationalCycle)
{
    Graph g("loop");
    const NodeId a = g.addNode(NodeType::Io, 8);
    const NodeId x = g.addNode(NodeType::Add, 8);
    const NodeId y = g.addNode(NodeType::Add, 8);
    const NodeId q = g.addNode(NodeType::Io, 8);
    g.addEdge(a, x);
    g.addEdge(y, x);
    g.addEdge(x, y);
    g.addEdge(y, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kGraphCycle));
}

TEST(GraphAnalyzerTest, DetectsMultiDrivenRegister)
{
    Graph g("multi");
    const NodeId a = g.addNode(NodeType::Io, 16);
    const NodeId b = g.addNode(NodeType::Io, 16);
    const NodeId z = g.addNode(NodeType::Dff, 16);
    const NodeId q = g.addNode(NodeType::Io, 16);
    g.addEdge(a, z);
    g.addEdge(b, z);
    g.addEdge(z, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kGraphMultiDriver));
}

TEST(GraphAnalyzerTest, DetectsWidthRuleViolation)
{
    // A 64-bit operand feeding an 8-bit adder breaks the §3.1 width
    // rule: the operator must be at least as wide as its operands.
    Graph g("narrow");
    const NodeId a = g.addNode(NodeType::Io, 64);
    const NodeId b = g.addNode(NodeType::Io, 64);
    const NodeId s = g.addNode(NodeType::Add, 8);
    const NodeId q = g.addNode(NodeType::Io, 8);
    g.addEdge(a, s);
    g.addEdge(b, s);
    g.addEdge(s, q);
    const auto report = GraphAnalyzer().run(g);
    // Arithmetic narrowing is a warning (quantized datapaths do it on
    // purpose), never a hard error; sns_lint --werror promotes it.
    EXPECT_FALSE(report.hasErrors());
    EXPECT_GE(report.count(Severity::Warning), 1u);
    EXPECT_TRUE(report.hasRule(rules::kGraphWidth));
}

TEST(GraphAnalyzerTest, OutputAggregationIsOnlyANote)
{
    // CircuitBuilder::output(width, sources) funnels many capture
    // points into one port; many drivers on an Io is a note, not a
    // multi-driven-net error.
    Graph g("agg");
    const NodeId a = g.addNode(NodeType::Io, 32);
    const NodeId x = g.addNode(NodeType::Not, 32);
    const NodeId y = g.addNode(NodeType::Not, 32);
    const NodeId q = g.addNode(NodeType::Io, 32);
    g.addEdge(a, x);
    g.addEdge(a, y);
    g.addEdge(x, q);
    g.addEdge(y, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Warning), 0u);
    EXPECT_TRUE(report.hasRule(rules::kGraphMultiDriver));
}

TEST(GraphAnalyzerTest, MuxSelectAndShiftAmountAreExempt)
{
    // A 1-bit select on a wide mux and a narrow shift amount are
    // control inputs, not data — no width violation.
    Graph g("ctl");
    const NodeId sel = g.addNode(NodeType::Io, 1);
    const NodeId a = g.addNode(NodeType::Io, 32);
    const NodeId b = g.addNode(NodeType::Io, 32);
    const NodeId m = g.addNode(NodeType::Mux, 32);
    const NodeId q = g.addNode(NodeType::Io, 32);
    g.addEdge(sel, m);
    g.addEdge(a, m);
    g.addEdge(b, m);
    g.addEdge(m, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_FALSE(report.hasRule(rules::kGraphWidth));
    EXPECT_FALSE(report.hasErrors());
}

TEST(GraphAnalyzerTest, BitwiseNarrowingIsTheSliceIdiom)
{
    // A 4-bit AND over 32-bit values takes the low nibble — the
    // mask/slice idiom the design library uses for table indexing.
    // It must not fail enforcement (note only).
    Graph g("slice");
    const NodeId a = g.addNode(NodeType::Io, 32);
    const NodeId b = g.addNode(NodeType::Io, 32);
    const NodeId m = g.addNode(NodeType::And, 4);
    const NodeId q = g.addNode(NodeType::Io, 4);
    g.addEdge(a, m);
    g.addEdge(b, m);
    g.addEdge(m, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Warning), 0u);
    EXPECT_TRUE(report.hasRule(rules::kGraphWidth));
}

TEST(GraphAnalyzerTest, DetectsDanglingOperator)
{
    Graph g("dangle");
    const NodeId s = g.addNode(NodeType::Add, 32);
    const NodeId q = g.addNode(NodeType::Io, 32);
    g.addEdge(s, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kGraphDangling));
}

TEST(GraphAnalyzerTest, DetectsDeadLogic)
{
    // mul's result never reaches a port or register.
    Graph g("dead");
    const NodeId a = g.addNode(NodeType::Io, 8);
    const NodeId m = g.addNode(NodeType::Mul, 16);
    const NodeId n = g.addNode(NodeType::Not, 16);
    g.addEdge(a, m);
    g.addEdge(a, m);
    g.addEdge(m, n);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_TRUE(report.hasRule(rules::kGraphDeadCode));
}

TEST(GraphAnalyzerTest, DetectsDegenerateSelfLoopRegister)
{
    Graph g("self");
    const NodeId d = g.addNode(NodeType::Dff, 8);
    g.addEdge(d, d);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_TRUE(report.hasRule(rules::kGraphRegister));
}

TEST(GraphAnalyzerTest, ConstantRegisterIsOnlyANote)
{
    // Coefficient registers (no next-state driver) are a legitimate
    // idiom; they must not fail enforcement.
    Graph g("coeff");
    const NodeId c = g.addNode(NodeType::Dff, 16);
    const NodeId x = g.addNode(NodeType::Io, 16);
    const NodeId m = g.addNode(NodeType::Mul, 32);
    const NodeId q = g.addNode(NodeType::Io, 32);
    g.addEdge(x, m);
    g.addEdge(c, m);
    g.addEdge(m, q);
    const auto report = GraphAnalyzer().run(g);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_EQ(report.count(Severity::Warning), 0u);
    EXPECT_TRUE(report.hasRule(rules::kGraphRegister));
}

TEST(GraphAnalyzerTest, DisableCheckerSuppressesItsFindings)
{
    Graph g("dangle");
    const NodeId s = g.addNode(NodeType::Add, 32);
    const NodeId q = g.addNode(NodeType::Io, 32);
    g.addEdge(s, q);
    GraphAnalyzer analyzer;
    analyzer.disableChecker("drivers");
    EXPECT_FALSE(analyzer.run(g).hasRule(rules::kGraphDangling));
}

TEST(VocabularyCheckTest, BuiltInVocabularyRoundTrips)
{
    EXPECT_TRUE(checkVocabularyRoundTrip().empty());
}

TEST(PathCheckTest, CleanPathPasses)
{
    const std::vector<TokenId> path = {tok("dff16"), tok("mul32"),
                                       tok("add32"), tok("dff32")};
    EXPECT_TRUE(checkPath(path).empty());
    EXPECT_TRUE(gen::isValidCircuitPath(path));
}

TEST(PathCheckTest, DetectsOutOfVocabToken)
{
    const std::vector<TokenId> path = {tok("dff16"), 999, tok("dff32")};
    const auto report = checkPath(path);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kPathOutOfVocab));
    EXPECT_FALSE(gen::isValidCircuitPath(path));
}

TEST(PathCheckTest, DetectsEndpointViolations)
{
    // Launches from a combinational token; an endpoint mid-path.
    const std::vector<TokenId> bad_start = {tok("mul16"), tok("dff16")};
    EXPECT_TRUE(checkPath(bad_start).hasRule(rules::kPathEndpoint));
    const std::vector<TokenId> interior = {tok("dff16"), tok("io16"),
                                           tok("dff16")};
    EXPECT_TRUE(checkPath(interior).hasRule(rules::kPathInterior));
}

TEST(PathCheckTest, DetectsLengthViolations)
{
    EXPECT_TRUE(checkPath({tok("dff16")}).hasRule(rules::kPathShort));
    std::vector<TokenId> long_path(20, tok("add16"));
    long_path.front() = tok("dff16");
    long_path.back() = tok("dff16");
    EXPECT_TRUE(checkPath(long_path, 8).hasRule(rules::kPathLong));
    EXPECT_TRUE(checkPath(long_path, 64).empty());
}

TEST(LabelCheckTest, FiniteLabelsPassNanFails)
{
    EXPECT_TRUE(checkLabels(812.5, 140.2, 0.61, "rec").empty());
    const auto report =
        checkLabels(std::nan(""), 140.2, 0.61, "rec");
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kLabelNotFinite));
    // Suspicious but finite values only warn.
    EXPECT_EQ(checkLabels(-1.0, 140.2, 0.61, "rec")
                  .count(Severity::Error),
              0u);
    EXPECT_TRUE(
        checkLabels(-1.0, 140.2, 0.61, "rec").hasRule(rules::kLabelRange));
}

TEST(SplitCheckTest, DetectsLeakage)
{
    EXPECT_TRUE(checkSplit({"fir", "mac"}, {"systolic"}).empty());
    const auto report = checkSplit({"fir", "mac"}, {"mac", "conv"});
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kSplitLeakage));
}

TEST(SynthResultCheckTest, FlagsNonFiniteAndNegative)
{
    EXPECT_TRUE(checkSynthesisResult(812.5, 140.2, 0.61, 42.0, "mac")
                    .empty());
    EXPECT_TRUE(checkSynthesisResult(812.5, -1.0, 0.61, 42.0, "mac")
                    .hasRule(rules::kSynthResult));
    EXPECT_TRUE(
        checkSynthesisResult(std::nan(""), 140.2, 0.61, 42.0, "mac")
            .hasErrors());
}

// ---- Fixture files (tests/fixtures/, shared with cli_smoke.sh). ----

std::string
fixture(const std::string &name)
{
    return std::string(SNS_FIXTURE_DIR) + "/" + name;
}

TEST(FixtureTest, SnlFixturesCarryTheirRuleIds)
{
    const struct
    {
        const char *file;
        const char *rule;
    } error_cases[] = {
        {"cycle.snl", rules::kGraphCycle},
        {"multi_driver.snl", rules::kGraphMultiDriver},
        {"dangling.snl", rules::kGraphDangling},
    };
    for (const auto &c : error_cases) {
        Report report;
        {
            CollectGuard guard(report);
            netlist::loadSnlFile(fixture(c.file));
        }
        EXPECT_TRUE(report.hasErrors()) << c.file;
        EXPECT_TRUE(report.hasRule(c.rule)) << c.file;
    }

    // Arithmetic narrowing is warning-severity; sns_lint --werror turns
    // it into a failure (cli_smoke.sh covers that path).
    Report width;
    {
        CollectGuard guard(width);
        netlist::loadSnlFile(fixture("width_mismatch.snl"));
    }
    EXPECT_FALSE(width.hasErrors());
    EXPECT_GE(width.count(Severity::Warning), 1u);
    EXPECT_TRUE(width.hasRule(rules::kGraphWidth));
}

TEST(FixtureTest, PathDatasetFixturesCarryTheirRuleIds)
{
    const auto oov = lintPathDatasetFile(fixture("oov_token.paths"));
    EXPECT_TRUE(oov.hasErrors());
    EXPECT_TRUE(oov.hasRule(rules::kPathOutOfVocab));

    const auto nan_label = lintPathDatasetFile(fixture("nan_label.paths"));
    EXPECT_TRUE(nan_label.hasErrors());
    EXPECT_TRUE(nan_label.hasRule(rules::kLabelNotFinite));
}

TEST(FixtureTest, DatasetLinterFlagsSyntaxErrors)
{
    const std::string path = "verify_syntax_tmp.paths";
    {
        std::ofstream out(path);
        out << "dff16 add32 dff32 ; 1.0 2.0\n";    // two labels
        out << "dff16 dff16 ; 1.0 2.0 oops\n";     // non-numeric
    }
    const auto report = lintPathDatasetFile(path);
    std::remove(path.c_str());
    EXPECT_TRUE(report.hasRule(rules::kDatasetSyntax));
    EXPECT_GE(report.count(Severity::Error), 2u);
}

// ---- Enforcement machinery. ----

TEST(EnforceTest, FatalModeThrowsOnErrors)
{
    Report report;
    report.error(rules::kGraphCycle, "x", "boom");
    setMode(Mode::Fatal);
    EXPECT_THROW(enforce(std::move(report), "test"), VerifyError);
}

TEST(EnforceTest, WarningsNeverThrow)
{
    Report report;
    report.warning(rules::kGraphDeadCode, "x", "meh");
    setMode(Mode::Fatal);
    EXPECT_NO_THROW(enforce(std::move(report), "test"));
}

TEST(EnforceTest, CountModeTalliesInsteadOfThrowing)
{
    setMode(Mode::Count);
    resetCounters();
    Report report;
    report.error(rules::kGraphCycle, "x", "boom");
    report.warning(rules::kGraphDeadCode, "y", "meh");
    EXPECT_NO_THROW(enforce(std::move(report), "test"));
    EXPECT_EQ(totalErrors(), 1u);
    EXPECT_EQ(totalWarnings(), 1u);
    EXPECT_EQ(totalReports(), 1u);
    setMode(Mode::Fatal);
    resetCounters();
}

TEST(EnforceTest, CollectGuardGathersInsteadOfThrowing)
{
    setMode(Mode::Fatal);
    Report sink;
    {
        CollectGuard guard(sink);
        EXPECT_TRUE(collecting());
        Report report;
        report.error(rules::kGraphCycle, "x", "boom");
        EXPECT_NO_THROW(enforce(std::move(report), "test"));
    }
    EXPECT_FALSE(collecting());
    EXPECT_EQ(sink.count(Severity::Error), 1u);
}

TEST(EnforceTest, SnlParserThrowsOnBrokenDesignWhenNotCollecting)
{
    setMode(Mode::Fatal);
    EXPECT_THROW(netlist::loadSnlFile(fixture("cycle.snl")),
                 netlist::SnlError);
}

TEST(ReportTest, PrintAndSummaryMentionRuleIds)
{
    Report report;
    report.error(rules::kGraphCycle, "mac8: node 2", "loop", "fix it");
    report.note(rules::kGraphArity, "mac8: node 3", "tie-off");
    std::ostringstream os;
    report.print(os);
    EXPECT_NE(os.str().find("G-CYCLE"), std::string::npos);
    EXPECT_EQ(os.str().find("G-ARITY"), std::string::npos)
        << "notes hidden by default";
    std::ostringstream verbose;
    report.print(verbose, true);
    EXPECT_NE(verbose.str().find("G-ARITY"), std::string::npos);
    EXPECT_NE(report.summary().find("G-CYCLE"), std::string::npos);
}

// ---- Checkpoint container checks (C-* rules). ----------------------

std::string
tempCkpt(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

TEST(CheckpointCheckTest, MissingFileIsCOpen)
{
    const auto report = checkCheckpointFile("/nonexistent/x.ckpt");
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kCheckpointOpen));
}

TEST(CheckpointCheckTest, WrongMagicAndVersionAreNamed)
{
    const std::string bad_magic = tempCkpt("verify_magic.ckpt");
    {
        std::ofstream out(bad_magic, std::ios::binary);
        out << "SNSWxxxxxxxxxxxxxxxxxxxx"; // 24 bytes, wrong magic
    }
    EXPECT_TRUE(
        checkCheckpointFile(bad_magic).hasRule(rules::kCheckpointMagic));
    std::remove(bad_magic.c_str());

    // A header shorter than 24 bytes is truncated, not "bad magic".
    const std::string stub = tempCkpt("verify_stub.ckpt");
    {
        std::ofstream out(stub, std::ios::binary);
        out << "SNSC";
    }
    EXPECT_TRUE(
        checkCheckpointFile(stub).hasRule(rules::kCheckpointTruncated));
    std::remove(stub.c_str());
}

TEST(CheckpointCheckTest, TruncatedFixtureIsRejected)
{
    const auto report = checkCheckpointFile(fixture("truncated.ckpt"));
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kCheckpointTruncated));
}

/**
 * A bare 24-byte SNSC header claiming a 2^62-byte payload: the declared
 * length is compared with the file size before anything is allocated,
 * so the verdict is exactly one C-TRUNCATED, not a std::bad_alloc
 * abort (tests/fixtures/gen_shard_fixtures.cc regenerates it).
 */
TEST(CheckpointCheckTest, HugeLengthFixtureIsTruncated)
{
    const auto report = checkCheckpointFile(fixture("huge_length.ckpt"));
    ASSERT_EQ(report.size(), 1u) << report.summary();
    EXPECT_EQ(report.count(Severity::Error), 1u);
    EXPECT_TRUE(report.hasRule(rules::kCheckpointTruncated));
}

/** Peak resident set size of this process, in bytes. It is a
 * high-water mark, so a difference shows growth past the earlier peak;
 * ctest runs each test in its own process, which keeps that peak near
 * the current size. */
long
peakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss * 1024L;
}

/** A small file whose container header claims a 256 MiB payload. */
std::string
writeLengthClaim(const char *name, const ContainerFormat &format)
{
    auto header = containerHeader(format, nullptr, 0);
    const uint64_t claim = uint64_t(256) << 20;
    std::memcpy(header.data() + 8, &claim, sizeof(claim));
    const std::string path = tempCkpt(name);
    std::ofstream out(path, std::ios::binary);
    out.write(header.data(), header.size());
    out << "a short payload";
    return path;
}

TEST(CheckpointCheckTest, LengthClaimAllocatesNothing)
{
    const std::string path =
        writeLengthClaim("verify_claim.ckpt", kCheckpointFormat);
    const long before = peakRssBytes();
    const auto report = checkCheckpointFile(path);
    EXPECT_LT(peakRssBytes() - before, 64L << 20);
    EXPECT_TRUE(report.hasRule(rules::kCheckpointTruncated))
        << report.summary();
    std::remove(path.c_str());
}

/**
 * The committed shard fixture is a VALID container (magic, version,
 * length, hash all pass) whose payload announces the sns::dist shard
 * producer and then stops mid-meta — only the C-SHARD-TRUNCATED rule
 * catches it (tests/fixtures/gen_shard_fixtures.cc regenerates it).
 */
TEST(CheckpointCheckTest, TruncatedShardFixtureIsRejected)
{
    const auto report =
        checkCheckpointFile(fixture("shard_truncated.ckpt"));
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kShardTruncated));
    EXPECT_FALSE(report.hasRule(rules::kCheckpointTruncated));
    EXPECT_FALSE(report.hasRule(rules::kCheckpointHash));
}

/**
 * Round trip: the writer and the checker share the container codec
 * (util/container.hh); a checkpoint produced by the real writer must
 * pass the checker, and the writer's own hash must be the one the
 * checker recomputes.
 */
TEST(CheckpointCheckTest, WriterProducedCheckpointPassesChecker)
{
    const std::string path = tempCkpt("verify_writer.ckpt");
    std::ostringstream payload;
    nn::CheckpointWriter writer(payload);
    writer.str("sns-trainer-v1");
    writer.u64(0x1234u);
    writer.f64(3.5);
    nn::commitCheckpoint(path, payload.str());

    const auto report = checkCheckpointFile(path);
    EXPECT_FALSE(report.hasErrors()) << report.summary();
    EXPECT_EQ(report.count(Severity::Warning), 0u);

    // Flipping any payload byte turns it into C-HASH.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(24);
        const int byte = f.get();
        f.seekp(24);
        f.put(static_cast<char>(byte ^ 0x01));
    }
    EXPECT_TRUE(
        checkCheckpointFile(path).hasRule(rules::kCheckpointHash));
    std::remove(path.c_str());
}

// ---- Execution-plan checks (the P-* family; docs/plan.md). ----

TEST(PlanCheckTest, MissingFileIsPOpen)
{
    const auto report = checkPlanFile("/nonexistent/x.snsp");
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(rules::kPlanOpen));
}

TEST(PlanCheckTest, CorruptedFixturesCarryTheirRuleIds)
{
    const struct
    {
        const char *file;
        const char *rule;
    } cases[] = {
        {"plan_bad_magic.snsp", rules::kPlanMagic},
        {"plan_truncated.snsp", rules::kPlanTruncated},
        {"plan_dangling_buffer.snsp", rules::kPlanBuffer},
        {"plan_shape_mismatch.snsp", rules::kPlanShape},
        {"plan_hash_flip.snsp", rules::kPlanHash},
        {"plan_bad_scales.snsp", rules::kPlanQuantScale},
    };
    for (const auto &c : cases) {
        const auto report = checkPlanFile(fixture(c.file));
        EXPECT_TRUE(report.hasErrors()) << c.file;
        EXPECT_TRUE(report.hasRule(c.rule))
            << c.file << ": " << report.summary();
    }
}

TEST(PlanCheckTest, LengthClaimIsTruncatedAndAllocatesNothing)
{
    const std::string path =
        writeLengthClaim("verify_claim.snsp", kPlanFormat);
    const long before = peakRssBytes();
    const auto report = checkPlanFile(path);
    EXPECT_LT(peakRssBytes() - before, 64L << 20);
    EXPECT_TRUE(report.hasRule(rules::kPlanTruncated)) << report.summary();
    std::remove(path.c_str());
}

TEST(PlanCheckTest, ContainerDiagnosticsCarryByteOffsets)
{
    // The C-*/P-* contract: every container-layer finding points at an
    // absolute byte offset and names the field it was decoding.
    for (const char *file : {"plan_bad_magic.snsp", "plan_hash_flip.snsp",
                             "plan_truncated.snsp"}) {
        const auto report = checkPlanFile(fixture(file));
        ASSERT_TRUE(report.hasErrors()) << file;
        bool located = false;
        for (const auto &d : report.diagnostics()) {
            if (d.severity == Severity::Error &&
                d.location.find("@ byte ") != std::string::npos)
                located = true;
        }
        EXPECT_TRUE(located) << file;
    }

    // The checkpoint container checker follows the same contract.
    const auto ckpt = checkCheckpointFile(fixture("truncated.ckpt"));
    ASSERT_TRUE(ckpt.hasErrors());
    bool located = false;
    for (const auto &d : ckpt.diagnostics()) {
        if (d.location.find("@ byte ") != std::string::npos)
            located = true;
    }
    EXPECT_TRUE(located);
}

/** Deterministic config sampler for the property-style plan tests. */
plan::PlanConfig
randomPlanConfig(uint64_t &state)
{
    const auto next = [&state](int lo, int hi) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return lo + static_cast<int>((state >> 33) %
                                     static_cast<uint64_t>(hi - lo + 1));
    };
    plan::PlanConfig config;
    config.heads = next(1, 4);
    config.d_model = config.heads * next(2, 12);
    config.vocab = next(8, 96);
    config.max_positions = next(4, 48);
    config.layers = next(1, 3);
    config.d_ff = next(4, 64);
    config.head_hidden = next(2, 32);
    config.batch_max = next(1, 16);
    return config;
}

TEST(PlanCheckTest, RandomizedCanonicalPlansAlwaysCheckClean)
{
    uint64_t state = 0xc0ffee;
    for (int trial = 0; trial < 24; ++trial) {
        const plan::PlanConfig config = randomPlanConfig(state);
        const plan::Plan traced =
            plan::buildCanonicalPlan(config, 0x1000u + trial);
        Report report = checkPlan(traced);
        EXPECT_FALSE(report.hasErrors())
            << "trial " << trial << ": " << report.summary();
        const PlanLayout layout = computePlanLayout(traced, report);
        EXPECT_FALSE(report.hasErrors())
            << "trial " << trial << ": " << report.summary();
        EXPECT_EQ(layout.offsets.size(), traced.buffers.size());
    }
}

TEST(PlanCheckTest, RandomizedMutationsAreCaughtByTheirPass)
{
    uint64_t state = 0xdecade;
    for (int trial = 0; trial < 24; ++trial) {
        const plan::PlanConfig config = randomPlanConfig(state);
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const auto pick = (state >> 33) % 3;

        plan::Plan bad = plan::buildCanonicalPlan(config, 0x2000u + trial);
        const char *expected = nullptr;
        switch (pick) {
        case 0: // dangling buffer id -> index pass
            bad.ops[bad.ops.size() / 2].inputs[0] =
                static_cast<uint32_t>(bad.buffers.size() + 7);
            expected = rules::kPlanBuffer;
            break;
        case 1: // declared-shape drift -> shape inference
            bad.buffers[2].dims[2].value += 3;
            expected = rules::kPlanShape;
            break;
        default: // epilogue reorder -> determinism pass
            bad.ops.back().epilogue = plan::Epilogue::BiasRelu;
            expected = rules::kPlanOrder;
            break;
        }
        const Report report = checkPlan(bad);
        EXPECT_TRUE(report.hasErrors()) << "trial " << trial;
        EXPECT_TRUE(report.hasRule(expected))
            << "trial " << trial << " mutation " << pick << ": "
            << report.summary();
    }
}

TEST(PlanCheckTest, ZeroFingerprintIsPModel)
{
    uint64_t state = 0xface;
    const plan::Plan traced =
        plan::buildCanonicalPlan(randomPlanConfig(state), 0);
    const Report report = checkPlan(traced);
    EXPECT_TRUE(report.hasRule(rules::kPlanModel));
}

// ---- Quantization side table (the P-QUANT-* family;
// ---- docs/quantization.md). ----

/** The fixed small architecture the .snsp fixtures also use. */
plan::Plan
smallCanonicalPlan()
{
    plan::PlanConfig config;
    config.vocab = 64;
    config.max_positions = 32;
    config.d_model = 16;
    config.heads = 2;
    config.layers = 1;
    config.d_ff = 32;
    config.head_hidden = 8;
    config.batch_max = 4;
    return plan::buildCanonicalPlan(config, 0x515e6edu);
}

/**
 * Hand-build the side table quantizePlan would emit: one entry per
 * non-terminal weighted Gemm, ascending, unit scales. Returns the
 * entry count so tests can assert the plan actually has targets.
 */
size_t
addValidQuantTable(plan::Plan &p)
{
    size_t added = 0;
    for (size_t i = 0; i + 1 < p.ops.size(); ++i) {
        const plan::Op &op = p.ops[i];
        if (op.kind != plan::OpKind::Gemm || op.weights.empty())
            continue;
        plan::QuantizedGemm entry;
        entry.op_index = static_cast<uint32_t>(i);
        entry.x_scale = 0.5f;
        entry.w_scales.assign(
            static_cast<size_t>(p.weights[op.weights[0]].cols), 1.0f);
        p.quant.push_back(std::move(entry));
        ++added;
    }
    return added;
}

TEST(PlanCheckTest, ValidQuantTableChecksClean)
{
    plan::Plan quantized = smallCanonicalPlan();
    ASSERT_GT(addValidQuantTable(quantized), 0u);
    const Report report = checkPlan(quantized);
    EXPECT_FALSE(report.hasErrors()) << report.summary();
}

TEST(PlanCheckTest, QuantOpIndexViolationsArePQuantOp)
{
    // Out of range.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        bad.quant.back().op_index =
            static_cast<uint32_t>(bad.ops.size() + 5);
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantOp));
    }
    // Targeting a non-Gemm op.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        size_t non_gemm = bad.ops.size();
        for (size_t i = 0; i < bad.ops.size(); ++i)
            if (bad.ops[i].kind != plan::OpKind::Gemm) {
                non_gemm = i;
                break;
            }
        ASSERT_LT(non_gemm, bad.ops.size());
        bad.quant.front().op_index = static_cast<uint32_t>(non_gemm);
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantOp));
    }
    // Duplicate entries break the strictly-ascending contract.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 1u);
        bad.quant[1] = bad.quant[0];
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantOp));
    }
}

TEST(PlanCheckTest, QuantBoundaryKeepsTerminalHeadFullPrecision)
{
    plan::Plan bad = smallCanonicalPlan();
    ASSERT_EQ(bad.ops.back().kind, plan::OpKind::Gemm)
        << "canonical plans end on the head projection Gemm";
    plan::QuantizedGemm entry;
    entry.op_index = static_cast<uint32_t>(bad.ops.size() - 1);
    entry.x_scale = 0.5f;
    const plan::Op &last = bad.ops.back();
    ASSERT_FALSE(last.weights.empty());
    entry.w_scales.assign(
        static_cast<size_t>(bad.weights[last.weights[0]].cols), 1.0f);
    bad.quant.push_back(std::move(entry));
    const Report report = checkPlan(bad);
    EXPECT_TRUE(report.hasRule(rules::kPlanQuantBoundary))
        << report.summary();
}

TEST(PlanCheckTest, QuantEpilogueRejectsSoftmaxFusion)
{
    plan::Plan bad = smallCanonicalPlan();
    ASSERT_GT(addValidQuantTable(bad), 0u);
    // Mutate the quantized op's epilogue: the int8 rescale has no
    // fusion into scale+mask+softmax.
    bad.ops[bad.quant.front().op_index].epilogue =
        plan::Epilogue::ScaleMaskSoftmax;
    const Report report = checkPlan(bad);
    EXPECT_TRUE(report.hasRule(rules::kPlanQuantEpilogue))
        << report.summary();
}

TEST(PlanCheckTest, QuantScaleViolationsArePQuantScale)
{
    // Non-positive activation scale.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        bad.quant.front().x_scale = 0.0f;
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantScale));
    }
    // NaN activation scale.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        bad.quant.front().x_scale =
            std::numeric_limits<float>::quiet_NaN();
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantScale));
    }
    // Weight-scale tensor sized to the wrong column count.
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        bad.quant.front().w_scales.pop_back();
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantScale));
    }
    // One zero per-column scale (the committed fixture's corruption).
    {
        plan::Plan bad = smallCanonicalPlan();
        ASSERT_GT(addValidQuantTable(bad), 0u);
        bad.quant.front().w_scales.back() = 0.0f;
        EXPECT_TRUE(checkPlan(bad).hasRule(rules::kPlanQuantScale));
    }
}

TEST(PlanCheckTest, QuantTableRoundTripsThroughTheContainer)
{
    // A v2 container carries the side table bit-exactly; the reread
    // plan still checks clean.
    plan::Plan quantized = smallCanonicalPlan();
    ASSERT_GT(addValidQuantTable(quantized), 0u);
    const auto payload = plan::serializePlanPayload(quantized);
    Report report;
    plan::Plan reread;
    ASSERT_TRUE(plan::parsePlanPayload(payload.data(), payload.size(),
                                       kPlanFormat.max_version, reread,
                                       report, "round trip"))
        << report.summary();
    EXPECT_EQ(reread.quant, quantized.quant);
    EXPECT_FALSE(checkPlan(reread).hasErrors());
}

} // namespace
} // namespace sns::verify
