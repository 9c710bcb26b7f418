/**
 * @file
 * Tests for the execution-plan IR and its runtime: canonical trace
 * structure, .snsp round trips, the compile pipeline's rejection of
 * malformed plans, and the load-bearing guarantee of the whole
 * subsystem — planned execution is bitwise identical to the module
 * walk at every thread count, with and without the path cache, and
 * the SNS_PLAN kill switch restores the walk exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/trainer.hh"
#include "par/thread_pool.hh"
#include "perf/path_cache.hh"
#include "plan/calibrate.hh"
#include "plan/runtime.hh"
#include "plan/snsp.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "tensor/simd.hh"
#include "util/fnv.hh"
#include "verify/plan_check.hh"

namespace sns::core {
namespace {

using designs::DesignLibrary;
using graphir::TokenId;

/** Restore the SNS_PLAN runtime toggle however a test exits. */
struct PlanToggleGuard
{
    bool saved = plan::planEnabled();
    ~PlanToggleGuard() { plan::setPlanEnabled(saved); }
};

plan::PlanConfig
smallPlanConfig()
{
    const CircuitformerConfig cfg = CircuitformerConfig::small();
    plan::PlanConfig pc;
    pc.vocab = cfg.encoder.vocab_size;
    pc.max_positions = cfg.encoder.max_positions;
    pc.d_model = cfg.encoder.d_model;
    pc.heads = cfg.encoder.heads;
    pc.layers = cfg.encoder.layers;
    pc.d_ff = cfg.encoder.d_ff;
    pc.head_hidden = cfg.head_hidden;
    pc.batch_max = 8;
    return pc;
}

/** A normalized small Circuitformer (deterministic init + synthetic
 * statistics; no training needed for bitwise walk-vs-plan checks). */
Circuitformer
normalizedModel(const CircuitformerConfig &config =
                    CircuitformerConfig::small())
{
    Circuitformer model(config);
    std::vector<PathRecord> records;
    for (int i = 0; i < 12; ++i) {
        PathRecord record;
        record.tokens = {1, 2, 3, static_cast<TokenId>(i % 5 + 1)};
        record.timing_ps = 90.0 + 3.3 * i;
        record.area_um2 = 4.0 + 0.7 * i;
        record.power_mw = 0.25 + 0.05 * i;
        records.push_back(record);
    }
    model.fitNormalization(records);
    return model;
}

/** Synthetic token paths with ragged lengths (exercises masking). */
std::vector<std::vector<TokenId>>
testPaths(int vocab)
{
    std::vector<std::vector<TokenId>> paths;
    uint64_t state = 0x5eed;
    for (int p = 0; p < 9; ++p) {
        std::vector<TokenId> path;
        const int len = 2 + (p * 5) % 11;
        for (int t = 0; t < len; ++t) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            path.push_back(static_cast<TokenId>(
                1 + (state >> 33) % static_cast<uint64_t>(vocab - 2)));
        }
        paths.push_back(std::move(path));
    }
    return paths;
}

bool
bitwiseEqual(const std::vector<PathPrediction> &a,
             const std::vector<PathPrediction> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].timing_ps != b[i].timing_ps ||
            a[i].area_um2 != b[i].area_um2 ||
            a[i].power_mw != b[i].power_mw)
            return false;
    }
    return true;
}

/** Remove the SNS_SIMD ladder cap however a test exits. */
struct SimdCapGuard
{
    ~SimdCapGuard() { tensor::setSimdLevelCap(-1); }
};

/** One batch of T = 22: the corner lengths 1, 2, T-1 and T, then the
 * 28 path lengths of one chain design (403 real tokens). */
std::vector<std::vector<TokenId>>
raggedPaths(int vocab)
{
    const std::vector<int> lengths = {
        1,  22, 2,  21, 2,  2,  2,  2,  3,  6,  9,  9,  11, 12, 13, 13,
        14, 15, 15, 16, 20, 21, 21, 21, 22, 22, 22, 22, 22, 22, 22, 22};
    std::vector<std::vector<TokenId>> paths;
    uint64_t state = 0xfeed;
    for (const int len : lengths) {
        std::vector<TokenId> path;
        for (int t = 0; t < len; ++t) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            path.push_back(static_cast<TokenId>(
                1 + (state >> 33) % static_cast<uint64_t>(vocab - 2)));
        }
        paths.push_back(std::move(path));
    }
    return paths;
}

TEST(PlanIrTest, CanonicalPlanHasDocumentedCountsAndChecksClean)
{
    const plan::PlanConfig pc = smallPlanConfig();
    const plan::Plan traced = plan::buildCanonicalPlan(pc, 0xfeedu);
    EXPECT_EQ(traced.ops.size(), plan::canonicalOpCount(pc));
    EXPECT_EQ(traced.weights.size(), plan::canonicalParamCount(pc));
    EXPECT_EQ(traced.buffers.size(), traced.ops.size());

    verify::Report report = verify::checkPlan(traced);
    EXPECT_FALSE(report.hasErrors()) << report.summary();

    const verify::PlanLayout layout =
        verify::computePlanLayout(traced, report);
    EXPECT_FALSE(report.hasErrors()) << report.summary();
    EXPECT_EQ(layout.offsets.size(), traced.buffers.size());
    EXPECT_GT(layout.total_floats, 0u);

    // The liveness pass must state its allocation proof as a note.
    bool proof = false;
    for (const auto &d : report.diagnostics()) {
        if (d.severity == verify::Severity::Note &&
            d.message.find("zero per-batch heap allocations") !=
                std::string::npos)
            proof = true;
    }
    EXPECT_TRUE(proof);
}

TEST(PlanIrTest, ScratchSizingMatchesThePackedGemmContract)
{
    // The analyzer's pack-scratch formula must agree with the real
    // packed-GEMM API: the bmm legs pack [T, dh] and [dh, T] panels.
    const plan::PlanConfig pc = smallPlanConfig();
    const plan::Plan traced = plan::buildCanonicalPlan(pc, 0xfeedu);
    verify::Report report;
    const verify::PlanLayout layout =
        verify::computePlanLayout(traced, report);
    ASSERT_FALSE(report.hasErrors()) << report.summary();

    const int dh = pc.d_model / pc.heads;
    const size_t expected =
        std::max(tensor::gemmPackedFloats(pc.max_positions, dh),
                 tensor::gemmPackedFloats(dh, pc.max_positions));
    EXPECT_EQ(layout.scratch_floats, expected);
    EXPECT_EQ(layout.total_floats,
              layout.scratch_offset + layout.scratch_floats);
}

TEST(PlanIrTest, SnspRoundTripPreservesThePlanExactly)
{
    const plan::Plan traced =
        plan::buildCanonicalPlan(smallPlanConfig(), 0xabcdefu);
    const auto path =
        (std::filesystem::temp_directory_path() / "roundtrip.snsp")
            .string();
    plan::writePlanFile(traced, path);

    plan::Plan restored;
    verify::Report report;
    ASSERT_TRUE(plan::readPlanFile(path, restored, report))
        << report.summary();
    EXPECT_TRUE(report.empty()) << report.summary();
    EXPECT_EQ(traced, restored);

    verify::Report file_report = verify::checkPlanFile(path);
    EXPECT_FALSE(file_report.hasErrors()) << file_report.summary();
    std::remove(path.c_str());
}

TEST(PlanCompileTest, RejectsStructurallyReorderedPlans)
{
    Circuitformer model = normalizedModel();
    plan::Plan traced = model.tracePlan(8);

    // Swapping two mid-plan ops breaks both SSA order and the
    // canonical-walk equality; compilePlan must refuse to produce a
    // runnable artifact.
    std::swap(traced.ops[5], traced.ops[6]);
    EXPECT_THROW(plan::compilePlan(traced, model.parameters()),
                 verify::VerifyError);
}

TEST(PlanCompileTest, RejectsForeignEpilogues)
{
    Circuitformer model = normalizedModel();
    plan::Plan traced = model.tracePlan(8);
    for (auto &op : traced.ops) {
        if (op.kind == plan::OpKind::MeanPool)
            op.epilogue = plan::Epilogue::BiasGelu;
    }
    EXPECT_THROW(plan::compilePlan(traced, model.parameters()),
                 verify::VerifyError);
}

TEST(PlanRuntimeTest, PlannedPredictionsMatchTheWalkBitwise)
{
    PlanToggleGuard guard;
    Circuitformer model = normalizedModel();
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));
    ASSERT_TRUE(model.planActive());

    const auto paths = testPaths(model.config().encoder.vocab_size);
    plan::setPlanEnabled(false);
    const auto walk = model.predict(paths);
    plan::setPlanEnabled(true);
    const auto planned = model.predict(paths);
    ASSERT_EQ(walk.size(), paths.size());
    for (size_t i = 0; i < walk.size(); ++i) {
        EXPECT_EQ(walk[i].timing_ps, planned[i].timing_ps) << "path " << i;
        EXPECT_EQ(walk[i].area_um2, planned[i].area_um2) << "path " << i;
        EXPECT_EQ(walk[i].power_mw, planned[i].power_mw) << "path " << i;
    }
}

TEST(PlanRuntimeTest, BiasGeluTailsMatchTheWalkOnEveryRung)
{
    PlanToggleGuard guard;
    tensor::setSimdLevelCap(-1);
    const int ceiling = tensor::simdLevel();
    // An FFN width of 37 and odd path lengths (batch 1, so m = length)
    // make the FFN's BiasGelu Gemm m * n miss a multiple of 8: the
    // shared GELU ends on a partial vector of tanh lanes.
    CircuitformerConfig config = CircuitformerConfig::small();
    config.encoder.d_ff = 37;
    Circuitformer model = normalizedModel(config);
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));
    ASSERT_TRUE(model.planActive());

    const std::vector<std::vector<TokenId>> paths = {
        {1, 2, 3}, {4, 5, 6, 7, 8}, {2, 9, 3, 1, 4, 6, 5}};
    for (const auto &path : paths) {
        std::vector<PathPrediction> scalar_rung;
        for (int level = 0; level <= ceiling; ++level) {
            tensor::setSimdLevelCap(level);
            plan::setPlanEnabled(false);
            const auto walk = model.predict({path});
            plan::setPlanEnabled(true);
            const auto planned = model.predict({path});
            EXPECT_TRUE(bitwiseEqual(walk, planned))
                << "level " << level << " length " << path.size();
            if (level == 0)
                scalar_rung = planned;
            EXPECT_TRUE(bitwiseEqual(scalar_rung, planned))
                << "level " << level << " differs from the scalar rung "
                << "at length " << path.size();
        }
    }
    tensor::setSimdLevelCap(-1);
}

TEST(PlanRuntimeTest, BitwiseIdenticalAcrossThreadCounts)
{
    PlanToggleGuard guard;
    plan::setPlanEnabled(true);
    Circuitformer model = normalizedModel();
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));

    const auto paths = testPaths(model.config().encoder.vocab_size);
    par::setThreads(1);
    const auto serial = model.predict(paths);
    for (int threads : {2, 4}) {
        par::setThreads(threads);
        const auto multi = model.predict(paths);
        EXPECT_TRUE(bitwiseEqual(serial, multi)) << threads << " threads";
    }
    par::setThreads(1);
}

TEST(PlanRuntimeTest, OversizedBatchesFallBackToTheWalk)
{
    PlanToggleGuard guard;
    plan::setPlanEnabled(true);
    Circuitformer model = normalizedModel();
    // batch_max = 2 forces every batch_size=64 prediction group larger
    // than two paths through the fallback; results must not change.
    model.bindPlan(
        plan::compilePlan(model.tracePlan(2), model.parameters()));

    const auto paths = testPaths(model.config().encoder.vocab_size);
    const auto planned = model.predict(paths);
    plan::setPlanEnabled(false);
    const auto walk = model.predict(paths);
    EXPECT_TRUE(bitwiseEqual(walk, planned));
}

TEST(PlanRuntimeTest, UnbindingRestoresTheWalk)
{
    PlanToggleGuard guard;
    plan::setPlanEnabled(true);
    Circuitformer model = normalizedModel();
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));
    EXPECT_TRUE(model.planActive());
    model.bindPlan(nullptr);
    EXPECT_FALSE(model.planActive());
}

TEST(PlanRuntimeTest, RejectsLengthsOutsideTheBatch)
{
    Circuitformer model = normalizedModel();
    const auto compiled =
        plan::compilePlan(model.tracePlan(8), model.parameters());
    const int time = 4;
    const std::vector<int> ids(2 * time, 1);
    EXPECT_THROW(compiled->run(ids, {2, -1}, 2, time), std::logic_error);
    EXPECT_THROW(compiled->run(ids, {time + 1, 2}, 2, time),
                 std::logic_error);
    EXPECT_NO_THROW(compiled->run(ids, {0, time}, 2, time));
}

TEST(PlanRuntimeTest, EmptyPathsMatchTheWalk)
{
    // An empty path spans the batch's padded width in both the plan
    // and the ragged walk, so its prediction depends on that width but
    // must be the same bits through either. The last batch holds only
    // empty paths (width 1).
    PlanToggleGuard guard;
    Circuitformer model = normalizedModel();
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));
    auto paths = testPaths(model.config().encoder.vocab_size);
    paths[0].clear();
    paths[4].clear();
    paths[8].clear();
    const std::vector<std::vector<std::vector<TokenId>>> batches = {
        paths, {paths[3], paths[4]}, {paths[4], paths[3], paths[8]},
        {paths[0], paths[4]}};
    for (size_t b = 0; b < batches.size(); ++b) {
        plan::setPlanEnabled(false);
        const auto walk = model.predict(batches[b], 8);
        plan::setPlanEnabled(true);
        EXPECT_TRUE(bitwiseEqual(model.predict(batches[b], 8), walk))
            << "batch " << b;
    }
    // The width matters: an empty path alone is not the same row as
    // one padded to a long neighbour.
    EXPECT_FALSE(bitwiseEqual(model.predict({paths[4]}, 8),
                              {model.predict(batches[1], 8)[1]}));
}

TEST(PlanPredictorTest, EndToEndPlannedServingIsBitwiseAndReloadable)
{
    PlanToggleGuard guard;
    const auto &dataset = HardwareDesignDataset::build(
        DesignLibrary::smokeSet(), [] {
            synth::SynthesisOptions opts;
            opts.effort = 0.1;
            return synth::Synthesizer(opts);
        }());
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, [] {
        synth::SynthesisOptions opts;
        opts.effort = 0.1;
        return synth::Synthesizer(opts);
    }());
    ASSERT_TRUE(predictor.circuitformer().boundPlan() != nullptr);

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    // predictBatch: plan on vs off, cache on vs off — all bitwise.
    plan::setPlanEnabled(true);
    const auto planned = predictor.predictBatch(graphs);
    plan::setPlanEnabled(false);
    const auto walk = predictor.predictBatch(graphs);
    ASSERT_EQ(planned.size(), walk.size());
    for (size_t i = 0; i < walk.size(); ++i) {
        EXPECT_EQ(walk[i].timing_ps, planned[i].timing_ps) << i;
        EXPECT_EQ(walk[i].area_um2, planned[i].area_um2) << i;
        EXPECT_EQ(walk[i].power_mw, planned[i].power_mw) << i;
        EXPECT_EQ(walk[i].critical_path, planned[i].critical_path) << i;
    }
    plan::setPlanEnabled(true);
    perf::PathPredictionCache cache;
    PredictOptions with_cache;
    with_cache.cache = &cache;
    const auto cached = predictor.predictBatch(graphs, with_cache);
    const auto warm = predictor.predictBatch(graphs, with_cache);
    for (size_t i = 0; i < walk.size(); ++i) {
        EXPECT_EQ(walk[i].area_um2, cached[i].area_um2) << i;
        EXPECT_EQ(walk[i].area_um2, warm[i].area_um2) << i;
    }

    // Save/load: the shipped plan.snsp must verify and re-bind; a
    // corrupted one must fail the load loudly; a deleted one falls
    // back to the constructor's in-memory trace.
    const auto dir =
        (std::filesystem::temp_directory_path() / "sns_plan_model")
            .string();
    predictor.save(dir);
    ASSERT_TRUE(std::filesystem::exists(dir + "/plan.snsp"));
    {
        const auto restored = SnsPredictor::load(dir);
        ASSERT_TRUE(restored.circuitformer().boundPlan() != nullptr);
        const auto replanned = restored.predictBatch(graphs);
        plan::setPlanEnabled(false);
        const auto rewalk = restored.predictBatch(graphs);
        plan::setPlanEnabled(true);
        for (size_t i = 0; i < replanned.size(); ++i) {
            EXPECT_EQ(rewalk[i].timing_ps, replanned[i].timing_ps) << i;
            EXPECT_EQ(rewalk[i].area_um2, replanned[i].area_um2) << i;
            EXPECT_EQ(rewalk[i].power_mw, replanned[i].power_mw) << i;
        }
    }
    {
        // Flip one payload byte: the P-HASH container check at load
        // must reject the model directory outright.
        std::fstream f(dir + "/plan.snsp",
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<long>(f.tellg());
        f.seekp(size - 3);
        char byte = 0;
        f.seekg(size - 3);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(size - 3);
        f.write(&byte, 1);
        f.close();
        EXPECT_THROW(SnsPredictor::load(dir), verify::VerifyError);
    }
    {
        std::filesystem::remove(dir + "/plan.snsp");
        const auto restored = SnsPredictor::load(dir);
        EXPECT_TRUE(restored.circuitformer().boundPlan() != nullptr);
    }
    std::filesystem::remove_all(dir);
}

// ---- Quantization: calibrate -> rewrite -> int8 execution
// ---- (docs/quantization.md). ----

/** Calibrate a model's compiled fp64 plan on the synthetic paths and
 * return the rewritten mixed-precision plan. */
plan::Plan
calibratedQuantPlan(Circuitformer &model, int batch_max = 8)
{
    model.bindPlan(
        plan::compilePlan(model.tracePlan(batch_max), model.parameters()));
    plan::Calibrator calibrator;
    model.boundPlan()->setCalibrationObserver(&calibrator);
    // batch_size 8 keeps every batch inside the plan's batch_max, so
    // the whole shard runs through the observed plan.
    model.predict(testPaths(model.config().encoder.vocab_size), 8);
    model.boundPlan()->setCalibrationObserver(nullptr);
    EXPECT_GT(calibrator.observed(), 0u);
    return plan::quantizePlan(model.boundPlan()->plan(), calibrator,
                              model.parameters());
}

TEST(PlanRuntimeTest, RaggedRowsMatchTheWalkAndRunAlone)
{
    // Each row of a mixed-length batch runs over its own length. Its
    // output must equal the same row through the reference (the ragged
    // walk for fp64; for int8, which has no walk, the plan with a
    // calibration observer attached, which keeps padded spans) and the
    // same path run alone, at every rung and pool width.
    PlanToggleGuard plan_guard;
    SimdCapGuard simd_guard;
    plan::setPlanEnabled(true);
    Circuitformer model = normalizedModel();
    model.bindQuantPlan(plan::compilePlan(calibratedQuantPlan(model, 32),
                                          model.parameters()));
    const int vocab = model.config().encoder.vocab_size;
    const auto paths = raggedPaths(vocab);
    ASSERT_EQ(paths.size(), 32u);
    // The one row whose output depends on the padded length.
    auto with_empty = paths;
    with_empty[7].clear();

    tensor::setSimdLevelCap(-1);
    const int ceiling = tensor::simdLevel();
    plan::Calibrator observer;
    for (const int threads : {1, 4}) {
        par::setThreads(threads);
        for (int level = 0; level <= ceiling; ++level) {
            tensor::setSimdLevelCap(level);
            for (const Precision precision :
                 {Precision::Fp64, Precision::Int8}) {
                const bool int8 = precision == Precision::Int8;
                const plan::CompiledPlan &compiled =
                    int8 ? *model.boundQuantPlan() : *model.boundPlan();
                const auto reference = [&](const auto &batch) {
                    if (!int8) {
                        plan::setPlanEnabled(false);
                        const auto walk = model.predict(batch, 32);
                        plan::setPlanEnabled(true);
                        return walk;
                    }
                    compiled.setCalibrationObserver(&observer);
                    const auto full = model.predict(batch, 32, precision);
                    compiled.setCalibrationObserver(nullptr);
                    return full;
                };
                const std::string where =
                    std::string(int8 ? "int8" : "fp64") + " level " +
                    std::to_string(level) + " threads " +
                    std::to_string(threads);

                const auto ragged = model.predict(paths, 32, precision);
                EXPECT_TRUE(bitwiseEqual(ragged, reference(paths))) << where;
                for (size_t i = 0; i < paths.size(); ++i) {
                    const auto alone =
                        model.predict({paths[i]}, 1, precision);
                    EXPECT_TRUE(bitwiseEqual({ragged[i]}, alone))
                        << where << " path " << i << " length "
                        << paths[i].size();
                }
                EXPECT_TRUE(bitwiseEqual(
                    model.predict(with_empty, 32, precision),
                    reference(with_empty)))
                    << where << " with a zero-length row";
            }
        }
    }
    par::setThreads(1);
}

TEST(PlanQuantTest, QuantizePlanEmitsACheckedSideTable)
{
    Circuitformer model = normalizedModel();
    const plan::Plan quantized = calibratedQuantPlan(model);

    // Structurally untouched; side table populated, ascending, and
    // excluding the terminal head projection.
    EXPECT_EQ(quantized.ops, model.boundPlan()->plan().ops);
    ASSERT_FALSE(quantized.quant.empty());
    int64_t prev = -1;
    for (const auto &entry : quantized.quant) {
        EXPECT_GT(static_cast<int64_t>(entry.op_index), prev);
        prev = entry.op_index;
        EXPECT_LT(entry.op_index, quantized.ops.size() - 1);
        EXPECT_EQ(quantized.ops[entry.op_index].kind,
                  plan::OpKind::Gemm);
        EXPECT_GT(entry.x_scale, 0.0f);
        for (const float scale : entry.w_scales)
            EXPECT_GT(scale, 0.0f);
    }
    const verify::Report report = verify::checkPlan(quantized);
    EXPECT_FALSE(report.hasErrors()) << report.summary();
}

TEST(PlanQuantTest, CalibrationScalesArePinned)
{
    // Golden activation scales of the test model's quantized plan,
    // recorded before the runtime skipped padded positions. Calibration
    // must keep observing padded spans (docs/quantization.md), so these
    // bits may never move. Builds that target an FMA-capable ISA let
    // GCC contract LayerNorm and softmax, so they carry their own pin.
#ifdef __FMA__
    const std::vector<uint32_t> kXScaleBits = {
        0x3d5be0c1u, 0x3d5be0c1u, 0x3d5be0c1u, 0x3d1cca3cu, 0x3d56f19au,
        0x3d4c988au, 0x3d6a74dcu, 0x3d6a74dcu, 0x3d6a74dcu, 0x3cef62eeu,
        0x3d5e5bedu, 0x3d54135cu, 0x3d05a065u};
#else
    const std::vector<uint32_t> kXScaleBits = {
        0x3d5be0c1u, 0x3d5be0c1u, 0x3d5be0c1u, 0x3d1cca3cu, 0x3d56f19au,
        0x3d4c988au, 0x3d6a74dcu, 0x3d6a74dcu, 0x3d6a74dcu, 0x3cef62f0u,
        0x3d5e5bedu, 0x3d54135cu, 0x3d05a065u};
#endif
    Circuitformer model = normalizedModel();
    const plan::Plan quantized = calibratedQuantPlan(model);
    std::vector<uint32_t> bits;
    for (const auto &entry : quantized.quant) {
        uint32_t word = 0;
        std::memcpy(&word, &entry.x_scale, sizeof(word));
        bits.push_back(word);
    }
    EXPECT_EQ(bits, kXScaleBits);
}

TEST(PlanQuantTest, QuantizedSnspRoundTripAndV1Compat)
{
    Circuitformer model = normalizedModel();
    const plan::Plan quantized = calibratedQuantPlan(model);
    const auto path =
        (std::filesystem::temp_directory_path() / "quant_roundtrip.snsp")
            .string();
    plan::writePlanFile(quantized, path);
    plan::Plan restored;
    verify::Report report;
    ASSERT_TRUE(plan::readPlanFile(path, restored, report))
        << report.summary();
    EXPECT_EQ(quantized, restored);
    std::remove(path.c_str());

    // A version-1 container is the same payload minus the quant
    // section; it must still read, into an empty side table.
    const plan::Plan &fp64_plan = model.boundPlan()->plan();
    auto payload = plan::serializePlanPayload(fp64_plan);
    payload.resize(payload.size() - 4); // drop the trailing nquant=0
    std::vector<unsigned char> bytes;
    bytes.insert(bytes.end(), {'S', 'N', 'S', 'P'});
    const uint32_t version = 1;
    const uint64_t length = payload.size();
    const uint64_t hash = fnv1a(payload.data(), payload.size());
    const auto *v = reinterpret_cast<const unsigned char *>(&version);
    bytes.insert(bytes.end(), v, v + sizeof(version));
    const auto *l = reinterpret_cast<const unsigned char *>(&length);
    bytes.insert(bytes.end(), l, l + sizeof(length));
    const auto *h = reinterpret_cast<const unsigned char *>(&hash);
    bytes.insert(bytes.end(), h, h + sizeof(hash));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    plan::Plan v1_restored;
    verify::Report v1_report;
    ASSERT_TRUE(plan::readPlanFile(path, v1_restored, v1_report))
        << v1_report.summary();
    EXPECT_TRUE(v1_restored.quant.empty());
    EXPECT_EQ(v1_restored, fp64_plan);
    std::remove(path.c_str());
}

TEST(PlanQuantTest, Int8ExecutionIsBitwiseAcrossLevelsAndThreads)
{
    PlanToggleGuard guard;
    Circuitformer model = normalizedModel();
    const plan::Plan quantized = calibratedQuantPlan(model);
    model.bindQuantPlan(
        plan::compilePlan(quantized, model.parameters()));
    const auto paths = testPaths(model.config().encoder.vocab_size);

    // The fp64 tier is untouched by the quantized binding.
    const auto fp64 = model.predict(paths, 8);

    tensor::setQgemmLevelCap(0);
    const auto scalar = model.predict(paths, 8, Precision::Int8);
    ASSERT_EQ(scalar.size(), paths.size());
    for (int cap = 1; cap <= tensor::simdMaxLevel(); ++cap) {
        tensor::setQgemmLevelCap(cap);
        const auto leveled = model.predict(paths, 8, Precision::Int8);
        EXPECT_TRUE(bitwiseEqual(scalar, leveled)) << "level " << cap;
    }
    tensor::setQgemmLevelCap(-1);

    for (const int threads : {2, 4}) {
        par::setThreads(threads);
        const auto threaded = model.predict(paths, 8, Precision::Int8);
        EXPECT_TRUE(bitwiseEqual(scalar, threaded))
            << threads << " threads";
    }
    par::setThreads(1);

    // int8 is a different numeric tier — it must *not* silently equal
    // fp64 (that would mean the quantized kernels never ran), but it
    // must stay close.
    EXPECT_FALSE(bitwiseEqual(scalar, fp64));
    for (size_t i = 0; i < paths.size(); ++i) {
        EXPECT_NEAR(scalar[i].timing_ps, fp64[i].timing_ps,
                    std::abs(fp64[i].timing_ps) * 0.1 + 1.0)
            << "path " << i;
    }
}

} // namespace
} // namespace sns::core
