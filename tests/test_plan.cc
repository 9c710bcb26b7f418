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
normalizedModel()
{
    Circuitformer model(CircuitformerConfig::small());
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
calibratedQuantPlan(Circuitformer &model)
{
    model.bindPlan(
        plan::compilePlan(model.tracePlan(8), model.parameters()));
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
    for (int cap = 1; cap <= tensor::qgemmMaxLevel(); ++cap) {
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
