/**
 * @file
 * Tests for the SNS core: dataset assembly and split fairness,
 * Circuitformer training/inference, aggregation reductions and MLPs,
 * the end-to-end predictor, and the trainer flow.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "boom/boom.hh"
#include "core/evaluation.hh"
#include "core/trainer.hh"
#include "dist/exchange.hh"
#include "dist/shard.hh"
#include "nn/serialize.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "perf/path_cache.hh"
#include "plan/runtime.hh"
#include "tensor/simd.hh"
#include "util/stats.hh"
#include "verify/analyzer.hh"

namespace sns::core {
namespace {

using designs::DesignLibrary;
using graphir::TokenId;
using graphir::Vocabulary;

synth::Synthesizer
oracle()
{
    synth::SynthesisOptions opts;
    opts.effort = 0.1; // keep tests fast; same code paths
    return synth::Synthesizer(opts);
}

/** A cached small design dataset shared by the heavier tests. */
const HardwareDesignDataset &
smokeDataset()
{
    static const HardwareDesignDataset dataset =
        HardwareDesignDataset::build(DesignLibrary::smokeSet(), oracle());
    return dataset;
}

TokenId
tok(const char *name)
{
    return *Vocabulary::instance().parse(name);
}

TEST(HardwareDesignDatasetTest, BuildsRecordsWithTruth)
{
    const auto &dataset = smokeDataset();
    EXPECT_EQ(dataset.size(), 10u);
    for (const auto &record : dataset.records()) {
        EXPECT_GT(record.truth.area_um2, 0.0) << record.name;
        EXPECT_GT(record.truth.timing_ps, 0.0) << record.name;
        EXPECT_GT(record.truth.power_mw, 0.0) << record.name;
        EXPECT_GT(record.graph.numNodes(), 0u);
    }
}

TEST(HardwareDesignDatasetTest, SplitKeepsBasesTogether)
{
    const auto full = HardwareDesignDataset::build(
        DesignLibrary::paperDataset(), oracle());
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto [train, test] = full.splitByBase(0.5, seed);
        EXPECT_EQ(train.size() + test.size(), full.size());

        std::map<std::string, int> side;
        for (size_t idx : train)
            side[full.records()[idx].base] |= 1;
        for (size_t idx : test)
            side[full.records()[idx].base] |= 2;
        for (const auto &[base, mask] : side)
            EXPECT_NE(mask, 3) << "base " << base << " straddles split";

        // Roughly half the designs on each side.
        EXPECT_GT(train.size(), full.size() / 4);
        EXPECT_GT(test.size(), full.size() / 4);
    }
}

TEST(HardwareDesignDatasetTest, SplitIsDeterministicPerSeed)
{
    const auto &dataset = smokeDataset();
    const auto a = dataset.splitByBase(0.5, 42);
    const auto b = dataset.splitByBase(0.5, 42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(CircuitPathDatasetTest, BuildCollectsAllOrigins)
{
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    PathDatasetOptions options;
    options.max_paths_per_design = 16;
    options.markov_paths = 20;
    options.seqgan_paths = 10;
    options.sampler.max_paths_per_source = 4;
    const auto paths = buildCircuitPathDataset(dataset, train_idx,
                                               oracle(), options, true);
    EXPECT_GT(paths.countByOrigin(PathOrigin::Sampled), 10u);
    EXPECT_GT(paths.countByOrigin(PathOrigin::Markov), 0u);
    EXPECT_EQ(paths.size(), paths.origins().size());
    for (const auto &record : paths.records()) {
        EXPECT_GE(record.tokens.size(), 2u);
        EXPECT_GT(record.timing_ps, 0.0);
        EXPECT_GT(record.area_um2, 0.0);
        EXPECT_GT(record.power_mw, 0.0);
    }
}

TEST(CircuitPathDatasetTest, PathLabelsMatchOracle)
{
    const auto &dataset = smokeDataset();
    PathDatasetOptions options;
    options.max_paths_per_design = 8;
    options.markov_paths = 0;
    options.seqgan_paths = 0;
    const auto paths = buildCircuitPathDataset(dataset, {0}, oracle(),
                                               options, true);
    ASSERT_FALSE(paths.records().empty());
    const auto &record = paths.records().front();
    const auto check = oracle().runPath(record.tokens);
    EXPECT_DOUBLE_EQ(record.timing_ps, check.timing_ps);
    EXPECT_DOUBLE_EQ(record.area_um2, check.area_um2);
}

std::vector<PathRecord>
syntheticPathRecords(int count, uint64_t seed)
{
    // Labels follow a simple structural law so a small model can learn
    // them: more tokens -> more area/power, wider -> slower.
    Rng rng(seed);
    const synth::Synthesizer synth = oracle();
    std::vector<PathRecord> records;
    const std::vector<TokenId> pool = {
        tok("add16"), tok("mul16"), tok("xor16"), tok("mux16"),
        tok("sh16"),  tok("add32"), tok("mul32"),
    };
    for (int i = 0; i < count; ++i) {
        std::vector<TokenId> tokens;
        tokens.push_back(tok("dff16"));
        const int middle = 1 + static_cast<int>(rng.uniformInt(5ull));
        for (int j = 0; j < middle; ++j)
            tokens.push_back(rng.choice(pool));
        tokens.push_back(tok("dff16"));
        const auto truth = synth.runPath(tokens);
        PathRecord record;
        record.tokens = std::move(tokens);
        record.timing_ps = truth.timing_ps;
        record.area_um2 = truth.area_um2;
        record.power_mw = truth.power_mw;
        records.push_back(std::move(record));
    }
    return records;
}

TEST(CircuitformerTest, TrainingReducesLoss)
{
    const auto records = syntheticPathRecords(96, 5);
    Circuitformer model(CircuitformerConfig::small());
    model.fitNormalization(records);
    nn::Adam opt(model.parameters(), 1e-3);
    dist::LocalExchange exchange(1);
    Rng rng(7);
    const double first = model.trainEpoch(records, opt, rng, 32, exchange);
    double last = first;
    for (int epoch = 0; epoch < 30; ++epoch)
        last = model.trainEpoch(records, opt, rng, 32, exchange);
    EXPECT_LT(last, first * 0.5);
}

TEST(CircuitformerTest, PredictsOrderingEffect)
{
    // After training, [dff, mul, add, dff] must predict faster timing
    // than [dff, add, mul, dff] (the §3.3 MAC-fusion ordering effect).
    const synth::Synthesizer synth = oracle();
    std::vector<PathRecord> records;
    Rng rng(11);
    const std::vector<TokenId> pool = {tok("add16"), tok("mul16"),
                                       tok("xor16"), tok("mux16")};
    for (int i = 0; i < 160; ++i) {
        std::vector<TokenId> tokens;
        tokens.push_back(tok("dff16"));
        const int middle = 2 + static_cast<int>(rng.uniformInt(3ull));
        for (int j = 0; j < middle; ++j)
            tokens.push_back(rng.choice(pool));
        tokens.push_back(tok("dff16"));
        const auto truth = synth.runPath(tokens);
        records.push_back({tokens, truth.timing_ps, truth.area_um2,
                           truth.power_mw});
    }

    Circuitformer model(CircuitformerConfig::small());
    model.fitNormalization(records);
    nn::Adam opt(model.parameters(), 1e-3);
    dist::LocalExchange exchange(1);
    Rng train_rng(13);
    for (int epoch = 0; epoch < 60; ++epoch)
        model.trainEpoch(records, opt, train_rng, 32, exchange);

    const std::vector<TokenId> mac = {tok("dff16"), tok("mul16"),
                                      tok("add16"), tok("dff16")};
    const std::vector<TokenId> swapped = {tok("dff16"), tok("add16"),
                                          tok("mul16"), tok("dff16")};
    const auto preds = model.predict({mac, swapped});
    EXPECT_LT(preds[0].timing_ps, preds[1].timing_ps)
        << "model failed to learn the ordering effect";
}

TEST(CircuitformerTest, SaveLoadRoundTrip)
{
    const auto records = syntheticPathRecords(16, 23);
    Circuitformer model(CircuitformerConfig::small());
    model.fitNormalization(records);
    const auto before = model.predict({records[0].tokens});

    const std::string path =
        (std::filesystem::temp_directory_path() / "cf.bin").string();
    model.save(path);

    Circuitformer restored(CircuitformerConfig::small());
    restored.load(path);
    // Normalization statistics round-trip through float32, so allow a
    // relative tolerance.
    const auto after = restored.predict({records[0].tokens});
    EXPECT_NEAR(before[0].timing_ps, after[0].timing_ps,
                1e-4 * before[0].timing_ps);
    EXPECT_NEAR(before[0].area_um2, after[0].area_um2,
                1e-4 * before[0].area_um2);
    std::remove(path.c_str());
}

TEST(CircuitformerTest, PredictBeforeNormalizationPanics)
{
    Circuitformer model(CircuitformerConfig::small());
    EXPECT_THROW(model.predict({{tok("dff16"), tok("io16")}}),
                 std::logic_error);
}

TEST(AggregationTest, ReductionsFollowSection34)
{
    const auto &graph = smokeDataset().records()[0].graph;
    std::vector<PathPrediction> preds = {
        {100.0, 5.0, 0.5}, {300.0, 7.0, 0.25}, {200.0, 1.0, 1.0}};
    const auto summary = reduceAggregates(graph, preds);
    EXPECT_DOUBLE_EQ(summary.max_timing_ps, 300.0); // max
    EXPECT_DOUBLE_EQ(summary.sum_area_um2, 13.0);   // sum
    EXPECT_DOUBLE_EQ(summary.sum_power_mw, 1.75);   // sum
    EXPECT_EQ(summary.num_paths, 3u);
    EXPECT_EQ(summary.token_counts.size(),
              size_t(Vocabulary::instance().circuitSize()));
}

TEST(AggregationTest, ActivityCoefficientsScalePower)
{
    const auto &graph = smokeDataset().records()[0].graph;
    std::vector<PathPrediction> preds = {{100.0, 5.0, 1.0},
                                         {100.0, 5.0, 1.0}};
    const auto gated = reduceAggregates(graph, preds, {}, {0.5, 0.1});
    EXPECT_DOUBLE_EQ(gated.sum_power_mw, 0.6);
    // Timing and area are unaffected by clock gating (§3.4.4).
    EXPECT_DOUBLE_EQ(gated.max_timing_ps, 100.0);
    EXPECT_DOUBLE_EQ(gated.sum_area_um2, 10.0);
}

TEST(AggregationTest, MlpLearnsMonotoneMapping)
{
    // Truth = 3x the aggregate: the MLP must recover it approximately.
    const auto &graph = smokeDataset().records()[0].graph;
    std::vector<AggregateSummary> summaries;
    std::vector<double> truths;
    Rng rng(31);
    for (int i = 0; i < 24; ++i) {
        std::vector<PathPrediction> preds;
        const int paths = 2 + static_cast<int>(rng.uniformInt(6ull));
        for (int p = 0; p < paths; ++p)
            preds.push_back({0.0, rng.uniform(1.0, 50.0), 0.0});
        auto summary = reduceAggregates(graph, preds);
        truths.push_back(3.0 * summary.sum_area_um2);
        summaries.push_back(std::move(summary));
    }
    AggregationMlp mlp(Target::Area, 7);
    MlpTrainConfig config;
    config.epochs = 3000;
    mlp.fit(summaries, truths, config);

    std::vector<double> preds;
    std::vector<double> actual;
    for (size_t i = 0; i < summaries.size(); ++i) {
        preds.push_back(mlp.predict(summaries[i]));
        actual.push_back(truths[i]);
    }
    EXPECT_LT(sns::rrse(preds, actual), 0.5);
}

TEST(AggregationTest, PredictBeforeFitPanics)
{
    AggregationMlp mlp(Target::Power, 3);
    AggregateSummary summary;
    summary.token_counts.assign(
        Vocabulary::instance().circuitSize(), 0.0);
    EXPECT_THROW(mlp.predict(summary), std::logic_error);
}

/** Remove the SNS_SIMD ladder cap however a test exits. */
struct SimdCapGuard
{
    ~SimdCapGuard() { tensor::setSimdLevelCap(-1); }
};

TEST(AggregationTest, PredictIsRungInvariantAndStateless)
{
    // AggregationMlp::predict runs nn::Mlp::forwardRow (pinned bitwise
    // to the autograd forward by MlpTest.RowForwardEqualsForwardBitwise)
    // on per-thread buffers. Interleaving the three heads, repeating a
    // design, or predicting on a fresh thread must not change a bit,
    // and neither may any SIMD rung.
    std::vector<AggregateSummary> summaries;
    std::vector<double> timing;
    std::vector<double> area;
    std::vector<double> power;
    Rng rng(43);
    for (const auto &record : smokeDataset().records()) {
        std::vector<PathPrediction> preds;
        std::vector<size_t> lengths;
        for (int p = 0; p < 5; ++p) {
            preds.push_back({rng.uniform(50, 500), rng.uniform(1, 50),
                             rng.uniform(0.01, 1.0)});
            lengths.push_back(3 + p);
        }
        auto summary = reduceAggregates(record.graph, preds, lengths);
        timing.push_back(1.5 * summary.max_timing_ps);
        area.push_back(2.0 * summary.sum_area_um2);
        power.push_back(0.5 * summary.sum_power_mw);
        summaries.push_back(std::move(summary));
    }
    AggregationHeads heads = AggregationHeads::make(1, 2, 3);
    MlpTrainConfig config;
    config.epochs = 100;
    heads.fit(summaries, timing, area, power, config);

    const AggregationMlp *mlps[3] = {heads.timing.get(), heads.area.get(),
                                     heads.power.get()};
    const auto predictAll = [&] {
        std::vector<double> values;
        for (const auto &summary : summaries) {
            for (const AggregationMlp *mlp : mlps)
                values.push_back(mlp->predict(summary));
        }
        return values;
    };
    SimdCapGuard guard;
    tensor::setSimdLevelCap(0);
    const auto reference = predictAll();
    for (const double value : reference)
        EXPECT_TRUE(std::isfinite(value) && value > 0.0);

    tensor::setSimdLevelCap(-1);
    const int ceiling = tensor::simdLevel();
    for (int level = 0; level <= ceiling; ++level) {
        tensor::setSimdLevelCap(level);
        EXPECT_EQ(predictAll(), reference) << "rung " << level;
    }
    tensor::setSimdLevelCap(-1);
    std::vector<double> on_thread;
    std::thread([&] { on_thread = predictAll(); }).join();
    EXPECT_EQ(on_thread, reference);
}

TEST(TrainerTest, EndToEndTrainingAndPrediction)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);

    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    // Loss curve recorded for Fig. 5 and generally decreasing.
    const auto &curve = trainer.lossCurve();
    ASSERT_FALSE(curve.empty());
    EXPECT_LT(curve.back().train_loss, curve.front().train_loss);

    // Predictions exist and are positive for every test design.
    for (size_t idx : test_idx) {
        const auto &record = dataset.records()[idx];
        const auto pred = predictor.predict(record.graph);
        EXPECT_GT(pred.timing_ps, 0.0) << record.name;
        EXPECT_GT(pred.area_um2, 0.0) << record.name;
        EXPECT_GT(pred.power_mw, 0.0) << record.name;
        EXPECT_GT(pred.paths_sampled, 0u);
        EXPECT_FALSE(pred.critical_path.empty());
        // The located critical path is a real walk of this design.
        for (size_t i = 0; i + 1 < pred.critical_path.size(); ++i) {
            const auto &succ =
                record.graph.successors(pred.critical_path[i]);
            EXPECT_NE(std::find(succ.begin(), succ.end(),
                                pred.critical_path[i + 1]),
                      succ.end());
        }
    }
}

TEST(TrainerTest, PredictionsCorrelateWithTruth)
{
    // Even the fast configuration must rank designs sensibly: area
    // predictions should correlate strongly with ground truth across
    // the test set (the paper's Fig. 6 diagonal).
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.6, 5);
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());
    const auto result = evaluatePredictor(predictor, dataset, test_idx);

    std::vector<double> pred_log;
    std::vector<double> true_log;
    for (const auto &eval : result.designs) {
        pred_log.push_back(std::log(eval.pred_area_um2));
        true_log.push_back(std::log(eval.true_area_um2));
    }
    EXPECT_GT(sns::pearson(pred_log, true_log), 0.6);
}

/** Train TrainerConfig::fast() at seed 7 on the whole smoke set with
 * one rank and `grad_slices` gradient slices per batch; return the
 * model fingerprint and the loss curve printed as hex floats. */
std::pair<uint64_t, std::string>
pinnedTrainingRun(int grad_slices)
{
    const auto &dataset = smokeDataset();
    std::vector<size_t> all_idx(dataset.size());
    for (size_t i = 0; i < all_idx.size(); ++i)
        all_idx[i] = i;
    TrainerConfig config = TrainerConfig::fast();
    config.seed = 7;
    config.dist.grad_slices = grad_slices;
    SnsTrainer trainer(config);
    const auto predictor = trainer.train(dataset, all_idx, oracle());

    std::string curve;
    for (const LossPoint &point : trainer.lossCurve()) {
        char line[96];
        std::snprintf(line, sizeof(line), "%a %a\n", point.train_loss,
                      point.validation_loss);
        curve += line;
    }
    return {predictor.modelFingerprint(), curve};
}

TEST(TrainerTest, PlainTrainingFingerprintIsPinned)
{
    // Golden numerics of default training: TrainerConfig::fast() at
    // seed 7 on the whole smoke set, one rank, one gradient slice.
    // The weights' fingerprint and the hex-printed loss curve are
    // independent of the thread count and the SIMD rung; any change to
    // them is a change to what plain training computes. The values
    // depend on the build in one way: when it targets an FMA-capable
    // ISA (the default -march=native on such a host), GCC contracts the
    // elementwise float code (Adam, layer norm, softmax) into fused
    // multiply-adds, so those builds carry their own pin. The FMA pin
    // holds for every such host because the build fixes the
    // auto-vectorization width at 256 bits (src/CMakeLists.txt).
#ifdef __FMA__
    constexpr uint64_t kFingerprint = 0x24f968bf484f7b3dull;
    const char *const kCurve = "0x1.1d199p+0 0x1.1776acp-1\n"
                               "0x1.0dc08c3333333p-1 0x1.6b3cd6p-2\n"
                               "0x1.260947p-2 0x1.d4a802p-3\n"
                               "0x1.763eb4p-3 0x1.45504cp-3\n"
                               "0x1.aa89d1999999ap-4 0x1.c5f344p-4\n"
                               "0x1.2358216666666p-4 0x1.9e0a8ep-4\n"
                               "0x1.b0958f999999ap-5 0x1.82c1d4p-4\n"
                               "0x1.3e0109ccccccdp-5 0x1.5b363ep-4\n";
#else
    constexpr uint64_t kFingerprint = 0xcf6971364d5f5811ull;
    const char *const kCurve = "0x1.1d198fccccccdp+0 0x1.1776acp-1\n"
                               "0x1.0dc08cp-1 0x1.6b3cdp-2\n"
                               "0x1.260947p-2 0x1.d4a7fap-3\n"
                               "0x1.763eb0ccccccdp-3 0x1.45504ap-3\n"
                               "0x1.aa89cd3333333p-4 0x1.c5f34p-4\n"
                               "0x1.2358226666666p-4 0x1.9e0a8ep-4\n"
                               "0x1.b09590ccccccdp-5 0x1.82c1d2p-4\n"
                               "0x1.3e010a999999ap-5 0x1.5b363cp-4\n";
#endif
    const auto [fingerprint, curve] = pinnedTrainingRun(1);
    EXPECT_EQ(fingerprint, kFingerprint);
    EXPECT_EQ(curve, kCurve);
}

TEST(TrainerTest, SlicedTrainingFingerprintIsPinned)
{
    // The same run at grad_slices = 8: every batch trains as eight
    // small slices (four paths each at the fast batch size), each
    // padded or packed on its own, so short-slice numerics are pinned
    // too. Same two-pin rule as PlainTrainingFingerprintIsPinned.
#ifdef __FMA__
    constexpr uint64_t kFingerprint = 0x58ef158d0b4f09d5ull;
    const char *const kCurve = "0x1.1d198ff8e38e3p+0 0x1.1776acp-1\n"
                               "0x1.0dc08c5918a6ep-1 0x1.6b3cd4p-2\n"
                               "0x1.260946c5b05bp-2 0x1.d4a7f8p-3\n"
                               "0x1.763eb17b05b06p-3 0x1.45504cp-3\n"
                               "0x1.aa89cefbbbbbbp-4 0x1.c5f33cp-4\n"
                               "0x1.2358201795cebp-4 0x1.9e0a8ap-4\n"
                               "0x1.b0958dac71c72p-5 0x1.82c1cep-4\n"
                               "0x1.3e010e3518a6ep-5 0x1.5b363ep-4\n";
#else
    constexpr uint64_t kFingerprint = 0x6b4d5aad500b5ad9ull;
    const char *const kCurve = "0x1.1d199005b05bp+0 0x1.1776acp-1\n"
                               "0x1.0dc08b99f49f5p-1 0x1.6b3ccep-2\n"
                               "0x1.2609471888889p-2 0x1.d4a7f8p-3\n"
                               "0x1.763eb1225ed0ap-3 0x1.45504ap-3\n"
                               "0x1.aa89cfe6eeeeep-4 0x1.c5f33ep-4\n"
                               "0x1.235820714dbf8p-4 0x1.9e0a8ap-4\n"
                               "0x1.b095908097b43p-5 0x1.82c1ccp-4\n"
                               "0x1.3e0109f573ac9p-5 0x1.5b3638p-4\n";
#endif
    const auto [fingerprint, curve] = pinnedTrainingRun(8);
    EXPECT_EQ(fingerprint, kFingerprint) << std::hex << fingerprint;
    EXPECT_EQ(curve, kCurve);
}


TEST(AggregationTest, SaveLoadRoundTrip)
{
    const auto &graph = smokeDataset().records()[0].graph;
    std::vector<AggregateSummary> summaries;
    std::vector<double> truths;
    Rng rng(41);
    for (int i = 0; i < 12; ++i) {
        std::vector<PathPrediction> preds;
        for (int p = 0; p < 4; ++p)
            preds.push_back({rng.uniform(50, 500), rng.uniform(1, 50),
                             rng.uniform(0.01, 1.0)});
        auto summary = reduceAggregates(graph, preds);
        truths.push_back(2.0 * summary.sum_area_um2);
        summaries.push_back(std::move(summary));
    }
    AggregationMlp original(Target::Area, 9);
    MlpTrainConfig config;
    config.epochs = 200;
    original.fit(summaries, truths, config);
    const double before = original.predict(summaries[0]);

    const std::string path =
        (std::filesystem::temp_directory_path() / "agg.bin").string();
    original.save(path);
    AggregationMlp restored(Target::Area, 10);
    restored.load(path);
    EXPECT_NEAR(restored.predict(summaries[0]), before,
                1e-4 * std::max(1.0, before));
    std::remove(path.c_str());
}

TEST(PredictorTest, SaveLoadRoundTripsPredictions)
{
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4, 5};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    const auto dir =
        (std::filesystem::temp_directory_path() / "sns_model").string();
    predictor.save(dir);
    const auto restored = SnsPredictor::load(dir);

    for (size_t idx : {size_t(6), size_t(7)}) {
        const auto &graph = dataset.records()[idx].graph;
        const auto a = predictor.predict(graph);
        const auto b = restored.predict(graph);
        EXPECT_NEAR(a.area_um2, b.area_um2, 1e-3 * a.area_um2);
        EXPECT_NEAR(a.timing_ps, b.timing_ps, 1e-3 * a.timing_ps);
        EXPECT_NEAR(a.power_mw, b.power_mw, 1e-3 * a.power_mw);
        EXPECT_EQ(a.critical_path, b.critical_path);
    }
    std::filesystem::remove_all(dir);
}

TEST(PredictBatchTest, BitwiseIdenticalAtAnyThreadCount)
{
    // The sns::par determinism contract, end to end: the same batch
    // predicted at 1 and N threads must agree bit for bit — same
    // doubles, same critical paths.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    PredictOptions serial;
    serial.threads = 1;
    const auto base = predictor.predictBatch(graphs, serial);
    ASSERT_EQ(base.size(), graphs.size());

    for (int threads : {2, 4}) {
        PredictOptions multi;
        multi.threads = threads;
        const auto preds = predictor.predictBatch(graphs, multi);
        ASSERT_EQ(preds.size(), base.size());
        for (size_t i = 0; i < preds.size(); ++i) {
            EXPECT_EQ(preds[i].timing_ps, base[i].timing_ps)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].area_um2, base[i].area_um2)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].power_mw, base[i].power_mw)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].critical_path, base[i].critical_path)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].paths_sampled, base[i].paths_sampled);
        }
    }
    par::setThreads(1);
}

TEST(PredictBatchTest, WrapperAndOptionsAgree)
{
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    const auto &graph = dataset.records()[5].graph;
    const graphir::Graph *one[1] = {&graph};

    // predict() is a thin wrapper over predictBatch.
    const auto single = predictor.predict(graph);
    const auto batched = predictor.predictBatch(one);
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(single.timing_ps, batched[0].timing_ps);
    EXPECT_EQ(single.area_um2, batched[0].area_um2);
    EXPECT_EQ(single.power_mw, batched[0].power_mw);
    EXPECT_EQ(single.critical_path, batched[0].critical_path);

    // collect_critical_path=false skips the path but not the numbers.
    PredictOptions no_path;
    no_path.collect_critical_path = false;
    const auto bare = predictor.predictBatch(one, no_path);
    EXPECT_TRUE(bare[0].critical_path.empty());
    EXPECT_EQ(bare[0].timing_ps, single.timing_ps);
    EXPECT_EQ(bare[0].area_um2, single.area_um2);

    // An empty batch is valid and returns nothing.
    EXPECT_TRUE(predictor
                    .predictBatch(std::span<const graphir::Graph
                                                *const>{})
                    .empty());
}

TEST(PredictBatchTest, BatchSizeNeverChangesAFp64Prediction)
{
    // Rows are independent of their batch mates, so regrouping the
    // paths into other forward-pass sizes — including sizes above the
    // plan's 64, which take the module walk — changes no bit.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);
    const auto base = predictor.predictBatch(graphs);
    ASSERT_EQ(base.size(), graphs.size());

    for (int batch_size : {1, 3, 7, 16, 63, 65, 200}) {
        PredictOptions options;
        options.batch_size = batch_size;
        const auto preds = predictor.predictBatch(graphs, options);
        ASSERT_EQ(preds.size(), base.size());
        for (size_t i = 0; i < preds.size(); ++i) {
            EXPECT_EQ(preds[i].timing_ps, base[i].timing_ps)
                << "design " << i << " batch_size " << batch_size;
            EXPECT_EQ(preds[i].area_um2, base[i].area_um2)
                << "design " << i << " batch_size " << batch_size;
            EXPECT_EQ(preds[i].power_mw, base[i].power_mw)
                << "design " << i << " batch_size " << batch_size;
            EXPECT_EQ(preds[i].critical_path, base[i].critical_path)
                << "design " << i << " batch_size " << batch_size;
        }
    }
}

TEST(PredictBatchTest, CacheOnOffBitwiseIdentical)
{
    // The docs/perf.md memoization contract, end to end: predictions
    // through a path cache — cold, warm, and at several pool widths —
    // must match the uncached run bit for bit.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    PredictOptions plain;
    plain.threads = 1;
    const auto base = predictor.predictBatch(graphs, plain);

    perf::PathPredictionCache cache;
    PredictOptions cached = plain;
    cached.cache = &cache;
    // Three passes: cold cache, fully warm cache, warm at 4 threads.
    for (const int threads : {1, 1, 4}) {
        cached.threads = threads;
        const auto preds = predictor.predictBatch(graphs, cached);
        ASSERT_EQ(preds.size(), base.size());
        for (size_t i = 0; i < preds.size(); ++i) {
            EXPECT_EQ(preds[i].timing_ps, base[i].timing_ps)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].area_um2, base[i].area_um2)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].power_mw, base[i].power_mw)
                << "design " << i << " threads " << threads;
            EXPECT_EQ(preds[i].critical_path, base[i].critical_path)
                << "design " << i << " threads " << threads;
        }
    }
    const auto stats = cache.stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.entries, stats.inserts);
    par::setThreads(1);
}

TEST(PredictBatchTest, CacheAccountingAcrossRepeatedBatches)
{
    // DSE-style reuse: the same batch predicted twice through one
    // cache. The second pass must resolve every path from the cache —
    // no new misses, no new inserts — and probe counts must add up.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    perf::PathPredictionCache cache;
    PredictOptions options;
    options.threads = 1; // deterministic hit/miss accounting
    options.cache = &cache;

    const auto first = predictor.predictBatch(graphs, options);
    size_t total_paths = 0;
    for (const auto &pred : first)
        total_paths += pred.paths_sampled;
    const auto cold = cache.stats();
    EXPECT_EQ(cold.hits + cold.misses,
              static_cast<uint64_t>(total_paths));
    EXPECT_GT(cold.misses, 0u);
    EXPECT_EQ(cold.entries, cold.inserts);
    EXPECT_EQ(cold.evictions, 0u);

    const auto second = predictor.predictBatch(graphs, options);
    const auto warm = cache.stats();
    EXPECT_EQ(warm.misses, cold.misses) << "warm pass must not miss";
    EXPECT_EQ(warm.hits,
              cold.hits + static_cast<uint64_t>(total_paths));
    EXPECT_EQ(warm.inserts, cold.inserts);

    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].timing_ps, second[i].timing_ps);
        EXPECT_EQ(first[i].area_um2, second[i].area_um2);
        EXPECT_EQ(first[i].power_mw, second[i].power_mw);
    }
    par::setThreads(1);
}

TEST(PredictBatchTest, BoomProbesOncePerDistinctSequence)
{
    // A BOOM core samples the same token sequence on many paths. The
    // cached predictor probes once per distinct sequence and counts
    // every path it answers for, so at one thread the counters must
    // equal a per-path replay of the sampled paths: a path misses when
    // no earlier design carried its sequence, each distinct missed
    // sequence is inserted once, and the warm pass never misses.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    const auto space = boom::boomDesignSpace();
    std::vector<graphir::Graph> cores;
    for (const size_t index : {size_t(0), size_t(777), size_t(2591)})
        cores.push_back(boom::buildBoomCore(space[index]));
    std::vector<const graphir::Graph *> graphs;
    for (const auto &core : cores)
        graphs.push_back(&core);

    std::set<std::vector<TokenId>> seen;
    uint64_t expected_misses = 0;
    uint64_t total_paths = 0;
    sampler::PathSet paths;
    for (const auto *graph : graphs) {
        sampler::PathSampler(predictor.samplerOptions()).sample(*graph,
                                                                paths);
        std::set<std::vector<TokenId>> design;
        for (size_t i = 0; i < paths.size(); ++i) {
            const auto tokens = paths.tokens(i);
            std::vector<TokenId> sequence(tokens.begin(), tokens.end());
            if (!seen.contains(sequence))
                ++expected_misses;
            design.insert(std::move(sequence));
        }
        total_paths += paths.size();
        seen.insert(design.begin(), design.end());
    }
    ASSERT_LT(seen.size() * 2, total_paths)
        << "the BOOM cores should repeat their token sequences";

    PredictOptions plain;
    plain.threads = 1;
    const auto base = predictor.predictBatch(graphs, plain);

    perf::PathPredictionCache cache;
    PredictOptions cached = plain;
    cached.cache = &cache;
    perf::CacheStats cold;
    for (const bool warm : {false, true}) {
        const auto preds = predictor.predictBatch(graphs, cached);
        uint64_t sampled = 0;
        for (size_t i = 0; i < preds.size(); ++i) {
            EXPECT_EQ(preds[i].timing_ps, base[i].timing_ps)
                << "design " << i << " warm " << warm;
            EXPECT_EQ(preds[i].area_um2, base[i].area_um2)
                << "design " << i << " warm " << warm;
            EXPECT_EQ(preds[i].power_mw, base[i].power_mw)
                << "design " << i << " warm " << warm;
            EXPECT_EQ(preds[i].critical_path, base[i].critical_path)
                << "design " << i << " warm " << warm;
            sampled += preds[i].paths_sampled;
        }
        EXPECT_EQ(sampled, total_paths);
        const auto stats = cache.stats();
        if (!warm) {
            EXPECT_EQ(stats.hits + stats.misses, total_paths);
            EXPECT_EQ(stats.misses, expected_misses);
            EXPECT_EQ(stats.inserts, seen.size());
            EXPECT_EQ(stats.entries, seen.size());
            cold = stats;
        } else {
            EXPECT_EQ(stats.misses, cold.misses) << "warm pass missed";
            EXPECT_EQ(stats.hits, cold.hits + total_paths);
            EXPECT_EQ(stats.inserts, cold.inserts);
        }
    }
    par::setThreads(1);
}

TEST(PredictBatchTest, SharedCacheUnderConcurrentDesigns)
{
    // Several designs fanned over the pool all hammer one cache
    // (exercised under the TSan leg of tools/run_lint.sh). The split
    // between hits and misses is timing-dependent, but the predictions
    // must still be bitwise identical to the uncached serial run.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    PredictOptions plain;
    plain.threads = 1;
    const auto base = predictor.predictBatch(graphs, plain);

    perf::PathPredictionCache cache;
    PredictOptions concurrent;
    concurrent.threads = 4;
    concurrent.cache = &cache;
    const auto preds = predictor.predictBatch(graphs, concurrent);
    for (size_t i = 0; i < preds.size(); ++i) {
        EXPECT_EQ(preds[i].timing_ps, base[i].timing_ps) << i;
        EXPECT_EQ(preds[i].area_um2, base[i].area_um2) << i;
        EXPECT_EQ(preds[i].power_mw, base[i].power_mw) << i;
        EXPECT_EQ(preds[i].critical_path, base[i].critical_path) << i;
    }
    const auto stats = cache.stats();
    EXPECT_GT(stats.inserts, 0u);
    EXPECT_EQ(stats.entries, stats.inserts);
    par::setThreads(1);
}

TEST(PredictorTest, CheckpointRoundTripIsBitwiseStable)
{
    // The hot-reload invariant (docs/serving.md): loading a checkpoint
    // is a fixed point. Saving truncates the double normalization
    // stats to float32, so the trained-in-memory model and its
    // reloaded twin may differ in the last bits — but once snapped,
    // save→load→save→load must reproduce the exact same predictor:
    // identical fingerprints and bitwise-identical predictBatch
    // outputs. sns-serve RELOAD of the serving checkpoint relies on
    // this to be a no-op.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4, 5};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto trained = trainer.train(dataset, train_idx, oracle());

    const auto base = std::filesystem::temp_directory_path();
    const auto dir1 = (base / "sns_rt1").string();
    const auto dir2 = (base / "sns_rt2").string();
    trained.save(dir1);
    const auto p1 = SnsPredictor::load(dir1);
    p1.save(dir2);
    const auto p2 = SnsPredictor::load(dir2);

    EXPECT_EQ(p1.modelFingerprint(), p2.modelFingerprint());
    EXPECT_NE(p1.modelFingerprint(), 0u);

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);
    PredictOptions options;
    options.threads = 1;
    const auto a = p1.predictBatch(graphs, options);
    const auto b = p2.predictBatch(graphs, options);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timing_ps, b[i].timing_ps) << i;
        EXPECT_EQ(a[i].area_um2, b[i].area_um2) << i;
        EXPECT_EQ(a[i].power_mw, b[i].power_mw) << i;
        EXPECT_EQ(a[i].paths_sampled, b[i].paths_sampled) << i;
        EXPECT_EQ(a[i].critical_path, b[i].critical_path) << i;
    }
    std::filesystem::remove_all(dir1);
    std::filesystem::remove_all(dir2);
}

TEST(PredictBatchTest, CacheSharedAcrossPredictorInstances)
{
    // The perf::PathPredictionCache sharing contract: two predictor
    // instances loaded from the same checkpoint may pool one cache —
    // including from concurrent external threads, which is exactly how
    // sns-serve workers would share it. Results must stay bitwise
    // identical to a serial uncached run (TSan leg covers the races).
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto trained = trainer.train(dataset, train_idx, oracle());

    const auto dir =
        (std::filesystem::temp_directory_path() / "sns_shared").string();
    trained.save(dir);
    const auto first = SnsPredictor::load(dir);
    const auto second = SnsPredictor::load(dir);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(first.modelFingerprint(), second.modelFingerprint());

    std::vector<const graphir::Graph *> graphs;
    for (const auto &record : dataset.records())
        graphs.push_back(&record.graph);

    PredictOptions plain;
    plain.threads = 1;
    const auto base = first.predictBatch(graphs, plain);

    perf::PathPredictionCache cache;
    PredictOptions shared;
    shared.cache = &cache;
    std::vector<SnsPrediction> from_first;
    std::vector<SnsPrediction> from_second;
    std::thread worker([&] {
        from_second = second.predictBatch(graphs, shared);
    });
    from_first = first.predictBatch(graphs, shared);
    worker.join();

    ASSERT_EQ(from_first.size(), base.size());
    ASSERT_EQ(from_second.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(from_first[i].timing_ps, base[i].timing_ps) << i;
        EXPECT_EQ(from_second[i].timing_ps, base[i].timing_ps) << i;
        EXPECT_EQ(from_first[i].area_um2, base[i].area_um2) << i;
        EXPECT_EQ(from_second[i].area_um2, base[i].area_um2) << i;
        EXPECT_EQ(from_first[i].power_mw, base[i].power_mw) << i;
        EXPECT_EQ(from_second[i].power_mw, base[i].power_mw) << i;
        EXPECT_EQ(from_first[i].critical_path, base[i].critical_path);
        EXPECT_EQ(from_second[i].critical_path, base[i].critical_path);
    }
    EXPECT_EQ(cache.boundModel(), first.modelFingerprint());
    par::setThreads(1);
}

TEST(PredictBatchTest, CacheRefusesMismatchedModel)
{
    // Sharing a cache across *different* models would silently serve
    // one model's numbers for the other, so predictBatch must refuse.
    // The trained-in-memory predictor and its reloaded twin are the
    // ideal odd couple: identical for practical purposes, yet
    // fingerprinted apart because save() snaps the normalization stats
    // to float32.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto trained = trainer.train(dataset, train_idx, oracle());

    const auto dir =
        (std::filesystem::temp_directory_path() / "sns_mismatch").string();
    trained.save(dir);
    const auto reloaded = SnsPredictor::load(dir);
    std::filesystem::remove_all(dir);
    ASSERT_NE(trained.modelFingerprint(), reloaded.modelFingerprint());

    std::vector<const graphir::Graph *> graphs = {
        &dataset.records()[0].graph};
    perf::PathPredictionCache cache;
    PredictOptions options;
    options.cache = &cache;
    options.threads = 1;
    (void)trained.predictBatch(graphs, options);
    EXPECT_EQ(cache.boundModel(), trained.modelFingerprint());
    EXPECT_THROW((void)reloaded.predictBatch(graphs, options),
                 std::logic_error);

    // clear() unbinds; the other model may then adopt the cache.
    cache.clear();
    const auto preds = reloaded.predictBatch(graphs, options);
    EXPECT_EQ(preds.size(), 1u);
    EXPECT_EQ(cache.boundModel(), reloaded.modelFingerprint());
    par::setThreads(1);
}

TEST(PredictBatchTest, ThreadsOptionDoesNotLeak)
{
    // PredictOptions::threads is call-scoped: the process-wide width
    // must be what it was before the call (the pre-PR behaviour leaked
    // a par::setThreads past predictBatch).
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());

    const graphir::Graph *one[1] = {&dataset.records()[0].graph};
    par::setThreads(2);
    PredictOptions options;
    options.threads = 4;
    predictor.predictBatch(one, options);
    EXPECT_EQ(par::configuredThreads(), 2)
        << "predictBatch leaked its thread override";
    par::setThreads(1);
}

TEST(PredictorTest, LoadMissingDirectoryThrows)
{
    // A broken checkpoint is an exception, not fatal(): one-shot tools
    // let it reach main and exit 1, while the serve daemon answers a
    // RELOAD of a bad directory with an ERROR reply instead of dying.
    EXPECT_THROW(SnsPredictor::load("/nonexistent/sns_model"),
                 nn::SerializeError);
}

TEST(EvaluationTest, SummaryMetricsMatchUtilMetrics)
{
    std::vector<DesignEval> evals;
    for (int i = 1; i <= 4; ++i) {
        DesignEval eval;
        eval.name = "d";
        eval.name += std::to_string(i);
        eval.true_timing_ps = i * 100.0;
        eval.pred_timing_ps = i * 100.0 + 10.0;
        eval.true_area_um2 = i * 10.0;
        eval.pred_area_um2 = i * 10.0;
        eval.true_power_mw = i * 1.0;
        eval.pred_power_mw = i * 2.0;
        evals.push_back(eval);
    }
    const auto result = summarizeEvals(evals);
    EXPECT_DOUBLE_EQ(result.area.rrse, 0.0);
    EXPECT_NEAR(result.timing.maep,
                100.0 * (0.1 + 0.05 + 10.0 / 300 + 0.025) / 4.0, 1e-9);
    EXPECT_GT(result.power.rrse, 0.0);
    EXPECT_EQ(result.designs.size(), 4u);
}

// --- Crash-safe checkpointing and resume (docs/training.md). -------

/** Observes every epoch and requests a stop after `stop_after`. */
struct StopAfterSink : TrainProgressSink
{
    explicit StopAfterSink(int stop_after) : stop_after_(stop_after) {}

    bool
    onEpoch(const EpochProgress &progress) override
    {
        seen.push_back(progress);
        return static_cast<int>(seen.size()) < stop_after_;
    }

    void
    onEvent(const std::string &message) override
    {
        events.push_back(message);
    }

    int stop_after_;
    std::vector<EpochProgress> seen;
    std::vector<std::string> events;
};

std::string
freshDir(const char *name)
{
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A checkpoint-friendly scaled-down trainer configuration. */
TrainerConfig
checkpointTestConfig()
{
    TrainerConfig config = TrainerConfig::fast();
    config.circuitformer_epochs = 6;
    config.mlp.epochs = 400;
    return config;
}

TEST(TrainerCheckpointTest, KillAndResumeIsBitwiseIdentical)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);
    const std::string dir_full = freshDir("sns_tr_full");
    const std::string dir_killed = freshDir("sns_tr_killed");

    // Reference: an uninterrupted run, metrics into a private registry.
    obs::Registry registry;
    TrainerConfig full = checkpointTestConfig();
    full.checkpoint_dir = dir_full;
    full.checkpoint_keep = 0;
    full.registry = &registry;
    SnsTrainer trainer_full(full);
    const auto predictor_full =
        trainer_full.train(dataset, train_idx, oracle());

    EXPECT_EQ(registry.counter("train.epochs_total").value(), 6u);
    EXPECT_EQ(registry.counter("train.checkpoints_total").value(), 6u);
    EXPECT_EQ(registry.counter("train.resumes_total").value(), 0u);
    EXPECT_EQ(registry.histogram("train.epoch_latency_us")
                  .snapshot()
                  .count,
              6u);
    // The train-scoped gauges are removed once train() returns.
    for (const auto &sample : registry.snapshot())
        EXPECT_EQ(sample.name.find("train.loss"), std::string::npos);

    // "Kill" a second run after epoch 3 — the sink-driven stop is the
    // same code path sns-cli's SIGINT handler takes.
    TrainerConfig killed = checkpointTestConfig();
    killed.checkpoint_dir = dir_killed;
    killed.checkpoint_keep = 0;
    StopAfterSink stopper(3);
    killed.progress = &stopper;
    SnsTrainer trainer_killed(killed);
    try {
        trainer_killed.train(dataset, train_idx, oracle());
        FAIL() << "sink stop must raise TrainingInterrupted";
    } catch (const TrainingInterrupted &interrupted) {
        EXPECT_EQ(interrupted.epoch(), 2); // 0-based last completed
        EXPECT_NE(interrupted.checkpointPath().find("ckpt-000002"),
                  std::string::npos);
        EXPECT_TRUE(
            std::filesystem::exists(interrupted.checkpointPath()));
    }
    ASSERT_EQ(stopper.seen.size(), 3u);
    EXPECT_EQ(stopper.seen[0].epoch, 0);
    EXPECT_EQ(stopper.seen[0].total_epochs, 6);
    EXPECT_GT(stopper.seen[0].samples_per_sec, 0.0);
    ASSERT_FALSE(stopper.events.empty());

    // Resume on a wider pool: the remaining epochs replay identically
    // at any sns::par width.
    par::setThreads(2);
    TrainerConfig resumed = checkpointTestConfig();
    resumed.checkpoint_dir = dir_killed;
    resumed.checkpoint_keep = 0;
    resumed.resume_from = dir_killed;
    SnsTrainer trainer_resumed(resumed);
    const auto predictor_resumed =
        trainer_resumed.train(dataset, train_idx, oracle());
    par::setThreads(1);

    // The final checkpoints are byte-identical files.
    const std::string final_full = dir_full + "/ckpt-000005-r00of01.ckpt";
    const std::string final_resumed =
        dir_killed + "/ckpt-000005-r00of01.ckpt";
    ASSERT_TRUE(std::filesystem::exists(final_full));
    ASSERT_TRUE(std::filesystem::exists(final_resumed));
    EXPECT_EQ(fileBytes(final_full), fileBytes(final_resumed));

    // The restored loss curve splices seamlessly: epochs 0..5 present
    // and equal to the uninterrupted run's, bit for bit.
    const auto &curve_full = trainer_full.lossCurve();
    const auto &curve_resumed = trainer_resumed.lossCurve();
    ASSERT_EQ(curve_full.size(), curve_resumed.size());
    for (size_t i = 0; i < curve_full.size(); ++i) {
        EXPECT_EQ(curve_full[i].epoch, curve_resumed[i].epoch);
        EXPECT_EQ(curve_full[i].train_loss, curve_resumed[i].train_loss);
        EXPECT_EQ(curve_full[i].validation_loss,
                  curve_resumed[i].validation_loss);
    }

    // And the final models predict bitwise-identically.
    for (size_t idx : test_idx) {
        const auto &graph = dataset.records()[idx].graph;
        const auto a = predictor_full.predict(graph);
        const auto b = predictor_resumed.predict(graph);
        EXPECT_EQ(a.timing_ps, b.timing_ps);
        EXPECT_EQ(a.area_um2, b.area_um2);
        EXPECT_EQ(a.power_mw, b.power_mw);
        EXPECT_EQ(a.critical_path, b.critical_path);
    }

    std::filesystem::remove_all(dir_full);
    std::filesystem::remove_all(dir_killed);
}

TEST(TrainerCheckpointTest, ResumeRejectsMismatchedConfigAndCorruption)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);
    const std::string dir = freshDir("sns_tr_reject");

    TrainerConfig config = checkpointTestConfig();
    config.circuitformer_epochs = 2;
    config.mlp.epochs = 200;
    config.checkpoint_dir = dir;
    SnsTrainer trainer(config);
    trainer.train(dataset, train_idx, oracle());
    const auto written = nn::listCheckpoints(dir);
    ASSERT_FALSE(written.empty());
    const std::string latest = written.back();

    // A different schedule must not silently splice trajectories.
    TrainerConfig other = config;
    other.circuitformer_lr *= 2.0;
    other.resume_from = dir;
    SnsTrainer trainer_other(other);
    try {
        trainer_other.train(dataset, train_idx, oracle());
        FAIL() << "mismatched config must not resume";
    } catch (const nn::SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("config fingerprint"),
                  std::string::npos);
    }

    // Flip one payload byte: refused on load, and sns::verify names
    // the failure with a structured C-HASH diagnostic.
    {
        std::fstream f(latest, std::ios::in | std::ios::out |
                                   std::ios::binary);
        f.seekg(0, std::ios::end);
        const auto size = static_cast<long>(f.tellg());
        f.seekp(size - 3);
        int byte = 0;
        f.seekg(size - 3);
        byte = f.get();
        f.seekp(size - 3);
        f.put(static_cast<char>(byte ^ 0x40));
    }
    const auto report = verify::checkCheckpointFile(latest);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.hasRule(verify::rules::kCheckpointHash));

    TrainerConfig corrupt = config;
    corrupt.resume_from = latest;
    SnsTrainer trainer_corrupt(corrupt);
    try {
        trainer_corrupt.train(dataset, train_idx, oracle());
        FAIL() << "corrupt checkpoint must not resume";
    } catch (const nn::SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("hash mismatch"),
                  std::string::npos);
    }

    // A checkpoint in the retired single-process format (producer
    // "sns-trainer-v1") is refused by name, not misparsed.
    {
        std::ostringstream payload;
        nn::CheckpointWriter writer(payload);
        writer.str("sns-trainer-v1");
        writer.u64(0);
        const std::string old_format = dir + "/old-format.ckpt";
        nn::commitCheckpoint(old_format, payload.str());
        TrainerConfig old = config;
        old.resume_from = old_format;
        SnsTrainer trainer_old(old);
        try {
            trainer_old.train(dataset, train_idx, oracle());
            FAIL() << "a sns-trainer-v1 checkpoint must not resume";
        } catch (const nn::SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("sns-trainer-v1"),
                      std::string::npos);
        }
    }

    // Resuming from an empty directory is a structured error too.
    TrainerConfig empty = config;
    empty.resume_from = freshDir("sns_tr_empty");
    SnsTrainer trainer_empty(empty);
    EXPECT_THROW(trainer_empty.train(dataset, train_idx, oracle()),
                 nn::SerializeError);

    std::filesystem::remove_all(dir);
}

/**
 * FNV-1a is not cryptographic, so a shard can carry a valid hash and a
 * loss-curve count of 0xFFFFFFFF (~96 GB of points). The count must be
 * bounded by the payload bytes that follow it: resume throws
 * SerializeError naming the file instead of trying the allocation.
 */
TEST(TrainerCheckpointTest, ResumeBoundsTheLossCurveCount)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);
    const std::string dir = freshDir("sns_tr_curve_count");

    TrainerConfig config = checkpointTestConfig();
    config.circuitformer_epochs = 2;
    config.mlp.epochs = 200;
    config.checkpoint_dir = dir;
    SnsTrainer(config).train(dataset, train_idx, oracle());
    const auto written = nn::listCheckpoints(dir);
    ASSERT_FALSE(written.empty());

    // Keep the real meta block and RNG states (so every check before
    // the curve passes), then claim 0xFFFFFFFF points and stop.
    const std::string payload = nn::readCheckpointPayload(written.back());
    nn::CheckpointReader reader(payload, written.back());
    dist::readShardMeta(reader, written.back());
    for (int stream = 0; stream < 2; ++stream) {
        for (size_t w = 0; w < Rng::State{}.words.size(); ++w)
            reader.u64();
        reader.u32();
        reader.f64();
    }
    std::string crafted =
        payload.substr(0, payload.size() - reader.remaining());
    const uint32_t huge_count = 0xFFFFFFFFu;
    crafted.append(reinterpret_cast<const char *>(&huge_count),
                   sizeof(huge_count));
    const std::string path = dir + "/crafted.ckpt";
    nn::commitCheckpoint(path, crafted);

    TrainerConfig resume = config;
    resume.resume_from = path;
    try {
        SnsTrainer(resume).train(dataset, train_idx, oracle());
        FAIL() << "an unbounded loss-curve count must not resume";
    } catch (const nn::SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(TrainerCheckpointTest, RollingRetentionKeepsNewest)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);
    const std::string dir = freshDir("sns_tr_keep");

    TrainerConfig config = checkpointTestConfig();
    config.circuitformer_epochs = 5;
    config.mlp.epochs = 200;
    config.checkpoint_dir = dir;
    config.checkpoint_keep = 2;
    SnsTrainer trainer(config);
    trainer.train(dataset, train_idx, oracle());

    const auto kept = nn::listCheckpoints(dir);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_NE(kept[0].find("ckpt-000003"), std::string::npos);
    EXPECT_NE(kept[1].find("ckpt-000004"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(TrainerCheckpointTest, InterruptWithoutCheckpointDirLosesState)
{
    const auto &dataset = smokeDataset();
    const auto [train_idx, test_idx] = dataset.splitByBase(0.5, 3);

    TrainerConfig config = checkpointTestConfig();
    config.circuitformer_epochs = 3;
    StopAfterSink stopper(1);
    config.progress = &stopper;
    SnsTrainer trainer(config);
    try {
        trainer.train(dataset, train_idx, oracle());
        FAIL() << "sink stop must raise TrainingInterrupted";
    } catch (const TrainingInterrupted &interrupted) {
        EXPECT_TRUE(interrupted.checkpointPath().empty());
        EXPECT_NE(std::string(interrupted.what())
                      .find("checkpointing disabled"),
                  std::string::npos);
    }
}

TEST(ProgressSinkTest, JsonlSinkWritesOneParseableLinePerEpoch)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "sns_train.jsonl")
            .string();
    std::remove(path.c_str());
    {
        JsonlProgressSink sink(path);
        EpochProgress progress;
        progress.epoch = 0;
        progress.total_epochs = 2;
        progress.train_loss = 0.5;
        progress.validation_loss = 0.25;
        progress.checkpoint_path = "/tmp/ck/ckpt-000000.ckpt";
        EXPECT_TRUE(sink.onEpoch(progress));
        progress.epoch = 1;
        EXPECT_TRUE(sink.onEpoch(progress));
        sink.onEvent("resumed from \"x\"");
    }
    std::ifstream in(path);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("\"epoch\":0"), std::string::npos);
    EXPECT_NE(lines[0].find("\"train_loss\":0.5"), std::string::npos);
    EXPECT_NE(lines[1].find("\"epoch\":1"), std::string::npos);
    // Quotes in event text are escaped so the line stays valid JSON.
    EXPECT_NE(lines[2].find("\"event\":\"resumed from \\\"x\\\"\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ProgressSinkTest, TeeFansOutAndAnyStopWins)
{
    StopAfterSink a(100);
    StopAfterSink b(2);
    TeeProgressSink tee({&a, &b});
    EpochProgress progress;
    EXPECT_TRUE(tee.onEpoch(progress));
    EXPECT_FALSE(tee.onEpoch(progress)); // b requests a stop
    // Both children saw both epochs (no short-circuit skipping).
    EXPECT_EQ(a.seen.size(), 2u);
    EXPECT_EQ(b.seen.size(), 2u);
    tee.onEvent("note");
    EXPECT_EQ(a.events.size(), 1u);
    EXPECT_EQ(b.events.size(), 1u);
}

// --------------------------------------------------------------------
// Quantized inference tier (docs/quantization.md)

/** Restore SNS_PLAN and the verify mode however a test exits. */
struct TierGuards
{
    bool plan_saved = plan::planEnabled();
    verify::Mode mode_saved = verify::mode();
    ~TierGuards()
    {
        plan::setPlanEnabled(plan_saved);
        verify::setMode(mode_saved);
    }
};

bool
sameBits(const SnsPrediction &a, const SnsPrediction &b)
{
    return a.timing_ps == b.timing_ps && a.area_um2 == b.area_um2 &&
           a.power_mw == b.power_mw;
}

TEST(PredictOptionsTest, UnknownPrecisionIsVOptPrecision)
{
    // The serve protocol carries precision as a raw byte, so the enum
    // can arrive holding any value; the single validation point must
    // name V-OPT-PRECISION for out-of-enum values and stay silent for
    // the two known tiers.
    PredictOptions options;
    options.precision = static_cast<Precision>(7);
    EXPECT_TRUE(validatePredictOptions(options).hasRule(
        verify::rules::kOptionsPrecision));

    options.precision = Precision::Fp64;
    EXPECT_FALSE(validatePredictOptions(options).hasErrors());
    options.precision = Precision::Int8;
    EXPECT_FALSE(validatePredictOptions(options).hasErrors());
}

TEST(PredictBatchTest, Int8WithoutScalesRecoversToFp64UnderCount)
{
    // A model that never calibrated has no int8 tier. Under Count
    // enforcement the request is diagnosed (V-OPT-PRECISION) and the
    // call recovers to fp64 — bitwise the same numbers a plain fp64
    // call produces. Under Fatal enforcement it aborts the call.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4};
    SnsTrainer trainer(TrainerConfig::fast());
    const auto predictor = trainer.train(dataset, train_idx, oracle());
    ASSERT_FALSE(predictor.quantized());
    const auto &graph = dataset.records()[5].graph;

    TierGuards guards;
    PredictOptions int8;
    int8.precision = Precision::Int8;
    EXPECT_EQ(predictor.effectivePrecision(int8), Precision::Fp64);

    verify::setMode(verify::Mode::Count);
    const auto recovered = predictor.predict(graph, int8);
    const auto fp64 = predictor.predict(graph);
    EXPECT_TRUE(sameBits(recovered, fp64));

    // An out-of-enum byte takes the same recovery path.
    PredictOptions garbage;
    garbage.precision = static_cast<Precision>(200);
    EXPECT_TRUE(
        sameBits(predictor.predict(graph, garbage), fp64));

    verify::setMode(verify::Mode::Fatal);
    EXPECT_THROW(predictor.predict(graph, int8), verify::VerifyError);
}

TEST(PredictBatchTest, QuantizeBindsInt8AndLeavesFp64Bitwise)
{
    // The tentpole contract in one test: quantize() adds a second
    // numeric tier without perturbing the first. fp64 predictions are
    // bitwise identical before and after calibration; int8 runs are
    // deterministic, genuinely different from fp64, and the SNS_PLAN
    // kill switch downgrades int8 requests back to the fp64 numbers
    // under Count enforcement.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4, 5};
    SnsTrainer trainer(TrainerConfig::fast());
    auto predictor = trainer.train(dataset, train_idx, oracle());

    std::vector<const graphir::Graph *> eval;
    for (size_t idx : {size_t(6), size_t(7), size_t(8)})
        eval.push_back(&dataset.records()[idx].graph);
    const auto fp64_before = predictor.predictBatch(eval);

    std::vector<const graphir::Graph *> calibration;
    for (size_t idx : train_idx)
        calibration.push_back(&dataset.records()[idx].graph);
    predictor.quantize(calibration);
    ASSERT_TRUE(predictor.quantized());

    const auto fp64_after = predictor.predictBatch(eval);
    ASSERT_EQ(fp64_after.size(), fp64_before.size());
    for (size_t i = 0; i < eval.size(); ++i)
        EXPECT_TRUE(sameBits(fp64_after[i], fp64_before[i]))
            << "design " << i;

    PredictOptions int8;
    int8.precision = Precision::Int8;
    ASSERT_EQ(predictor.effectivePrecision(int8), Precision::Int8);
    const auto quant = predictor.predictBatch(eval, int8);
    const auto quant_again = predictor.predictBatch(eval, int8);
    bool differs = false;
    for (size_t i = 0; i < eval.size(); ++i) {
        EXPECT_TRUE(sameBits(quant[i], quant_again[i])) << "design " << i;
        // Same ballpark (bench/quantized_inference bounds the error
        // formally), but a distinct tier: int8 is not fp64 relabeled.
        EXPECT_NEAR(quant[i].timing_ps, fp64_before[i].timing_ps,
                    0.25 * fp64_before[i].timing_ps + 1.0);
        differs = differs || !sameBits(quant[i], fp64_before[i]);
    }
    EXPECT_TRUE(differs);

    // The two tiers never share a path cache identity.
    EXPECT_NE(predictor.predictionFingerprint(Precision::Int8),
              predictor.predictionFingerprint(Precision::Fp64));

    TierGuards guards;
    verify::setMode(verify::Mode::Count);
    plan::setPlanEnabled(false);
    EXPECT_EQ(predictor.effectivePrecision(int8), Precision::Fp64);
    const auto killed = predictor.predictBatch(eval, int8);
    for (size_t i = 0; i < eval.size(); ++i)
        EXPECT_TRUE(sameBits(killed[i], fp64_before[i])) << "design " << i;
}

TEST(PredictorTest, QuantizedSaveLoadRoundTrip)
{
    // save() writes the calibrated side table as plan_int8.snsp and
    // load() re-binds it: the reloaded pipeline serves int8 without
    // re-calibrating, and two loads of the same directory agree
    // bitwise at both tiers.
    const auto &dataset = smokeDataset();
    std::vector<size_t> train_idx = {0, 1, 2, 3, 4, 5};
    SnsTrainer trainer(TrainerConfig::fast());
    auto predictor = trainer.train(dataset, train_idx, oracle());
    std::vector<const graphir::Graph *> calibration;
    for (size_t idx : train_idx)
        calibration.push_back(&dataset.records()[idx].graph);
    predictor.quantize(calibration);

    const auto dir =
        (std::filesystem::temp_directory_path() / "sns_model_q").string();
    predictor.save(dir);
    EXPECT_TRUE(std::filesystem::exists(dir + "/plan_int8.snsp"));

    const auto loaded = SnsPredictor::load(dir);
    ASSERT_TRUE(loaded.quantized());
    const auto loaded_twin = SnsPredictor::load(dir);

    PredictOptions int8;
    int8.precision = Precision::Int8;
    for (size_t idx : {size_t(6), size_t(7)}) {
        const auto &graph = dataset.records()[idx].graph;
        const auto original = predictor.predict(graph, int8);
        const auto restored = loaded.predict(graph, int8);
        // Save snaps normalization statistics to float32, so reloaded
        // numbers are near — not bitwise-equal to — the in-memory ones;
        // two loads of the same bytes must agree exactly.
        EXPECT_NEAR(restored.timing_ps, original.timing_ps,
                    1e-3 * original.timing_ps);
        EXPECT_NEAR(restored.area_um2, original.area_um2,
                    1e-3 * original.area_um2);
        EXPECT_NEAR(restored.power_mw, original.power_mw,
                    1e-3 * original.power_mw);
        EXPECT_TRUE(
            sameBits(restored, loaded_twin.predict(graph, int8)));
    }
    EXPECT_EQ(loaded.predictionFingerprint(Precision::Int8),
              loaded_twin.predictionFingerprint(Precision::Int8));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace sns::core
