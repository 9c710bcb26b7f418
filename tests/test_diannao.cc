/**
 * @file
 * Tests for the DianNao case-study substrate: datatype emulation, the
 * parametric generator, the cycle-level performance model with
 * activity coefficients, technology scaling, and the accuracy study.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "diannao/accuracy.hh"
#include "diannao/diannao.hh"
#include "synth/synthesizer.hh"
#include "util/rng.hh"

namespace sns::diannao {
namespace {

TEST(DataTypeTest, NamesAndBits)
{
    EXPECT_STREQ(dataTypeName(DataType::Bf16), "bf16");
    EXPECT_EQ(storageBits(DataType::Int8), 8);
    EXPECT_EQ(storageBits(DataType::Tf32), 19);
    EXPECT_EQ(mantissaBits(DataType::Fp16), 10);
    EXPECT_EQ(exponentBits(DataType::Fp16), 5);
    EXPECT_EQ(mantissaBits(DataType::Bf16), 7);
    EXPECT_TRUE(isFloating(DataType::Tf32));
    EXPECT_FALSE(isFloating(DataType::Int16));
    EXPECT_EQ(allDataTypes().size(), 6u);
}

TEST(DataTypeTest, Fp32QuantizationIsIdentity)
{
    for (float v : {0.0f, 1.5f, -3.25e-5f, 1e20f})
        EXPECT_EQ(quantizeFloat(v, DataType::Fp32), v);
}

TEST(DataTypeTest, Bf16MatchesTruncationSemantics)
{
    // 1.0f + 2^-8 rounds back to 1.0 in bf16 (7 mantissa bits),
    // while 1.0 + 2^-7 + 2^-8 rounds up to 1 + 2^-6 (nearest-even).
    EXPECT_FLOAT_EQ(quantizeFloat(1.0f + 0.00390625f, DataType::Bf16),
                    1.0f);
    EXPECT_FLOAT_EQ(quantizeFloat(1.0f, DataType::Bf16), 1.0f);
    // Representable values are fixed points.
    EXPECT_FLOAT_EQ(quantizeFloat(1.5f, DataType::Bf16), 1.5f);
    EXPECT_FLOAT_EQ(quantizeFloat(-0.15625f, DataType::Bf16), -0.15625f);
}

TEST(DataTypeTest, Fp16OverflowAndUnderflow)
{
    EXPECT_TRUE(std::isinf(quantizeFloat(70000.0f, DataType::Fp16)));
    EXPECT_EQ(quantizeFloat(1e-8f, DataType::Fp16), 0.0f);
    EXPECT_FLOAT_EQ(quantizeFloat(1024.0f, DataType::Fp16), 1024.0f);
}

TEST(DataTypeTest, QuantizationErrorShrinksWithMantissa)
{
    sns::Rng rng(5);
    double err_bf16 = 0.0;
    double err_fp16 = 0.0;
    for (int i = 0; i < 2000; ++i) {
        const float v = static_cast<float>(rng.uniform(0.5, 2.0));
        err_bf16 += std::fabs(quantizeFloat(v, DataType::Bf16) - v);
        err_fp16 += std::fabs(quantizeFloat(v, DataType::Fp16) - v);
    }
    EXPECT_LT(err_fp16, err_bf16)
        << "10 mantissa bits must beat 7";
}

TEST(DataTypeTest, FixedPointQuantization)
{
    EXPECT_FLOAT_EQ(quantizeFixed(0.34f, 8, 0.1f), 0.3f);
    EXPECT_FLOAT_EQ(quantizeFixed(100.0f, 8, 0.1f), 12.7f)
        << "saturates at +127 steps";
    EXPECT_FLOAT_EQ(quantizeFixed(-100.0f, 8, 0.1f), -12.8f);
}

TEST(DataTypeTest, QuantizeBufferFixedPointSemantics)
{
    // Integer formats use DianNao's global fixed-point format over
    // [-32, 32): int8 steps of 0.25, int16 steps of ~0.001.
    std::vector<float> int8_vals = {-1.0f, 0.25f, 0.37f, 100.0f};
    quantizeBuffer(int8_vals, DataType::Int8);
    EXPECT_FLOAT_EQ(int8_vals[0], -1.0f);
    EXPECT_FLOAT_EQ(int8_vals[1], 0.25f);
    EXPECT_FLOAT_EQ(int8_vals[2], 0.25f); // rounds to the 0.25 grid
    EXPECT_FLOAT_EQ(int8_vals[3], 31.75f) << "saturates at the top code";

    std::vector<float> int16_vals = {0.37f};
    quantizeBuffer(int16_vals, DataType::Int16);
    EXPECT_NEAR(int16_vals[0], 0.37f, 1e-3f)
        << "11 fractional bits keep small values";
}

/** Property sweep over the floating formats. */
class FloatFormats : public ::testing::TestWithParam<DataType>
{
};

TEST_P(FloatFormats, QuantizationIsIdempotent)
{
    sns::Rng rng(77);
    for (int i = 0; i < 500; ++i) {
        const float v = static_cast<float>(rng.normal(0.0, 10.0));
        const float once = quantizeFloat(v, GetParam());
        EXPECT_EQ(quantizeFloat(once, GetParam()), once)
            << "value " << v;
    }
}

TEST_P(FloatFormats, QuantizationPreservesOrderAndSign)
{
    sns::Rng rng(78);
    for (int i = 0; i < 300; ++i) {
        const float a = static_cast<float>(rng.uniform(-8.0, 8.0));
        const float b = static_cast<float>(rng.uniform(-8.0, 8.0));
        const float qa = quantizeFloat(a, GetParam());
        const float qb = quantizeFloat(b, GetParam());
        if (a <= b) {
            EXPECT_LE(qa, qb);
        }
        if (a != 0.0f && qa != 0.0f) {
            EXPECT_EQ(std::signbit(a), std::signbit(qa));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, FloatFormats,
    ::testing::Values(DataType::Fp16, DataType::Bf16, DataType::Tf32,
                      DataType::Fp32),
    [](const auto &info) {
        return std::string(dataTypeName(info.param));
    });

TEST(DianNaoSpaceTest, Enumerates576UniqueConfigs)
{
    const auto space = dianNaoDesignSpace();
    EXPECT_EQ(space.size(), 576u);
    std::set<std::string> names;
    for (const auto &params : space)
        names.insert(params.name());
    EXPECT_EQ(names.size(), space.size());
}

TEST(DianNaoBuilderTest, BuildsValidDesignWithRegisterGroups)
{
    const auto design = buildDianNao(DianNaoParams::original());
    EXPECT_NO_THROW(design.graph.validate());
    EXPECT_EQ(design.input_regs.size(), 16u);
    EXPECT_EQ(design.weight_regs.size(), 256u); // Tn^2 weight registers
    EXPECT_EQ(design.output_regs.size(), 16u);
    EXPECT_FALSE(design.accum_regs.empty());
    for (graphir::NodeId id : design.weight_regs)
        EXPECT_EQ(design.graph.type(id), graphir::NodeType::Dff);
}

TEST(DianNaoBuilderTest, AreaGrowsQuadraticallyWithTn)
{
    synth::SynthesisOptions opts;
    opts.heuristic_noise = 0.0;
    opts.enable_sizing = false;
    const synth::Synthesizer synth(opts);
    DianNaoParams small;
    small.tn = 4;
    DianNaoParams big;
    big.tn = 16;
    const auto rs = synth.run(buildDianNao(small).graph);
    const auto rb = synth.run(buildDianNao(big).graph);
    // 16x the multipliers -> roughly an order of magnitude more area.
    EXPECT_GT(rb.area_um2, 8.0 * rs.area_um2);
}

TEST(DianNaoBuilderTest, CheaperDatatypesAreSmaller)
{
    synth::SynthesisOptions opts;
    opts.heuristic_noise = 0.0;
    opts.enable_sizing = false;
    const synth::Synthesizer synth(opts);
    auto area = [&](DataType dtype) {
        DianNaoParams params;
        params.tn = 8;
        params.dtype = dtype;
        return synth.run(buildDianNao(params).graph).area_um2;
    };
    EXPECT_LT(area(DataType::Int8), area(DataType::Int16));
    EXPECT_LT(area(DataType::Int16), area(DataType::Fp32));
    EXPECT_LT(area(DataType::Bf16), area(DataType::Fp16))
        << "bf16's 8-bit mantissa datapath is cheaper than fp16's 11";
}

TEST(DianNaoBuilderTest, DeepPipelineHasMoreRegisters)
{
    DianNaoParams shallow;
    shallow.pipeline_stages = 3;
    DianNaoParams deep = shallow;
    deep.pipeline_stages = 8;
    const auto a = buildDianNao(shallow);
    const auto b = buildDianNao(deep);
    EXPECT_GT(b.accum_regs.size(), a.accum_regs.size());
    EXPECT_GT(b.graph.numNodes(), a.graph.numNodes());
}

TEST(DianNaoPerfModelTest, UtilizationAndActivitiesInRange)
{
    const auto result = DianNaoPerfModel::run(DianNaoParams::original(),
                                              alexNetLikeLayers());
    EXPECT_GT(result.total_cycles, 0.0);
    EXPECT_GT(result.mac_utilization, 0.1);
    EXPECT_LE(result.mac_utilization, 1.0);
    for (double activity :
         {result.input_activity, result.weight_activity,
          result.accum_activity, result.output_activity}) {
        EXPECT_GT(activity, 0.0);
        EXPECT_LE(activity, 1.0);
    }
    // DianNao streams synapses from SB each busy cycle: the weight
    // registers toggle at nearly the same rate as the inputs.
    EXPECT_NEAR(result.weight_activity, result.input_activity, 0.1);
}

TEST(DianNaoPerfModelTest, BiggerTnNeedsFewerCycles)
{
    const auto layers = alexNetLikeLayers();
    DianNaoParams small;
    small.tn = 4;
    DianNaoParams big;
    big.tn = 32;
    EXPECT_GT(DianNaoPerfModel::run(small, layers).total_cycles,
              DianNaoPerfModel::run(big, layers).total_cycles);
}

TEST(DianNaoPerfModelTest, HugeTnLosesUtilization)
{
    // The Fig.-10 efficiency story: Tn = 32 wastes PEs on ragged tiles.
    const auto layers = alexNetLikeLayers();
    DianNaoParams mid;
    mid.tn = 16;
    DianNaoParams big;
    big.tn = 32;
    EXPECT_GT(DianNaoPerfModel::run(mid, layers).mac_utilization,
              DianNaoPerfModel::run(big, layers).mac_utilization);
}

TEST(DianNaoPerfModelTest, ActivitiesReducePower)
{
    synth::SynthesisOptions opts;
    opts.heuristic_noise = 0.0;
    opts.enable_sizing = false;
    const synth::Synthesizer synth(opts);

    auto design = buildDianNao(DianNaoParams::original());
    const double hot = synth.run(design.graph).power_mw;
    const auto result = DianNaoPerfModel::run(design.params,
                                              alexNetLikeLayers());
    DianNaoPerfModel::applyActivities(design, result);
    const double gated = synth.run(design.graph).power_mw;
    EXPECT_LT(gated, hot);
}

TEST(TechScalingTest, MatchesTable12Factors)
{
    const auto published = publishedDianNao65nm();
    const auto scaled = scale65To15(published);
    // Row 2 of Table 12: 65.90 mW, 0.097302 mm^2, 0.33 ns.
    EXPECT_NEAR(scaled.power_mw, 65.90, 0.5);
    EXPECT_NEAR(scaled.area_um2 / 1e6, 0.097302, 0.001);
    EXPECT_NEAR(scaled.timing_ps / 1000.0, 0.33, 0.01);
}

TEST(AccuracyStudyTest, Int16SaturatesInt8Degrades)
{
    AccuracyStudyConfig config;
    config.train_samples = 800;
    config.test_samples = 300;
    config.epochs = 25;
    const auto results = runAccuracyStudy(config);
    ASSERT_EQ(results.size(), 6u);

    auto accuracy = [&](DataType dtype) {
        for (const auto &result : results) {
            if (result.dtype == dtype)
                return result.accuracy;
        }
        return -1.0;
    };
    const double fp32 = accuracy(DataType::Fp32);
    EXPECT_GT(fp32, 0.7) << "reference network failed to train";
    // Fig. 11: beyond int16 there is no appreciable accuracy gain.
    EXPECT_GT(accuracy(DataType::Int16), fp32 - 0.05);
    EXPECT_GT(accuracy(DataType::Fp16), fp32 - 0.05);
    EXPECT_GT(accuracy(DataType::Bf16), fp32 - 0.08);
    // And int8 costs measurable accuracy relative to fp32.
    EXPECT_LT(accuracy(DataType::Int8), fp32 + 1e-9);
}

} // namespace
} // namespace sns::diannao
