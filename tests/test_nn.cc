/**
 * @file
 * Tests for the neural-network layer library: layers, transformer
 * blocks, GRU cell, optimizers, and serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/gru.hh"
#include "nn/layers.hh"
#include "nn/optim.hh"
#include "nn/serialize.hh"
#include "tensor/simd.hh"

#include <sys/resource.h>
#include "nn/transformer.hh"

namespace sns::nn {
namespace {

using namespace sns::tensor;

TEST(LinearTest, Matches2DManualMatmul)
{
    Rng rng(1);
    const Linear layer(3, 2, rng);
    const Tensor x0 = Tensor::fromValues({1, 3}, {1.0f, 2.0f, 3.0f});
    const Variable y = layer.forward(Variable(x0));
    ASSERT_EQ(y.value().shape(), (std::vector<int>{1, 2}));

    const auto params = layer.parameters();
    const Tensor &w = params[0].value();
    const Tensor &b = params[1].value();
    for (int j = 0; j < 2; ++j) {
        float expect = b[j];
        for (int i = 0; i < 3; ++i)
            expect += x0[i] * w.at2(i, j);
        EXPECT_NEAR(y.value()[j], expect, 1e-5f);
    }
}

TEST(LinearTest, ThreeDAppliesPerPosition)
{
    Rng rng(2);
    const Linear layer(4, 3, rng);
    Rng data_rng(3);
    const Tensor x0 = Tensor::randn({2, 5, 4}, data_rng);
    const Variable y3 = layer.forward(Variable(x0));
    ASSERT_EQ(y3.value().shape(), (std::vector<int>{2, 5, 3}));

    // Same rows through the 2-D path give the same answer.
    const Variable y2 =
        layer.forward(Variable(x0.reshaped({10, 4})));
    for (size_t i = 0; i < y2.value().numel(); ++i)
        EXPECT_FLOAT_EQ(y3.value()[i], y2.value()[i]);
}

TEST(LinearTest, RejectsWidthMismatch)
{
    Rng rng(4);
    const Linear layer(4, 3, rng);
    EXPECT_THROW(layer.forward(Variable(Tensor::zeros({2, 5}))),
                 std::logic_error);
}

TEST(MlpTest, ShapeAndParameterCount)
{
    Rng rng(5);
    const Mlp mlp({8, 32, 32, 32, 3}, rng);
    // Paper §3.4: three hidden fully-connected layers of 32 neurons.
    EXPECT_EQ(mlp.parameterCount(),
              size_t(8 * 32 + 32 + 32 * 32 + 32 + 32 * 32 + 32 +
                     32 * 3 + 3));
    const Variable y = mlp.forward(Variable(Tensor::zeros({4, 8})));
    EXPECT_EQ(y.value().shape(), (std::vector<int>{4, 3}));
}

TEST(MlpTest, LearnsTinyRegression)
{
    // Fit y = 2*x0 - x1 on random data; loss must fall dramatically.
    Rng rng(6);
    Mlp mlp({2, 16, 1}, rng);
    Adam opt(mlp.parameters(), 0.01);

    Rng data_rng(7);
    const int n = 64;
    Tensor x({n, 2});
    Tensor y({n, 1});
    for (int i = 0; i < n; ++i) {
        x.at2(i, 0) = static_cast<float>(data_rng.normal());
        x.at2(i, 1) = static_cast<float>(data_rng.normal());
        y.at2(i, 0) = 2.0f * x.at2(i, 0) - x.at2(i, 1);
    }

    double first_loss = 0.0;
    double last_loss = 0.0;
    for (int epoch = 0; epoch < 300; ++epoch) {
        opt.zeroGrad();
        Variable loss = mseLoss(mlp.forward(Variable(x)), y);
        loss.backward();
        opt.step();
        if (epoch == 0)
            first_loss = loss.value()[0];
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, first_loss * 0.02);
}

/** Remove the SNS_SIMD ladder cap however a test exits. */
struct SimdCapGuard
{
    ~SimdCapGuard() { setSimdLevelCap(-1); }
};

TEST(MlpTest, RowForwardEqualsForwardBitwise)
{
    // forwardRow runs forward()'s gemmAcc, bias loop and activation
    // without the tape, so each row of a batched forward() must come
    // back bit for bit, for every activation at every SIMD rung. The
    // widths leave remainders in every GEMM tile and SIMD lane count.
    SimdCapGuard guard;
    setSimdLevelCap(-1);
    const int ceiling = simdLevel();
    for (const Activation activation :
         {Activation::Relu, Activation::Gelu, Activation::Tanh}) {
        Rng rng(11 + static_cast<int>(activation));
        const Mlp mlp({87, 32, 33, 17, 1}, rng, activation);
        const Mlp wide({5, 40, 3}, rng, activation);
        Rng data_rng(12);
        const Tensor x = Tensor::randn({3, 87}, data_rng, 2.0f);
        const Tensor x_wide = Tensor::randn({4, 5}, data_rng, 2.0f);
        for (int level = 0; level <= ceiling; ++level) {
            setSimdLevelCap(level);
            std::vector<float> buffer;
            for (const auto &[model, input] :
                 {std::pair{&mlp, &x}, std::pair{&wide, &x_wide}}) {
                const Tensor y = model->forward(Variable(*input)).value();
                const int in = input->dim(1);
                const int out = y.dim(1);
                for (int r = 0; r < input->dim(0); ++r) {
                    const auto row = model->forwardRow(
                        std::span<const float>(input->data() + r * in, in),
                        buffer);
                    ASSERT_EQ(row.size(), static_cast<size_t>(out));
                    for (int j = 0; j < out; ++j) {
                        EXPECT_EQ(std::bit_cast<uint32_t>(row[j]),
                                  std::bit_cast<uint32_t>(y.at2(r, j)))
                            << "activation "
                            << static_cast<int>(activation) << " rung "
                            << level << " row " << r << " col " << j;
                    }
                }
            }
        }
    }
}

TEST(MlpTest, RowForwardRejectsWidthMismatch)
{
    Rng rng(13);
    const Mlp mlp({4, 8, 1}, rng);
    std::vector<float> buffer;
    const std::vector<float> x(5, 0.0f);
    EXPECT_THROW(mlp.forwardRow(x, buffer), std::logic_error);
}

TEST(LayerNormTest, NormalizesRows)
{
    LayerNorm norm(8);
    Rng rng(8);
    const Tensor x0 = Tensor::randn({4, 8}, rng, 3.0f);
    const Variable y = norm.forward(Variable(x0));
    for (int i = 0; i < 4; ++i) {
        double mean = 0.0;
        double var = 0.0;
        for (int j = 0; j < 8; ++j)
            mean += y.value().at2(i, j);
        mean /= 8.0;
        for (int j = 0; j < 8; ++j) {
            const double d = y.value().at2(i, j) - mean;
            var += d * d;
        }
        var /= 8.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(AttentionTest, OutputShape)
{
    Rng rng(9);
    const MultiHeadAttention mha(16, 2, rng);
    Rng data_rng(10);
    const Tensor x0 = Tensor::randn({1, 9, 16}, data_rng);
    const Variable y = mha.forward(Variable(x0), RaggedLayout({5, 3, 1}));
    EXPECT_EQ(y.value().shape(), (std::vector<int>{1, 9, 16}));
}

TransformerConfig
tinyEncoderConfig(int layers)
{
    TransformerConfig config;
    config.vocab_size = 20;
    config.max_positions = 8;
    config.d_model = 16;
    config.heads = 2;
    config.layers = layers;
    config.d_ff = 32;
    return config;
}

/** Encode token sequences as one ragged batch; an empty sequence's
 * span holds pad id 0. */
Variable
encodeRagged(const TransformerEncoder &encoder,
             const std::vector<std::vector<int>> &seqs)
{
    std::vector<int> lengths;
    for (const auto &seq : seqs)
        lengths.push_back(static_cast<int>(seq.size()));
    const RaggedLayout layout(lengths);
    std::vector<int> ids(layout.rows(), 0);
    for (size_t b = 0; b < seqs.size(); ++b) {
        std::copy(seqs[b].begin(), seqs[b].end(),
                  ids.begin() + layout.offsets[b]);
    }
    return encoder.encode(ids, layout);
}

TEST(TransformerTest, PaddingInvariance)
{
    // An empty sequence spans its batch's padded width in pad ids, so
    // its encoding depends on that width and on nothing else.
    Rng rng(11);
    const TransformerEncoder encoder(tinyEncoderConfig(2), rng);
    const Variable a = encodeRagged(encoder, {{}, {3, 7, 2}});
    const Variable b = encodeRagged(encoder, {{9, 9, 9}, {}});
    const Variable wider = encodeRagged(encoder, {{}, {3, 7, 2, 4, 5}});
    bool width_matters = false;
    for (int j = 0; j < 16; ++j) {
        EXPECT_EQ(a.value().at2(0, j), b.value().at2(1, j));
        width_matters |= a.value().at2(0, j) != wider.value().at2(0, j);
    }
    EXPECT_TRUE(width_matters);
}

TEST(TransformerTest, BatchingMatchesSingle)
{
    // Each row of a ragged batch equals that row encoded alone, bit for
    // bit, whatever the lengths around it.
    Rng rng(12);
    const TransformerEncoder encoder(tinyEncoderConfig(1), rng);
    const std::vector<std::vector<int>> seqs = {
        {1, 2, 3, 4}, {5, 6, 7}, {8}, {1, 3, 5, 7, 9, 11, 13, 15}, {2, 4}};
    const Variable batch = encodeRagged(encoder, seqs);
    for (size_t b = 0; b < seqs.size(); ++b) {
        const Variable alone = encodeRagged(encoder, {seqs[b]});
        for (int j = 0; j < 16; ++j) {
            EXPECT_EQ(batch.value().at2(static_cast<int>(b), j),
                      alone.value().at2(0, j))
                << "row " << b << " column " << j;
        }
    }
}

TEST(TransformerTest, PaperScaleParameterCount)
{
    // Table 2 configuration: vocab 79+3, two layers, two heads, 128-d.
    Rng rng(13);
    const TransformerEncoder encoder(TransformerConfig{}, rng);
    const size_t count = encoder.parameterCount();
    // Our encoder lands at ~0.5M parameters (the paper reports 1.4M for
    // its HuggingFace-derived variant); assert the right magnitude.
    EXPECT_GT(count, 300000u);
    EXPECT_LT(count, 2000000u);
}

TEST(TransformerTest, CanOverfitTinyRegression)
{
    // Map sequences to the count of token "2" they contain.
    Rng rng(14);
    TransformerConfig config;
    config.vocab_size = 5;
    config.max_positions = 6;
    config.d_model = 16;
    config.heads = 2;
    config.layers = 1;
    config.d_ff = 32;
    const TransformerEncoder encoder(config, rng);
    Mlp head({16, 16, 1}, rng);

    std::vector<Variable> params = encoder.parameters();
    for (const auto &p : head.parameters())
        params.push_back(p);
    Adam opt(params, 0.01);

    const std::vector<std::vector<int>> seqs = {
        {2, 2, 2, 1}, {1, 3, 1, 4}, {2, 1, 2, 3}, {4, 2, 4, 4}};
    const std::vector<float> targets = {3.0f, 0.0f, 2.0f, 1.0f};

    Tensor target_tensor =
        Tensor::fromValues({4, 1}, std::vector<float>(targets));

    double last_loss = 1e9;
    for (int epoch = 0; epoch < 150; ++epoch) {
        opt.zeroGrad();
        const Variable pooled = encodeRagged(encoder, seqs);
        Variable loss =
            mseLoss(head.forward(pooled), target_tensor);
        loss.backward();
        opt.step();
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.05) << "transformer failed to overfit";
}

TEST(Conv2dTest, OutputShapeAndParams)
{
    Rng rng(40);
    const Conv2d conv(3, 8, 3, 8, 8, 1, rng); // 8x8x3 -> 8x8x8
    EXPECT_EQ(conv.outHeight(), 8);
    EXPECT_EQ(conv.outWidth(), 8);
    EXPECT_EQ(conv.parameterCount(), size_t(3 * 3 * 3 * 8 + 8));
    const Variable y =
        conv.forward(Variable(Tensor::zeros({2, 8 * 8 * 3})));
    EXPECT_EQ(y.value().shape(), (std::vector<int>{2, 8 * 8 * 8}));
}

TEST(Conv2dTest, DetectsAVerticalEdge)
{
    // A conv net must learn to separate vertical-bar images from
    // horizontal-bar images — something a 3x3 kernel does trivially.
    Rng rng(41);
    Conv2d conv(1, 4, 3, 6, 6, 1, rng);
    Linear head(6 * 6 * 4, 2, rng);
    std::vector<Variable> params = conv.parameters();
    for (const auto &p : head.parameters())
        params.push_back(p);
    Adam opt(params, 5e-3);

    Rng data_rng(42);
    auto make_batch = [&](int n, Tensor &x, std::vector<int> &labels) {
        x = Tensor::zeros({n, 36});
        labels.assign(n, 0);
        for (int i = 0; i < n; ++i) {
            const bool vertical = data_rng.bernoulli(0.5);
            const int pos =
                1 + static_cast<int>(data_rng.uniformInt(4ull));
            for (int t = 0; t < 6; ++t) {
                const int idx = vertical ? t * 6 + pos : pos * 6 + t;
                x.at2(i, idx) = 1.0f;
            }
            for (int j = 0; j < 36; ++j) {
                x.at2(i, j) += static_cast<float>(
                    data_rng.normal(0.0, 0.15));
            }
            labels[i] = vertical ? 1 : 0;
        }
    };

    for (int epoch = 0; epoch < 60; ++epoch) {
        Tensor x;
        std::vector<int> labels;
        make_batch(32, x, labels);
        opt.zeroGrad();
        Variable loss = crossEntropyLoss(
            head.forward(relu(conv.forward(Variable(x)))), labels);
        loss.backward();
        opt.step();
    }

    Tensor x;
    std::vector<int> labels;
    make_batch(200, x, labels);
    const Variable logits =
        head.forward(relu(conv.forward(Variable(x))));
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        const int pred =
            logits.value().at2(i, 1) > logits.value().at2(i, 0);
        correct += pred == labels[i];
    }
    EXPECT_GT(correct, 180) << "conv net failed the bar task";
}

TEST(GruTest, StepShapesAndLearning)
{
    Rng rng(15);
    const GruCell cell(4, 8, rng);
    const Variable h0 = cell.initialState(3);
    EXPECT_EQ(h0.value().shape(), (std::vector<int>{3, 8}));
    const Variable h1 =
        cell.step(Variable(Tensor::zeros({3, 4})), h0);
    EXPECT_EQ(h1.value().shape(), (std::vector<int>{3, 8}));
}

TEST(GruTest, LearnsToRememberFirstInput)
{
    // Sequence task: after 3 steps output the first step's sign.
    Rng rng(16);
    GruCell cell(1, 8, rng);
    Linear readout(8, 1, rng);
    std::vector<Variable> params = cell.parameters();
    for (const auto &p : readout.parameters())
        params.push_back(p);
    Adam opt(params, 0.02);

    Rng data_rng(17);
    double last_loss = 1e9;
    for (int epoch = 0; epoch < 200; ++epoch) {
        const int batch = 16;
        Tensor first({batch, 1});
        Tensor rest1({batch, 1});
        Tensor rest2({batch, 1});
        Tensor target({batch, 1});
        for (int i = 0; i < batch; ++i) {
            first.at2(i, 0) = data_rng.bernoulli(0.5) ? 1.0f : -1.0f;
            rest1.at2(i, 0) = static_cast<float>(data_rng.normal(0, 0.3));
            rest2.at2(i, 0) = static_cast<float>(data_rng.normal(0, 0.3));
            target.at2(i, 0) = first.at2(i, 0);
        }
        opt.zeroGrad();
        Variable h = cell.initialState(batch);
        h = cell.step(Variable(first), h);
        h = cell.step(Variable(rest1), h);
        h = cell.step(Variable(rest2), h);
        Variable loss = mseLoss(readout.forward(h), target);
        loss.backward();
        opt.step();
        last_loss = loss.value()[0];
    }
    EXPECT_LT(last_loss, 0.2) << "GRU failed to carry state";
}

TEST(OptimTest, SgdMatchesHandComputedStep)
{
    Variable w(Tensor::full({1}, 1.0f), true);
    Sgd sgd({w}, 0.1, 0.9);
    // loss = w^2 -> grad 2w.
    mseLoss(w, Tensor::zeros({1})).backward();
    sgd.step(); // v = 2, w = 1 - 0.2 = 0.8
    EXPECT_NEAR(w.value()[0], 0.8f, 1e-6f);
    sgd.zeroGrad();
    mseLoss(w, Tensor::zeros({1})).backward(); // grad = 1.6
    sgd.step(); // v = 0.9*2 + 1.6 = 3.4, w = 0.8 - 0.34 = 0.46
    EXPECT_NEAR(w.value()[0], 0.46f, 1e-5f);
}

TEST(OptimTest, AdamMinimizesQuadratic)
{
    Variable w(Tensor::full({4}, 5.0f), true);
    Adam adam({w}, 0.1);
    for (int i = 0; i < 300; ++i) {
        adam.zeroGrad();
        mseLoss(w, Tensor::zeros({4})).backward();
        adam.step();
    }
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(w.value()[i], 0.0f, 0.05f);
}

TEST(OptimTest, ClipGradNormCaps)
{
    Variable w(Tensor::full({4}, 1.0f), true);
    scale(sumAll(w), 10.0).backward(); // grad = 10 each, norm 20.
    const double before = clipGradNorm({w}, 1.0);
    EXPECT_NEAR(before, 20.0, 1e-4);
    double sq = 0.0;
    for (size_t i = 0; i < 4; ++i)
        sq += w.grad()[i] * w.grad()[i];
    EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-4);
}

TEST(OptimTest, RejectsNonGradParameters)
{
    Variable w(Tensor::zeros({1}), false);
    EXPECT_THROW(Sgd({w}, 0.1), std::logic_error);
}

TEST(SerializeTest, RoundTripRestoresWeights)
{
    Rng rng(18);
    Mlp mlp({4, 8, 2}, rng);
    auto params = mlp.parameters();
    std::vector<float> saved_first;
    for (size_t i = 0; i < params[0].value().numel(); ++i)
        saved_first.push_back(params[0].value()[i]);

    const std::string path =
        (std::filesystem::temp_directory_path() / "sns_weights.bin")
            .string();
    saveParameters(path, params);

    // Corrupt in memory, then restore from disk.
    params[0].valueMutable().fill(0.0f);
    loadParameters(path, params);
    for (size_t i = 0; i < saved_first.size(); ++i)
        EXPECT_FLOAT_EQ(params[0].value()[i], saved_first[i]);
    std::remove(path.c_str());
}

TEST(SerializeTest, DetectsShapeMismatch)
{
    Rng rng(19);
    Mlp a({4, 8, 2}, rng);
    Mlp b({4, 9, 2}, rng);
    const std::string path =
        (std::filesystem::temp_directory_path() / "sns_weights2.bin")
            .string();
    auto pa = a.parameters();
    saveParameters(path, pa);
    auto pb = b.parameters();
    // Shape mismatches throw (SerializeError) rather than exiting, so
    // a serving daemon survives a bad RELOAD checkpoint.
    try {
        loadParameters(path, pb);
        FAIL() << "mismatched shapes must not load";
    } catch (const SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("mismatch"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

// --- Training checkpoints (SNSC container, listing, retention). ----

/** A throwaway directory under the system temp dir. */
std::string
tempCheckpointDir(const char *name)
{
    const auto dir = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** The trainer's single-process checkpoint name for `epoch`. */
std::string
worldOneName(int epoch)
{
    char name[40];
    std::snprintf(name, sizeof(name), "ckpt-%06d-r00of01.ckpt", epoch);
    return name;
}

TEST(CheckpointTest, ContainerRoundTripDetectsCorruption)
{
    const std::string dir = tempCheckpointDir("sns_ckpt_container");
    const std::string path = dir + "/" + worldOneName(3);

    std::ostringstream payload;
    CheckpointWriter writer(payload);
    writer.u32(42);
    writer.i64(-7);
    writer.f64(0.25);
    writer.str("hello checkpoint");
    commitCheckpoint(path, payload.str());
    // The atomic commit leaves no temp file behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    const std::string bytes = readCheckpointPayload(path);
    CheckpointReader reader(bytes, path);
    EXPECT_EQ(reader.u32(), 42u);
    EXPECT_EQ(reader.i64(), -7);
    EXPECT_EQ(reader.f64(), 0.25);
    EXPECT_EQ(reader.str(), "hello checkpoint");
    // Reading past the payload is a structured error, not UB.
    EXPECT_THROW(reader.u32(), SerializeError);

    // Flip one payload byte: the FNV-1a hash check must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(30);
        f.put('\x5a');
    }
    try {
        readCheckpointPayload(path);
        FAIL() << "corrupt payload must not load";
    } catch (const SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("hash mismatch"),
                  std::string::npos);
    }

    // Truncation is detected by the declared-length check.
    commitCheckpoint(path, payload.str());
    std::filesystem::resize_file(path, 30);
    EXPECT_THROW(readCheckpointPayload(path), SerializeError);

    // A non-checkpoint file is rejected on the magic.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f << "definitely not a checkpoint";
    }
    EXPECT_THROW(readCheckpointPayload(path), SerializeError);
    std::filesystem::remove_all(dir);
}

/**
 * A bare 24-byte header claiming a 2^62-byte payload is a structured
 * error: the length is compared with the file size before anything
 * is allocated from it.
 */
TEST(CheckpointTest, HugeLengthFixtureThrows)
{
    EXPECT_THROW(readCheckpointPayload(std::string(SNS_FIXTURE_DIR) +
                                       "/huge_length.ckpt"),
                 SerializeError);
}

/** A 256 MiB length claim in a small file is refused without a
 * 256 MiB allocation (peak RSS is a high-water mark; ctest runs each
 * test in its own process). */
TEST(CheckpointTest, LengthClaimAllocatesNothing)
{
    const std::string dir = tempCheckpointDir("sns_ckpt_claim");
    const std::string path = dir + "/" + worldOneName(1);
    auto header = containerHeader(kCheckpointFormat, nullptr, 0);
    const uint64_t claim = uint64_t(256) << 20;
    std::memcpy(header.data() + 8, &claim, sizeof(claim));
    {
        std::ofstream out(path, std::ios::binary);
        out.write(header.data(), header.size());
        out << "a short payload";
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const long before = usage.ru_maxrss;
    EXPECT_THROW(readCheckpointPayload(path), SerializeError);
    getrusage(RUSAGE_SELF, &usage);
    EXPECT_LT((usage.ru_maxrss - before) * 1024L, 64L << 20);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, ListingSortsAndPruningKeepsNewest)
{
    const std::string dir = tempCheckpointDir("sns_ckpt_listing");
    // Write out of order; zero-padded names sort numerically.
    for (int epoch : {12, 3, 7, 101}) {
        commitCheckpoint(dir + "/" + worldOneName(epoch), "payload");
    }
    const auto all = listCheckpoints(dir);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_NE(all[0].find("ckpt-000003"), std::string::npos);
    EXPECT_NE(all[3].find("ckpt-000101"), std::string::npos);

    pruneCheckpoints(dir, 2);
    const auto kept = listCheckpoints(dir);
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_NE(kept[0].find("ckpt-000012"), std::string::npos);
    EXPECT_NE(kept[1].find("ckpt-000101"), std::string::npos);

    // keep == 0 keeps everything; an empty/missing dir is not an error.
    pruneCheckpoints(dir, 0);
    EXPECT_EQ(listCheckpoints(dir).size(), 2u);
    EXPECT_TRUE(listCheckpoints(dir + "/missing").empty());
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, RngStateRoundTripIncludesCachedNormal)
{
    Rng a(0x5eed);
    for (int i = 0; i < 7; ++i)
        a.next();
    // normal() draws two uniforms and caches the second Box-Muller
    // deviate; the saved state must carry that carry-over.
    a.normal();

    const Rng::State state = a.state();
    Rng b(1); // different seed, fully overwritten below
    b.setState(state);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(a.next(), b.next());
        EXPECT_EQ(a.normal(), b.normal());
    }
}

} // namespace
} // namespace sns::nn
