/**
 * @file
 * Tests for the tensor and autograd layer. The centrepiece is a
 * finite-difference gradient check applied to every differentiable op,
 * since every model in the library rides on these gradients.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "par/thread_pool.hh"
#include "tensor/autograd.hh"
#include "tensor/gemm.hh"
#include "tensor/qgemm.hh"
#include "tensor/simd.hh"
#include "tensor/tanh.hh"
#include "tensor/tensor.hh"

namespace sns::tensor {
namespace {

TEST(TensorTest, FactoriesAndShape)
{
    const Tensor z = Tensor::zeros({2, 3});
    EXPECT_EQ(z.numel(), 6u);
    EXPECT_EQ(z.ndim(), 2);
    EXPECT_EQ(z.dim(1), 3);
    EXPECT_EQ(z.shapeString(), "[2, 3]");

    const Tensor f = Tensor::full({4}, 2.5f);
    for (size_t i = 0; i < f.numel(); ++i)
        EXPECT_FLOAT_EQ(f[i], 2.5f);

    const Tensor s = Tensor::scalar(7.0f);
    EXPECT_EQ(s.numel(), 1u);
    EXPECT_FLOAT_EQ(s[0], 7.0f);
}

TEST(TensorTest, RandnMomentsAndUniformRange)
{
    Rng rng(3);
    const Tensor n = Tensor::randn({10000}, rng, 2.0f);
    double mean = 0.0;
    for (size_t i = 0; i < n.numel(); ++i)
        mean += n[i];
    mean /= n.numel();
    EXPECT_NEAR(mean, 0.0, 0.1);

    const Tensor u = Tensor::uniform({1000}, rng, -1.0f, 1.0f);
    for (size_t i = 0; i < u.numel(); ++i) {
        EXPECT_GE(u[i], -1.0f);
        EXPECT_LT(u[i], 1.0f);
    }
}

TEST(TensorTest, ElementAccess)
{
    Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    EXPECT_FLOAT_EQ(t.at2(1, 2), 6.0f);
    t.at2(0, 1) = 9.0f;
    EXPECT_FLOAT_EQ(t[1], 9.0f);

    Tensor t3 = Tensor::fromValues({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_FLOAT_EQ(t3.at3(1, 0, 1), 5.0f);
}

TEST(TensorTest, ReshapePreservesDataAndChecksCount)
{
    const Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    const Tensor r = t.reshaped({3, 2});
    EXPECT_FLOAT_EQ(r.at2(2, 1), 6.0f);
    EXPECT_THROW(t.reshaped({4, 2}), std::logic_error);
}

TEST(TensorTest, AddScaledAndScale)
{
    Tensor a = Tensor::full({3}, 1.0f);
    const Tensor b = Tensor::full({3}, 2.0f);
    a.addScaled(b, 0.5f);
    EXPECT_FLOAT_EQ(a[0], 2.0f);
    a.scaleInPlace(2.0f);
    EXPECT_FLOAT_EQ(a[2], 4.0f);
    EXPECT_DOUBLE_EQ(a.sum(), 12.0);
}

// ---------------------------------------------------------------------
// GEMM kernel
// ---------------------------------------------------------------------

void
naiveGemm(const std::vector<float> &a, const std::vector<float> &b,
          std::vector<float> &c, int m, int n, int k, bool ta, bool tb)
{
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int p = 0; p < k; ++p) {
                const float av = ta ? a[p * m + i] : a[i * k + p];
                const float bv = tb ? b[j * k + p] : b[p * n + j];
                acc += av * bv;
            }
            c[i * n + j] += acc;
        }
    }
}

class GemmCase
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(GemmCase, MatchesNaiveReference)
{
    const auto [ta, tb] = GetParam();
    const int m = 5;
    const int n = 7;
    const int k = 4;
    Rng rng(17);
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    for (auto &x : a)
        x = static_cast<float>(rng.normal());
    for (auto &x : b)
        x = static_cast<float>(rng.normal());

    std::vector<float> expected(static_cast<size_t>(m) * n, 0.5f);
    std::vector<float> actual = expected;
    naiveGemm(a, b, expected, m, n, k, ta, tb);
    gemmAcc(a.data(), b.data(), actual.data(), m, n, k, ta, tb);
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_NEAR(actual[i], expected[i], 1e-4f) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposes, GemmCase,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "tA" : "nA") +
               (std::get<1>(info.param) ? "tB" : "nB");
    });

// ---------------------------------------------------------------------
// The shared SNS_SIMD ladder (tensor/simd.hh).

TEST(SimdLadder, ParseKnowsExactlyZeroAndOne)
{
    // Exactly "0", "1" and "2" cap; everything else is uncapped.
    EXPECT_EQ(parseSimdLevel(nullptr), kSimdAmx);
    EXPECT_EQ(parseSimdLevel(""), kSimdAmx);
    EXPECT_EQ(parseSimdLevel("0"), kSimdScalar);
    EXPECT_EQ(parseSimdLevel("1"), kSimdAvx2);
    EXPECT_EQ(parseSimdLevel("2"), kSimdAvx512);
    EXPECT_EQ(parseSimdLevel("3"), kSimdAmx);
    EXPECT_EQ(parseSimdLevel("00"), kSimdAmx);
    EXPECT_EQ(parseSimdLevel("off"), kSimdAmx);
}

/** Remove the ladder cap however a test exits. */
struct SimdCapGuard
{
    ~SimdCapGuard() { setSimdLevelCap(-1); }
};

/** The highest rung this process may run: the CPU ceiling, lowered by
 * a forced SNS_SIMD (the lint sweep sets it). */
int
simdCeiling()
{
    setSimdLevelCap(-1);
    return simdLevel();
}

TEST(SimdLadder, OneLevelForEveryKernel)
{
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    EXPECT_LE(ceiling, simdMaxLevel());
    for (int level = 0; level <= ceiling; ++level) {
        setSimdLevelCap(level);
        EXPECT_EQ(simdLevel(), level);
        EXPECT_EQ(qgemmLevel(), level);
        EXPECT_EQ(gemmSimdActive(), level >= kSimdAvx2);
        if (level == kSimdAmx) { // the float kernels stay on AVX-512
            EXPECT_TRUE(gemmSimdActive());
        }
    }
    setQgemmLevelCap(0); // the quantized tier's name caps the float kernels
    EXPECT_FALSE(gemmSimdActive());
}

// The gemm.hh accumulation contract: every rung of the dispatched
// kernel must equal the scalar reference bit for bit, across every
// layout and every remainder shape (rows % 12 and % 4, cols % 32,
// % 16 and % 8), and at any pool width.
TEST(GemmSimd, DispatchMatchesScalarBitForBit)
{
    struct Shape
    {
        int m, n, k;
    };
    // Full tiles of every rung, 1-row and sub-16/sub-8 column tails,
    // and k edge cases...
    std::vector<Shape> shapes = {{4, 16, 8},  {8, 32, 16}, {1, 1, 1},
                                 {3, 7, 5},   {5, 17, 9},  {2, 8, 64},
                                 {7, 23, 33}, {16, 48, 1}, {1, 16, 128},
                                 {6, 9, 2},   {13, 40, 21}};
    // ...and every row remainder of the 12-row AVX-512 block (m up to
    // 2 * 12 + 1) against one or two, full or partial, panels.
    for (int m = 1; m <= 25; ++m)
        for (const int n : {1, 15, 16, 17, 31, 32, 33, 48})
            shapes.push_back({m, n, 1 + (m * n) % 11});
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    Rng rng(99);
    for (const auto &shape : shapes) {
        for (const bool ta : {false, true}) {
            for (const bool tb : {false, true}) {
                std::vector<float> a(static_cast<size_t>(shape.m) *
                                     shape.k);
                std::vector<float> b(static_cast<size_t>(shape.k) *
                                     shape.n);
                std::vector<float> c0(static_cast<size_t>(shape.m) *
                                      shape.n);
                for (auto &x : a)
                    x = static_cast<float>(rng.normal());
                for (auto &x : b)
                    x = static_cast<float>(rng.normal());
                for (auto &x : c0)
                    x = static_cast<float>(rng.normal());

                std::vector<float> want = c0;
                gemmAccScalar(a.data(), b.data(), want.data(), shape.m,
                              shape.n, shape.k, ta, tb);
                for (int level = 0; level <= ceiling; ++level) {
                    setSimdLevelCap(level);
                    std::vector<float> got = c0;
                    gemmAcc(a.data(), b.data(), got.data(), shape.m,
                            shape.n, shape.k, ta, tb);
                    for (size_t i = 0; i < got.size(); ++i) {
                        ASSERT_EQ(got[i], want[i])
                            << "m=" << shape.m << " n=" << shape.n
                            << " k=" << shape.k << " ta=" << ta
                            << " tb=" << tb << " index " << i
                            << " level=" << level;
                    }
                }
            }
        }
    }
}

TEST(GemmSimd, RuntimeToggleAndThreadingPreserveBits)
{
    // Big enough to cross the parallel threshold (2*m*n*k >= 2^21).
    const int m = 96;
    const int n = 107; // deliberate non-multiple of the panel width
    const int k = 128;
    Rng rng(7);
    std::vector<float> a(static_cast<size_t>(m) * k);
    std::vector<float> b(static_cast<size_t>(k) * n);
    std::vector<float> c0(static_cast<size_t>(m) * n, 0.25f);
    for (auto &x : a)
        x = static_cast<float>(rng.normal());
    for (auto &x : b)
        x = static_cast<float>(rng.normal());

    std::vector<float> want = c0;
    gemmAccScalar(a.data(), b.data(), want.data(), m, n, k, false,
                  false);

    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    for (int level = 0; level <= ceiling; ++level) {
        setSimdLevelCap(level);
        EXPECT_EQ(simdLevel(), level);
        for (const int threads : {1, 4}) {
            par::setThreads(threads);
            std::vector<float> got = c0;
            gemmAcc(a.data(), b.data(), got.data(), m, n, k, false,
                    false);
            ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                     got.size() * sizeof(float)))
                << "level=" << level << " threads=" << threads;
        }
    }
    par::setThreads(1);
}

// ---------------------------------------------------------------------
// Autograd: finite-difference gradient checking
// ---------------------------------------------------------------------

using LossFn = std::function<Variable(const Variable &)>;

/**
 * Verify d(loss)/d(x) against central finite differences. The loss
 * function must be a pure function of its input so the graph can be
 * rebuilt per evaluation.
 */
void
gradCheck(const Tensor &x0, const LossFn &f, float eps = 1e-2f,
          float tol = 3e-2f)
{
    Variable x(x0, /*requires_grad=*/true);
    Variable loss = f(x);
    ASSERT_EQ(loss.value().numel(), 1u);
    loss.backward();
    const Tensor analytic = x.grad();

    for (size_t i = 0; i < x0.numel(); ++i) {
        Tensor xp = x0;
        Tensor xm = x0;
        xp[i] += eps;
        xm[i] -= eps;
        const double fp = f(Variable(xp)).value()[0];
        const double fm = f(Variable(xm)).value()[0];
        const double numeric = (fp - fm) / (2.0 * eps);
        const double a = analytic[i];
        const double scale_ref =
            1.0 + std::max(std::fabs(a), std::fabs(numeric));
        EXPECT_NEAR(a, numeric, tol * scale_ref)
            << "element " << i;
    }
}

Tensor
randomTensor(std::vector<int> shape, uint64_t seed, float stddev = 1.0f)
{
    Rng rng(seed);
    return Tensor::randn(std::move(shape), rng, stddev);
}

TEST(Autograd, MatmulGradients)
{
    const Tensor a0 = randomTensor({3, 4}, 1);
    const Tensor b0 = randomTensor({4, 2}, 2);
    gradCheck(a0, [&](const Variable &a) {
        return sumAll(matmul(a, constant(b0)));
    });
    gradCheck(b0, [&](const Variable &b) {
        return sumAll(matmul(constant(a0), b));
    });
}

/** Three sequences, one empty (it spans the padded width 3): 8 rows,
 * two heads. */
const RaggedLayout &
raggedLayout()
{
    static const RaggedLayout layout({2, 0, 3});
    return layout;
}

/** Floats of raggedLayout()'s score blocks at two heads. */
constexpr int kRaggedScores = 2 * (2 * 2 + 3 * 3 + 3 * 3);

TEST(Autograd, BmmGradients)
{
    const Tensor a0 = randomTensor({kRaggedScores}, 3);
    const Tensor v0 = randomTensor({16, 2}, 4);
    gradCheck(a0, [&](const Variable &a) {
        return sumAll(mul(bmm(a, constant(v0), raggedLayout(), 2),
                          constant(v0)));
    });
    gradCheck(v0, [&](const Variable &v) {
        return sumAll(bmm(constant(a0), v, raggedLayout(), 2));
    });
}

TEST(Autograd, BmmTransBGradients)
{
    const Tensor q0 = randomTensor({16, 2}, 5);
    const Tensor k0 = randomTensor({16, 2}, 6);
    const Tensor w0 = randomTensor({kRaggedScores}, 7);
    gradCheck(q0, [&](const Variable &q) {
        return sumAll(mul(bmmTransB(q, constant(k0), raggedLayout(), 2),
                          constant(w0)));
    });
    gradCheck(k0, [&](const Variable &k) {
        return sumAll(mul(bmmTransB(constant(q0), k, raggedLayout(), 2),
                          constant(w0)));
    });
}

TEST(Autograd, ElementwiseGradients)
{
    const Tensor x0 = randomTensor({2, 3}, 7);
    const Tensor y0 = randomTensor({2, 3}, 8);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(add(x, constant(y0)));
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(sub(constant(y0), x));
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(x, constant(y0)));
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(x, x)); // shared input accumulates
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(scale(addScalar(x, 1.5), -2.0));
    });
}

TEST(Autograd, AddBiasGradients)
{
    const Tensor x0 = randomTensor({3, 4}, 9);
    const Tensor b0 = randomTensor({4}, 10);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(addBias(x, constant(b0)));
    });
    gradCheck(b0, [&](const Variable &b) {
        return sumAll(addBias(constant(x0), b));
    });
}

TEST(Autograd, NonlinearityGradients)
{
    // Keep values away from the ReLU kink for finite differences.
    Tensor x0 = randomTensor({2, 5}, 11);
    for (size_t i = 0; i < x0.numel(); ++i) {
        if (std::fabs(x0[i]) < 0.1f)
            x0[i] = 0.3f;
    }
    gradCheck(x0, [](const Variable &x) { return sumAll(relu(x)); });
    gradCheck(x0, [](const Variable &x) { return sumAll(gelu(x)); });
    gradCheck(x0, [](const Variable &x) { return sumAll(tanhOp(x)); });
    gradCheck(x0, [](const Variable &x) { return sumAll(sigmoidOp(x)); });
}

TEST(Autograd, SoftmaxGradients)
{
    const Tensor x0 = randomTensor({3, 4}, 12);
    const Tensor w0 = randomTensor({3, 4}, 13);
    gradCheck(x0, [&](const Variable &x) {
        // Weighted sum makes the Jacobian non-trivial.
        return sumAll(mul(softmaxLastDim(x), constant(w0)));
    });
}

TEST(Autograd, LayerNormGradients)
{
    const Tensor x0 = randomTensor({2, 6}, 14);
    const Tensor g0 = randomTensor({6}, 15, 0.5f);
    const Tensor b0 = randomTensor({6}, 16, 0.5f);
    const Tensor w0 = randomTensor({2, 6}, 17);
    auto weighted = [&](const Variable &y) {
        return sumAll(mul(y, constant(w0)));
    };
    gradCheck(x0, [&](const Variable &x) {
        return weighted(layerNorm(x, constant(g0), constant(b0)));
    });
    gradCheck(g0, [&](const Variable &g) {
        return weighted(layerNorm(constant(x0), g, constant(b0)));
    });
    gradCheck(b0, [&](const Variable &b) {
        return weighted(layerNorm(constant(x0), constant(g0), b));
    });
}

TEST(Autograd, EmbeddingGradients)
{
    const Tensor w0 = randomTensor({5, 3}, 18);
    const std::vector<int> ids = {1, 4, 1, 0};
    gradCheck(w0, [&](const Variable &w) {
        return sumAll(mul(embedding(w, ids, {4}),
                          constant(randomTensor({4, 3}, 19))));
    });
}

TEST(Autograd, SplitMergeHeadsRoundTripAndGradients)
{
    const Tensor x0 = randomTensor({1, 8, 4}, 20);
    // Round trip reproduces the input exactly.
    const Variable x(x0);
    const Variable heads = splitHeads(x, raggedLayout(), 2);
    EXPECT_EQ(heads.value().shape(), (std::vector<int>{16, 2}));
    const Variable rt = mergeHeads(heads, raggedLayout(), 2);
    EXPECT_EQ(rt.value().shape(), x0.shape());
    for (size_t i = 0; i < x0.numel(); ++i)
        EXPECT_EQ(rt.value()[i], x0[i]);
    // Sequence 2's rows start at row 5; head 1 of its row 1 is the
    // second float pair of token row 6, at per-head row 5*2 + 3 + 1.
    EXPECT_EQ(heads.value().at2(14, 0), x0[6 * 4 + 2]);

    const Tensor w0 = randomTensor({16, 2}, 21);
    gradCheck(x0, [&](const Variable &v) {
        return sumAll(mul(splitHeads(v, raggedLayout(), 2), constant(w0)));
    });
    const Tensor m0 = randomTensor({1, 8, 4}, 22);
    gradCheck(w0, [&](const Variable &v) {
        return sumAll(mul(mergeHeads(v, raggedLayout(), 2), constant(m0)));
    });
}

TEST(Autograd, KeyPaddingMaskGradients)
{
    // maskedSoftmax masks the empty sequence's keys: its blocks attend
    // uniformly and pass no gradient back.
    const Tensor s0 = randomTensor({kRaggedScores}, 22);
    const Tensor w0 = randomTensor({kRaggedScores}, 23);
    const Variable y = maskedSoftmax(Variable(s0), raggedLayout(), 2);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(y.value()[8 + i], 1.0f / 3.0f);
    gradCheck(s0, [&](const Variable &s) {
        return sumAll(mul(maskedSoftmax(s, raggedLayout(), 2),
                          constant(w0)));
    });
}

TEST(Autograd, KeyPaddingMaskRejectsNegativeLengths)
{
    // A negative length would index rows before its sequence's span.
    EXPECT_THROW(RaggedLayout({2, -1}), std::logic_error);
    const RaggedLayout layout({0, 3});
    EXPECT_EQ(layout.spans, (std::vector<int>{3, 3}));
    EXPECT_EQ(layout.offsets, (std::vector<size_t>{0, 3, 6}));
    EXPECT_EQ(RaggedLayout({0, 0}).time, 1);
}

TEST(Autograd, MaskedSoftmaxBackwardMatchesThePaddedRow)
{
    // A ragged row of s = 6 scores must get the gradient bits of the
    // same row padded to the batch's width 13 with masked keys, the
    // row the padded walk backpropagated. With FMA contraction the
    // reduction in the backward pass rounds differently at 6 and 13
    // columns, so the ragged op reduces over the padded width.
    const RaggedLayout layout({6, 13});
    const int heads = 1;
    const Tensor s0 = randomTensor({6 * 6 + 13 * 13}, 26);
    const Tensor w0 = randomTensor({6 * 6 + 13 * 13}, 27);
    Variable ragged(s0, true);
    sumAll(mul(maskedSoftmax(ragged, layout, heads), constant(w0)))
        .backward();

    Tensor p0({6, 13});
    Tensor pw({6, 13});
    for (int q = 0; q < 6; ++q) {
        for (int j = 0; j < 13; ++j) {
            // Masked keys upstream still get arbitrary gradients.
            p0.at2(q, j) = j < 6 ? s0[q * 6 + j] : -1e9f;
            pw.at2(q, j) = j < 6 ? w0[q * 6 + j] : 0.5f + q + j;
        }
    }
    Variable padded(p0, true);
    sumAll(mul(softmaxLastDim(padded), constant(pw))).backward();
    for (int q = 0; q < 6; ++q) {
        for (int j = 0; j < 6; ++j) {
            EXPECT_EQ(ragged.grad()[q * 6 + j], padded.grad().at2(q, j))
                << "row " << q << " column " << j;
        }
    }
}

TEST(Autograd, MeanPoolMaskedGradients)
{
    const Tensor x0 = randomTensor({1, 8, 3}, 24);
    const Tensor w0 = randomTensor({3, 3}, 25);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(meanPoolMasked(x, raggedLayout()), constant(w0)));
    });
}

TEST(Autograd, MeanPoolMaskedIgnoresPaddedSteps)
{
    // Each sequence pools its own valid rows; the empty one takes the
    // first row of its span and ignores the rest.
    Tensor x0 = Tensor::zeros({1, 8, 1});
    for (int r = 0; r < 8; ++r)
        x0[r] = static_cast<float>(1 << r);
    const Variable pooled = meanPoolMasked(Variable(x0), raggedLayout());
    EXPECT_EQ(pooled.value().at2(0, 0), 1.5f); // rows 0, 1
    EXPECT_EQ(pooled.value().at2(1, 0), 4.0f); // row 2 of 2..4
    EXPECT_FLOAT_EQ(pooled.value().at2(2, 0), 224.0f / 3.0f); // rows 5..7
}

TEST(Autograd, GatherMeanRowsGradients)
{
    const Tensor x0 = randomTensor({4, 3}, 40);
    const std::vector<std::vector<int>> groups = {
        {0, 2}, {1}, {}, {0, 1, 3}};
    const Tensor w0 = randomTensor({4, 3}, 41);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(gatherMeanRows(x, groups), constant(w0)));
    });
}

TEST(Autograd, GatherMeanRowsValues)
{
    const Tensor x0 =
        Tensor::fromValues({3, 2}, {1, 2, 3, 4, 5, 6});
    const Variable y =
        gatherMeanRows(Variable(x0), {{0, 2}, {}, {1, 1}});
    EXPECT_FLOAT_EQ(y.value().at2(0, 0), 3.0f); // mean(1, 5)
    EXPECT_FLOAT_EQ(y.value().at2(0, 1), 4.0f); // mean(2, 6)
    EXPECT_FLOAT_EQ(y.value().at2(1, 0), 0.0f); // empty group
    EXPECT_FLOAT_EQ(y.value().at2(2, 1), 4.0f); // duplicated row 1
}

TEST(Autograd, NoGradGuardSuppressesTape)
{
    Variable w(Tensor::full({2, 2}, 1.0f), true);
    {
        NoGradGuard guard;
        EXPECT_FALSE(NoGradGuard::gradEnabled());
        const Variable y = matmul(w, w);
        EXPECT_FALSE(y.requiresGrad());
        EXPECT_TRUE(y.impl()->parents.empty());
    }
    EXPECT_TRUE(NoGradGuard::gradEnabled());
    const Variable y = matmul(w, w);
    EXPECT_TRUE(y.requiresGrad());
}

TEST(Autograd, NoGradGuardNests)
{
    NoGradGuard outer;
    {
        NoGradGuard inner;
        EXPECT_FALSE(NoGradGuard::gradEnabled());
    }
    EXPECT_FALSE(NoGradGuard::gradEnabled())
        << "inner guard must restore the outer state, not enable";
}

TEST(Autograd, Im2colGradients)
{
    // 1-channel 4x4 image, 3x3 kernel, pad 1 -> 16 output positions.
    const Tensor x0 = randomTensor({2, 16}, 50);
    const Tensor w0 = randomTensor({2 * 16, 9}, 51);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(im2col(x, 1, 4, 4, 3, 3, 1), constant(w0)));
    });
}

TEST(Autograd, Im2colValuesNoPadding)
{
    // 2x2 image, 2x2 kernel, no padding -> one output row = the image.
    const Tensor x0 = Tensor::fromValues({1, 4}, {1, 2, 3, 4});
    const Variable cols = im2col(Variable(x0), 1, 2, 2, 2, 2, 0);
    ASSERT_EQ(cols.value().shape(), (std::vector<int>{1, 4}));
    for (int j = 0; j < 4; ++j)
        EXPECT_FLOAT_EQ(cols.value().at2(0, j), x0[j]);
}

TEST(Autograd, AvgPoolGradientsAndValues)
{
    const Tensor x0 = randomTensor({2, 32}, 52); // 2ch 4x4 HWC
    const Tensor w0 = randomTensor({2, 8}, 53);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(avgPool2x2(x, 2, 4, 4), constant(w0)));
    });

    // Hand-checked value: 1-channel 2x2 image pools to its mean.
    const Tensor y0 = Tensor::fromValues({1, 4}, {1, 3, 5, 7});
    const Variable pooled = avgPool2x2(Variable(y0), 1, 2, 2);
    ASSERT_EQ(pooled.value().numel(), 1u);
    EXPECT_FLOAT_EQ(pooled.value()[0], 4.0f);
}

TEST(Autograd, ReshapeConcatRowGradients)
{
    const Tensor x0 = randomTensor({2, 6}, 26);
    const Tensor y0 = randomTensor({2, 2}, 27);
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(reshape(x, {3, 4}),
                          constant(randomTensor({3, 4}, 28))));
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(concatCols(x, constant(y0)),
                          constant(randomTensor({2, 8}, 29))));
    });
    gradCheck(x0, [&](const Variable &x) {
        return sumAll(mul(row(x, 1), constant(randomTensor({1, 6}, 30))));
    });
}

TEST(Autograd, LossGradients)
{
    const Tensor p0 = randomTensor({3, 2}, 31);
    const Tensor t0 = randomTensor({3, 2}, 32);
    gradCheck(p0, [&](const Variable &p) { return mseLoss(p, t0); });

    Tensor bt = Tensor::fromValues({4}, {0.0f, 1.0f, 1.0f, 0.0f});
    const Tensor z0 = randomTensor({4}, 33);
    gradCheck(z0,
              [&](const Variable &z) { return bceWithLogitsLoss(z, bt); });

    const Tensor logits0 = randomTensor({3, 5}, 34);
    const std::vector<int> labels = {2, 0, 4};
    gradCheck(logits0, [&](const Variable &z) {
        return crossEntropyLoss(z, labels);
    });
    const std::vector<float> weights = {0.5f, -1.0f, 2.0f};
    gradCheck(logits0, [&](const Variable &z) {
        return weightedNllLoss(z, labels, weights);
    });
}

TEST(Autograd, DropoutEvalIsIdentityTrainScales)
{
    const Tensor x0 = Tensor::full({1000}, 1.0f);
    Rng rng(35);
    const Variable x(x0);
    const Variable eval_out = dropout(x, 0.4, rng, /*train=*/false);
    EXPECT_FLOAT_EQ(eval_out.value()[0], 1.0f);

    const Variable train_out = dropout(x, 0.4, rng, /*train=*/true);
    double mean = 0.0;
    int zeros = 0;
    for (size_t i = 0; i < 1000; ++i) {
        mean += train_out.value()[i];
        zeros += train_out.value()[i] == 0.0f;
    }
    mean /= 1000.0;
    EXPECT_NEAR(mean, 1.0, 0.1) << "inverted dropout preserves scale";
    EXPECT_NEAR(zeros / 1000.0, 0.4, 0.07);
}

TEST(Autograd, NoGradChainRecordsNoTape)
{
    const Variable a(Tensor::full({2, 2}, 1.0f));
    const Variable b(Tensor::full({2, 2}, 2.0f));
    const Variable c = matmul(a, b);
    EXPECT_FALSE(c.requiresGrad());
    EXPECT_TRUE(c.impl()->parents.empty());
}

TEST(Autograd, BackwardRequiresScalar)
{
    Variable x(Tensor::zeros({2, 2}), true);
    EXPECT_THROW(x.backward(), std::logic_error);
}

TEST(Autograd, GradAccumulatesAcrossBackwards)
{
    Variable x(Tensor::full({2}, 3.0f), true);
    sumAll(x).backward();
    sumAll(x).backward();
    EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
    x.zeroGrad();
    sumAll(x).backward();
    EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
}

TEST(Autograd, DiamondGraphAccumulatesBothBranches)
{
    // loss = sum(x*x + x) -> d/dx = 2x + 1.
    Variable x(Tensor::full({3}, 2.0f), true);
    Variable loss = sumAll(add(mul(x, x), x));
    loss.backward();
    for (size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(x.grad()[i], 5.0f);
}

TEST(Autograd, MeanAllMatchesSumOverN)
{
    Variable x(Tensor::full({4}, 2.0f), true);
    meanAll(x).backward();
    for (size_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(x.grad()[i], 0.25f);
}

// ---------------------------------------------------------------------
// Int8 GEMM microkernels (the quantized inference tier's contraction;
// docs/quantization.md). The load-bearing contract: every dispatch
// level — scalar reference, AVX2 maddubs, AVX-512 VNNI — returns the
// *same int32 bits*, because u7 x s8 pair sums fit int16 and integer
// addition is associative.
// ---------------------------------------------------------------------

namespace {

/** Textbook i32 reference straight off the unpacked operands. */
std::vector<int32_t>
naiveQgemm(const std::vector<uint8_t> &a, const std::vector<int8_t> &b,
           int m, int n, int k, int a_stride)
{
    std::vector<int32_t> c(static_cast<size_t>(m) * n, 0);
    for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (int p = 0; p < k; ++p)
                acc += static_cast<int32_t>(
                           a[static_cast<size_t>(i) * a_stride + p]) *
                       static_cast<int32_t>(
                           b[static_cast<size_t>(p) * n + j]);
            c[static_cast<size_t>(i) * n + j] = acc;
        }
    return c;
}

/** Random u7 activations / s8 weights for one (m, n, k) problem. */
struct QgemmProblem
{
    int m, n, k;
    std::vector<int8_t> b;
    QuantPanels panels;
    std::vector<uint8_t> a;

    QgemmProblem(int m_, int n_, int k_, uint64_t seed)
        : m(m_), n(n_), k(k_)
    {
        Rng rng(seed);
        b.resize(static_cast<size_t>(k) * n);
        for (auto &v : b)
            v = static_cast<int8_t>(
                static_cast<int>(rng.next() % 255u) - 127);
        qgemmPackB(b.data(), k, n, panels);
        a.assign(static_cast<size_t>(m) * panels.k_padded, 0);
        for (int i = 0; i < m; ++i)
            for (int p = 0; p < k; ++p)
                a[static_cast<size_t>(i) * panels.k_padded + p] =
                    static_cast<uint8_t>(rng.next() % 128u);
    }
};

/**
 * `bytes` of zeroed memory that end flush against an inaccessible
 * page, so an access past the end faults. ASan does not instrument
 * AMX tile loads and stores; this guard does not need it to.
 */
class GuardedBytes
{
  public:
    explicit GuardedBytes(size_t bytes)
    {
        const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
        span_ = (bytes + page - 1) / page * page + page;
        void *base = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            throw std::runtime_error("mmap failed");
        base_ = static_cast<char *>(base);
        if (mprotect(base_ + span_ - page, page, PROT_NONE) != 0)
            throw std::runtime_error("mprotect failed");
        data_ = base_ + span_ - page - bytes;
    }
    ~GuardedBytes() { munmap(base_, span_); }
    GuardedBytes(const GuardedBytes &) = delete;
    GuardedBytes &operator=(const GuardedBytes &) = delete;

    char *data() { return data_; }

  private:
    char *base_ = nullptr;
    char *data_ = nullptr;
    size_t span_ = 0;
};

/** qgemmI32 on `prob` at the level in force, with `a` and C each
 * ending at a guard page. */
std::vector<int32_t>
qgemmGuarded(const QgemmProblem &prob)
{
    const size_t cells = static_cast<size_t>(prob.m) * prob.n;
    GuardedBytes a(prob.a.size());
    GuardedBytes c(cells * sizeof(int32_t));
    std::memcpy(a.data(), prob.a.data(), prob.a.size());
    std::memset(c.data(), 0xff, cells * sizeof(int32_t));
    qgemmI32(reinterpret_cast<const uint8_t *>(a.data()), prob.panels,
             reinterpret_cast<int32_t *>(c.data()), prob.m);
    std::vector<int32_t> out(cells);
    std::memcpy(out.data(), c.data(), cells * sizeof(int32_t));
    return out;
}

} // namespace

TEST(Qgemm, PackLayoutAndColsums)
{
    // k = 5 pads to 8; n = 3 occupies one 16-wide panel. Block g of
    // the panel stores op(B)[4g + kk][j] at byte j * 4 + kk.
    const int k = 5;
    const int n = 3;
    std::vector<int8_t> b(static_cast<size_t>(k) * n);
    for (int p = 0; p < k; ++p)
        for (int j = 0; j < n; ++j)
            b[static_cast<size_t>(p) * n + j] =
                static_cast<int8_t>(10 * p + j - 20);
    QuantPanels panels;
    qgemmPackB(b.data(), k, n, panels);
    EXPECT_EQ(panels.k, k);
    EXPECT_EQ(panels.n, n);
    EXPECT_EQ(panels.k_padded, 8);
    ASSERT_EQ(panels.data.size(), static_cast<size_t>(8) * 16);
    for (int p = 0; p < 8; ++p)
        for (int j = 0; j < 16; ++j) {
            const int8_t expect =
                (p < k && j < n)
                    ? b[static_cast<size_t>(p) * n + j]
                    : 0;
            const size_t at =
                static_cast<size_t>(p / 4) * 64 + j * 4 + p % 4;
            EXPECT_EQ(panels.data[at], expect)
                << "p=" << p << " j=" << j;
        }
    ASSERT_EQ(panels.colsum.size(), static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
        int32_t sum = 0;
        for (int p = 0; p < k; ++p)
            sum += b[static_cast<size_t>(p) * n + j];
        EXPECT_EQ(panels.colsum[j], sum) << "j=" << j;
    }
}

TEST(Qgemm, ScalarMatchesNaiveReference)
{
    setQgemmLevelCap(0);
    for (const auto &[m, n, k] : {std::tuple{4, 16, 8},
                                  std::tuple{7, 23, 9},
                                  std::tuple{1, 1, 1},
                                  std::tuple{3, 107, 130}}) {
        QgemmProblem prob(m, n, k, 11);
        std::vector<int32_t> c(static_cast<size_t>(m) * n, -1);
        qgemmI32(prob.a.data(), prob.panels, c.data(), m);
        EXPECT_EQ(c, naiveQgemm(prob.a, prob.b, m, n, k,
                                prob.panels.k_padded))
            << m << "x" << n << "x" << k;
    }
    setQgemmLevelCap(-1);
}

TEST(Qgemm, EveryDispatchLevelIsBitwiseIdentical)
{
    // The bit-exactness claim at the heart of the quantized tier:
    // whatever ladder rung the CPU grants, the integers match the
    // scalar reference exactly — including forced downlevels (the
    // AVX2 kernel exercised on a VNNI machine). The ceiling honours a
    // forced SNS_SIMD so the lint sweep can re-run this at every rung.
    std::vector<std::tuple<int, int, int>> shapes = {
        {5, 16, 12}, {8, 64, 48}, {2, 31, 130}, {96, 107, 33}};
    // The tile rung's edges: rows around its 16-row tiles and 32-row
    // blocks (403 is the plan's batch), k around its 64-byte steps,
    // and columns around its 16-column tiles and 32-column blocks.
    for (const int m : {1, 15, 16, 17, 31, 32, 33, 403})
        for (const int k : {4, 60, 64, 68, 128, 132, 512})
            for (const int n : {3, 15, 16, 17, 31, 32, 33, 128, 512})
                shapes.emplace_back(m, n, k);
    setQgemmLevelCap(-1);
    const int ceiling = qgemmLevel();
    for (const auto &[m, n, k] : shapes) {
        QgemmProblem prob(m, n, k, 23);
        setQgemmLevelCap(0);
        ASSERT_EQ(qgemmLevel(), 0);
        const std::vector<int32_t> reference = qgemmGuarded(prob);
        for (int cap = 1; cap <= ceiling; ++cap) {
            setQgemmLevelCap(cap);
            ASSERT_EQ(qgemmLevel(), cap);
            EXPECT_EQ(qgemmGuarded(prob), reference)
                << "level " << cap << " diverges on " << m << "x" << n
                << "x" << k;
        }
        setQgemmLevelCap(-1);
    }
}

TEST(Qgemm, PoolWorkersAndFreshThreadsMatchScalar)
{
    // Big enough to split over the pool: at width 4 the row blocks run
    // on pool workers, each configuring its own tiles, and a fresh
    // std::thread has never touched the tiles before its call.
    const int m = 403;
    const int n = 128;
    const int k = 128;
    QgemmProblem prob(m, n, k, 29);
    setQgemmLevelCap(0);
    const std::vector<int32_t> reference = qgemmGuarded(prob);
    setQgemmLevelCap(-1);
    const int ceiling = qgemmLevel();
    for (int level = 1; level <= ceiling; ++level) {
        setQgemmLevelCap(level);
        for (const int threads : {1, 4}) {
            par::setThreads(threads);
            EXPECT_EQ(qgemmGuarded(prob), reference)
                << "level " << level << " threads " << threads;
            std::vector<int32_t> fresh;
            std::thread([&] { fresh = qgemmGuarded(prob); }).join();
            EXPECT_EQ(fresh, reference)
                << "level " << level << " threads " << threads
                << " from a fresh thread";
        }
    }
    par::setThreads(1);
    setQgemmLevelCap(-1);
}

TEST(Qgemm, SaturationFreeAtTheU7S8Extremes)
{
    // All-127 activations against all +/-127 weights drive every
    // maddubs pair sum to its maximum magnitude 2 * 127 * 127 = 32258
    // < 32767: the widening path must not saturate at any level.
    // At k = 512 the int32 sums reach 127 * 127 * 512 = 8258048.
    const int m = 2;
    const int n = 16;
    for (const int k : {64, 512}) {
        std::vector<int8_t> b(static_cast<size_t>(k) * n);
        for (int p = 0; p < k; ++p)
            for (int j = 0; j < n; ++j)
                b[static_cast<size_t>(p) * n + j] = (j % 2) ? 127 : -127;
        QuantPanels panels;
        qgemmPackB(b.data(), k, n, panels);
        std::vector<uint8_t> a(
            static_cast<size_t>(m) * panels.k_padded, 0);
        for (int i = 0; i < m; ++i)
            for (int p = 0; p < k; ++p)
                a[static_cast<size_t>(i) * panels.k_padded + p] = 127;
        for (int cap = 0; cap <= simdMaxLevel(); ++cap) {
            setQgemmLevelCap(cap);
            std::vector<int32_t> c(static_cast<size_t>(m) * n, 0);
            qgemmI32(a.data(), panels, c.data(), m);
            for (int i = 0; i < m; ++i)
                for (int j = 0; j < n; ++j)
                    EXPECT_EQ(c[static_cast<size_t>(i) * n + j],
                              (j % 2 ? 1 : -1) * 127 * 127 * k)
                        << "level " << cap << " k " << k;
        }
    }
    setQgemmLevelCap(-1);
}

TEST(Qgemm, LevelCapClampsAndRestores)
{
    const int max_level = simdMaxLevel();
    EXPECT_GE(max_level, 0);
    EXPECT_LE(max_level, 3);
    // The uncapped level is the CPU max further clamped by a forced
    // SNS_SIMD environment (the lint sweep sets it).
    setQgemmLevelCap(-1);
    const int ceiling = qgemmLevel();
    EXPECT_LE(ceiling, max_level);
    setQgemmLevelCap(0);
    EXPECT_EQ(qgemmLevel(), 0);
    setQgemmLevelCap(99); // above the ladder: clamps to the ceiling
    EXPECT_EQ(qgemmLevel(), ceiling);
    setQgemmLevelCap(-1); // removes the cap
    EXPECT_EQ(qgemmLevel(), ceiling);
}

/**
 * The child side of RefusedTileDataStopsAtAvx512: its exit status.
 * Linux refuses tile data while any thread's sigaltstack is smaller
 * than the signal frame with tile state in it (~12 KiB); 8 KiB is
 * enough without it.
 */
int
refuseTileDataThenMultiply()
{
    static std::vector<char> small(8192);
    stack_t ss{};
    ss.ss_sp = small.data();
    ss.ss_size = small.size();
    if (sigaltstack(&ss, nullptr) != 0)
        return 2;
    if (simdLevel() != kSimdAvx512 ||
        amxTileData() != AmxTileData::Refused)
        return 1;
    // The integer GEMM runs on, at level 2.
    const int m = 33;
    const int n = 17;
    const int k = 68;
    QgemmProblem prob(m, n, k, 5);
    std::vector<int32_t> c(static_cast<size_t>(m) * n, -1);
    qgemmI32(prob.a.data(), prob.panels, c.data(), m);
    return c == naiveQgemm(prob.a, prob.b, m, n, k, prob.panels.k_padded)
               ? 0
               : 3;
}

TEST(SimdLadder, RefusedTileDataStopsAtAvx512)
{
    // The tile-data request is made once per process, so the refusal
    // is staged in a fresh one: threadsafe death tests re-execute the
    // binary, and nothing here asks before the child does.
    if (simdMaxLevel() < kSimdAmx ||
        parseSimdLevel(std::getenv("SNS_SIMD")) < kSimdAmx)
        GTEST_SKIP() << "no AMX-INT8 rung to refuse on this host";
    const std::string style = ::testing::GTEST_FLAG(death_test_style);
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(std::_Exit(refuseTileDataThenMultiply()),
                ::testing::ExitedWithCode(0), "");
    ::testing::GTEST_FLAG(death_test_style) = style;
}

// ---------------------------------------------------------------------
// The fdlibm tanhf kernel (tensor/tanh.hh) and the GELU built on it.

float
floatFromBits(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

uint32_t
bitsOf(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/**
 * Every stride-th bit pattern of the 2^32, plus each fdlibm branch
 * point +-2 ulp at both signs: the tanhf bounds on |x|, the expm1f
 * bounds on the 2|x| it is called with (the same patterns one
 * exponent step lower), the k = 2, 3, 22, 23, 56, 57 reduction edges,
 * +-0, denormals, +-inf and NaNs with assorted payloads.
 */
std::vector<float>
tanhProbes(uint32_t stride)
{
    std::vector<uint32_t> bits;
    for (uint64_t b = 0; b < (uint64_t{1} << 32); b += stride)
        bits.push_back(static_cast<uint32_t>(b));
    std::vector<uint32_t> edges = {0x24000000, 0x3f800000, 0x41b00000};
    for (const uint32_t expm1_edge :
         {0x33000000u, 0x3eb17218u, 0x3F851592u, 0x4195b844u}) {
        edges.push_back(expm1_edge);
        edges.push_back(expm1_edge - 0x00800000u); // x = edge / 2
    }
    // expm1f's k = (int)(2|x| / ln2 + 0.5) steps to k at
    // |x| = (k - 0.5) ln2 / 2; k = 23 and k = 56 switch formulas.
    for (const int k : {2, 3, 22, 23, 56, 57})
        edges.push_back(bitsOf((k - 0.5f) * 0.693147182f / 2.0f));
    for (const uint32_t edge : edges)
        for (uint32_t sign : {0u, 0x80000000u})
            for (int d = -2; d <= 2; ++d)
                bits.push_back((edge + static_cast<uint32_t>(d)) | sign);
    for (const uint32_t special :
         {0x00000000u, 0x00000001u, 0x00400000u, 0x007fffffu,
          0x7f800000u, 0x7f800001u, 0x7fc00000u, 0x7fc12345u,
          0x7fffffffu}) {
        bits.push_back(special);
        bits.push_back(special | 0x80000000u);
    }
    std::vector<float> out;
    for (const uint32_t b : bits)
        out.push_back(floatFromBits(b));
    return out;
}

/** Index of the first bitwise difference, or -1. */
long
firstMismatch(const std::vector<float> &a, const std::vector<float> &b)
{
    for (size_t i = 0; i < a.size(); ++i)
        if (bitsOf(a[i]) != bitsOf(b[i]))
            return static_cast<long>(i);
    return -1;
}

std::vector<float>
tanhOnRung(const std::vector<float> &in, int level)
{
    setSimdLevelCap(level);
    std::vector<float> out(in.size());
    tanhArray(in.data(), out.data(), in.size());
    return out;
}

/** glibc before 2.41 ships fdlibm's tanhf; 2.41 moved to CORE-MATH. */
bool
libmIsFdlibm(std::string &name)
{
#if defined(__GLIBC__)
    name = std::string("glibc ") + gnu_get_libc_version();
    int major = 0;
    int minor = 0;
    return std::sscanf(gnu_get_libc_version(), "%d.%d", &major,
                       &minor) == 2 &&
           major == 2 && minor < 41;
#else
    name = "a non-glibc libm";
    return false;
#endif
}

TEST(TanhKernel, RungsAgree)
{
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    if (ceiling < kSimdAvx2)
        GTEST_SKIP() << "no SIMD rung on this CPU";
    const std::vector<float> in = tanhProbes(4099);
    const std::vector<float> scalar = tanhOnRung(in, kSimdScalar);
    for (int level = kSimdAvx2; level <= ceiling; ++level) {
        const std::vector<float> simd = tanhOnRung(in, level);
        const long bad = firstMismatch(scalar, simd);
        ASSERT_EQ(bad, -1) << std::hex << "x bits 0x" << bitsOf(in[bad])
                           << ": scalar 0x" << bitsOf(scalar[bad])
                           << ", level " << level << " 0x"
                           << bitsOf(simd[bad]);

        // Every tail length through the last partial vector, in place.
        for (size_t count = 1; count <= 33; ++count) {
            std::vector<float> chunk(in.end() - 40, in.end() - 40 + count);
            tanhArray(chunk.data(), chunk.data(), count);
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(bitsOf(chunk[i]),
                          bitsOf(scalar[in.size() - 40 + i]))
                    << "level " << level << " count " << count
                    << " index " << i;
        }
    }
}

// The full 2^32 sweep of every SIMD rung against the scalar one
// (~1 min per rung); tools/run_lint.sh runs it once with
// --gtest_also_run_disabled_tests.
TEST(TanhKernel, DISABLED_RungsAgreeExhaustive)
{
    SimdCapGuard guard;
    // Level 3 runs the AVX-512 rung again: tanh has no AMX rung.
    const int ceiling = std::min(simdCeiling(), kSimdAvx512);
    if (ceiling < kSimdAvx2)
        GTEST_SKIP() << "no SIMD rung on this CPU";
    constexpr uint64_t kBlock = uint64_t{1} << 22;
    std::vector<float> in(kBlock);
    std::vector<float> scalar(kBlock);
    std::vector<float> simd(kBlock);
    const auto sweep = [&](int level, std::vector<float> &out) {
        setSimdLevelCap(level);
        par::parallelFor(kBlock, [&](size_t begin, size_t end) {
            tanhArray(in.data() + begin, out.data() + begin, end - begin);
        });
    };
    for (uint64_t base = 0; base < (uint64_t{1} << 32); base += kBlock) {
        for (uint64_t i = 0; i < kBlock; ++i)
            in[i] = floatFromBits(static_cast<uint32_t>(base + i));
        sweep(kSimdScalar, scalar);
        for (int level = kSimdAvx2; level <= ceiling; ++level) {
            sweep(level, simd);
            const long bad = firstMismatch(scalar, simd);
            ASSERT_EQ(bad, -1)
                << std::hex << "x bits 0x" << bitsOf(in[bad])
                << ": scalar 0x" << bitsOf(scalar[bad]) << ", level "
                << level << " 0x" << bitsOf(simd[bad]);
        }
    }
}

TEST(TanhKernel, MatchesLibmTanhf)
{
    std::string libm;
    if (!libmIsFdlibm(libm))
        GTEST_SKIP() << libm << " does not ship fdlibm's tanhf; "
                     << "the kernel ports glibc 2.36's";
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    const std::vector<float> in = tanhProbes(65537);
    std::vector<float> want(in.size());
    for (size_t i = 0; i < in.size(); ++i)
        want[i] = std::tanh(in[i]);
    for (int level = 0; level <= ceiling; ++level) {
        const std::vector<float> got = tanhOnRung(in, level);
        const long bad = firstMismatch(want, got);
        ASSERT_EQ(bad, -1) << std::hex << "level " << level << " x bits 0x"
                           << bitsOf(in[bad]) << ": " << libm << " 0x"
                           << bitsOf(want[bad]) << ", kernel 0x"
                           << bitsOf(got[bad]);
    }
}

// The GELU expressions exactly as they read before the kernel, one
// element and one opaque tanh call at a time.
using TanhFn = float (*)(float);

float
oldGeluForward(float v, TanhFn tanh_fn)
{
    const float c = 0.7978845608f; // sqrt(2/pi)
    const float inner = c * (v + 0.044715f * v * v * v);
    return 0.5f * v * (1.0f + tanh_fn(inner));
}

float
oldGeluBackward(float v, TanhFn tanh_fn)
{
    const float c = 0.7978845608f;
    const float inner = c * (v + 0.044715f * v * v * v);
    const float t = tanh_fn(inner);
    const float sech2 = 1.0f - t * t;
    return 0.5f * (1.0f + t) +
           0.5f * v * sech2 * c * (1.0f + 3.0f * 0.044715f * v * v);
}

float
libmTanh(float x)
{
    return std::tanh(x);
}

float
kernelTanh(float x)
{
    float y;
    tanhArray(&x, &y, 1);
    return y;
}

TEST(GeluKernel, ChunkedForwardAndBackwardMatchThePerElementExpressions)
{
    // The old expressions called libm; on a libm that is not fdlibm
    // the kernel's own scalar tanh stands in (MatchesLibmTanhf covers
    // the equality where it holds).
    std::string libm;
    const TanhFn tanh_fn = libmIsFdlibm(libm) ? libmTanh : kernelTanh;
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    Rng rng(15);
    for (const size_t count : {1, 7, 8, 255, 256, 257, 4097}) {
        Tensor xs({static_cast<int>(count)});
        Tensor ws({static_cast<int>(count)});
        for (size_t i = 0; i < count; ++i) {
            xs[i] = static_cast<float>(3.0 * rng.normal());
            ws[i] = static_cast<float>(rng.normal());
        }
        // Saturated, tiny and signed-zero arguments.
        const float specials[] = {0.0f, -0.0f, 1e-20f, -30.0f, 30.0f,
                                  -5.5f, 9.0f};
        for (size_t i = 0; i < count && i < std::size(specials); ++i)
            xs[count - 1 - i] = specials[i];

        for (int level = 0; level <= ceiling; ++level) {
            setSimdLevelCap(level);
            Variable x(xs, true);
            const Variable y = gelu(x);
            sumAll(mul(y, constant(ws))).backward();
            for (size_t i = 0; i < count; ++i) {
                const float v = xs[i];
                ASSERT_EQ(bitsOf(y.value()[i]),
                          bitsOf(oldGeluForward(v, tanh_fn)))
                    << "count " << count << " level " << level << " i " << i;
                float dx = 0.0f;
                dx += ws[i] * oldGeluBackward(v, tanh_fn);
                ASSERT_EQ(bitsOf(x.grad()[i]), bitsOf(dx))
                    << "count " << count << " level " << level << " i " << i;
            }

            std::vector<float> raw(xs.data(), xs.data() + count);
            geluInPlace(raw.data(), count);
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(bitsOf(raw[i]), bitsOf(y.value()[i]))
                    << "count " << count << " level " << level << " i " << i;
        }
    }
}

TEST(GeluKernel, TanhOpUsesTheKernel)
{
    SimdCapGuard guard;
    const int ceiling = simdCeiling();
    const std::vector<float> in = tanhProbes(1u << 24);
    Tensor xs({static_cast<int>(in.size())});
    for (size_t i = 0; i < in.size(); ++i)
        xs[i] = in[i];
    const std::vector<float> want = tanhOnRung(in, kSimdScalar);
    for (int level = 0; level <= ceiling; ++level) {
        setSimdLevelCap(level);
        const Variable y = tanhOp(constant(xs));
        for (size_t i = 0; i < in.size(); ++i)
            ASSERT_EQ(bitsOf(y.value()[i]), bitsOf(want[i]))
                << "level " << level << " i " << i;
    }
}

} // namespace
} // namespace sns::tensor
