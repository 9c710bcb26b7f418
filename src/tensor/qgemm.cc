#include "tensor/qgemm.hh"

#include <algorithm>
#include <cstring>

#include "par/thread_pool.hh"
#include "tensor/simd.hh"

#if SNS_SIMD_X86
#include <immintrin.h>
#endif

namespace sns::tensor {

namespace {

// Panel geometry shared with the float kernels: 16 output columns per
// panel, k interleaved in VNNI groups of 4, 4 x 16 row blocking.
constexpr int kPanelWidth = 16;
constexpr int kKGroup = 4;
constexpr int kRowBlock = 4;

// Multi-threading threshold, mirroring gemm.cc: below ~2M multiply-adds
// the fork/join overhead of an idle pool beats the arithmetic. Integer
// accumulation is exact, so tiling over rows never changes a bit.
constexpr long long kParallelOps = 1 << 21;

inline size_t
panelBytes(const QuantPanels &p)
{
    return static_cast<size_t>(p.k_padded) * kPanelWidth;
}

// ---------------------------------------------------------------------
// Scalar reference. Reads the same packed layout as the SIMD kernels
// (byte j*4+kk of block g is op(B)[4g+kk][j0+j]) so a single pack
// serves every level; padded bytes are zero, so looping over k_padded
// adds exact zeros.
// ---------------------------------------------------------------------

void
qgemmRowsScalar(const uint8_t *a, const QuantPanels &b, int32_t *c,
                int i0, int i1)
{
    const int panels = (b.n + kPanelWidth - 1) / kPanelWidth;
    const int groups = b.k_padded / kKGroup;
    for (int q = 0; q < panels; ++q) {
        const int j0 = q * kPanelWidth;
        const int w = std::min(kPanelWidth, b.n - j0);
        const int8_t *panel = b.data.data() + q * panelBytes(b);
        for (int i = i0; i < i1; ++i) {
            const uint8_t *arow =
                a + static_cast<size_t>(i) * b.k_padded;
            int32_t acc[kPanelWidth] = {0};
            for (int g = 0; g < groups; ++g) {
                const int8_t *blk =
                    panel + static_cast<size_t>(g) * kPanelWidth * kKGroup;
                const uint8_t *ag = arow + g * kKGroup;
                for (int j = 0; j < w; ++j) {
                    for (int kk = 0; kk < kKGroup; ++kk) {
                        acc[j] += static_cast<int32_t>(ag[kk]) *
                                  static_cast<int32_t>(blk[j * kKGroup + kk]);
                    }
                }
            }
            int32_t *crow = c + static_cast<size_t>(i) * b.n + j0;
            for (int j = 0; j < w; ++j)
                crow[j] = acc[j];
        }
    }
}

#if SNS_SIMD_X86

// ---------------------------------------------------------------------
// Level 1: AVX2. maddubs(u8, s8) -> saturating i16 pairs; with u7
// activations the pair sums top out at 32258, below the i16 ceiling,
// so no saturation ever fires and madd_epi16 against ones widens the
// exact group-of-4 dot products into 8 i32 lanes. Two 32-byte half-
// block loads cover the 16 panel columns.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
avx2Group(__m256i acc, __m256i av, const int8_t *half, __m256i ones)
{
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(half));
    return _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones));
}

__attribute__((target("avx2"))) inline __m256i
broadcastGroup256(const uint8_t *ag)
{
    int32_t word;
    std::memcpy(&word, ag, sizeof(word));
    return _mm256_set1_epi32(word);
}

// A lambda would not inherit the enclosing function's target attribute
// (GCC compiles the closure body without AVX2), so the tail-masked
// store is a free function.
__attribute__((target("avx2"))) inline void
storePanelRow(int32_t *crow, int w, __m256i lo, __m256i hi)
{
    if (w == kPanelWidth) {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(crow), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(crow + 8), hi);
    } else {
        int32_t tmp[kPanelWidth];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(tmp), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(tmp + 8), hi);
        std::memcpy(crow, tmp, static_cast<size_t>(w) * sizeof(int32_t));
    }
}

__attribute__((target("avx2"))) void
qgemmRowsAvx2(const uint8_t *a, const QuantPanels &b, int32_t *c,
              int i0, int i1)
{
    const int panels = (b.n + kPanelWidth - 1) / kPanelWidth;
    const int groups = b.k_padded / kKGroup;
    const __m256i ones = _mm256_set1_epi16(1);
    for (int q = 0; q < panels; ++q) {
        const int j0 = q * kPanelWidth;
        const int w = std::min(kPanelWidth, b.n - j0);
        const int8_t *panel = b.data.data() + q * panelBytes(b);
        int i = i0;
        for (; i + kRowBlock <= i1; i += kRowBlock) {
            __m256i acc[kRowBlock][2];
            for (auto &row : acc)
                row[0] = row[1] = _mm256_setzero_si256();
            for (int g = 0; g < groups; ++g) {
                const int8_t *blk =
                    panel +
                    static_cast<size_t>(g) * kPanelWidth * kKGroup;
                for (int r = 0; r < kRowBlock; ++r) {
                    const __m256i av = broadcastGroup256(
                        a + static_cast<size_t>(i + r) * b.k_padded +
                        g * kKGroup);
                    acc[r][0] = avx2Group(acc[r][0], av, blk, ones);
                    acc[r][1] = avx2Group(acc[r][1], av, blk + 32, ones);
                }
            }
            for (int r = 0; r < kRowBlock; ++r)
                storePanelRow(c + static_cast<size_t>(i + r) * b.n + j0,
                              w, acc[r][0], acc[r][1]);
        }
        for (; i < i1; ++i) {
            __m256i lo = _mm256_setzero_si256();
            __m256i hi = _mm256_setzero_si256();
            for (int g = 0; g < groups; ++g) {
                const int8_t *blk =
                    panel +
                    static_cast<size_t>(g) * kPanelWidth * kKGroup;
                const __m256i av = broadcastGroup256(
                    a + static_cast<size_t>(i) * b.k_padded +
                    g * kKGroup);
                lo = avx2Group(lo, av, blk, ones);
                hi = avx2Group(hi, av, blk + 32, ones);
            }
            storePanelRow(c + static_cast<size_t>(i) * b.n + j0, w, lo,
                          hi);
        }
    }
}

// ---------------------------------------------------------------------
// Level 2: AVX-512 VNNI. One vpdpbusd per 64-byte block accumulates
// all 16 columns' group-of-4 dot products directly into i32 lanes —
// the exact sums the scalar reference computes.
// ---------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) void
qgemmRowsVnni(const uint8_t *a, const QuantPanels &b, int32_t *c,
              int i0, int i1)
{
    const int panels = (b.n + kPanelWidth - 1) / kPanelWidth;
    const int groups = b.k_padded / kKGroup;
    for (int q = 0; q < panels; ++q) {
        const int j0 = q * kPanelWidth;
        const int w = std::min(kPanelWidth, b.n - j0);
        const __mmask16 mask =
            static_cast<__mmask16>((1u << w) - 1u);
        const int8_t *panel = b.data.data() + q * panelBytes(b);
        int i = i0;
        for (; i + kRowBlock <= i1; i += kRowBlock) {
            __m512i acc[kRowBlock];
            for (auto &row : acc)
                row = _mm512_setzero_si512();
            for (int g = 0; g < groups; ++g) {
                const __m512i bv = _mm512_loadu_si512(
                    panel +
                    static_cast<size_t>(g) * kPanelWidth * kKGroup);
                for (int r = 0; r < kRowBlock; ++r) {
                    int32_t word;
                    std::memcpy(&word,
                                a + static_cast<size_t>(i + r) *
                                        b.k_padded +
                                    g * kKGroup,
                                sizeof(word));
                    acc[r] = _mm512_dpbusd_epi32(
                        acc[r], _mm512_set1_epi32(word), bv);
                }
            }
            for (int r = 0; r < kRowBlock; ++r) {
                _mm512_mask_storeu_epi32(
                    c + static_cast<size_t>(i + r) * b.n + j0, mask,
                    acc[r]);
            }
        }
        for (; i < i1; ++i) {
            __m512i acc = _mm512_setzero_si512();
            for (int g = 0; g < groups; ++g) {
                const __m512i bv = _mm512_loadu_si512(
                    panel +
                    static_cast<size_t>(g) * kPanelWidth * kKGroup);
                int32_t word;
                std::memcpy(&word,
                            a + static_cast<size_t>(i) * b.k_padded +
                                g * kKGroup,
                            sizeof(word));
                acc = _mm512_dpbusd_epi32(
                    acc, _mm512_set1_epi32(word), bv);
            }
            _mm512_mask_storeu_epi32(
                c + static_cast<size_t>(i) * b.n + j0, mask, acc);
        }
    }
}

#endif // SNS_SIMD_X86

} // namespace

int
qgemmLevel()
{
    return simdLevel();
}

void
setQgemmLevelCap(int cap)
{
    setSimdLevelCap(cap);
}

void
qgemmPackB(const int8_t *b, int k, int n, QuantPanels &panels)
{
    panels.k = k;
    panels.n = n;
    panels.k_padded = (k + kKGroup - 1) / kKGroup * kKGroup;
    const int npanels = (n + kPanelWidth - 1) / kPanelWidth;
    panels.data.assign(static_cast<size_t>(npanels) *
                           panels.k_padded * kPanelWidth,
                       0);
    panels.colsum.assign(static_cast<size_t>(n), 0);
    for (int j = 0; j < n; ++j) {
        const int q = j / kPanelWidth;
        const int jj = j % kPanelWidth;
        int8_t *panel = panels.data.data() + q * panelBytes(panels);
        int32_t sum = 0;
        for (int p = 0; p < k; ++p) {
            const int8_t v = b[static_cast<size_t>(p) * n + j];
            panel[static_cast<size_t>(p / kKGroup) * kPanelWidth *
                      kKGroup +
                  jj * kKGroup + p % kKGroup] = v;
            sum += v;
        }
        panels.colsum[j] = sum;
    }
}

void
qgemmI32(const uint8_t *a, const QuantPanels &panels, int32_t *c, int m)
{
    if (m <= 0 || panels.n <= 0)
        return;
    if (panels.k_padded <= 0) {
        std::fill(c, c + static_cast<size_t>(m) * panels.n, 0);
        return;
    }

    const int level = qgemmLevel();
    auto rows = [&](int i0, int i1) {
#if SNS_SIMD_X86
        if (level >= kSimdAvx512) {
            qgemmRowsVnni(a, panels, c, i0, i1);
            return;
        }
        if (level == kSimdAvx2) {
            qgemmRowsAvx2(a, panels, c, i0, i1);
            return;
        }
#else
        (void)level;
#endif
        qgemmRowsScalar(a, panels, c, i0, i1);
    };

    auto &pool = par::globalPool();
    const long long ops = 1ll * m * panels.n * panels.k_padded;
    const bool parallel = pool.threads() > 1 &&
                          !par::inParallelRegion() &&
                          ops >= kParallelOps &&
                          m >= 2 * pool.threads();
    if (parallel) {
        pool.parallelFor(static_cast<size_t>(m), kRowBlock,
                         [&](size_t i0, size_t i1) {
                             rows(static_cast<int>(i0),
                                  static_cast<int>(i1));
                         });
    } else {
        rows(0, m);
    }
}

} // namespace sns::tensor
