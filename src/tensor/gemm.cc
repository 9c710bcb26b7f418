#include "tensor/gemm.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "par/thread_pool.hh"
#include "tensor/simd.hh"

#if SNS_SIMD_X86
#include <immintrin.h>
#endif

namespace sns::tensor {

namespace {

// Multi-threading threshold: below ~2 MFLOP the fork/join overhead of
// an idle pool beats the arithmetic.
constexpr long long kParallelFlops = 1 << 21;

// Packed-panel geometry: B columns are packed 16 wide (two ymm or one
// zmm register). The AVX2 microkernels cover 4 x 16 / 1 x 16 C tiles;
// kRowBlock is also the grain of the threaded row tiling.
constexpr int kPanelWidth = 16;
constexpr int kRowBlock = 4;

/** op(A)[i][p] for either storage order. */
inline float
aAt(const float *a, int m, int k, bool trans_a, int i, int p)
{
    return trans_a ? a[static_cast<size_t>(p) * m + i]
                   : a[static_cast<size_t>(i) * k + p];
}

// ---------------------------------------------------------------------
// Scalar kernels. Per element the accumulation is the contract from
// gemm.hh — ascending p, one fused rounding per step (std::fmaf) — so
// they match the SIMD microkernels bit for bit. Loop *order around*
// the elements is free, and each layout picks the cache-friendly one.
// ---------------------------------------------------------------------

/** B untransposed (k x n): ikj order streams B and C rows. */
void
gemmRowsScalarBN(const float *a, const float *b, float *c, int m, int n,
                 int k, bool trans_a, int i0, int i1)
{
    for (int i = i0; i < i1; ++i) {
        float *crow = c + static_cast<size_t>(i) * n;
        for (int p = 0; p < k; ++p) {
            const float av = aAt(a, m, k, trans_a, i, p);
            const float *brow = b + static_cast<size_t>(p) * n;
            for (int j = 0; j < n; ++j)
                crow[j] = std::fmaf(av, brow[j], crow[j]);
        }
    }
}

/** B transposed (n x k): per-element dot over the contiguous B row. */
void
gemmRowsScalarBT(const float *a, const float *b, float *c, int m, int n,
                 int k, bool trans_a, int i0, int i1)
{
    for (int i = i0; i < i1; ++i) {
        float *crow = c + static_cast<size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
            const float *brow = b + static_cast<size_t>(j) * k;
            float acc = crow[j];
            for (int p = 0; p < k; ++p)
                acc = std::fmaf(aAt(a, m, k, trans_a, i, p), brow[p],
                                acc);
            crow[j] = acc;
        }
    }
}

void
gemmRowsScalar(const float *a, const float *b, float *c, int m, int n,
               int k, bool trans_a, bool trans_b, int i0, int i1)
{
    if (trans_b)
        gemmRowsScalarBT(a, b, c, m, n, k, trans_a, i0, i1);
    else
        gemmRowsScalarBN(a, b, c, m, n, k, trans_a, i0, i1);
}

// ---------------------------------------------------------------------
// Packed SIMD paths. op(B) is packed once per call into 16-wide,
// zero-padded column panels (panel q = columns [16q, 16q + 16), rows
// p contiguous), which turns the strided trans_b access into unit
// stride; both SIMD rungs read the same panels. The kernels are
// compiled with target attributes so portable builds
// (SNS_NATIVE_ARCH=OFF) still carry them; the ladder (simd.hh) keeps
// them off CPUs that cannot run them. The pack itself is plain C++
// (no intrinsics) so gemmPackB works in every build — pre-packed
// weights serialize/compile identically whether or not the microkernels
// will consume them.
// ---------------------------------------------------------------------

/** Pack op(B) into zero-padded 16-wide panels (k * 16 floats each). */
void
packBPanels(const float *b, int n, int k, bool trans_b, float *bt)
{
    const int panels = (n + kPanelWidth - 1) / kPanelWidth;
    for (int q = 0; q < panels; ++q) {
        const int j0 = q * kPanelWidth;
        const int w = std::min(kPanelWidth, n - j0);
        float *panel = bt + static_cast<size_t>(q) * k * kPanelWidth;
        if (!trans_b) {
            // B (k x n): copy a row slice, zero the padded lanes.
            for (int p = 0; p < k; ++p) {
                const float *src = b + static_cast<size_t>(p) * n + j0;
                float *dst = panel + static_cast<size_t>(p) * kPanelWidth;
                std::memcpy(dst, src, static_cast<size_t>(w) *
                                          sizeof(float));
                for (int jj = w; jj < kPanelWidth; ++jj)
                    dst[jj] = 0.0f;
            }
        } else {
            // B (n x k): column j of op(B) is the contiguous row j of
            // B — the pack is where the transpose happens.
            for (int jj = 0; jj < w; ++jj) {
                const float *src =
                    b + static_cast<size_t>(j0 + jj) * k;
                float *dst = panel + jj;
                for (int p = 0; p < k; ++p)
                    dst[static_cast<size_t>(p) * kPanelWidth] = src[p];
            }
            for (int jj = w; jj < kPanelWidth; ++jj) {
                float *dst = panel + jj;
                for (int p = 0; p < k; ++p)
                    dst[static_cast<size_t>(p) * kPanelWidth] = 0.0f;
            }
        }
    }
}

#if SNS_SIMD_X86

// ---------------------------------------------------------------------
// AVX2 + FMA rung: two 8-float FMAs per row per p.
// ---------------------------------------------------------------------

/**
 * 4 x 16 microkernel: rows [i, i + 4) x panel columns [j0, j0 + w).
 * Eight accumulator registers, two panel loads and eight FMAs per p.
 * Partial panels (w < 16) stage C through a zero-padded stack tile;
 * the padded B lanes are zero, so the extra lanes accumulate exact
 * zeros and are simply not stored back.
 */
__attribute__((target("avx2,fma"))) void
micro4x16(const float *a, int m, int k, bool trans_a, const float *panel,
          float *c, int n, int i, int j0, int w)
{
    __m256 acc[kRowBlock][2];
    float tmp[kRowBlock][kPanelWidth];
    const bool partial = w < kPanelWidth;
    for (int r = 0; r < kRowBlock; ++r) {
        float *crow = c + static_cast<size_t>(i + r) * n + j0;
        if (partial) {
            std::memset(tmp[r], 0, sizeof(tmp[r]));
            std::memcpy(tmp[r], crow,
                        static_cast<size_t>(w) * sizeof(float));
            acc[r][0] = _mm256_loadu_ps(tmp[r]);
            acc[r][1] = _mm256_loadu_ps(tmp[r] + 8);
        } else {
            acc[r][0] = _mm256_loadu_ps(crow);
            acc[r][1] = _mm256_loadu_ps(crow + 8);
        }
    }
    for (int p = 0; p < k; ++p) {
        const float *brow = panel + static_cast<size_t>(p) * kPanelWidth;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (int r = 0; r < kRowBlock; ++r) {
            const __m256 av =
                _mm256_set1_ps(aAt(a, m, k, trans_a, i + r, p));
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    for (int r = 0; r < kRowBlock; ++r) {
        float *crow = c + static_cast<size_t>(i + r) * n + j0;
        if (partial) {
            _mm256_storeu_ps(tmp[r], acc[r][0]);
            _mm256_storeu_ps(tmp[r] + 8, acc[r][1]);
            std::memcpy(crow, tmp[r],
                        static_cast<size_t>(w) * sizeof(float));
        } else {
            _mm256_storeu_ps(crow, acc[r][0]);
            _mm256_storeu_ps(crow + 8, acc[r][1]);
        }
    }
}

/** 1 x 16 microkernel for the row remainder. */
__attribute__((target("avx2,fma"))) void
micro1x16(const float *a, int m, int k, bool trans_a, const float *panel,
          float *c, int n, int i, int j0, int w)
{
    __m256 acc0;
    __m256 acc1;
    float tmp[kPanelWidth];
    float *crow = c + static_cast<size_t>(i) * n + j0;
    const bool partial = w < kPanelWidth;
    if (partial) {
        std::memset(tmp, 0, sizeof(tmp));
        std::memcpy(tmp, crow, static_cast<size_t>(w) * sizeof(float));
        acc0 = _mm256_loadu_ps(tmp);
        acc1 = _mm256_loadu_ps(tmp + 8);
    } else {
        acc0 = _mm256_loadu_ps(crow);
        acc1 = _mm256_loadu_ps(crow + 8);
    }
    for (int p = 0; p < k; ++p) {
        const float *brow = panel + static_cast<size_t>(p) * kPanelWidth;
        const __m256 av = _mm256_set1_ps(aAt(a, m, k, trans_a, i, p));
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
    }
    if (partial) {
        _mm256_storeu_ps(tmp, acc0);
        _mm256_storeu_ps(tmp + 8, acc1);
        std::memcpy(crow, tmp, static_cast<size_t>(w) * sizeof(float));
    } else {
        _mm256_storeu_ps(crow, acc0);
        _mm256_storeu_ps(crow + 8, acc1);
    }
}

/** Row tile [i0, i1) over every packed panel. */
__attribute__((target("avx2,fma"))) void
gemmRowsAvx2(const float *a, const float *bt, float *c, int m, int n,
             int k, bool trans_a, int i0, int i1)
{
    const int panels = (n + kPanelWidth - 1) / kPanelWidth;
    for (int q = 0; q < panels; ++q) {
        const int j0 = q * kPanelWidth;
        const int w = std::min(kPanelWidth, n - j0);
        const float *panel = bt + static_cast<size_t>(q) * k * kPanelWidth;
        int i = i0;
        for (; i + kRowBlock <= i1; i += kRowBlock)
            micro4x16(a, m, k, trans_a, panel, c, n, i, j0, w);
        for (; i < i1; ++i)
            micro1x16(a, m, k, trans_a, panel, c, n, i, j0, w);
    }
}

// ---------------------------------------------------------------------
// AVX-512 rung. A 16-wide panel row is exactly one zmm register, so an
// R x (16 P) block of C lives in R * P accumulators, and every p issues
// P panel loads, R broadcasts of op(A) and R * P FMAs. Each lane is
// still one element's own fma chain over ascending p, so this rung
// equals the scalar and AVX2 ones bit for bit. The last panel of a row
// may be partial: its C lanes load and store under a lane mask, and the
// zero B padding keeps the masked-off lanes at exact zeros.
//
// op(A) is read through two strides, so one kernel serves both
// layouts: element (i, p) sits at a[i * row_stride + p * depth_stride],
// that is (k, 1) for A (m x k) and (1, m) for trans_a.
// ---------------------------------------------------------------------

/** Rows per block of the main AVX-512 kernel (measured; docs/perf.md). */
constexpr int kRowBlock512 = 12;

/** Lane mask for the w live columns of a panel, 1 <= w <= 16. */
inline __mmask16
laneMask(int w)
{
    return static_cast<__mmask16>((1u << w) - 1u);
}

/**
 * R rows x P panels starting at row i and panel `panel` (column j0).
 * `last` masks the live lanes of the block's final panel.
 */
template <int R, int P>
__attribute__((target("avx512f"))) inline void
microAvx512(const float *a, size_t row_stride, size_t depth_stride,
            int k, const float *panel, float *c, int n, int i, int j0,
            __mmask16 last)
{
    const size_t panel_floats = static_cast<size_t>(k) * kPanelWidth;
    __m512 acc[R][P];
    for (int r = 0; r < R; ++r) {
        float *crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int q = 0; q < P; ++q)
            acc[r][q] = _mm512_maskz_loadu_ps(q + 1 == P ? last : 0xffff,
                                              crow + q * kPanelWidth);
    }
    const float *ap = a + static_cast<size_t>(i) * row_stride;
    for (int p = 0; p < k; ++p) {
        const float *brow = panel + static_cast<size_t>(p) * kPanelWidth;
        __m512 bv[P];
        for (int q = 0; q < P; ++q)
            bv[q] = _mm512_loadu_ps(brow + q * panel_floats);
        for (int r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(ap[r * row_stride]);
            for (int q = 0; q < P; ++q)
                acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
        }
        ap += depth_stride;
    }
    for (int r = 0; r < R; ++r) {
        float *crow = c + static_cast<size_t>(i + r) * n + j0;
        for (int q = 0; q < P; ++q)
            _mm512_mask_storeu_ps(crow + q * kPanelWidth,
                                  q + 1 == P ? last : 0xffff, acc[r][q]);
    }
}

/** Rows [i0, i1) against P panels: main blocks, then 4- and 1-row. */
template <int P>
__attribute__((target("avx512f"))) void
rowsAvx512(const float *a, size_t row_stride, size_t depth_stride, int k,
           const float *panel, float *c, int n, int i0, int i1, int j0,
           __mmask16 last)
{
    int i = i0;
    for (; i + kRowBlock512 <= i1; i += kRowBlock512)
        microAvx512<kRowBlock512, P>(a, row_stride, depth_stride, k, panel,
                                     c, n, i, j0, last);
    for (; i + 4 <= i1; i += 4)
        microAvx512<4, P>(a, row_stride, depth_stride, k, panel, c, n, i,
                          j0, last);
    for (; i < i1; ++i)
        microAvx512<1, P>(a, row_stride, depth_stride, k, panel, c, n, i,
                          j0, last);
}

/** Row tile [i0, i1) over every packed panel, two panels at a time. */
__attribute__((target("avx512f"))) void
gemmRowsAvx512(const float *a, const float *bt, float *c, int m, int n,
               int k, bool trans_a, int i0, int i1)
{
    const size_t row_stride = trans_a ? 1 : static_cast<size_t>(k);
    const size_t depth_stride = trans_a ? static_cast<size_t>(m) : 1;
    const int panels = (n + kPanelWidth - 1) / kPanelWidth;
    const __mmask16 last = laneMask(n - (panels - 1) * kPanelWidth);
    int q = 0;
    for (; q + 2 <= panels; q += 2) {
        const float *panel = bt + static_cast<size_t>(q) * k * kPanelWidth;
        rowsAvx512<2>(a, row_stride, depth_stride, k, panel, c, n, i0, i1,
                      q * kPanelWidth, q + 2 == panels ? last : 0xffff);
    }
    if (q < panels) {
        const float *panel = bt + static_cast<size_t>(q) * k * kPanelWidth;
        rowsAvx512<1>(a, row_stride, depth_stride, k, panel, c, n, i0, i1,
                      q * kPanelWidth, last);
    }
}

/** Per-thread reusable panel scratch (grows to the largest B seen). */
thread_local std::vector<float> t_pack_buffer;

#endif // SNS_SIMD_X86

} // namespace

bool
gemmSimdActive()
{
    return simdLevel() >= kSimdAvx2;
}

namespace {

/**
 * The one row-tiled execution path behind gemmAcc and gemmAccPacked:
 * `level` is the ladder rung to run, `bt` the packed panels of op(B)
 * (read at levels 1 and 2) and `b` the raw operand (read at level 0).
 * All layouts tile over rows of C: each tile runs the full p loop for
 * its rows, so tiling (and threading over tiles) never changes a
 * single bit of the result.
 */
void
gemmDispatch(int level, const float *a, const float *b, const float *bt,
             float *c, int m, int n, int k, bool trans_a, bool trans_b)
{
    auto rows = [&](int i0, int i1) {
#if SNS_SIMD_X86
        if (level >= kSimdAvx512) {
            gemmRowsAvx512(a, bt, c, m, n, k, trans_a, i0, i1);
            return;
        }
        if (level == kSimdAvx2) {
            gemmRowsAvx2(a, bt, c, m, n, k, trans_a, i0, i1);
            return;
        }
#else
        (void)level;
        (void)bt;
#endif
        gemmRowsScalar(a, b, c, m, n, k, trans_a, trans_b, i0, i1);
    };

    auto &pool = par::globalPool();
    const long long flops = 2ll * m * n * k;
    const bool parallel = pool.threads() > 1 &&
                          !par::inParallelRegion() &&
                          flops >= kParallelFlops &&
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

} // namespace

void
gemmAcc(const float *a, const float *b, float *c, int m, int n, int k,
        bool trans_a, bool trans_b)
{
    if (m <= 0 || n <= 0 || k <= 0)
        return;

    const int level = simdLevel();
    const float *bt = nullptr;
#if SNS_SIMD_X86
    // Pack op(B) once, on the calling thread, before the parallel
    // region; row tiles share the read-only panels. The scratch is
    // thread-local, so GEMMs running inline inside pool workers (the
    // nested-parallelism case) each pack into their own buffer.
    if (level >= kSimdAvx2) {
        const size_t need = gemmPackedFloats(n, k);
        if (t_pack_buffer.size() < need)
            t_pack_buffer.resize(need);
        packBPanels(b, n, k, trans_b, t_pack_buffer.data());
        bt = t_pack_buffer.data();
    }
#endif
    gemmDispatch(level, a, b, bt, c, m, n, k, trans_a, trans_b);
}

size_t
gemmPackedFloats(int n, int k)
{
    if (n <= 0 || k <= 0)
        return 0;
    const size_t panels =
        (static_cast<size_t>(n) + kPanelWidth - 1) / kPanelWidth;
    return panels * static_cast<size_t>(k) * kPanelWidth;
}

void
gemmPackB(const float *b, int n, int k, bool trans_b, float *bt)
{
    if (n <= 0 || k <= 0)
        return;
    packBPanels(b, n, k, trans_b, bt);
}

void
gemmAccPacked(const float *a, const float *b, const float *bt, float *c,
              int m, int n, int k, bool trans_a, bool trans_b)
{
    if (m <= 0 || n <= 0 || k <= 0)
        return;
    // The panels are only consumed when the microkernels would run;
    // the scalar path reads the raw operand, exactly like gemmAcc.
    const int level = bt != nullptr ? simdLevel() : kSimdScalar;
    gemmDispatch(level, a, b, bt, c, m, n, k, trans_a, trans_b);
}

void
gemmAccScalar(const float *a, const float *b, float *c, int m, int n,
              int k, bool trans_a, bool trans_b)
{
    if (m <= 0 || n <= 0 || k <= 0)
        return;
    gemmRowsScalar(a, b, c, m, n, k, trans_a, trans_b, 0, m);
}

} // namespace sns::tensor
