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

// AMX tile geometry: a tile holds up to 16 rows of 64 bytes, and the
// level-3 kernel blocks C in 2 x 2 tiles (32 rows x 32 columns).
constexpr int kTileRows = 16;
constexpr int kTileBytes = 64;
constexpr int kAmxBlock = 2 * kTileRows;

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

// ---------------------------------------------------------------------
// Level 3: AMX-INT8. tdpbusd is vpdpbusd on tiles: u8 x s8 products
// summed in groups of 4 into exact int32 lanes, so the sums equal the
// scalar reference. Nothing is repacked:
//   A tile  up to 16 rows x `depth` bytes of k, straight from `a`
//           (stride k_padded);
//   B tile  depth / 4 consecutive 64-byte blocks of one panel (stride
//           64): block g is row g of the tile, 16 columns x 4 k, the
//           VNNI tile layout;
//   C tile  up to 16 rows x 16 int32 columns of `c` (stride 4n).
// A 2 x 2 block of C tiles (32 rows x 32 columns: two panels) shares
// each A and B tile load: tmm0-3 hold C[r][col] as tmm(2r + col),
// tmm4-5 the two A row tiles, tmm6-7 the two B panel tiles. Partial
// row and column blocks get their own tile config with shorter tiles,
// so every load and store stays inside the m rows of `a` and `c`, the
// n columns of `c` and the panel bytes.
// ---------------------------------------------------------------------

/** The ldtilecfg operand (palette 1). */
struct alignas(64) TileConfig {
    uint8_t palette = 1;
    uint8_t start_row = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {};
    uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64);

/**
 * Bytes of k per tile step: the largest multiple of 4 up to 64 that
 * divides k_padded, so the steps cover k exactly, with no tail.
 */
int
tileDepth(int k_padded)
{
    int depth = kTileBytes;
    while (k_padded % depth != 0)
        depth -= kKGroup;
    return depth;
}

/**
 * Configure the tiles for blocks of `rows` (1..32) rows by `cols`
 * (1..32) columns, `depth` bytes of k per step. A tile a block of
 * that shape does not use stays unconfigured (0 rows).
 */
__attribute__((target("amx-tile"))) void
loadTileConfig(int rows, int cols, int depth)
{
    const int r[2] = {std::min(rows, kTileRows),
                      std::max(rows - kTileRows, 0)};
    const int w[2] = {std::min(cols, kPanelWidth),
                      std::max(cols - kPanelWidth, 0)};
    TileConfig cfg;
    for (int t = 0; t < 2; ++t) {
        if (r[t] > 0) { // A row tile t and the C tiles of its row
            cfg.rows[4 + t] = static_cast<uint8_t>(r[t]);
            cfg.colsb[4 + t] = static_cast<uint16_t>(depth);
            for (int ct = 0; ct < 2; ++ct) {
                if (w[ct] > 0) {
                    cfg.rows[2 * t + ct] = static_cast<uint8_t>(r[t]);
                    cfg.colsb[2 * t + ct] =
                        static_cast<uint16_t>(w[ct] * sizeof(int32_t));
                }
            }
        }
        if (w[t] > 0) { // B panel tile t
            cfg.rows[6 + t] = static_cast<uint8_t>(depth / kKGroup);
            cfg.colsb[6 + t] =
                static_cast<uint16_t>(w[t] * sizeof(int32_t));
        }
    }
    // _tile_loadconfig's asm names only the first 8 bytes of its
    // operand; handing the whole struct to an opaque asm first keeps
    // the compiler from dropping the other stores.
    __asm__ volatile("" : : "r"(&cfg) : "memory");
    _tile_loadconfig(&cfg);
}

/**
 * One block of C: rows [i, i + rows) by the columns of panels q and
 * q + 1 (`two_cols`) or q alone, with rows > 16 when `two_rows`. The
 * tile config in force matches the block's shape.
 */
__attribute__((target("amx-tile,amx-int8"))) inline void
amxBlock(const uint8_t *a, const QuantPanels &b, int32_t *c, int i,
         int q, bool two_rows, bool two_cols, int depth)
{
    const size_t lda = static_cast<size_t>(b.k_padded);
    const size_t ldc = static_cast<size_t>(b.n) * sizeof(int32_t);
    const uint8_t *a0 = a + static_cast<size_t>(i) * lda;
    const uint8_t *a1 = a0 + kTileRows * lda;
    const int8_t *b0 = b.data.data() + q * panelBytes(b);
    const int8_t *b1 = b0 + panelBytes(b);
    int32_t *c00 = c + static_cast<size_t>(i) * b.n + q * kPanelWidth;
    int32_t *c10 = c00 + static_cast<size_t>(kTileRows) * b.n;

    _tile_zero(0);
    if (two_cols)
        _tile_zero(1);
    if (two_rows) {
        _tile_zero(2);
        if (two_cols)
            _tile_zero(3);
    }
    // k bytes [p, p + depth) are panel blocks p / 4 onwards, 64 bytes
    // each: byte offset p * 16.
    for (int p = 0; p < b.k_padded; p += depth) {
        const size_t boff = static_cast<size_t>(p) * kPanelWidth;
        _tile_loadd(4, a0 + p, lda);
        _tile_loadd(6, b0 + boff, kTileBytes);
        _tile_dpbusd(0, 4, 6);
        if (two_cols) {
            _tile_loadd(7, b1 + boff, kTileBytes);
            _tile_dpbusd(1, 4, 7);
        }
        if (two_rows) {
            _tile_loadd(5, a1 + p, lda);
            _tile_dpbusd(2, 5, 6);
            if (two_cols)
                _tile_dpbusd(3, 5, 7);
        }
    }
    _tile_stored(0, c00, ldc);
    if (two_cols)
        _tile_stored(1, c00 + kPanelWidth, ldc);
    if (two_rows) {
        _tile_stored(2, c10, ldc);
        if (two_cols)
            _tile_stored(3, c10 + kPanelWidth, ldc);
    }
}

/** Rows [i0, i0 + row_blocks * rows) by columns [j0, j0 + col_blocks
 * * cols), in blocks of rows x cols under one tile config. */
__attribute__((target("amx-tile,amx-int8"))) void
amxRegion(const uint8_t *a, const QuantPanels &b, int32_t *c, int i0,
          int row_blocks, int rows, int j0, int col_blocks, int cols,
          int depth)
{
    if (row_blocks == 0 || col_blocks == 0)
        return;
    loadTileConfig(rows, cols, depth);
    for (int rb = 0; rb < row_blocks; ++rb)
        for (int cb = 0; cb < col_blocks; ++cb)
            amxBlock(a, b, c, i0 + rb * rows,
                     (j0 + cb * cols) / kPanelWidth, rows > kTileRows,
                     cols > kPanelWidth, depth);
}

/**
 * Rows [i0, i1) on the tiles: full 32 x 32 blocks, then the column
 * tail (n % 32), the row tail ((i1 - i0) % 32) and their corner, each
 * under its own config. The call loads its own config and releases
 * the tiles before returning, so no thread carries tile state between
 * calls.
 */
__attribute__((target("amx-tile,amx-int8"))) void
qgemmRowsAmx(const uint8_t *a, const QuantPanels &b, int32_t *c, int i0,
             int i1)
{
    const int depth = tileDepth(b.k_padded);
    const int full_rows = (i1 - i0) / kAmxBlock;
    const int tail_rows = (i1 - i0) % kAmxBlock;
    const int full_cols = b.n / kAmxBlock;
    const int tail_cols = b.n % kAmxBlock;
    const int i_tail = i0 + full_rows * kAmxBlock;
    const int j_tail = full_cols * kAmxBlock;
    amxRegion(a, b, c, i0, full_rows, kAmxBlock, 0, full_cols, kAmxBlock,
              depth);
    amxRegion(a, b, c, i0, full_rows, kAmxBlock, j_tail,
              tail_cols > 0 ? 1 : 0, tail_cols, depth);
    amxRegion(a, b, c, i_tail, tail_rows > 0 ? 1 : 0, tail_rows, 0,
              full_cols, kAmxBlock, depth);
    amxRegion(a, b, c, i_tail, tail_rows > 0 ? 1 : 0, tail_rows, j_tail,
              tail_cols > 0 ? 1 : 0, tail_cols, depth);
    _tile_release();
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
        if (level >= kSimdAmx) {
            qgemmRowsAmx(a, panels, c, i0, i1);
            return;
        }
        if (level == kSimdAvx512) {
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
        // Split on whole row blocks of the rung (4 rows, or 32 on the
        // tiles), so no chunk starts a partial block mid-matrix.
        const int unit = level >= kSimdAmx ? kAmxBlock : kRowBlock;
        const size_t units = static_cast<size_t>((m + unit - 1) / unit);
        pool.parallelFor(units, 1, [&](size_t u0, size_t u1) {
            rows(static_cast<int>(u0) * unit,
                 std::min(m, static_cast<int>(u1) * unit));
        });
    } else {
        rows(0, m);
    }
}

} // namespace sns::tensor
