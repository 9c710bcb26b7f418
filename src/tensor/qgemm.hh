/**
 * @file
 * Reduced-precision integer GEMM for the quantized inference tier
 * (docs/quantization.md). Computes exact int32 accumulators
 *
 *     C[i][j] = sum_p  a[i][p] * b[p][j]
 *
 * for u7 activations `a` (quantized into [0, 127] around zero-point
 * 64) and s8 weights `b` (per-output-channel symmetric, [-127, 127]).
 * Every product term fits |a*b| <= 127*127 = 16129 and every adjacent
 * pair sum fits 2*127*127 = 32258 < 32767, so the AVX2 `maddubs`
 * widening path never saturates its intermediate int16 lanes and all
 * four dispatch levels — scalar reference, AVX2
 * (`_mm256_maddubs_epi16`), AVX-512 VNNI (`_mm512_dpbusd_epi32`) and
 * AMX-INT8 tiles (`tdpbusd`) — produce the *same exact integer* for
 * every element. Integer addition is associative, so unlike the float
 * kernels in gemm.hh no accumulation-order contract is needed:
 * quantized SIMD == quantized scalar bitwise at every level, by
 * construction.
 *
 * The four levels are the rungs of the shared SNS_SIMD ladder
 * (simd.hh): SNS_SIMD=0 forces level 0 (scalar), SNS_SIMD=1 caps at
 * level 1 (AVX2), SNS_SIMD=2 at level 2 (AVX-512 VNNI), and anything
 * else (including unset) allows level 3 (AMX-INT8) when the CPU has it
 * and the kernel grants the tile state. The fp32 GEMM and the tanh
 * kernel run on the same ladder at the same level, except that they
 * stay on AVX-512 at level 3.
 */

#ifndef SNS_TENSOR_QGEMM_HH
#define SNS_TENSOR_QGEMM_HH

#include <cstdint>
#include <vector>

namespace sns::tensor {

/**
 * A weight matrix packed for the integer microkernels: 16-wide column
 * panels with the k dimension interleaved in groups of 4 (the VNNI
 * dot-product granularity). Within each 64-byte block, byte
 * `j * 4 + kk` holds op(B)[4g + kk][j0 + j] for block g of panel
 * starting at column j0 — one aligned 64-byte load feeds all 16
 * int32 lanes of a `vpdpbusd`, and the two 32-byte halves feed the
 * AVX2 path (columns 0-7, then 8-15). Padded rows/columns are zero,
 * so padded terms contribute exact zeros at every level.
 *
 * `colsum[j]` is the int32 sum of column j's *real* (unpadded) rows —
 * the zero-point correction term: with activations quantized as
 * q = round(x / s_x) + 64, the real accumulator is
 * `acc - 64 * colsum[j]`.
 */
struct QuantPanels {
    int k = 0;        ///< contraction depth (rows of op(B))
    int n = 0;        ///< output columns
    int k_padded = 0; ///< k rounded up to a multiple of 4
    std::vector<int8_t> data;    ///< ceil(n/16) panels * k_padded * 16
    std::vector<int32_t> colsum; ///< n zero-point correction sums
};

/** Pack a row-major (k x n) s8 matrix into interleaved panels and
 * compute the per-column zero-point correction sums. */
void qgemmPackB(const int8_t *b, int k, int n, QuantPanels &panels);

/**
 * Exact integer GEMM: C[i][j] = sum_p a[i][p] * b[p][j], overwriting
 * C (m x n, int32). `a` is row-major u8 with row stride
 * `panels.k_padded`; the caller zero-fills the padded tail bytes
 * (their products are zero anyway — the weight pads are zero — but
 * deterministic inputs keep memory tools quiet). Dispatches to the
 * highest permitted level (see qgemmLevel()); all levels return the
 * same bits.
 */
void qgemmI32(const uint8_t *a, const QuantPanels &panels, int32_t *c,
              int m);

/** The level qgemmI32 currently dispatches to: simdLevel() of the
 * shared ladder (simd.hh). */
int qgemmLevel();

/** setSimdLevelCap() under the quantized tier's name: caps the whole
 * ladder, the float kernels included. Results never change, only
 * which kernel computes them. */
void setQgemmLevelCap(int cap);

} // namespace sns::tensor

#endif // SNS_TENSOR_QGEMM_HH
