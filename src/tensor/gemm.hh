/**
 * @file
 * The one dense matrix-multiply kernel under every model in the
 * library. C (m x n) += op(A) * op(B) where op optionally transposes.
 *
 * Accumulation contract (docs/perf.md): for every element C[i][j] the
 * update is
 *
 *     for p in 0..k-1:  C[i][j] = fma(opA(A)[i][p], opB(B)[p][j], C[i][j])
 *
 * — ascending p, one fused rounding per step — in *every* code path:
 * the packed AVX-512 and AVX2+FMA microkernels, the scalar fallback
 * (std::fmaf), and every edge/remainder loop. Because the per-element
 * order is identical everywhere, all rungs of the SNS_SIMD ladder
 * (simd.hh) return bitwise equal results, and
 * the sns::par row tiling (each tile runs its full p loop) keeps
 * results bitwise identical at any thread count.
 */

#ifndef SNS_TENSOR_GEMM_HH
#define SNS_TENSOR_GEMM_HH

#include <cstddef>

namespace sns::tensor {

/**
 * Accumulating GEMM: C += opA(A) * opB(B). Dispatches at runtime to
 * the rung of the SNS_SIMD ladder in force (simd.hh): the AVX-512
 * microkernels (12 x 32 register blocks), the AVX2+FMA ones (4 x 16),
 * or the scalar fallback. Every rung produces bitwise identical
 * results.
 *
 * @param a pointer to A, stored (m x k) or (k x m) if trans_a
 * @param b pointer to B, stored (k x n) or (n x k) if trans_b
 * @param c pointer to C, stored (m x n); results accumulate into it
 */
void gemmAcc(const float *a, const float *b, float *c, int m, int n, int k,
             bool trans_a, bool trans_b);

/**
 * The scalar reference kernel: same accumulation contract, no SIMD,
 * no threading. Exists so tests and microbenchmarks can pin the
 * dispatched kernel against it (exact equality expected).
 */
void gemmAccScalar(const float *a, const float *b, float *c, int m, int n,
                   int k, bool trans_a, bool trans_b);

/** True when gemmAcc currently dispatches to packed SIMD microkernels
 * (ladder level 1 or 2), that is, when it reads packed panels. */
bool gemmSimdActive();

/** @name Pre-packed operation
 * gemmAcc packs op(B) into 16-wide column panels on every call. When
 * the same B is multiplied many times (the execution-plan path packs
 * each weight matrix once at model-load time), callers can hold the
 * packed panels themselves and skip the per-call pack:
 *
 *     std::vector<float> bt(gemmPackedFloats(n, k));
 *     gemmPackB(b, n, k, trans_b, bt.data());
 *     gemmAccPacked(a, b, bt.data(), c, m, n, k, trans_a, trans_b);
 *
 * gemmAccPacked follows the exact dispatch, tiling, and accumulation
 * contract of gemmAcc, so its results are bitwise identical to
 * gemmAcc's for the same operands. The raw `b` pointer is still
 * required: the scalar fallback (SIMD compiled out, unsupported CPU,
 * or ladder level 0) reads it instead of the panels.
 * @{
 */

/** Floats required for the packed panels of an op(B) with n columns
 * and k rows (zero-padded to a multiple of the 16-wide panel). */
size_t gemmPackedFloats(int n, int k);

/** Pack op(B) into caller-owned storage of gemmPackedFloats(n, k)
 * floats. `b` is stored (k x n), or (n x k) when trans_b. */
void gemmPackB(const float *b, int n, int k, bool trans_b, float *bt);

/** gemmAcc against pre-packed panels `bt` (may be null to force the
 * scalar path; results do not change, only throughput does). */
void gemmAccPacked(const float *a, const float *b, const float *bt,
                   float *c, int m, int n, int k, bool trans_a,
                   bool trans_b);
/** @} */

} // namespace sns::tensor

#endif // SNS_TENSOR_GEMM_HH
