/**
 * @file
 * The one single-precision tanh under every model in the library: a
 * port of glibc 2.36's fdlibm `tanhf` (and the `expm1f` it calls),
 * bitwise equal to it on every input, with two dispatch rungs:
 *
 *   - a scalar rung, a line-by-line transcription of the fdlibm code;
 *   - an AVX2 rung that evaluates every fdlibm branch for eight lanes
 *     and selects per lane with branch-free blends.
 *
 * The rungs are selected by the float-kernel switch of gemm.hh
 * (gemmSimdActive(); SNS_SIMD=0 forces the scalar rung) and agree
 * bit for bit on all 2^32 inputs, NaN payloads included, so the
 * switch changes throughput only. Because the kernel carries its own
 * polynomial, GELU and tanh results no longer depend on the libm the
 * program happens to run against (docs/perf.md, "Vectorized tanh").
 */

#ifndef SNS_TENSOR_TANH_HH
#define SNS_TENSOR_TANH_HH

#include <cstddef>

namespace sns::tensor {

/** out[i] = tanhf(in[i]) for i < count. `out` may alias `in`. */
void tanhArray(const float *in, float *out, size_t count);

} // namespace sns::tensor

#endif // SNS_TENSOR_TANH_HH
