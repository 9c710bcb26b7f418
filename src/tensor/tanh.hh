/**
 * @file
 * The one single-precision tanh under every model in the library: a
 * port of glibc 2.36's fdlibm `tanhf` (and the `expm1f` it calls),
 * bitwise equal to it on every input, on the three rungs of the SNS_SIMD
 * ladder (simd.hh):
 *
 *   - level 0, a scalar rung, a line-by-line transcription of the
 *     fdlibm code;
 *   - level 1, an AVX2 rung that evaluates every fdlibm branch for
 *     eight lanes and selects per lane with branch-free blends;
 *   - level 2, the same branch set on sixteen AVX-512 lanes, selected
 *     with lane masks.
 *
 * The rungs agree bit for bit on all 2^32 inputs, NaN payloads
 * included, so the ladder changes throughput only. Because the kernel
 * carries its own polynomial, GELU and tanh results no longer depend
 * on the libm the program happens to run against (docs/perf.md,
 * "Vectorized tanh").
 */

#ifndef SNS_TENSOR_TANH_HH
#define SNS_TENSOR_TANH_HH

#include <cstddef>

namespace sns::tensor {

/** out[i] = tanhf(in[i]) for i < count. `out` may alias `in`. */
void tanhArray(const float *in, float *out, size_t count);

} // namespace sns::tensor

#endif // SNS_TENSOR_TANH_HH
