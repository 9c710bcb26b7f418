/**
 * @file
 * The one SIMD dispatch ladder under every kernel in src/tensor: the
 * fp32 GEMM (gemm.hh), the integer GEMM (qgemm.hh) and the tanh kernel
 * (tanh.hh) all run at the same level,
 *
 *   0  scalar reference;
 *   1  AVX2 + FMA;
 *   2  AVX-512 (F, BW, VL and VNNI, so one probe serves all three
 *      kernels).
 *
 * The level in force is the minimum of three bounds: what this build
 * and CPU can run (simdMaxLevel), the SNS_SIMD environment variable
 * (parseSimdLevel, read once) and the test cap (setSimdLevelCap).
 * Every kernel returns the same bits at every level, so the ladder
 * changes throughput only (docs/perf.md, "Dispatch rules").
 */

#ifndef SNS_TENSOR_SIMD_HH
#define SNS_TENSOR_SIMD_HH

// Kernel sources guard their intrinsics with SNS_SIMD_X86: the SNS_SIMD
// CMake option is on and the target is an x86-64 GCC/Clang build. The
// kernels carry their own target attributes, so a portable build
// (SNS_NATIVE_ARCH=OFF) still contains every rung.
#if defined(SNS_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SNS_SIMD_X86 1
#endif

namespace sns::tensor {

/** Ladder levels, in ascending order of width. */
constexpr int kSimdScalar = 0;
constexpr int kSimdAvx2 = 1;
constexpr int kSimdAvx512 = 2;

/**
 * The level an SNS_SIMD value allows: exactly "0" caps at scalar,
 * exactly "1" at AVX2; anything else, including an unset (null) or
 * empty value, leaves the ladder uncapped (kSimdAvx512).
 */
int parseSimdLevel(const char *value);

/** Highest level this build and CPU can run. */
int simdMaxLevel();

/** The level every kernel dispatches to now: min of simdMaxLevel,
 * the SNS_SIMD environment variable and the test cap. */
int simdLevel();

/**
 * Test and benchmark hook: cap the level to force a lower rung (for
 * example the AVX2 kernels on an AVX-512 machine). A negative cap
 * removes it; a cap above the ceiling clamps to the ceiling.
 */
void setSimdLevelCap(int cap);

} // namespace sns::tensor

#endif // SNS_TENSOR_SIMD_HH
