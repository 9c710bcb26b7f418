/**
 * @file
 * The one SIMD dispatch ladder under every kernel in src/tensor: the
 * fp32 GEMM (gemm.hh), the integer GEMM (qgemm.hh) and the tanh kernel
 * (tanh.hh) all run at the same level,
 *
 *   0  scalar reference;
 *   1  AVX2 + FMA;
 *   2  AVX-512 (F, BW, VL and VNNI, so one probe serves all three
 *      kernels);
 *   3  AMX-INT8 tiles for the integer GEMM; the fp32 GEMM and the tanh
 *      kernel keep running their AVX-512 rungs.
 *
 * The level in force is the minimum of three bounds: what this build,
 * CPU and kernel can run, the SNS_SIMD environment variable
 * (parseSimdLevel, read once) and the test cap (setSimdLevelCap).
 * Level 3 needs the kernel's permission to use AMX tile data: the
 * first simdLevel() call asks for it once, unless SNS_SIMD caps the
 * ladder lower, and a refusal leaves the ladder at level 2. Every
 * kernel returns the same bits at every level, so the ladder changes
 * throughput only (docs/perf.md, "Dispatch rules").
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
constexpr int kSimdAmx = 3;

/**
 * The level an SNS_SIMD value allows: exactly "0" caps at scalar,
 * exactly "1" at AVX2, exactly "2" at AVX-512; anything else,
 * including an unset (null) or empty value, leaves the ladder
 * uncapped (kSimdAmx).
 */
int parseSimdLevel(const char *value);

/** Highest level this build and CPU support. Level 3 also needs the
 * kernel's tile-data permission (amxTileData), so simdLevel() may stop
 * below it. */
int simdMaxLevel();

/** The level every kernel dispatches to now: min of the ceiling this
 * process was granted, the SNS_SIMD environment variable and the test
 * cap. */
int simdLevel();

/**
 * Test and benchmark hook: cap the level to force a lower rung (for
 * example the AVX2 kernels on an AVX-512 machine). A negative cap
 * removes it; a cap above the ceiling clamps to the ceiling.
 */
void setSimdLevelCap(int cap);

/** "scalar", "avx2", "avx512" or "amx": the rung a level names. */
const char *simdLevelName(int level);

/** What became of this process's one request for AMX tile data. */
enum class AmxTileData {
    NotRequested, ///< the CPU lacks AMX-INT8, or SNS_SIMD caps below it
    Granted,      ///< the kernel allowed it: level 3 is available
    Refused,      ///< the kernel said no: the ladder stops at level 2
};

/** The outcome of the tile-data request, making it if it is due. */
AmxTileData amxTileData();

} // namespace sns::tensor

#endif // SNS_TENSOR_SIMD_HH
