#include "tensor/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sns::tensor {

namespace {

int
cpuLevel()
{
#if SNS_SIMD_X86
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
        return kSimdScalar;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni"))
        return kSimdAvx512;
    return kSimdAvx2;
#else
    return kSimdScalar;
#endif
}

/** min(simdMaxLevel, SNS_SIMD), fixed for the life of the process. */
int
ceilingLevel()
{
    static const int level =
        std::min(simdMaxLevel(), parseSimdLevel(std::getenv("SNS_SIMD")));
    return level;
}

std::atomic<int> g_cap{-1};

} // namespace

int
parseSimdLevel(const char *value)
{
    if (value != nullptr && std::strcmp(value, "0") == 0)
        return kSimdScalar;
    if (value != nullptr && std::strcmp(value, "1") == 0)
        return kSimdAvx2;
    return kSimdAvx512;
}

int
simdMaxLevel()
{
    static const int level = cpuLevel();
    return level;
}

int
simdLevel()
{
    const int cap = g_cap.load(std::memory_order_relaxed);
    return cap < 0 ? ceilingLevel() : std::min(ceilingLevel(), cap);
}

void
setSimdLevelCap(int cap)
{
    g_cap.store(cap, std::memory_order_relaxed);
}

} // namespace sns::tensor
