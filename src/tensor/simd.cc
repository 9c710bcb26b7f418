#include "tensor/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if SNS_SIMD_X86 && defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace sns::tensor {

namespace {

int
cpuLevel()
{
#if SNS_SIMD_X86
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
        return kSimdScalar;
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512bw") ||
        !__builtin_cpu_supports("avx512vl") ||
        !__builtin_cpu_supports("avx512vnni"))
        return kSimdAvx2;
#if defined(__linux__)
    if (__builtin_cpu_supports("amx-tile") &&
        __builtin_cpu_supports("amx-int8"))
        return kSimdAmx;
#endif
    return kSimdAvx512;
#else
    return kSimdScalar;
#endif
}

/**
 * Ask Linux, once, to let this process use AMX tile data. Tile state
 * is ~8 KiB, so the kernel refuses while any thread has a sigaltstack
 * too small for the larger signal frame; a refused process simply
 * runs at level 2.
 */
AmxTileData
requestTileData()
{
#if SNS_SIMD_X86 && defined(__linux__)
    constexpr long kArchReqXcompPerm = 0x1023; // ARCH_REQ_XCOMP_PERM
    constexpr long kXfeatureXtileData = 18;    // XFEATURE_XTILEDATA
    return syscall(SYS_arch_prctl, kArchReqXcompPerm,
                   kXfeatureXtileData) == 0
               ? AmxTileData::Granted
               : AmxTileData::Refused;
#else
    return AmxTileData::NotRequested;
#endif
}

struct Ceiling
{
    int level;
    AmxTileData tile_data;
};

/** min(simdMaxLevel, SNS_SIMD, what the kernel grants), fixed for the
 * life of the process. Tile data is requested only when the rest of
 * the ladder would reach level 3. */
const Ceiling &
ceiling()
{
    static const Ceiling value = [] {
        Ceiling c{std::min(simdMaxLevel(),
                           parseSimdLevel(std::getenv("SNS_SIMD"))),
                  AmxTileData::NotRequested};
        if (c.level == kSimdAmx) {
            c.tile_data = requestTileData();
            if (c.tile_data != AmxTileData::Granted)
                c.level = kSimdAvx512;
        }
        return c;
    }();
    return value;
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
    if (value != nullptr && std::strcmp(value, "2") == 0)
        return kSimdAvx512;
    return kSimdAmx;
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
    const int top = ceiling().level;
    return cap < 0 ? top : std::min(top, cap);
}

void
setSimdLevelCap(int cap)
{
    g_cap.store(cap, std::memory_order_relaxed);
}

const char *
simdLevelName(int level)
{
    switch (level) {
    case kSimdScalar:
        return "scalar";
    case kSimdAvx2:
        return "avx2";
    case kSimdAvx512:
        return "avx512";
    default:
        return "amx";
    }
}

AmxTileData
amxTileData()
{
    return ceiling().tile_data;
}

} // namespace sns::tensor
