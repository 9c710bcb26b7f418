// Compiled with -ffp-contract=off (src/tensor/CMakeLists.txt): fdlibm
// rounds every multiply and add separately, and GCC lowers the
// _mm256_*_ps and _mm512_*_ps arithmetic below to generic vector
// operations that it would otherwise fuse into FMAs under
// -march=native.

#include "tensor/tanh.hh"

#include <cstdint>
#include <cstring>

#include "tensor/simd.hh"

#if SNS_SIMD_X86
#include <immintrin.h>
#endif

namespace sns::tensor {

namespace {

// fdlibm expm1f constants (glibc sysdeps/ieee754/flt-32/s_expm1f.c).
constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f; // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;    // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;     // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;    // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;     // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;    // 0xb457edbb

// Branch points on the magnitude bits |x|.
constexpr int32_t kTanhTiny = 0x24000000;   // tanhf: |x| < 2^-55
constexpr int32_t kTanhOne = 0x3f800000;    // tanhf: |x| >= 1
constexpr int32_t kTanhHuge = 0x41b00000;   // tanhf: |x| >= 22
constexpr int32_t kNonFinite = 0x7f800000;  // inf or NaN
constexpr int32_t kExpm1Tiny = 0x33000000;  // expm1f: |x| < 2^-25
constexpr int32_t kHalfLn2 = 0x3eb17218;    // expm1f: |x| > ln2/2
constexpr int32_t kThreeHalfLn2 = 0x3F851592; // expm1f: |x| < 1.5 ln2

float
fromBits(int32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

int32_t
toBits(float f)
{
    int32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/**
 * fdlibm expm1f on the arguments tanhf passes it: finite, |x| <= 44.
 * The overflow, x < -27 ln2 and k == 128 branches cannot be reached
 * from there and are left out; every other line is the original's.
 */
float
expm1Scalar(float x)
{
    const int32_t hx = toBits(x) & 0x7fffffff;
    const bool negative = toBits(x) < 0;
    float hi;
    float lo;
    float c = 0.0f;
    int32_t k;
    if (hx > kHalfLn2) {
        if (hx < kThreeHalfLn2) {
            if (!negative) {
                hi = x - kLn2Hi;
                lo = kLn2Lo;
                k = 1;
            } else {
                hi = x + kLn2Hi;
                lo = -kLn2Lo;
                k = -1;
            }
        } else {
            k = static_cast<int32_t>(kInvLn2 * x +
                                     (negative ? -0.5f : 0.5f));
            const float t = static_cast<float>(k);
            hi = x - t * kLn2Hi;
            lo = t * kLn2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < kExpm1Tiny) {
        return x;
    } else {
        k = 0;
    }

    const float hfx = 0.5f * x;
    const float hxs = x * hfx;
    const float r1 =
        1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 +
                                                             hxs * kQ5))));
    float t = 3.0f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    if (k == 1) {
        if (x < -0.25f)
            return -2.0f * (e - (x + 0.5f));
        return 1.0f + 2.0f * (x - e);
    }
    float y;
    if (k <= -2 || k > 56) {
        y = 1.0f - (e - x);
        y = fromBits(toBits(y) + (k << 23));
        return y - 1.0f;
    }
    if (k < 23) {
        t = fromBits(0x3f800000 - (0x1000000 >> k)); // 1 - 2^-k
        y = t - (e - x);
    } else {
        t = fromBits((0x7f - k) << 23); // 2^-k
        y = x - (e + t);
        y += 1.0f;
    }
    return fromBits(toBits(y) + (k << 23));
}

/** fdlibm tanhf (glibc sysdeps/ieee754/flt-32/s_tanhf.c). */
float
tanhScalar(float x)
{
    const int32_t jx = toBits(x);
    const int32_t ix = jx & 0x7fffffff;
    if (ix >= kNonFinite)
        return jx >= 0 ? 1.0f / x + 1.0f : 1.0f / x - 1.0f;
    float z;
    if (ix < kTanhHuge) {
        if (ix == 0)
            return x;
        if (ix < kTanhTiny)
            return x * (1.0f + x);
        if (ix >= kTanhOne) {
            const float t = expm1Scalar(2.0f * (jx >= 0 ? x : -x));
            z = 1.0f - 2.0f / (t + 2.0f);
        } else {
            const float t = expm1Scalar(-2.0f * (jx >= 0 ? x : -x));
            z = -t / (t + 2.0f);
        }
    } else {
        z = 1.0f - 1.0e-30f;
    }
    return jx >= 0 ? z : -z;
}

#if SNS_SIMD_X86

// The AVX2 rung computes every branch above for all eight lanes and
// keeps, per lane, the one fdlibm would have taken. Unused branches
// may compute garbage (inf, NaN, out-of-range shifts); it is blended
// away and raises nothing (exceptions stay masked).

__attribute__((target("avx2"))) inline __m256
maskGreater(__m256i bits, int32_t bound)
{
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(bits, _mm256_set1_epi32(bound)));
}

__attribute__((target("avx2"))) inline __m256
addExponent(__m256 y, __m256i k)
{
    return _mm256_castsi256_ps(
        _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

/** expm1Scalar for eight lanes. */
__attribute__((target("avx2"))) inline __m256
expm1Lanes(__m256 x)
{
    const __m256i xi = _mm256_castps_si256(x);
    const __m256i hx = _mm256_and_si256(xi, _mm256_set1_epi32(0x7fffffff));
    const __m256 sign = _mm256_castsi256_ps(
        _mm256_andnot_si256(_mm256_set1_epi32(0x7fffffff), xi));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 half = _mm256_set1_ps(0.5f);

    // Argument reduction. Lanes with |x| <= ln2/2 get k = 0, so
    // hi = x - 0 = x, lo = 0, c = 0 (the original skips reduction).
    // Lanes below 1.5 ln2 take k = +-1; t * ln2_hi and t * ln2_lo are
    // then exactly the original's +-ln2_hi and +-ln2_lo.
    const __m256 reduce = maskGreater(hx, kHalfLn2);
    const __m256 wide = maskGreater(hx, kThreeHalfLn2 - 1);
    const __m256i k_wide = _mm256_cvttps_epi32(_mm256_add_ps(
        _mm256_mul_ps(_mm256_set1_ps(kInvLn2), x), _mm256_or_ps(half, sign)));
    const __m256i k_unit =
        _mm256_or_si256(_mm256_srai_epi32(xi, 31), _mm256_set1_epi32(1));
    const __m256i k = _mm256_and_si256(
        _mm256_castps_si256(_mm256_blendv_ps(_mm256_castsi256_ps(k_unit),
                                             _mm256_castsi256_ps(k_wide),
                                             wide)),
        _mm256_castps_si256(reduce));
    const __m256 kf = _mm256_cvtepi32_ps(k);
    const __m256 hi =
        _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Hi)));
    const __m256 lo = _mm256_mul_ps(kf, _mm256_set1_ps(kLn2Lo));
    const __m256 r = _mm256_sub_ps(hi, lo);
    const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    // Primary range.
    const __m256 hfx = _mm256_mul_ps(half, r);
    const __m256 hxs = _mm256_mul_ps(r, hfx);
    __m256 poly = _mm256_add_ps(_mm256_set1_ps(kQ4),
                                _mm256_mul_ps(hxs, _mm256_set1_ps(kQ5)));
    poly = _mm256_add_ps(_mm256_set1_ps(kQ3), _mm256_mul_ps(hxs, poly));
    poly = _mm256_add_ps(_mm256_set1_ps(kQ2), _mm256_mul_ps(hxs, poly));
    poly = _mm256_add_ps(_mm256_set1_ps(kQ1), _mm256_mul_ps(hxs, poly));
    const __m256 r1 = _mm256_add_ps(one, _mm256_mul_ps(hxs, poly));
    const __m256 t =
        _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
    const __m256 e0 = _mm256_mul_ps(
        hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                           _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                         _mm256_mul_ps(r, t))));
    const __m256 res_k0 =
        _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e0), hxs));
    const __m256 e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e0, c)), c), hxs);
    const __m256 e_minus_r = _mm256_sub_ps(e, r);

    const __m256 res_km1 = _mm256_sub_ps(
        _mm256_mul_ps(half, _mm256_sub_ps(r, e)), half);
    const __m256 res_k1 = _mm256_blendv_ps(
        _mm256_add_ps(one, _mm256_mul_ps(_mm256_set1_ps(2.0f),
                                         _mm256_sub_ps(r, e))),
        _mm256_mul_ps(_mm256_set1_ps(-2.0f),
                      _mm256_sub_ps(e, _mm256_add_ps(r, half))),
        _mm256_cmp_ps(r, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
    const __m256 res_out = _mm256_sub_ps(
        addExponent(_mm256_sub_ps(one, e_minus_r), k), one);
    const __m256 t_low = _mm256_castsi256_ps(_mm256_sub_epi32(
        _mm256_set1_epi32(0x3f800000),
        _mm256_srlv_epi32(_mm256_set1_epi32(0x1000000), k)));
    const __m256 res_low = addExponent(_mm256_sub_ps(t_low, e_minus_r), k);
    const __m256 t_high = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
    const __m256 res_high = addExponent(
        _mm256_add_ps(_mm256_sub_ps(r, _mm256_add_ps(e, t_high)), one), k);

    __m256 res = _mm256_blendv_ps(res_high, res_low,
                                  _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                                      _mm256_set1_epi32(23), k)));
    const __m256i outside = _mm256_or_si256(
        _mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
        _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
    res = _mm256_blendv_ps(res, res_out, _mm256_castsi256_ps(outside));
    res = _mm256_blendv_ps(res, res_k1,
                           _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                               k, _mm256_set1_epi32(1))));
    res = _mm256_blendv_ps(res, res_km1,
                           _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                               k, _mm256_set1_epi32(-1))));
    res = _mm256_blendv_ps(res, res_k0,
                           _mm256_castsi256_ps(_mm256_cmpeq_epi32(
                               k, _mm256_setzero_si256())));
    return _mm256_blendv_ps(
        res, x,
        _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(kExpm1Tiny), hx)));
}

/** tanhScalar for eight lanes. */
__attribute__((target("avx2"))) inline __m256
tanhLanes(__m256 x)
{
    const __m256i xi = _mm256_castps_si256(x);
    const __m256i ix = _mm256_and_si256(xi, _mm256_set1_epi32(0x7fffffff));
    const __m256 sign = _mm256_castsi256_ps(
        _mm256_andnot_si256(_mm256_set1_epi32(0x7fffffff), xi));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 two = _mm256_set1_ps(2.0f);

    // |x| >= 1 takes expm1f(2|x|), smaller |x| expm1f(-2|x|).
    const __m256 ge_one = maskGreater(ix, kTanhOne - 1);
    const __m256 twice = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));
    const __m256 arg = _mm256_blendv_ps(
        _mm256_xor_ps(twice, _mm256_set1_ps(-0.0f)), twice, ge_one);
    const __m256 t = expm1Lanes(arg);
    const __m256 denom = _mm256_add_ps(t, two);
    __m256 z = _mm256_blendv_ps(
        _mm256_div_ps(_mm256_xor_ps(t, _mm256_set1_ps(-0.0f)), denom),
        _mm256_sub_ps(one, _mm256_div_ps(two, denom)), ge_one);
    z = _mm256_blendv_ps(z, one, maskGreater(ix, kTanhHuge - 1));
    z = _mm256_xor_ps(z, sign);
    // |x| < 2^-55, +-0 included: x * (1 + x) == x.
    z = _mm256_blendv_ps(
        z, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
        _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(kTanhTiny), ix)));
    // Non-finite: 1/x +- 1 gives +-1 for +-inf and propagates NaN
    // (the integer compares above would send NaN down |x| >= 22).
    return _mm256_blendv_ps(
        z,
        _mm256_add_ps(_mm256_div_ps(one, x), _mm256_or_ps(one, sign)),
        maskGreater(ix, kNonFinite - 1));
}

__attribute__((target("avx2"))) void
tanhArrayAvx2(const float *in, float *out, size_t count)
{
    size_t i = 0;
    for (; i + 8 <= count; i += 8)
        _mm256_storeu_ps(out + i, tanhLanes(_mm256_loadu_ps(in + i)));
    if (i < count) {
        // Tail through a zero-padded lane buffer, so every element
        // takes the same rung.
        float lanes[8] = {};
        const size_t rest = (count - i) * sizeof(float);
        std::memcpy(lanes, in + i, rest);
        _mm256_storeu_ps(lanes, tanhLanes(_mm256_loadu_ps(lanes)));
        std::memcpy(out + i, lanes, rest);
    }
}

// The AVX-512 rung is the AVX2 rung above, line for line, on sixteen
// lanes: every comparison yields a lane mask and every blendv becomes
// _mm512_mask_blend_ps(mask, else, then). Only AVX-512F instructions
// are used; the float bitwise ops go through the integer forms.
//
// Shifts, conversions and andnot use their zero-masking (maskz) forms
// under kAllLanes: the same instruction on every lane, but with a zero
// pass-through source. GCC 12 expands the unmasked forms with an
// _mm512_undefined_*() source, which -Wuninitialized reports once
// inlined (GCC bug 105593, fixed in GCC 13).
constexpr __mmask16 kAllLanes = 0xffff;

__attribute__((target("avx512f"))) inline __m512
xorBits(__m512 a, __m512i bits)
{
    return _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(a), bits));
}

__attribute__((target("avx512f"))) inline __m512
addExponent16(__m512 y, __m512i k)
{
    return _mm512_castsi512_ps(
        _mm512_add_epi32(_mm512_castps_si512(y),
                         _mm512_maskz_slli_epi32(kAllLanes, k, 23)));
}

/** expm1Scalar for sixteen lanes. */
__attribute__((target("avx512f"))) inline __m512
expm1Lanes16(__m512 x)
{
    const __m512i xi = _mm512_castps_si512(x);
    const __m512i hx = _mm512_and_si512(xi, _mm512_set1_epi32(0x7fffffff));
    const __m512i sign =
        _mm512_maskz_andnot_epi32(kAllLanes, _mm512_set1_epi32(0x7fffffff),
                                  xi);
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 half = _mm512_set1_ps(0.5f);

    // Argument reduction, as in expm1Lanes.
    const __mmask16 reduce =
        _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(kHalfLn2));
    const __mmask16 wide =
        _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(kThreeHalfLn2 - 1));
    const __m512i k_wide = _mm512_maskz_cvttps_epi32(
        kAllLanes,
        _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(kInvLn2), x),
                      _mm512_castsi512_ps(_mm512_or_si512(
                          _mm512_castps_si512(half), sign))));
    const __m512i k_unit =
        _mm512_or_si512(_mm512_maskz_srai_epi32(kAllLanes, xi, 31),
                        _mm512_set1_epi32(1));
    const __m512i k = _mm512_maskz_mov_epi32(
        reduce, _mm512_mask_blend_epi32(wide, k_unit, k_wide));
    const __m512 kf = _mm512_maskz_cvtepi32_ps(kAllLanes, k);
    const __m512 hi =
        _mm512_sub_ps(x, _mm512_mul_ps(kf, _mm512_set1_ps(kLn2Hi)));
    const __m512 lo = _mm512_mul_ps(kf, _mm512_set1_ps(kLn2Lo));
    const __m512 r = _mm512_sub_ps(hi, lo);
    const __m512 c = _mm512_sub_ps(_mm512_sub_ps(hi, r), lo);

    // Primary range.
    const __m512 hfx = _mm512_mul_ps(half, r);
    const __m512 hxs = _mm512_mul_ps(r, hfx);
    __m512 poly = _mm512_add_ps(_mm512_set1_ps(kQ4),
                                _mm512_mul_ps(hxs, _mm512_set1_ps(kQ5)));
    poly = _mm512_add_ps(_mm512_set1_ps(kQ3), _mm512_mul_ps(hxs, poly));
    poly = _mm512_add_ps(_mm512_set1_ps(kQ2), _mm512_mul_ps(hxs, poly));
    poly = _mm512_add_ps(_mm512_set1_ps(kQ1), _mm512_mul_ps(hxs, poly));
    const __m512 r1 = _mm512_add_ps(one, _mm512_mul_ps(hxs, poly));
    const __m512 t =
        _mm512_sub_ps(_mm512_set1_ps(3.0f), _mm512_mul_ps(r1, hfx));
    const __m512 e0 = _mm512_mul_ps(
        hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                           _mm512_sub_ps(_mm512_set1_ps(6.0f),
                                         _mm512_mul_ps(r, t))));
    const __m512 res_k0 =
        _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e0), hxs));
    const __m512 e = _mm512_sub_ps(
        _mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e0, c)), c), hxs);
    const __m512 e_minus_r = _mm512_sub_ps(e, r);

    const __m512 res_km1 = _mm512_sub_ps(
        _mm512_mul_ps(half, _mm512_sub_ps(r, e)), half);
    const __m512 res_k1 = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(r, _mm512_set1_ps(-0.25f), _CMP_LT_OQ),
        _mm512_add_ps(one, _mm512_mul_ps(_mm512_set1_ps(2.0f),
                                         _mm512_sub_ps(r, e))),
        _mm512_mul_ps(_mm512_set1_ps(-2.0f),
                      _mm512_sub_ps(e, _mm512_add_ps(r, half))));
    const __m512 res_out = _mm512_sub_ps(
        addExponent16(_mm512_sub_ps(one, e_minus_r), k), one);
    const __m512 t_low = _mm512_castsi512_ps(_mm512_sub_epi32(
        _mm512_set1_epi32(0x3f800000),
        _mm512_maskz_srlv_epi32(kAllLanes, _mm512_set1_epi32(0x1000000),
                                k)));
    const __m512 res_low = addExponent16(_mm512_sub_ps(t_low, e_minus_r), k);
    const __m512 t_high = _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        kAllLanes, _mm512_sub_epi32(_mm512_set1_epi32(0x7f), k), 23));
    const __m512 res_high = addExponent16(
        _mm512_add_ps(_mm512_sub_ps(r, _mm512_add_ps(e, t_high)), one), k);

    __m512 res = _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(23), k), res_high,
        res_low);
    const __mmask16 outside =
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(-1), k) |
        _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
    res = _mm512_mask_blend_ps(outside, res, res_out);
    res = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(1)), res, res_k1);
    res = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)), res, res_km1);
    res = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), res, res_k0);
    return _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(kExpm1Tiny), hx), res, x);
}

/** tanhScalar for sixteen lanes. */
__attribute__((target("avx512f"))) inline __m512
tanhLanes16(__m512 x)
{
    const __m512i xi = _mm512_castps_si512(x);
    const __m512i ix = _mm512_and_si512(xi, _mm512_set1_epi32(0x7fffffff));
    const __m512i sign =
        _mm512_maskz_andnot_epi32(kAllLanes, _mm512_set1_epi32(0x7fffffff),
                                  xi);
    const __m512i sign_bit = _mm512_set1_epi32(INT32_MIN);
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 two = _mm512_set1_ps(2.0f);

    // |x| >= 1 takes expm1f(2|x|), smaller |x| expm1f(-2|x|).
    const __mmask16 ge_one =
        _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(kTanhOne - 1));
    const __m512 twice = _mm512_mul_ps(two, _mm512_castsi512_ps(ix));
    const __m512 arg =
        _mm512_mask_blend_ps(ge_one, xorBits(twice, sign_bit), twice);
    const __m512 t = expm1Lanes16(arg);
    const __m512 denom = _mm512_add_ps(t, two);
    __m512 z = _mm512_mask_blend_ps(
        ge_one, _mm512_div_ps(xorBits(t, sign_bit), denom),
        _mm512_sub_ps(one, _mm512_div_ps(two, denom)));
    z = _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(kTanhHuge - 1)), z,
        one);
    z = xorBits(z, sign);
    // |x| < 2^-55, +-0 included: x * (1 + x) == x.
    z = _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(_mm512_set1_epi32(kTanhTiny), ix), z,
        _mm512_mul_ps(x, _mm512_add_ps(one, x)));
    // Non-finite: 1/x +- 1, as in tanhLanes.
    return _mm512_mask_blend_ps(
        _mm512_cmpgt_epi32_mask(ix, _mm512_set1_epi32(kNonFinite - 1)), z,
        _mm512_add_ps(_mm512_div_ps(one, x),
                      _mm512_castsi512_ps(_mm512_or_si512(
                          _mm512_castps_si512(one), sign))));
}

__attribute__((target("avx512f"))) void
tanhArrayAvx512(const float *in, float *out, size_t count)
{
    size_t i = 0;
    for (; i + 16 <= count; i += 16)
        _mm512_storeu_ps(out + i, tanhLanes16(_mm512_loadu_ps(in + i)));
    if (i < count) {
        // Masked tail: the dead lanes load as zeros, as in the AVX2
        // rung's padded buffer, and are never stored.
        const __mmask16 live =
            static_cast<__mmask16>((1u << (count - i)) - 1u);
        _mm512_mask_storeu_ps(
            out + i, live, tanhLanes16(_mm512_maskz_loadu_ps(live, in + i)));
    }
}

#endif // SNS_SIMD_X86

} // namespace

void
tanhArray(const float *in, float *out, size_t count)
{
#if SNS_SIMD_X86
    const int level = simdLevel();
    if (level >= kSimdAvx512) {
        tanhArrayAvx512(in, out, count);
        return;
    }
    if (level == kSimdAvx2) {
        tanhArrayAvx2(in, out, count);
        return;
    }
#endif
    for (size_t i = 0; i < count; ++i)
        out[i] = tanhScalar(in[i]);
}

} // namespace sns::tensor
