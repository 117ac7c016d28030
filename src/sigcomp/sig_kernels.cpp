#include "sigcomp/sig_kernels.h"

#include <algorithm>
#include <cstring>

#include "common/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SIGCOMP_X86_KERNELS 1
#endif

namespace sigcomp::sig
{

namespace
{

using simd::SimdLevel;

// ---- scalar reference paths (the specification) --------------------

void
classifyExt3Scalar(const Word *v, std::size_t n, ByteMask *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = classifyExt3(v[i]);
}

void
classifyExt2Scalar(const Word *v, std::size_t n, ByteMask *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = classifyExt2(v[i]);
}

void
classifyHalfScalar(const Word *v, std::size_t n, HalfMask *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = classifyHalf(v[i]);
}

void
significantBytesScalar(const Word *v, std::size_t n, std::uint8_t *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(significantBytes(v[i]));
}

#if SIGCOMP_X86_KERNELS

// ---- x86 vector paths ----------------------------------------------
//
// The library builds without -march flags, so each implementation
// carries a per-function target attribute and is only ever reached
// when runtime dispatch has confirmed the ISA (common/simd.cpp).
//
// classifyExt3 is the word-parallel bit recipe of byte_pattern.h,
// with one twist for the mask extraction: after `nz` isolates the
// per-byte MSBs, PMOVMSKB collects them — byte lane 4i+j of `nz`
// lands in result bit 4i+j, so each word's three extension bits
// arrive already adjacent and `1 | (bits & 0xE)` finishes a whole
// mask without any per-word shifting.

__attribute__((target("ssse3"))) inline __m128i
ext3NzSse(__m128i v)
{
    const __m128i m808080 = _mm_set1_epi32(0x00808080);
    const __m128i m7f = _mm_set1_epi32(0x7F7F7F7F);
    const __m128i mhi = _mm_set1_epi32(static_cast<int>(0x80808080u));
    const __m128i mff00 = _mm_set1_epi32(static_cast<int>(0xFFFFFF00u));
    // t = (v >> 7) & 0x00010101; fill = (t << 16) - (t << 8)
    // (equivalent to the scalar ((m >> 7) * 0xFF) << 8 smear).
    const __m128i t = _mm_and_si128(_mm_srli_epi32(v, 7),
                                    _mm_srli_epi32(m808080, 7));
    const __m128i fill =
        _mm_sub_epi32(_mm_slli_epi32(t, 16), _mm_slli_epi32(t, 8));
    const __m128i diff = _mm_and_si128(_mm_xor_si128(v, fill), mff00);
    return _mm_and_si128(
        _mm_or_si128(_mm_add_epi32(_mm_and_si128(diff, m7f), m7f), diff),
        mhi);
}

__attribute__((target("ssse3"))) void
classifyExt3Ssse3(const Word *v, std::size_t n, ByteMask *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        const unsigned mm =
            static_cast<unsigned>(_mm_movemask_epi8(ext3NzSse(x)));
        out[i + 0] = static_cast<ByteMask>(1u | (mm & 0xEu));
        out[i + 1] = static_cast<ByteMask>(1u | ((mm >> 4) & 0xEu));
        out[i + 2] = static_cast<ByteMask>(1u | ((mm >> 8) & 0xEu));
        out[i + 3] = static_cast<ByteMask>(1u | ((mm >> 12) & 0xEu));
    }
    classifyExt3Scalar(v + i, n - i, out + i);
}

__attribute__((target("avx2"))) void
classifyExt3Avx2(const Word *v, std::size_t n, ByteMask *out)
{
    const __m256i m808080 = _mm256_set1_epi32(0x00808080);
    const __m256i m7f = _mm256_set1_epi32(0x7F7F7F7F);
    const __m256i mhi = _mm256_set1_epi32(static_cast<int>(0x80808080u));
    const __m256i mff00 =
        _mm256_set1_epi32(static_cast<int>(0xFFFFFF00u));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        const __m256i t = _mm256_and_si256(_mm256_srli_epi32(x, 7),
                                           _mm256_srli_epi32(m808080, 7));
        const __m256i fill = _mm256_sub_epi32(_mm256_slli_epi32(t, 16),
                                              _mm256_slli_epi32(t, 8));
        const __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(x, fill), mff00);
        const __m256i nz = _mm256_and_si256(
            _mm256_or_si256(
                _mm256_add_epi32(_mm256_and_si256(diff, m7f), m7f), diff),
            mhi);
        const unsigned mm =
            static_cast<unsigned>(_mm256_movemask_epi8(nz));
        for (unsigned j = 0; j < 8; ++j) {
            out[i + j] =
                static_cast<ByteMask>(1u | ((mm >> (4 * j)) & 0xEu));
        }
    }
    classifyExt3Scalar(v + i, n - i, out + i);
}

/**
 * Per-lane Ext2/Half/byte-count quantities all derive from the three
 * sign-extension predicates f8/f16/f24 (fk = sext(v, 8k) != v, a
 * decreasing chain): Ext2 mask = 1|f8<<1|f16<<2|f24<<3, byte count =
 * 1+f8+f16+f24, Half mask = 1|f16<<1. Each predicate is one
 * shift-pair plus a compare.
 */
__attribute__((target("ssse3"))) inline __m128i
sextNeSse(__m128i v, int bits)
{
    const __m128i s =
        _mm_srai_epi32(_mm_slli_epi32(v, 32 - bits), 32 - bits);
    // 0xFFFFFFFF where sext(v, bits) != v.
    return _mm_xor_si128(_mm_cmpeq_epi32(s, v), _mm_set1_epi32(-1));
}

/** Compact the low byte of each 32-bit lane into 4 output bytes. */
__attribute__((target("ssse3"))) inline std::uint32_t
lanesToBytesSse(__m128i lanes)
{
    const __m128i pick = _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1,
                                       -1, -1, -1, -1, -1, -1, -1);
    return static_cast<std::uint32_t>(
        _mm_cvtsi128_si32(_mm_shuffle_epi8(lanes, pick)));
}

__attribute__((target("ssse3"))) void
classifyExt2Ssse3(const Word *v, std::size_t n, ByteMask *out)
{
    const __m128i one = _mm_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        const __m128i f8 = sextNeSse(x, 8);
        const __m128i f16 = sextNeSse(x, 16);
        const __m128i f24 = sextNeSse(x, 24);
        __m128i m = one;
        m = _mm_or_si128(m, _mm_and_si128(f8, _mm_set1_epi32(2)));
        m = _mm_or_si128(m, _mm_and_si128(f16, _mm_set1_epi32(4)));
        m = _mm_or_si128(m, _mm_and_si128(f24, _mm_set1_epi32(8)));
        const std::uint32_t packed = lanesToBytesSse(m);
        std::memcpy(out + i, &packed, 4);
    }
    classifyExt2Scalar(v + i, n - i, out + i);
}

__attribute__((target("ssse3"))) void
classifyHalfSsse3(const Word *v, std::size_t n, HalfMask *out)
{
    const __m128i one = _mm_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        const __m128i m = _mm_or_si128(
            one, _mm_and_si128(sextNeSse(x, 16), _mm_set1_epi32(2)));
        const std::uint32_t packed = lanesToBytesSse(m);
        std::memcpy(out + i, &packed, 4);
    }
    classifyHalfScalar(v + i, n - i, out + i);
}

__attribute__((target("ssse3"))) void
significantBytesSsse3(const Word *v, std::size_t n, std::uint8_t *out)
{
    const __m128i one = _mm_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(v + i));
        __m128i k = one;
        k = _mm_sub_epi32(k, sextNeSse(x, 8));  // -= -1 per failing width
        k = _mm_sub_epi32(k, sextNeSse(x, 16));
        k = _mm_sub_epi32(k, sextNeSse(x, 24));
        const std::uint32_t packed = lanesToBytesSse(k);
        std::memcpy(out + i, &packed, 4);
    }
    significantBytesScalar(v + i, n - i, out + i);
}

__attribute__((target("avx2"))) inline __m256i
sextNeAvx(__m256i v, int bits)
{
    const __m256i s =
        _mm256_srai_epi32(_mm256_slli_epi32(v, 32 - bits), 32 - bits);
    return _mm256_xor_si256(_mm256_cmpeq_epi32(s, v),
                            _mm256_set1_epi32(-1));
}

/** Compact the low byte of each of 8 lanes into 8 output bytes. */
__attribute__((target("avx2"))) inline std::uint64_t
lanesToBytesAvx(__m256i lanes)
{
    const __m256i pick = _mm256_setr_epi8(
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
    const __m256i g = _mm256_shuffle_epi8(lanes, pick);
    const __m128i lo = _mm256_castsi256_si128(g);
    const __m128i hi = _mm256_extracti128_si256(g, 1);
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(
               _mm_cvtsi128_si32(lo))) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                _mm_cvtsi128_si32(hi)))
            << 32);
}

__attribute__((target("avx2"))) void
classifyExt2Avx2(const Word *v, std::size_t n, ByteMask *out)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        __m256i m = one;
        m = _mm256_or_si256(
            m, _mm256_and_si256(sextNeAvx(x, 8), _mm256_set1_epi32(2)));
        m = _mm256_or_si256(
            m, _mm256_and_si256(sextNeAvx(x, 16), _mm256_set1_epi32(4)));
        m = _mm256_or_si256(
            m, _mm256_and_si256(sextNeAvx(x, 24), _mm256_set1_epi32(8)));
        const std::uint64_t packed = lanesToBytesAvx(m);
        std::memcpy(out + i, &packed, 8);
    }
    classifyExt2Scalar(v + i, n - i, out + i);
}

__attribute__((target("avx2"))) void
classifyHalfAvx2(const Word *v, std::size_t n, HalfMask *out)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        const __m256i m = _mm256_or_si256(
            one,
            _mm256_and_si256(sextNeAvx(x, 16), _mm256_set1_epi32(2)));
        const std::uint64_t packed = lanesToBytesAvx(m);
        std::memcpy(out + i, &packed, 8);
    }
    classifyHalfScalar(v + i, n - i, out + i);
}

__attribute__((target("avx2"))) void
significantBytesAvx2(const Word *v, std::size_t n, std::uint8_t *out)
{
    const __m256i one = _mm256_set1_epi32(1);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(v + i));
        __m256i k = one;
        k = _mm256_sub_epi32(k, sextNeAvx(x, 8));
        k = _mm256_sub_epi32(k, sextNeAvx(x, 16));
        k = _mm256_sub_epi32(k, sextNeAvx(x, 24));
        const std::uint64_t packed = lanesToBytesAvx(k);
        std::memcpy(out + i, &packed, 8);
    }
    significantBytesScalar(v + i, n - i, out + i);
}

#endif // SIGCOMP_X86_KERNELS

} // namespace

void
classifyExt3Block(const Word *v, std::size_t n, ByteMask *out)
{
    switch (simd::activeSimdLevel()) {
#if SIGCOMP_X86_KERNELS
      case SimdLevel::Avx2: classifyExt3Avx2(v, n, out); return;
      case SimdLevel::Ssse3: classifyExt3Ssse3(v, n, out); return;
#endif
      default: classifyExt3Scalar(v, n, out); return;
    }
}

void
classifyExt2Block(const Word *v, std::size_t n, ByteMask *out)
{
    switch (simd::activeSimdLevel()) {
#if SIGCOMP_X86_KERNELS
      case SimdLevel::Avx2: classifyExt2Avx2(v, n, out); return;
      case SimdLevel::Ssse3: classifyExt2Ssse3(v, n, out); return;
#endif
      default: classifyExt2Scalar(v, n, out); return;
    }
}

void
classifyHalfBlock(const Word *v, std::size_t n, HalfMask *out)
{
    switch (simd::activeSimdLevel()) {
#if SIGCOMP_X86_KERNELS
      case SimdLevel::Avx2: classifyHalfAvx2(v, n, out); return;
      case SimdLevel::Ssse3: classifyHalfSsse3(v, n, out); return;
#endif
      default: classifyHalfScalar(v, n, out); return;
    }
}

void
significantBytesBlock(const Word *v, std::size_t n, std::uint8_t *out)
{
    switch (simd::activeSimdLevel()) {
#if SIGCOMP_X86_KERNELS
      case SimdLevel::Avx2: significantBytesAvx2(v, n, out); return;
      case SimdLevel::Ssse3: significantBytesSsse3(v, n, out); return;
#endif
      default: significantBytesScalar(v, n, out); return;
    }
}

void
packSigTagsBlock(const ByteMask *rs, const ByteMask *rt,
                 const ByteMask *res, std::size_t n, std::uint16_t *out)
{
    // SWAR over eight tags at a time: spread each source byte into
    // its u16 lane, shift the whole register by the field offset.
    // (The byte-order games assume little-endian; anything else
    // takes the scalar tail for the whole column.)
    std::size_t i = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a, b, c;
        std::memcpy(&a, rs + i, 8);
        std::memcpy(&b, rt + i, 8);
        std::memcpy(&c, res + i, 8);
        for (unsigned half = 0; half < 2; ++half) {
            const std::uint64_t sel = half ? 32 : 0;
            // Spread 4 bytes x >> sel into 4 u16 lanes.
            const auto spread = [](std::uint32_t x) {
                std::uint64_t s = x;
                s = (s | (s << 16)) & 0x0000FFFF0000FFFFull;
                s = (s | (s << 8)) & 0x00FF00FF00FF00FFull;
                return s;
            };
            const std::uint64_t packed =
                spread(static_cast<std::uint32_t>(a >> sel)) |
                (spread(static_cast<std::uint32_t>(b >> sel)) << 4) |
                (spread(static_cast<std::uint32_t>(c >> sel)) << 8);
            std::memcpy(out + i + 4 * half, &packed, 8);
        }
    }
#endif
    for (; i < n; ++i) {
        out[i] = static_cast<std::uint16_t>(rs[i] | (rt[i] << 4) |
                                            (res[i] << 8));
    }
}

void
patternTallyBlock(const Word *v, std::size_t n, Count counts[16])
{
    // Classify a cache-resident chunk with the vector kernel, then
    // histogram the masks through two interleaved count arrays so
    // consecutive equal patterns (very common: runs of small
    // constants) don't serialise on one counter's store-to-load
    // dependency.
    ByteMask masks[512];
    Count even[16] = {};
    Count odd[16] = {};
    for (std::size_t base = 0; base < n; base += sizeof(masks)) {
        const std::size_t k = std::min(sizeof(masks), n - base);
        classifyExt3Block(v + base, k, masks);
        std::size_t i = 0;
        for (; i + 2 <= k; i += 2) {
            ++even[masks[i]];
            ++odd[masks[i + 1]];
        }
        if (i < k)
            ++even[masks[i]];
    }
    for (unsigned m = 0; m < 16; ++m)
        counts[m] += even[m] + odd[m];
}

} // namespace sigcomp::sig
