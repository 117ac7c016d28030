/**
 * @file
 * Significance classification of 32-bit words at byte and halfword
 * granularity (paper section 2.1).
 *
 * A pattern is a 4-bit mask, bit i = 1 iff byte i (0 = least
 * significant) is *significant*, i.e. actually represented. Bit 0 is
 * always set ("we will always represent and operate on the low order
 * byte"). The paper's pattern strings are written most-significant
 * byte first: "eess" means bytes 3,2 are sign extensions and bytes
 * 1,0 are significant.
 */

#ifndef SIGCOMP_SIGCOMP_BYTE_PATTERN_H_
#define SIGCOMP_SIGCOMP_BYTE_PATTERN_H_

#include <array>
#include <string>

#include "common/bitutil.h"
#include "common/types.h"

namespace sigcomp::sig
{

/** Byte significance mask; bit i set = byte i represented. */
using ByteMask = std::uint8_t;

/** Halfword significance mask; bit i set = halfword i represented. */
using HalfMask = std::uint8_t;

/** All byte masks have bit 0 set: 8 possible patterns. */
constexpr unsigned numBytePatterns = 8;

/**
 * Scalar reference classifier for the 3-bit per-byte scheme (Ext3):
 * the specification the branchless classifyExt3() is verified
 * against (equivalence tests in test_sigcomp and test_simd). Walks
 * the bytes exactly as section 2.1 describes.
 */
constexpr ByteMask
classifyExt3Reference(Word v)
{
    ByteMask mask = 0x1;
    for (unsigned i = 1; i < 4; ++i) {
        const Byte cur = wordByte(v, i);
        const Byte below = wordByte(v, i - 1);
        if (cur != signFill(below))
            mask |= static_cast<ByteMask>(1u << i);
    }
    return mask;
}

/**
 * Classify @p v under the 3-bit per-byte scheme (Ext3).
 *
 * Extension bit i (i = 1..3) is set iff byte i equals the sign fill
 * implied by byte i-1's MSB; such a byte need not be stored. The
 * returned mask has a 1 for every byte that must be stored.
 *
 * Branchless, bit-parallel: build the word whose bytes 1..3 are the
 * sign fills implied by the byte below (MSBs isolated, smeared
 * across each byte by a 0xFF multiply, shifted up one byte), XOR
 * against @p v, and collapse each non-zero difference byte to its
 * MSB with the carry-out trick. This runs on every operand of every
 * retired instruction, so it is the hottest few instructions in the
 * whole simulator.
 *
 * Examples from the paper:
 *   0x00000004 -> 0b0001 ("eees")
 *   0xFFFFF504 -> 0b0011 ("eess")
 *   0x10000009 -> 0b1001 ("sees")
 *   0xFFE70004 -> 0b0101 ("eses")
 */
constexpr ByteMask
classifyExt3(Word v)
{
    // Byte i of `fill` (i = 1..3) is signFill(byte i-1 of v).
    const Word fill = (((v & 0x00808080u) >> 7) * 0xFFu) << 8;
    const Word diff = (v ^ fill) & 0xFFFFFF00u;
    // MSB of each byte of `nz` set iff that byte of `diff` is non-zero.
    const Word nz =
        (((diff & 0x7F7F7F7Fu) + 0x7F7F7F7Fu) | diff) & 0x80808080u;
    return static_cast<ByteMask>(0x1u | ((nz >> 14) & 0x2u) |
                                 ((nz >> 21) & 0x4u) |
                                 ((nz >> 28) & 0x8u));
}

/** Scalar reference for classifyExt2() (see classifyExt3Reference). */
constexpr ByteMask
classifyExt2Reference(Word v)
{
    unsigned k = 4;
    for (unsigned i = 1; i < 4; ++i) {
        if (signExtend(v, 8 * i) == v) {
            k = i;
            break;
        }
    }
    return static_cast<ByteMask>((1u << k) - 1);
}

/**
 * Classify @p v under the 2-bit scheme (Ext2): only a contiguous
 * run of high-order sign-extension bytes can be dropped, so the mask
 * is always a low-order prefix (0b0001/0b0011/0b0111/0b1111).
 * Branchless via the branchless significantBytes().
 */
constexpr ByteMask
classifyExt2(Word v)
{
    const unsigned k = significantBytes(v);
    return static_cast<ByteMask>((1u << k) - 1);
}

/** Scalar reference for classifyHalf() (see classifyExt3Reference). */
constexpr HalfMask
classifyHalfReference(Word v)
{
    return static_cast<HalfMask>((signExtend(v, 16) == v) ? 0b01 : 0b11);
}

/**
 * Classify @p v at halfword granularity (1 extension bit): bit 1 of
 * the result is set iff the upper halfword is *not* the sign
 * extension of the lower one. Branchless (compiles to a single
 * compare-and-set).
 */
constexpr HalfMask
classifyHalf(Word v)
{
    return static_cast<HalfMask>(
        0b01u | (unsigned{signExtend(v, 16) != v} << 1));
}

/** Number of represented bytes in a byte mask. */
constexpr unsigned
maskBytes(ByteMask m)
{
    return static_cast<unsigned>(std::popcount(m));
}

/**
 * Reconstruct the full word from the represented bytes of @p v
 * selected by @p mask, filling extension bytes from the byte below.
 * For any value, decompressByte(v, classifyExt3(v)) == v.
 */
constexpr Word
decompressByte(Word v, ByteMask mask)
{
    Word out = setWordByte(0, 0, wordByte(v, 0));
    for (unsigned i = 1; i < 4; ++i) {
        const Byte b = (mask & (1u << i))
                           ? wordByte(v, i)
                           : signFill(wordByte(out, i - 1));
        out = setWordByte(out, i, b);
    }
    return out;
}

/** Halfword analogue of decompressByte(). */
constexpr Word
decompressHalf(Word v, HalfMask mask)
{
    if (mask & 0b10)
        return v;
    return signExtend(v & 0xffff, 16);
}

/**
 * Paper-style pattern string, most significant byte first, e.g.
 * 0b0011 -> "eess".
 */
std::string patternName(ByteMask mask);

/** Inverse of patternName(); fatal on malformed strings. */
ByteMask patternFromName(const std::string &name);

/** The 8 legal patterns in ascending mask order. */
std::array<ByteMask, numBytePatterns> allBytePatterns();

/**
 * True when the pattern is expressible in the 2-bit scheme (the
 * contiguous prefixes eees/eess/esss/ssss). The paper's Table 1
 * finds these four cover ~94% of operand values.
 */
constexpr bool
isExt2Representable(ByteMask mask)
{
    return mask == 0b0001 || mask == 0b0011 || mask == 0b0111 ||
           mask == 0b1111;
}

} // namespace sigcomp::sig

#endif // SIGCOMP_SIGCOMP_BYTE_PATTERN_H_
