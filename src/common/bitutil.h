/**
 * @file
 * Bit- and byte-level helpers shared by the significance machinery.
 */

#ifndef SIGCOMP_COMMON_BITUTIL_H_
#define SIGCOMP_COMMON_BITUTIL_H_

#include <bit>

#include "common/types.h"

namespace sigcomp
{

/** Extract byte @p i (0 = least significant) of @p w. */
constexpr Byte
wordByte(Word w, unsigned i)
{
    return static_cast<Byte>(w >> (8 * i));
}

/** Replace byte @p i of @p w with @p b. */
constexpr Word
setWordByte(Word w, unsigned i, Byte b)
{
    const Word mask = Word{0xff} << (8 * i);
    return (w & ~mask) | (Word{b} << (8 * i));
}

/** The most significant bit of a byte. */
constexpr bool
byteMsb(Byte b)
{
    return (b & 0x80) != 0;
}

/** Sign-fill byte implied by a preceding byte's MSB. */
constexpr Byte
signFill(Byte preceding)
{
    return byteMsb(preceding) ? Byte{0xff} : Byte{0x00};
}

/** Sign-extend the low @p bits bits of @p v to 32 bits. */
constexpr Word
signExtend(Word v, unsigned bits)
{
    const unsigned shift = 32 - bits;
    return static_cast<Word>(static_cast<SWord>(v << shift) >> shift);
}

/** Extract the bit field [lo, lo+len) of @p v. */
constexpr Word
bitField(Word v, unsigned lo, unsigned len)
{
    return (v >> lo) & ((len >= 32) ? ~Word{0} : ((Word{1} << len) - 1));
}

/** Insert @p field into bits [lo, lo+len) of @p v. */
constexpr Word
setBitField(Word v, unsigned lo, unsigned len, Word field)
{
    const Word mask = ((len >= 32) ? ~Word{0} : ((Word{1} << len) - 1)) << lo;
    return (v & ~mask) | ((field << lo) & mask);
}

/**
 * Number of low-order bytes that must be kept so that sign-extending
 * them reproduces @p v exactly (the 2-bit "Ext2" significance count).
 *
 * Branchless: the set of widths that reproduce @p v is an up-set
 * (if k bytes suffice, so do k+1), so the count is one plus the
 * number of widths that fail.
 *
 * @return a value in [1, 4].
 */
constexpr unsigned
significantBytes(Word v)
{
    return 1u + unsigned{signExtend(v, 8) != v} +
           unsigned{signExtend(v, 16) != v} +
           unsigned{signExtend(v, 24) != v};
}

/** Halfword analogue of significantBytes(): 1 or 2 halfwords. */
constexpr unsigned
significantHalves(Word v)
{
    return 1u + unsigned{signExtend(v, 16) != v};
}

/** Round-up integer division. */
constexpr unsigned
divCeil(unsigned a, unsigned b)
{
    return (a + b - 1) / b;
}

} // namespace sigcomp

#endif // SIGCOMP_COMMON_BITUTIL_H_
