/**
 * @file
 * CompressedWord: a 32-bit value together with its significance
 * metadata under a chosen encoding scheme. This is the datum that
 * conceptually flows through registers, caches and latches in the
 * significance-compressed pipelines.
 */

#ifndef SIGCOMP_SIGCOMP_COMPRESSED_WORD_H_
#define SIGCOMP_SIGCOMP_COMPRESSED_WORD_H_

#include <string>

#include "sigcomp/byte_pattern.h"

namespace sigcomp::sig
{

/** Significance encoding schemes studied in the paper. */
enum class Encoding
{
    Ext2,   ///< 2 bits: count of leading sign-extension bytes
    Ext3,   ///< 3 bits: per-byte extension flags (the paper's choice)
    Half1,  ///< 1 bit: halfword granularity
};

/** Human-readable encoding name, from a static table. */
const std::string &encodingName(Encoding enc);

/** Number of extension (metadata) bits per 32-bit word. */
constexpr unsigned
extensionBits(Encoding enc)
{
    switch (enc) {
      case Encoding::Ext2:  return 2;
      case Encoding::Ext3:  return 3;
      case Encoding::Half1: return 1;
    }
    return 0;
}

/** Storage/processing granule in bytes. */
constexpr unsigned
chunkBytes(Encoding enc)
{
    return enc == Encoding::Half1 ? 2 : 1;
}

/** Granules per word. */
constexpr unsigned
chunksPerWord(Encoding enc)
{
    return wordBytes / chunkBytes(enc);
}

/**
 * A value plus its significance mask under an encoding.
 *
 * The mask is per *chunk* (bytes for Ext2/Ext3, halfwords for
 * Half1); bit 0 is always set.
 */
class CompressedWord
{
  public:
    CompressedWord() = default;

    /** Compress @p value under @p enc. */
    static CompressedWord
    compress(Word value, Encoding enc)
    {
        CompressedWord cw;
        cw.value_ = value;
        cw.enc_ = enc;
        switch (enc) {
          case Encoding::Ext2:
            cw.mask_ = classifyExt2(value);
            break;
          case Encoding::Ext3:
            cw.mask_ = classifyExt3(value);
            break;
          case Encoding::Half1:
            cw.mask_ = classifyHalf(value);
            break;
        }
        return cw;
    }

    Word value() const { return value_; }
    Encoding encoding() const { return enc_; }

    /** Significance mask over chunks (bit 0 always set). */
    std::uint8_t mask() const { return mask_; }

    /** Number of represented chunks. */
    unsigned
    chunks() const
    {
        return static_cast<unsigned>(std::popcount(mask_));
    }

    /** Number of represented (significant) bytes. */
    unsigned bytes() const { return chunks() * chunkBytes(enc_); }

    /** Bits of data that must be stored/moved (no metadata). */
    unsigned dataBits() const { return bytes() * 8; }

    /** Data plus extension-bit overhead. */
    unsigned storageBits() const { return dataBits() + extensionBits(enc_); }

    /**
     * Reconstruct the full word from represented chunks only —
     * identical to value() by construction; exercised by tests as
     * the round-trip invariant.
     */
    Word
    decompress() const
    {
        if (enc_ == Encoding::Half1)
            return decompressHalf(value_, mask_);
        return decompressByte(value_, mask_);
    }

    /** Paper-style pattern string (byte encodings only). */
    std::string pattern() const { return patternName(mask_); }

  private:
    Word value_ = 0;
    std::uint8_t mask_ = 0x1;
    Encoding enc_ = Encoding::Ext3;
};

/**
 * Number of significant bytes of @p v under @p enc — the per-operand
 * quantity the pipeline occupancy models consume.
 */
constexpr unsigned
significantBytesUnder(Word v, Encoding enc)
{
    switch (enc) {
      case Encoding::Ext2:
        return significantBytes(v);
      case Encoding::Ext3:
        return maskBytes(classifyExt3(v));
      case Encoding::Half1:
        return significantHalves(v) * 2;
    }
    return wordBytes;
}

/** Chunk-granularity mask of @p v under @p enc. */
constexpr std::uint8_t
maskUnder(Word v, Encoding enc)
{
    switch (enc) {
      case Encoding::Ext2:
        return classifyExt2(v);
      case Encoding::Ext3:
        return classifyExt3(v);
      case Encoding::Half1:
        return classifyHalf(v);
    }
    return 0xf;
}

} // namespace sigcomp::sig

#endif // SIGCOMP_SIGCOMP_COMPRESSED_WORD_H_
