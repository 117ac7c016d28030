/**
 * @file
 * Significance-aware column codecs for the persistent trace store.
 *
 * Each 32-bit trace column is encoded in independent blocks of up to
 * codecBlockValues values; per block the encoder picks the smallest
 * of three representations:
 *
 *  - SigPack: the store dogfoods the paper's own idea. Every value is
 *    classified with sig::classifyExt3() and only its significant
 *    bytes are stored, preceded by a packed plane of 4-bit byte
 *    patterns (two tags per byte). Operand/result columns are
 *    dominated by small and sign-extended values (paper Table 1), so
 *    this usually stores 1-2 bytes per 4-byte word.
 *  - DeltaVarint: zigzag LEB128 of successive deltas. Decode-index
 *    and memory-address streams are locally sequential (the +1 fall
 *    through, the stride walk), so deltas are tiny.
 *  - Raw: 4 bytes per value, little-endian. The guaranteed fallback:
 *    a block never expands beyond raw + the 5-byte block header, so
 *    the worst case is bounded.
 *
 * Block framing: u8 mode, u32 payload length, payload. The delta
 * base carries across blocks (first block deltas against 0).
 *
 * Decoders are fail-soft: every read is bounds-checked and any
 * malformed stream returns false instead of crashing or returning
 * short data — the store treats that as segment corruption and falls
 * back to recapture.
 *
 * SigPack encode and decode are SIMD-dispatched (common/simd.h): on
 * SSSE3+ hosts whole groups of four values move through PSHUFB
 * shuffle tables (tag nibble -> byte-scatter/gather pattern), the
 * encoder classifies each block with the batch kernel
 * (sigcomp/sig_kernels.h), and runs of single-byte varint deltas
 * decode eight at a time. Every path is bit-identical to the scalar
 * reference at every level — encoded streams are byte-for-byte equal
 * regardless of dispatch — pinned by test_simd.cpp.
 */

#ifndef SIGCOMP_STORE_CODEC_H_
#define SIGCOMP_STORE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace sigcomp::store
{

/** Per-block representation chosen by the encoder. */
enum class BlockMode : std::uint8_t
{
    Raw = 0,
    SigPack = 1,
    DeltaVarint = 2,
};

/** Values per codec block (the encode/decode streaming granularity). */
constexpr std::size_t codecBlockValues = 4096;

// ---- little-endian scalar helpers (shared with the segment files) --

inline void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t
getU64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(getU32(p)) |
           (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

/**
 * Encode @p n 32-bit values, appending the block stream to @p out.
 * Works for any input; worst case is raw size plus one 5-byte header
 * per block.
 */
void encodeColumn32(const std::uint32_t *vals, std::size_t n,
                    std::vector<std::uint8_t> &out);

/**
 * Decode exactly @p n values from the @p len-byte block stream.
 * @return false (leaving @p out unspecified) on any malformed input:
 * unknown mode, payload overrun, or a stream that does not decode to
 * exactly @p n values.
 */
bool decodeColumn32(const std::uint8_t *bytes, std::size_t len,
                    std::size_t n, std::vector<std::uint32_t> &out);

/** Encode @p n 64-bit words raw (bit-packed columns are already dense). */
void encodeColumn64Raw(const std::uint64_t *vals, std::size_t n,
                       std::vector<std::uint8_t> &out);

/** Decode @p n raw 64-bit words; false when @p len != 8n. */
bool decodeColumn64Raw(const std::uint8_t *bytes, std::size_t len,
                       std::size_t n, std::vector<std::uint64_t> &out);

} // namespace sigcomp::store

#endif // SIGCOMP_STORE_CODEC_H_
