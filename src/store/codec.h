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
 *    patterns (two tags per byte). Value columns such as the loaded
 *    bytes are dominated by small and sign-extended values (paper
 *    Table 1), so this usually stores 1-2 bytes per 4-byte word.
 *  - DeltaVarint: zigzag LEB128 of successive deltas. Decode-index
 *    streams are locally sequential (the +1 fall through), so deltas
 *    are tiny.
 *  - Raw: 4 bytes per value, little-endian. The guaranteed fallback:
 *    a block never expands beyond raw + the 5-byte block header, so
 *    the worst case is bounded.
 *
 * Block framing: u8 mode, u32 payload length, payload. The delta
 * base carries across blocks (first block deltas against 0).
 *
 * These streams are the trace's only form of its 32-bit columns, in
 * RAM as on disk: capture writes them through a ColumnWriter, replay
 * reads them back one block at a time through a ColumnReader, and
 * the store saves and loads the same bytes.
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
#include <memory>
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
 * Encode @p n 32-bit values through a ColumnWriter, appending its
 * block stream to @p out. Works for any input; worst case is raw size
 * plus one 5-byte header per block.
 */
void encodeColumn32(const std::uint32_t *vals, std::size_t n,
                    std::vector<std::uint8_t> &out);

/**
 * Decode exactly @p n values from the @p len-byte block stream
 * through a ColumnReader. @return false (leaving @p out unspecified)
 * on any malformed input: unknown mode, payload overrun, or a stream
 * that does not decode to exactly @p n values.
 */
bool decodeColumn32(const std::uint8_t *bytes, std::size_t len,
                    std::size_t n, std::vector<std::uint32_t> &out);

/**
 * True when the @p len-byte stream decodes to exactly @p n values
 * (decodeColumn32's checks, one block of scratch instead of a column).
 */
bool validColumn32(const std::uint8_t *bytes, std::size_t len,
                   std::size_t n);

/** A 32-bit column in its stored form: a ColumnWriter stream. */
struct Column32
{
    std::vector<std::uint8_t> stream;
    /** Values the stream decodes to. */
    std::size_t count = 0;

    std::size_t size() const { return count; }
};

/**
 * The column encoder: values arrive one at a time and every
 * codecBlockValues of them encode as one block, so the raw column
 * never exists. Capture pushes into it; encodeColumn32 appends an
 * array to it.
 */
class ColumnWriter
{
  public:
    /** Append the stream to @p out's bytes (none by default). */
    explicit ColumnWriter(std::vector<std::uint8_t> out = {});
    ~ColumnWriter();
    ColumnWriter(const ColumnWriter &) = delete;
    ColumnWriter &operator=(const ColumnWriter &) = delete;

    void
    push(std::uint32_t v)
    {
        block_[k_++] = v;
        if (k_ == codecBlockValues)
            flush();
    }

    /** push() each of @p n values, a block's worth at a time. */
    void append(const std::uint32_t *vals, std::size_t n);

    /**
     * Encode the last, partial block and hand over the column, its
     * capacity untrimmed. The writer is empty afterwards.
     */
    Column32 finish();

  private:
    void flush();

    struct Scratch;
    std::unique_ptr<Scratch> scratch_;
    /** The block being filled (codecBlockValues slots). */
    std::uint32_t *block_;
    std::size_t k_ = 0;
    /** The value before the block: the DeltaVarint base. */
    std::uint32_t prev_ = 0;
    Column32 out_;
};

/**
 * The column decoder: one block at a time into scratch the reader
 * owns, so a column is never expanded whole. Replay and load use it
 * directly; decodeColumn32 and validColumn32 are loops over it.
 * Readers over one stream share nothing.
 */
class ColumnReader
{
  public:
    ColumnReader(const std::uint8_t *bytes, std::size_t len,
                 std::size_t n);
    explicit ColumnReader(const Column32 &col)
        : ColumnReader(col.stream.data(), col.stream.size(), col.size())
    {}

    /**
     * Decode the next block into values(). @return false on malformed
     * input, or once all n values have been decoded.
     */
    bool nextBlock();

    /** The block nextBlock() decoded last. */
    const std::uint32_t *values() const { return buf_.data(); }
    std::size_t blockSize() const { return k_; }

    /** True when all n values decoded and the stream ended there. */
    bool done() const { return produced_ == n_ && pos_ == len_; }

  private:
    const std::uint8_t *bytes_;
    std::size_t len_;
    std::size_t n_;
    std::size_t pos_ = 0;
    std::size_t produced_ = 0;
    std::size_t k_ = 0;
    std::uint32_t prev_ = 0;
    std::vector<std::uint32_t> buf_;
};

} // namespace sigcomp::store

#endif // SIGCOMP_STORE_CODEC_H_
