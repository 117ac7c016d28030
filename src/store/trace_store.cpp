#include "store/trace_store.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <thread>
#include <unistd.h>

#include "common/crc32.h"
#include "common/env.h"
#include "common/logging.h"
#include "cpu/trace_buffer.h"
#include "pipeline/pipeline.h"
#include "store/codec.h"

namespace sigcomp::store
{

namespace
{

/** Whole-operation retries for Transient-class faults. */
constexpr unsigned kTransientRetries = 2;
/** Sleep before the first transient retry (doubles per attempt). */
constexpr unsigned kRetryBackoffMs = 1;

// sigcomp-lint: format-layout-begin
constexpr std::uint32_t kMagic = 0x52544353u; // 'SCTR' little-endian
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kDirEntryBytes = 32;
constexpr std::uint32_t kFlagTruncated = 1u << 0;

/**
 * Column ids, fixed by the format (order = payload order). The
 * operand columns (srcRs/srcRt) are deliberately NOT stored: the
 * architectural register file is a pure function of the result
 * stream and the decoded read/write flags, so rebuilding them (one
 * register walk per replay) costs less than decoding two more
 * significance-packed columns and shrinks the segments by ~40%.
 * Significance tags are not stored either: replay classifies the
 * values it materialises (cpu/trace_buffer.h). The taken column
 * holds control-instruction-only bits.
 */
enum ColumnId : std::uint32_t
{
    ColDecIdx = 0,
    ColResult = 1,
    ColTaken = 2,
    ColMemAddr = 3,
    ColMemData = 4,
    NumColumns = 5,
};
// sigcomp-lint: format-layout-end

const char *
columnName(std::uint32_t id)
{
    switch (id) {
    case ColDecIdx: return "decIdx";
    case ColResult: return "result";
    case ColTaken: return "taken";
    case ColMemAddr: return "memAddr";
    case ColMemData: return "memData";
    default: return "?";
    }
}

bool
fail(std::string *why, const std::string &reason)
{
    if (why != nullptr)
        *why = reason;
    return false;
}

/**
 * Workload names become file stems; escape anything non-portable.
 * Escaping alone would alias distinct names ("a/b" and "a b" both
 * become "a_b"), and aliased segments silently clobber each other
 * through the fingerprint check, so any escaped name also gets a
 * hash of the raw name appended.
 */
std::string
sanitize(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    bool escaped = name.empty();
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '.' ||
                        c == '_';
        out.push_back(ok ? c : '_');
        escaped |= !ok;
    }
    if (escaped) {
        char suffix[12];
        std::snprintf(suffix, sizeof(suffix), "-%08x",
                      crc32(0, name.data(), name.size()));
        out += suffix;
    }
    return out;
}

/** Parsed header + directory, offsets into the raw file bytes. */
struct Segment
{
    std::uint64_t instructions = 0;
    std::uint64_t memOps = 0;
    std::uint64_t captureLimit = 0;
    std::uint32_t headerCrc = 0;
    std::uint32_t programCrc = 0;
    std::uint32_t flags = 0;
    std::uint32_t exitCode = 0;
    std::uint32_t stopReason = 0;
    std::uint32_t lastNextPc = 0;

    // sigcomp-lint: format-layout-begin
    struct Column
    {
        std::uint32_t id = 0;
        std::uint64_t rawBytes = 0;
        std::uint64_t encBytes = 0;
        std::uint32_t payloadCrc = 0;
        std::size_t payloadOffset = 0;
    };
    std::vector<Column> columns;

    /** Derived-record annexes (the annex section). */
    struct Annex
    {
        std::string key;
        std::uint64_t rawBytes = 0;
        std::uint64_t encBytes = 0;
        std::uint32_t payloadCrc = 0;
        std::size_t payloadOffset = 0;
    };
    std::vector<Annex> annexes;
    // sigcomp-lint: format-layout-end
};

// sigcomp-lint: format-layout-begin
/** Sanity cap on persisted annex records per segment. */
constexpr std::uint32_t kMaxAnnexes = 256;
/** Sanity cap on one annex key's length. */
constexpr std::uint32_t kMaxAnnexKey = 4096;
// sigcomp-lint: format-layout-end

/**
 * Parse and CRC-check the header + directory (not payload contents)
 * of a segment @p file, which is null when there is none to read,
 * and with @p program check that the segment was captured from it.
 * Fail-soft on every malformed input. @p failure, when non-null,
 * classifies a false return: Missing without a file; Stale for a
 * well-formed header of an older format version or another
 * program's segment (not damage: recapture overwrites it); Corrupt
 * for anything else. The one place a segment is judged stale or
 * corrupt, for load(), info() and verify() alike.
 */
bool
parseSegment(const Env::FileView *file, const isa::Program *program,
             Segment &seg, std::string *why, LoadFailure *failure)
{
    if (failure != nullptr)
        *failure = file == nullptr ? LoadFailure::Missing
                                   : LoadFailure::Corrupt;
    if (file == nullptr)
        return fail(why, "no segment");
    const std::uint8_t *bytes = file->data();
    const std::size_t size = file->size();
    if (size < kHeaderBytes)
        return fail(why, "file shorter than header");
    const std::uint8_t *h = bytes;
    if (getU32(h) != kMagic)
        return fail(why, "bad magic");
    const std::uint32_t version = getU32(h + 4);
    if (version < formatVersion && crc32(0, h, 60) == getU32(h + 60)) {
        if (failure != nullptr)
            *failure = LoadFailure::Stale;
        return fail(why, "format version " + std::to_string(version) +
                             " is older than " +
                             std::to_string(formatVersion));
    }
    if (version != formatVersion)
        return fail(why, "format version " + std::to_string(version) +
                             ", expected " +
                             std::to_string(formatVersion));
    seg.headerCrc = getU32(h + 60);
    if (crc32(0, h, 60) != seg.headerCrc)
        return fail(why, "header CRC mismatch");

    seg.instructions = getU64(h + 8);
    seg.memOps = getU64(h + 16);
    seg.captureLimit = getU64(h + 24);
    seg.programCrc = getU32(h + 32);
    seg.flags = getU32(h + 36);
    seg.exitCode = getU32(h + 40);
    seg.stopReason = getU32(h + 44);
    seg.lastNextPc = getU32(h + 48);
    const std::uint32_t column_count = getU32(h + 52);
    if (column_count != NumColumns)
        return fail(why, "unexpected column count");

    const std::size_t dir_bytes = column_count * kDirEntryBytes;
    if (size < kHeaderBytes + dir_bytes + 4)
        return fail(why, "file shorter than column directory");
    const std::uint8_t *dir = h + kHeaderBytes;
    if (crc32(0, dir, dir_bytes) != getU32(dir + dir_bytes))
        return fail(why, "directory CRC mismatch");

    std::size_t offset = kHeaderBytes + dir_bytes + 4;
    seg.columns.resize(column_count);
    for (std::uint32_t c = 0; c < column_count; ++c) {
        const std::uint8_t *e = dir + c * kDirEntryBytes;
        Segment::Column &col = seg.columns[c];
        col.id = getU32(e);
        col.rawBytes = getU64(e + 8);
        col.encBytes = getU64(e + 16);
        col.payloadCrc = getU32(e + 24);
        col.payloadOffset = offset;
        if (col.id != c)
            return fail(why, "column directory out of order");
        if (col.encBytes > size - offset)
            return fail(why, "column payload overruns file");
        offset += col.encBytes;
    }

    // Annex section: count, variable-length entries, directory CRC,
    // then the annex payloads.
    {
        const std::size_t dir_start = offset;
        if (size - offset < 8)
            return fail(why, "annex directory truncated");
        const std::uint32_t count = getU32(bytes + offset);
        offset += 4;
        if (count > kMaxAnnexes)
            return fail(why, "annex count implausible");
        seg.annexes.resize(count);
        for (std::uint32_t a = 0; a < count; ++a) {
            Segment::Annex &ax = seg.annexes[a];
            if (size - offset < 4)
                return fail(why, "annex directory truncated");
            const std::uint32_t key_len = getU32(bytes + offset);
            offset += 4;
            if (key_len == 0 || key_len > kMaxAnnexKey ||
                size - offset < key_len + 20)
                return fail(why, "annex directory truncated");
            ax.key.assign(reinterpret_cast<const char *>(bytes + offset),
                          key_len);
            offset += key_len;
            ax.rawBytes = getU64(bytes + offset);
            ax.encBytes = getU64(bytes + offset + 8);
            ax.payloadCrc = getU32(bytes + offset + 16);
            offset += 20;
        }
        if (size - offset < 4)
            return fail(why, "annex directory truncated");
        if (crc32(0, bytes + dir_start, offset - dir_start) !=
            getU32(bytes + offset))
            return fail(why, "annex directory CRC mismatch");
        offset += 4;
        for (Segment::Annex &ax : seg.annexes) {
            ax.payloadOffset = offset;
            if (ax.encBytes > size - offset)
                return fail(why, "annex payload overruns file");
            offset += ax.encBytes;
        }
    }
    if (offset != size)
        return fail(why, "trailing bytes after payloads");
    if (program != nullptr &&
        seg.programCrc != TraceStore::programFingerprint(*program)) {
        if (failure != nullptr)
            *failure = LoadFailure::Stale;
        return fail(why, "program fingerprint mismatch (workload changed)");
    }
    return true;
}

/**
 * CRC-check a column against its directory entry, check that its raw
 * size is @p raw_bytes, and return its payload view.
 */
bool
columnPayload(const std::uint8_t *bytes, const Segment::Column &col,
              std::uint64_t raw_bytes, const std::uint8_t *&p,
              std::size_t &len, std::string *why)
{
    p = bytes + col.payloadOffset;
    len = static_cast<std::size_t>(col.encBytes);
    if (col.rawBytes != raw_bytes)
        return fail(why, std::string(columnName(col.id)) +
                             ": raw size mismatch");
    if (crc32(0, p, len) != col.payloadCrc)
        return fail(why,
                    std::string(columnName(col.id)) + ": payload CRC");
    return true;
}

/** Raw (decoded) bytes of each column of a trace, by column id. */
std::array<std::uint64_t, NumColumns>
rawColumnBytes(std::uint64_t instructions, std::uint64_t mem_ops)
{
    return {4 * instructions, 4 * instructions,
            8 * ((instructions + 63) / 64), 4 * mem_ops, 4 * mem_ops};
}

/**
 * The checks every column passes before a trace adopts it, short of
 * what needs the program: CRC and raw size per column, a full
 * decode of each 32-bit stream, and the taken plane's framing (a u32
 * control-bit count, then the bit words, no bit set past the count).
 * The decode-index stream is decoded by the caller's stream check;
 * @p payloads and @p lens receive every column's view.
 */
bool
checkColumns(const std::uint8_t *bytes, const Segment &seg,
             const std::uint8_t *(&payloads)[NumColumns],
             std::size_t (&lens)[NumColumns], std::string *why)
{
    const auto raw = rawColumnBytes(seg.instructions, seg.memOps);
    for (std::uint32_t c = 0; c < NumColumns; ++c) {
        if (!columnPayload(bytes, seg.columns[c], raw[c], payloads[c],
                           lens[c], why))
            return false;
    }
    {
        SIGCOMP_SPAN("codec.decode_column");
        const std::size_t n = static_cast<std::size_t>(seg.instructions);
        const std::size_t mem_ops = static_cast<std::size_t>(seg.memOps);
        for (const auto &[c, count] :
             {std::pair{ColResult, n}, std::pair{ColMemAddr, mem_ops},
              std::pair{ColMemData, mem_ops}}) {
            if (!validColumn32(payloads[c], lens[c], count))
                return fail(why, std::string(columnName(c)) +
                                     ": malformed codec stream");
        }
    }
    const std::uint8_t *p = payloads[ColTaken];
    const std::size_t len = lens[ColTaken];
    if (len < 4)
        return fail(why, "taken: truncated header");
    const std::uint32_t nbits = getU32(p);
    if (nbits > seg.instructions)
        return fail(why, "taken: more bits than instructions");
    if (len != 4 + 8 * ((static_cast<std::size_t>(nbits) + 63) / 64))
        return fail(why, "taken: length mismatch");
    if (nbits % 64 != 0 && getU64(p + len - 8) >> (nbits % 64) != 0)
        return fail(why, "taken: bit set past the count");
    return true;
}

// ---- SharedQuanta annex codec ----------------------------------------
//
// A trace's "quanta:<key>" annexes (pipeline::SharedQuanta — the
// design-independent per-instruction replay records, see
// pipeline/pipeline.h) are pure derived data, expensive to recompute
// (the quanta front half is the heaviest part of a replay), and canonical
// per (trace, encoding, memory geometry, compressor), so segments
// persist them. The layout (encodeQuanta/decodeQuanta below) is part
// of the pinned segment format.
namespace
{

using pipeline::SharedQuanta;

/** Block-delta count a canonical record must have for @p n instrs. */
std::size_t
canonicalBlocks(std::size_t n)
{
    return n == 0 ? 0
                  : (n + cpu::TraceView::defaultBlockSize - 1) /
                        cpu::TraceView::defaultBlockSize;
}

void
putStats(std::vector<std::uint8_t> &out, const mem::CacheStats &s)
{
    putU64(out, s.reads);
    putU64(out, s.writes);
    putU64(out, s.readMisses);
    putU64(out, s.writeMisses);
    putU64(out, s.fills);
    putU64(out, s.writebacks);
}

void
getStats(const std::uint8_t *p, mem::CacheStats &s)
{
    s.reads = getU64(p);
    s.writes = getU64(p + 8);
    s.readMisses = getU64(p + 16);
    s.writeMisses = getU64(p + 24);
    s.fills = getU64(p + 32);
    s.writebacks = getU64(p + 40);
}

/**
 * The "quanta:" annex keys of @p b that a save would persist:
 * canonical records only (per-instruction coverage and TraceView
 * block structure), capped at kMaxAnnexes. The single source of
 * truth shared by serialize() and persistableAnnexKeys(), so the
 * cache's should-I-re-save comparison can never disagree with what
 * a save would actually write.
 */
std::vector<std::string>
eligibleQuantaKeys(const cpu::TraceBuffer &b)
{
    const std::size_t n = b.size();
    std::vector<std::string> keys;
    for (const std::string &key : b.annexKeys("quanta:")) {
        const auto rec = std::static_pointer_cast<const SharedQuanta>(
            b.annexGet(key));
        if (rec == nullptr || rec->size() != n ||
            rec->blockDelta.size() != canonicalBlocks(n) ||
            rec->blockMissStart.size() != rec->blockDelta.size())
            continue;
        keys.push_back(key);
        if (keys.size() == kMaxAnnexes)
            break;
    }
    return keys;
}

// sigcomp-lint: format-layout-begin
// Layout of one "quanta:<key>" annex payload, the record's resident
// arrays as they are (pipeline::SharedQuanta):
//
//   u64 instruction count n (must match the segment header)
//   u64 block-delta count (must be ceil(n / TraceView block size))
//   u64 dictionary length G
//   u64 escape count E (the instructions whose hit bit is clear)
//   G raw u32 SharedQuanta::Entry words, in order of first use
//     (fields above entryBits must be zero)
//   ceil(n / 64) raw u64 hit words, instruction i at bit i % 64 of
//     word i / 64 (bits past n must be zero)
//   ceil(E * w / 64) raw u64 escape words, w = bit_width(G - 1) (0
//     when G <= 1): E dictionary indices packed low bit first, each
//     below G and at most one past the largest before it, the last
//     escape naming entry G - 1 (bits past E * w must be zero)
//   u64 miss count, then per miss three raw u32: index, ifExtra,
//     memExtra (indices strictly increasing and < n, latencies not
//     both zero); the per-block miss starts are derived on load
//   per block delta: 16 raw u64 (8 activity stages x {compressed,
//     baseline}; the latch pair is zero by construction)
//   three CacheStats (l1i, l1d, l2): 6 raw u64 each
//
// Decoding validates every count, escape and index against the
// segment header, so a damaged annex fails the load softly like any
// other column damage.
constexpr std::size_t kMissBytes = 12;
constexpr std::size_t kBlockDeltaBytes = 16 * 8;
constexpr std::size_t kStatsBytes = 3 * 6 * 8;

// The dictionary persists SharedQuanta::Entry words as they are, so
// the entry layout (pipeline/pipeline.h) is part of this format: it
// is pinned here, inside the format-pinned region.
static_assert(SharedQuanta::fieldShift[SharedQuanta::FetchBytes] == 0 &&
                  SharedQuanta::fieldShift[SharedQuanta::SrcChunks] == 3 &&
                  SharedQuanta::fieldShift[SharedQuanta::ExChunks] == 6 &&
                  SharedQuanta::fieldShift[SharedQuanta::ExWorkBytes] == 9 &&
                  SharedQuanta::fieldShift[SharedQuanta::MemChunks] == 13 &&
                  SharedQuanta::fieldShift[SharedQuanta::ResChunks] == 16 &&
                  SharedQuanta::fieldShift[SharedQuanta::PcChangedBlocks] ==
                      19 &&
                  SharedQuanta::fieldShift[SharedQuanta::PcRippleExtra] ==
                      22 &&
                  SharedQuanta::fieldShift[SharedQuanta::Redirect] == 24 &&
                  SharedQuanta::entryBits == 25,
              "SharedQuanta layout changed: bump formatVersion");

std::size_t
wordsFor(std::uint64_t bits)
{
    return static_cast<std::size_t>((bits + 63) / 64);
}

std::vector<std::uint8_t>
encodeQuanta(const SharedQuanta &rec)
{
    const std::size_t n = rec.size();
    const std::size_t escapes =
        n - static_cast<std::size_t>(std::accumulate(
                rec.hits.begin(), rec.hits.end(), std::size_t{0},
                [](std::size_t sum, std::uint64_t w) {
                    return sum + static_cast<std::size_t>(std::popcount(w));
                }));
    std::vector<std::uint8_t> out;
    out.reserve(32 + 4 * rec.dict.size() +
                8 * (rec.hits.size() + rec.escapes.size()) + 8 +
                kMissBytes * rec.misses.size() +
                kBlockDeltaBytes * rec.blockDelta.size() + kStatsBytes);
    putU64(out, n);
    putU64(out, rec.blockDelta.size());
    putU64(out, rec.dict.size());
    putU64(out, escapes);
    for (const SharedQuanta::Entry e : rec.dict)
        putU32(out, e);
    for (const std::uint64_t w : rec.hits)
        putU64(out, w);
    for (const std::uint64_t w : rec.escapes)
        putU64(out, w);

    putU64(out, rec.misses.size());
    for (const SharedQuanta::Miss &m : rec.misses) {
        putU32(out, m.index);
        putU32(out, m.ifExtra);
        putU32(out, m.memExtra);
    }

    for (const pipeline::ActivityTotals &a : rec.blockDelta) {
        const pipeline::BitPair *pairs[] = {&a.fetch,  &a.rfRead,
                                            &a.rfWrite, &a.alu,
                                            &a.dcData, &a.dcTag,
                                            &a.pcInc,  &a.latch};
        for (const pipeline::BitPair *bp : pairs) {
            putU64(out, bp->compressed);
            putU64(out, bp->baseline);
        }
    }
    putStats(out, rec.l1i);
    putStats(out, rec.l1d);
    putStats(out, rec.l2);
    return out;
}

/** @p count raw u64 words from @p p. */
std::vector<std::uint64_t>
getWords(const std::uint8_t *p, std::size_t count)
{
    std::vector<std::uint64_t> words(count);
    for (std::size_t k = 0; k < count; ++k)
        words[k] = getU64(p + 8 * k);
    return words;
}

bool
decodeQuanta(const std::uint8_t *bytes, std::size_t len, std::size_t n,
             std::shared_ptr<SharedQuanta> &out, std::string *why)
{
    std::size_t off = 0;
    auto need = [&](std::uint64_t k) { return len - off >= k; };
    if (!need(32))
        return fail(why, "quanta annex: truncated header");
    if (getU64(bytes) != n)
        return fail(why, "quanta annex: instruction count mismatch");
    const std::uint64_t blocks = getU64(bytes + 8);
    if (blocks != canonicalBlocks(n))
        return fail(why, "quanta annex: non-canonical block count");
    const std::uint64_t dict_len = getU64(bytes + 16);
    const std::uint64_t escapes = getU64(bytes + 24);
    off = 32;
    // Every escape names a dictionary entry and every entry is named
    // by one (first use), so 0 < G <= E <= n unless n is 0.
    if (escapes > n || dict_len > escapes ||
        (escapes != 0) != (dict_len != 0))
        return fail(why, "quanta annex: dictionary or escape count out of "
                         "range");

    auto rec = std::make_shared<SharedQuanta>();
    rec->instructions = n;
    if (!need(4 * dict_len))
        return fail(why, "quanta annex: dictionary overruns payload");
    rec->dict.resize(dict_len);
    std::uint32_t garbage = 0;
    for (std::size_t k = 0; k < dict_len; ++k) {
        rec->dict[k] = getU32(bytes + off);
        garbage |= rec->dict[k] >> SharedQuanta::entryBits;
        off += 4;
    }
    if (garbage != 0)
        return fail(why, "quanta annex: dictionary entry garbage");

    // Hit bits: exactly one clear bit per escape, none past n.
    const std::size_t hit_words = wordsFor(n);
    if (!need(8 * std::uint64_t{hit_words}))
        return fail(why, "quanta annex: truncated hit bits");
    rec->hits = getWords(bytes + off, hit_words);
    off += 8 * hit_words;
    std::size_t hits = 0;
    for (const std::uint64_t w : rec->hits)
        hits += static_cast<std::size_t>(std::popcount(w));
    if (n % 64 != 0 && rec->hits.back() >> (n % 64) != 0)
        return fail(why, "quanta annex: hit bit past the count");
    if (n - hits != escapes)
        return fail(why, "quanta annex: hit bits disagree with the escape "
                         "count");

    // Escapes: each a dictionary index, in order of first use.
    const unsigned width = rec->escapeBits();
    const std::uint64_t escape_bits = escapes * width;
    const std::size_t escape_words = wordsFor(escape_bits);
    if (!need(8 * std::uint64_t{escape_words}))
        return fail(why, "quanta annex: truncated escapes");
    rec->escapes = getWords(bytes + off, escape_words);
    off += 8 * escape_words;
    if (escape_bits % 64 != 0 &&
        rec->escapes.back() >> (escape_bits % 64) != 0)
        return fail(why, "quanta annex: escape bit past the count");
    std::uint64_t named = 0;
    for (std::uint64_t at = 0; at < escape_bits; at += width) {
        std::uint64_t x = rec->escapes[at / 64] >> (at % 64);
        if (at % 64 + width > 64)
            x |= rec->escapes[at / 64 + 1] << (64 - at % 64);
        x &= (std::uint64_t{1} << width) - 1;
        if (x >= dict_len)
            return fail(why, "quanta annex: escape past the dictionary");
        if (x > named)
            return fail(why, "quanta annex: dictionary out of first-use "
                             "order");
        named += x == named;
    }
    if (named != dict_len)
        return fail(why, "quanta annex: dictionary out of first-use order");

    if (!need(8))
        return fail(why, "quanta annex: truncated miss list");
    const std::uint64_t misses = getU64(bytes + off);
    off += 8;
    if (misses > n || !need(misses * kMissBytes))
        return fail(why, "quanta annex: miss list overruns payload");
    rec->misses.resize(misses);
    for (std::uint64_t i = 0; i < misses; ++i) {
        SharedQuanta::Miss &m = rec->misses[i];
        m.index = getU32(bytes + off);
        m.ifExtra = getU32(bytes + off + 4);
        m.memExtra = getU32(bytes + off + 8);
        off += kMissBytes;
        if (m.index >= n ||
            (i > 0 && m.index <= rec->misses[i - 1].index))
            return fail(why, "quanta annex: miss index out of order");
        if ((m.ifExtra | m.memExtra) == 0)
            return fail(why, "quanta annex: miss without latency");
    }
    rec->blockMissStart.resize(blocks);
    std::size_t first = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
        while (first < misses && rec->misses[first].index <
                                     b * cpu::TraceView::defaultBlockSize)
            ++first;
        rec->blockMissStart[b] = static_cast<std::uint32_t>(first);
    }

    if (len - off != blocks * kBlockDeltaBytes + kStatsBytes)
        return fail(why, "quanta annex: size mismatch");
    rec->blockDelta.resize(blocks);
    for (std::uint64_t b = 0; b < blocks; ++b) {
        pipeline::ActivityTotals &a = rec->blockDelta[b];
        pipeline::BitPair *pairs[] = {&a.fetch,  &a.rfRead, &a.rfWrite,
                                      &a.alu,    &a.dcData, &a.dcTag,
                                      &a.pcInc,  &a.latch};
        for (pipeline::BitPair *bp : pairs) {
            bp->compressed = getU64(bytes + off);
            bp->baseline = getU64(bytes + off + 8);
            off += 16;
        }
    }
    getStats(bytes + off, rec->l1i);
    getStats(bytes + off + 48, rec->l1d);
    getStats(bytes + off + 96, rec->l2);
    out = std::move(rec);
    return true;
}
// sigcomp-lint: format-layout-end

/**
 * CRC-check and decode every quanta annex of @p seg in the file copy
 * @p bytes, handing each record to @p use(key, record). Fail-soft:
 * false + reason at the first damaged annex.
 */
template <typename Use>
bool
decodeAnnexes(const std::uint8_t *bytes, const Segment &seg,
              std::string *why, const Use &use)
{
    SIGCOMP_SPAN("store.decode_annexes");
    const std::size_t n = static_cast<std::size_t>(seg.instructions);
    for (const Segment::Annex &ax : seg.annexes) {
        const std::uint8_t *p = bytes + ax.payloadOffset;
        const std::size_t len = static_cast<std::size_t>(ax.encBytes);
        if (crc32(0, p, len) != ax.payloadCrc)
            return fail(why, "annex '" + ax.key + "': payload CRC");
        std::shared_ptr<SharedQuanta> rec;
        if (!decodeQuanta(p, len, n, rec, why))
            return false;
        use(ax.key, rec);
    }
    return true;
}

/** Sum of one byte count over @p columns. */
std::uint64_t
columnTotal(const std::vector<ColumnStat> &columns,
            std::uint64_t ColumnStat::*bytes)
{
    std::uint64_t total = 0;
    for (const ColumnStat &c : columns)
        total += c.*bytes;
    return total;
}

} // namespace

} // namespace

/**
 * The one class allowed to touch TraceBuffer's private columns
 * (befriended in cpu/trace_buffer.h): turns a buffer into segment
 * bytes and segment bytes back into a buffer.
 */
class TraceSerializer
{
  public:
    static std::vector<std::uint8_t>
    serialize(const cpu::TraceBuffer &b, DWord capture_limit,
              std::uint32_t program_crc)
    {
        const std::size_t n = b.decIdx_.size();

        // The resident columns already are the segment payloads
        // (capture encoded them, or a load adopted them), so a save
        // copies them. There are no operand columns to write: replay
        // rebuilds operands from the result column.
        const std::span<const std::uint8_t> payloads[NumColumns] = {
            b.decIdx_.stream, b.result_v_.stream, b.taken_,
            b.memAddr_.stream, b.memData_.stream};
        const auto raw_bytes = rawColumnBytes(n, b.memAddr_.size());

        // Derived SharedQuanta records published on the buffer by
        // replays: persist every canonical one, so warm-store
        // processes skip the quanta front half. A buffer with none (the
        // capture-time write-through) writes an empty annex section.
        struct AnnexPayload
        {
            std::string key;
            std::uint64_t rawBytes = 0;
            std::vector<std::uint8_t> bytes;
        };
        std::vector<AnnexPayload> annexes;
        for (const std::string &key : eligibleQuantaKeys(b)) {
            const auto rec = std::static_pointer_cast<const SharedQuanta>(
                b.annexGet(key));
            if (rec == nullptr)
                continue; // raced away; next save picks it up
            annexes.push_back({key, rec->bytes(), encodeQuanta(*rec)});
        }

        std::vector<std::uint8_t> out;
        std::size_t total_payload = 0;
        for (const auto &payload : payloads)
            total_payload += payload.size();
        out.reserve(kHeaderBytes + NumColumns * kDirEntryBytes + 4 +
                    total_payload);

        // -- header ---------------------------------------------------
        // sigcomp-lint: format-layout-begin
        putU32(out, kMagic);
        putU32(out, formatVersion);
        putU64(out, n);
        putU64(out, b.memAddr_.size());
        putU64(out, capture_limit);
        putU32(out, program_crc);
        putU32(out, b.truncated() ? kFlagTruncated : 0);
        putU32(out, b.result_.exitCode);
        putU32(out, static_cast<std::uint32_t>(b.result_.reason));
        putU32(out, b.lastNextPc_);
        putU32(out, NumColumns);
        putU32(out, 0); // reserved
        putU32(out, crc32(0, out.data(), 60));

        // -- column directory -----------------------------------------
        const std::size_t dir_start = out.size();
        for (std::uint32_t c = 0; c < NumColumns; ++c) {
            putU32(out, c);
            putU32(out, 0); // reserved
            putU64(out, raw_bytes[c]);
            putU64(out, payloads[c].size());
            putU32(out, crc32(0, payloads[c].data(), payloads[c].size()));
            putU32(out, 0); // reserved
        }
        putU32(out, crc32(0, out.data() + dir_start,
                          NumColumns * kDirEntryBytes));

        // -- payloads --------------------------------------------------
        for (const auto &payload : payloads)
            out.insert(out.end(), payload.begin(), payload.end());

        // -- annex section ---------------------------------------------
        {
            const std::size_t dir_start = out.size();
            putU32(out, static_cast<std::uint32_t>(annexes.size()));
            for (const AnnexPayload &ax : annexes) {
                putU32(out, static_cast<std::uint32_t>(ax.key.size()));
                out.insert(out.end(), ax.key.begin(), ax.key.end());
                putU64(out, ax.rawBytes);
                putU64(out, ax.bytes.size());
                putU32(out, crc32(0, ax.bytes.data(), ax.bytes.size()));
            }
            putU32(out, crc32(0, out.data() + dir_start,
                              out.size() - dir_start));
            for (const AnnexPayload &ax : annexes)
                out.insert(out.end(), ax.bytes.begin(), ax.bytes.end());
        }
        // sigcomp-lint: format-layout-end
        return out;
    }

    /**
     * Check parsed segment @p seg in the file copy @p bytes and
     * build a TraceBuffer bound to @p program that adopts its column
     * payloads. Fail-soft: nullptr + reason on any inconsistency.
     */
    static std::shared_ptr<cpu::TraceBuffer>
    deserialize(const std::uint8_t *bytes, const Segment &seg,
                const isa::Program &program, std::string *why)
    {
        const std::size_t n = static_cast<std::size_t>(seg.instructions);
        const std::size_t mem_ops = static_cast<std::size_t>(seg.memOps);

        const std::uint8_t *payloads[NumColumns];
        std::size_t lens[NumColumns];
        if (!checkColumns(bytes, seg, payloads, lens, why))
            return nullptr;

        auto buf = std::make_shared<cpu::TraceBuffer>(
            cpu::TraceBuffer::makeFor(program));

        // One pass decodes the decode-index stream block by block and
        // bounds-checks every index (replay gathers through them
        // unchecked, so a wrong segment must die here, softly), and
        // verifies the memory-op and control-instruction counts
        // replay's cursors will consume.
        {
            SIGCOMP_SPAN("store.check_stream");
            const std::vector<cpu::InstrFacts> &facts = buf->facts_;
            const std::size_t text_size = facts.size();
            std::size_t seen_mem_ops = 0;
            std::size_t seen_controls = 0;
            ColumnReader dec_idx(payloads[ColDecIdx], lens[ColDecIdx], n);
            while (dec_idx.nextBlock()) {
                const std::uint32_t *idx = dec_idx.values();
                for (std::size_t j = 0; j < dec_idx.blockSize(); ++j) {
                    if (idx[j] >= text_size)
                        return failed(why, "decode index out of range");
                    const cpu::InstrFacts f = facts[idx[j]];
                    seen_mem_ops += f.flags & cpu::InstrFacts::memOp;
                    seen_controls +=
                        (f.flags & cpu::InstrFacts::control) != 0;
                }
            }
            if (!dec_idx.done())
                return failed(why, "decIdx: malformed codec stream");
            if (seen_mem_ops != mem_ops)
                return failed(why,
                              "memory-op count inconsistent with program");
            if (seen_controls != getU32(payloads[ColTaken]))
                return failed(why,
                              "taken: control-instruction count mismatch");
        }

        // Every stream checked: the buffer adopts the payloads as they
        // are, with no expansion.
        const auto adopt = [&](ColumnId c) {
            return std::vector<std::uint8_t>(payloads[c],
                                             payloads[c] + lens[c]);
        };
        buf->decIdx_ = {adopt(ColDecIdx), n};
        buf->result_v_ = {adopt(ColResult), n};
        buf->taken_ = adopt(ColTaken);
        buf->memAddr_ = {adopt(ColMemAddr), mem_ops};
        buf->memData_ = {adopt(ColMemData), mem_ops};

        buf->lastNextPc_ = seg.lastNextPc;
        buf->result_.reason =
            static_cast<cpu::StopReason>(seg.stopReason);
        buf->result_.exitCode = seg.exitCode;
        buf->result_.instructions = seg.instructions;
        if (buf->result_.reason != cpu::StopReason::Exited &&
            buf->result_.reason != cpu::StopReason::InstrLimit)
            return failed(why, "segment records a failed capture");

        // Persisted SharedQuanta records: validated like any column —
        // CRC plus full structural decode — and attached under their
        // annex keys, so the first replay of a matching configuration
        // runs every pipeline as a shared-quanta consumer instead of
        // recomputing the front half. Damage fails the whole load
        // softly (recapture). Hit bits, dictionary and escapes are
        // stored as they sit in RAM, so this is a checked copy.
        const bool annexes_ok = decodeAnnexes(
            bytes, seg, why,
            [&](const std::string &key,
                const std::shared_ptr<SharedQuanta> &rec) {
                buf->annexStoreIfAbsent(
                    key, std::static_pointer_cast<void>(rec), rec->bytes());
            });
        return annexes_ok ? buf : nullptr;
    }

  private:
    /** fail() for a loader returning a trace: nullptr. */
    static std::shared_ptr<cpu::TraceBuffer>
    failed(std::string *why, const std::string &reason)
    {
        fail(why, reason);
        return nullptr;
    }
};

std::uint64_t
SegmentInfo::rawBytes() const
{
    return columnTotal(columns, &ColumnStat::rawBytes);
}

std::uint64_t
SegmentInfo::encodedBytes() const
{
    return columnTotal(columns, &ColumnStat::encodedBytes);
}

template <typename Attempt>
EnvStatus
TraceStore::retryTransient(const Attempt &attempt,
                           const CancelToken *cancel, bool *cancelled) const
{
    for (unsigned retry = 0;; ++retry) {
        EnvStatus st = attempt();
        if (!st.transient() || retry == kTransientRetries)
            return st;
        if (cancelRequested(cancel)) {
            *cancelled = true;
            return st;
        }
        retriesMetric_.inc();
        // Waiting out a transient fault is invisible to a wall-clock
        // profile without this span — retry storms look like slow I/O.
        SIGCOMP_SPAN("store.retry_wait");
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::uint64_t{kRetryBackoffMs}
                                      << std::min(retry, 10u)));
    }
}

TraceStore::TraceStore(std::string dir, const StoreOptions &options)
    : dir_(std::move(dir)), readOnly_(options.readOnly),
      durableSaves_(options.durableSaves),
      env_(options.env != nullptr ? options.env : &Env::posix()),
      metrics_(options.registry != nullptr
                   ? *options.registry
                   : telemetry::Registry::process()),
      retriesMetric_(metrics_.counter("store.retries")),
      loadBytes_(metrics_.histogram("store.load_bytes",
                                    telemetry::Unit::Bytes)),
      saveBytes_(metrics_.histogram("store.save_bytes",
                                    telemetry::Unit::Bytes))
{
    if (readOnly_)
        return;
    const EnvStatus st =
        retryTransient([&] { return env_->createDirs(dir_); });
    if (!st.ok()) {
        // Fail-soft: the store opens empty and unwritable rather than
        // killing the process — sessions degrade to capture-only.
        dirFailed_ = true;
        SC_WARN("cannot create trace store directory '", dir_, "' (",
                st.message, "); store degraded to capture-only");
    }
}

std::unique_ptr<Env::FileView>
TraceStore::readSegment(const std::string &path, EnvStatus *status) const
{
    std::unique_ptr<Env::FileView> view;
    const EnvStatus st = retryTransient([&] {
        EnvStatus load_st;
        view = env_->loadFile(path, &load_st);
        return view != nullptr ? EnvStatus::good() : load_st;
    });
    if (status != nullptr)
        *status = st;
    return view;
}

std::string
TraceStore::segmentPath(const std::string &workload) const
{
    return dir_ + "/" + sanitize(workload) + ".sctrace";
}

std::uint32_t
TraceStore::programFingerprint(const isa::Program &program)
{
    std::uint32_t crc = 0;
    for (const isa::Instruction &inst : program.text()) {
        const Word raw = inst.raw();
        std::uint8_t le[4] = {static_cast<std::uint8_t>(raw),
                              static_cast<std::uint8_t>(raw >> 8),
                              static_cast<std::uint8_t>(raw >> 16),
                              static_cast<std::uint8_t>(raw >> 24)};
        crc = crc32(crc, le, 4);
    }
    const isa::DataSegment &data = program.data();
    if (!data.bytes.empty())
        crc = crc32(crc, data.bytes.data(), data.bytes.size());
    std::vector<std::uint8_t> tail;
    putU32(tail, data.base);
    putU32(tail, program.entry());
    crc = crc32(crc, tail.data(), tail.size());
    return crc;
}

std::shared_ptr<cpu::TraceBuffer>
TraceStore::load(const std::string &workload, const isa::Program &program,
                 DWord capture_limit, std::string *why,
                 LoadFailure *failure) const
{
    SIGCOMP_SPAN("store.load");
    const auto classify = [&](LoadFailure f) {
        if (failure != nullptr)
            *failure = f;
    };
    classify(LoadFailure::None);
    EnvStatus st;
    const auto file = readSegment(segmentPath(workload), &st);
    if (file != nullptr) {
        loadBytes_.record(file->size());
    } else if (st.fault != EnvFault::NotFound) {
        classify(LoadFailure::Io);
        fail(why, "read failed: " + st.message);
        return nullptr;
    }
    Segment seg;
    if (!parseSegment(file.get(), &program, seg, why, failure))
        return nullptr;
    if (seg.captureLimit != capture_limit) {
        classify(LoadFailure::Stale);
        fail(why, "capture-limit mismatch");
        return nullptr;
    }
    auto buf = TraceSerializer::deserialize(file->data(), seg, program,
                                            why);
    classify(buf != nullptr ? LoadFailure::None : LoadFailure::Corrupt);
    return buf;
}

EnvStatus
TraceStore::saveOnce(const std::string &path,
                     const std::vector<std::uint8_t> &bytes) const
{
    // Unique per save, not just per process: two threads saving the
    // same workload (global + local cache, prewarm races) must not
    // truncate each other's in-progress temp file.
    static std::atomic<std::uint64_t> save_seq{0};
    const std::string tmp =
        path + ".tmp." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(save_seq.fetch_add(1));
    EnvStatus st;
    auto file = env_->createFile(tmp, &st);
    if (file == nullptr)
        return st;
    st = file->append(bytes.data(), bytes.size());
    // Durable saves fsync the temp file BEFORE the rename: without
    // it, power loss can reorder the rename ahead of the data blocks
    // and leave a published segment full of zeros.
    if (st.ok() && durableSaves_)
        st = file->sync();
    const EnvStatus closed = file->close();
    if (st.ok())
        st = closed;
    if (!st.ok()) {
        env_->removeFile(tmp); // best effort; gc sweeps orphans
        return st;
    }
    // Atomic publish: readers never observe a partial segment.
    st = env_->renameFile(tmp, path);
    if (!st.ok()) {
        env_->removeFile(tmp);
        return EnvStatus::error(st.fault, "rename failed: " + st.message);
    }
    if (durableSaves_) {
        // The rename is already visible; a failed directory fsync
        // only weakens crash durability, so warn instead of failing
        // a save that readers can see.
        const EnvStatus dir_st = env_->syncDir(dir_);
        if (!dir_st.ok() && dir_st.fault != EnvFault::Crashed)
            SC_WARN("trace store: directory fsync failed (",
                    dir_st.message, ")");
    }
    return EnvStatus::good();
}

bool
TraceStore::save(const std::string &workload,
                 const cpu::TraceBuffer &trace, DWord capture_limit,
                 std::string *why, EnvFault *fault,
                 const CancelToken *cancel) const
{
    SIGCOMP_SPAN("store.save");
    if (fault != nullptr)
        *fault = EnvFault::None;
    if (readOnly_) {
        if (fault != nullptr)
            *fault = EnvFault::ReadOnly;
        return fail(why, "store is read-only");
    }
    if (dirFailed_) {
        if (fault != nullptr)
            *fault = EnvFault::Other;
        return fail(why, "store directory unavailable");
    }

    const std::vector<std::uint8_t> bytes = TraceSerializer::serialize(
        trace, capture_limit, programFingerprint(trace.program()));
    saveBytes_.record(bytes.size());

    const std::string path = segmentPath(workload);
    // A cancel arriving while a transient fault is being retried
    // abandons the save: each attempt was atomic (complete rename or
    // ignorable temp), so the previously published segment — if any
    // — is still bit-identical on disk.
    bool cancelled = false;
    const EnvStatus st = retryTransient(
        [&] { return saveOnce(path, bytes); }, cancel, &cancelled);
    if (st.ok())
        return true;
    if (fault != nullptr)
        *fault = st.fault;
    return fail(why, cancelled
                         ? "save cancelled after transient fault: " +
                               st.message
                         : st.message);
}

bool
TraceStore::quarantine(const std::string &workload,
                       std::string *quarantined_path) const
{
    if (readOnly_)
        return false;
    const std::string path = segmentPath(workload);
    if (!env_->fileExists(path))
        return false;
    // Unique destination: repeated corruption of the same workload
    // must not overwrite earlier evidence.
    static std::atomic<std::uint64_t> quar_seq{0};
    const std::string dest =
        path + ".quar." +
        std::to_string(static_cast<unsigned long>(::getpid())) + "." +
        std::to_string(quar_seq.fetch_add(1));
    if (!retryTransient([&] { return env_->renameFile(path, dest); }).ok())
        return false;
    if (quarantined_path != nullptr)
        *quarantined_path = dest;
    return true;
}

std::vector<std::string>
TraceStore::quarantined() const
{
    std::vector<std::string> names;
    for (const std::string &name : env_->listDir(dir_, nullptr)) {
        if (name.find(".sctrace.quar.") != std::string::npos)
            names.push_back(name);
    }
    return names;
}

std::size_t
TraceStore::cleanOrphanTemps() const
{
    if (readOnly_)
        return 0;
    std::size_t removed = 0;
    for (const std::string &name : env_->listDir(dir_, nullptr)) {
        if (name.find(".sctrace.tmp.") == std::string::npos)
            continue;
        if (env_->removeFile(dir_ + "/" + name).ok())
            ++removed;
    }
    return removed;
}

bool
TraceStore::remove(const std::string &workload) const
{
    return env_->removeFile(segmentPath(workload)).ok();
}

std::vector<std::string>
TraceStore::list() const
{
    // listDir returns sorted names; temp (".sctrace.tmp.*") and
    // quarantine (".sctrace.quar.*") files don't END with the
    // extension, so only published segments qualify.
    static constexpr char ext[] = ".sctrace";
    static constexpr std::size_t ext_len = sizeof(ext) - 1;
    std::vector<std::string> names;
    for (const std::string &name : env_->listDir(dir_, nullptr)) {
        if (name.size() > ext_len && name.ends_with(ext))
            names.push_back(name.substr(0, name.size() - ext_len));
    }
    return names;
}

bool
TraceStore::info(const std::string &workload, SegmentInfo &out,
                 std::string *why, LoadFailure *failure) const
{
    const auto file = readSegment(segmentPath(workload), nullptr);
    Segment seg;
    if (!parseSegment(file.get(), nullptr, seg, why, failure))
        return false;

    out = SegmentInfo();
    out.workload = workload;
    out.path = segmentPath(workload);
    out.instructions = seg.instructions;
    out.fileBytes = file->size();
    out.captureLimit = seg.captureLimit;
    out.truncated = (seg.flags & kFlagTruncated) != 0;
    out.programFingerprint = seg.programCrc;
    for (const Segment::Column &col : seg.columns) {
        out.columns.push_back(
            {columnName(col.id), col.rawBytes, col.encBytes});
    }
    for (const Segment::Annex &ax : seg.annexes)
        out.annexes.push_back({ax.key, ax.rawBytes, ax.encBytes});
    return true;
}

std::vector<std::string>
TraceStore::persistableAnnexKeys(const cpu::TraceBuffer &trace)
{
    return eligibleQuantaKeys(trace);
}

bool
TraceStore::verify(const std::string &workload,
                   const isa::Program *program, std::string *why,
                   LoadFailure *failure) const
{
    const auto file = readSegment(segmentPath(workload), nullptr);
    Segment seg;
    if (!parseSegment(file.get(), program, seg, why, failure))
        return false;
    const std::uint8_t *bytes = file->data();
    if (program != nullptr) {
        return TraceSerializer::deserialize(bytes, seg, *program, why) !=
               nullptr;
    }
    // No program: still decode every payload so CRC and codec damage
    // is caught. The decode indexes need the program for their bounds
    // and counts, so that stream gets a plain full decode here.
    const std::uint8_t *payloads[NumColumns];
    std::size_t lens[NumColumns];
    if (!checkColumns(bytes, seg, payloads, lens, why))
        return false;
    const std::size_t n = static_cast<std::size_t>(seg.instructions);
    if (!validColumn32(payloads[ColDecIdx], lens[ColDecIdx], n))
        return fail(why, "decIdx: malformed codec stream");
    // Annex payloads decode without a program: full CRC + structural
    // check, same strictness as the columns.
    return decodeAnnexes(bytes, seg, why, [](const auto &, const auto &) {});
}

std::uint64_t
StoreStats::rawBytes() const
{
    return columnTotal(columns, &ColumnStat::rawBytes);
}

std::uint64_t
StoreStats::encodedBytes() const
{
    return columnTotal(columns, &ColumnStat::encodedBytes);
}

StoreStats
aggregateStats(const TraceStore &store)
{
    StoreStats stats;
    for (const std::string &name : store.list()) {
        SegmentInfo info;
        if (!store.info(name, info, nullptr))
            continue;
        ++stats.segments;
        stats.instructions += info.instructions;
        stats.fileBytes += info.fileBytes;
        if (stats.columns.empty())
            stats.columns.resize(info.columns.size());
        for (std::size_t c = 0;
             c < info.columns.size() && c < stats.columns.size(); ++c) {
            stats.columns[c].name = info.columns[c].name;
            stats.columns[c].rawBytes += info.columns[c].rawBytes;
            stats.columns[c].encodedBytes += info.columns[c].encodedBytes;
        }
        for (const ColumnStat &ax : info.annexes) {
            stats.quanta.rawBytes += ax.rawBytes;
            stats.quanta.encodedBytes += ax.encodedBytes;
        }
    }
    return stats;
}

void
writeColumnsJson(std::FILE *f, const std::vector<ColumnStat> &columns,
                 const char *indent)
{
    for (std::size_t c = 0; c < columns.size(); ++c) {
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"raw_bytes\": %llu, "
            "\"encoded_bytes\": %llu, \"ratio\": %.3f}%s\n",
            indent, columns[c].name.c_str(),
            static_cast<unsigned long long>(columns[c].rawBytes),
            static_cast<unsigned long long>(columns[c].encodedBytes),
            columns[c].ratio(), c + 1 < columns.size() ? "," : "");
    }
}

} // namespace sigcomp::store
