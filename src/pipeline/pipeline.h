/**
 * @file
 * In-order pipeline timing framework.
 *
 * All of the paper's implementations are in-order pipelines whose
 * stages have *variable, data-dependent occupancy* (number of
 * significant chunks to fetch/read/operate/access/write). Timing
 * follows the classic reservation recurrence
 *
 *   start[i][s] = max(start[i][s-1] + lead[i][s-1],
 *                     end[i-1][s],            // in-order structural
 *                     hazard constraints)
 *   end[i][s]   = start[i][s] + dur[i][s]
 *
 * where lead < dur models *operand streaming*: a byte-serial stage
 * hands its first chunk downstream after one cycle while it keeps
 * producing the rest ("while the next byte is being accessed, the EX
 * unit can perform on the first data byte", section 4).
 *
 * Concrete designs override plan() to supply per-instruction stage
 * occupancies and the stage roles (where operands are consumed,
 * where branches resolve, where results become forwardable).
 *
 * The engine has two halves. A QuantaRecorder runs the
 * design-independent front half — memory hierarchy, serial ALU,
 * significance classification, non-latch activity — once per quanta
 * group and writes a SharedQuanta record. Every design's
 * InOrderPipeline runs the back half from that record through one
 * consume body (SharedReplayModel): plan(), latch scaling and the
 * recurrence.
 */

#ifndef SIGCOMP_PIPELINE_PIPELINE_H_
#define SIGCOMP_PIPELINE_PIPELINE_H_

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "cpu/trace.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "mem/main_memory.h"
#include "pipeline/activity.h"
#include "pipeline/predictor.h"
#include "sigcomp/compressed_word.h"
#include "sigcomp/instr_compress.h"
#include "sigcomp/pc_increment.h"
#include "sigcomp/serial_alu.h"

namespace sigcomp::pipeline
{

/** Maximum pipeline depth across all implementations. */
constexpr unsigned maxStages = 8;

/** Shared configuration for all pipeline models. */
struct PipelineConfig
{
    sig::Encoding encoding = sig::Encoding::Ext3;
    mem::HierarchyParams memory{};
    /** Blocking EX occupancy of multiplies/divides (all designs). */
    unsigned multCycles = 4;
    unsigned divCycles = 12;
    /** Instruction compressor (funct ranking); profiled per suite. */
    sig::InstrCompressor compressor =
        sig::InstrCompressor::withDefaultRanking();
    /** Front-end branch prediction (paper future work; default off:
     * the paper's machines stall on every control transfer). */
    PredictorKind predictor = PredictorKind::None;
    unsigned phtEntries = 512;
    unsigned btbEntries = 128;
};

/**
 * Stall-cycle attribution (drives the section-5 bottleneck study).
 *
 * Counts are per-stage wait cycles: one instruction can wait at
 * several stages, and waits can overlap across instructions in
 * flight, so the total is an attribution measure — it can exceed
 * the end-to-end cycle difference from an ideal pipeline.
 */
struct StallBreakdown
{
    Count controlCycles = 0;    ///< fetch waiting on branch/jump resolve
    Count dataHazardCycles = 0; ///< operand (incl. load-use) waits
    Count structuralCycles = 0; ///< stage busy with previous instruction
    Count icacheMissCycles = 0; ///< extra fetch latency
    Count dcacheMissCycles = 0; ///< extra memory latency

    Count
    total() const
    {
        return controlCycles + dataHazardCycles + structuralCycles +
               icacheMissCycles + dcacheMissCycles;
    }

    bool operator==(const StallBreakdown &) const = default;
};

/** Final metrics of one pipeline run. */
struct PipelineResult
{
    std::string name;
    DWord instructions = 0;
    Cycle cycles = 0;
    StallBreakdown stalls;
    ActivityTotals activity;
    PredictorStats predictor;
    mem::CacheStats l1i;
    mem::CacheStats l1d;
    mem::CacheStats l2;

    double
    cpi() const
    {
        return instructions ? static_cast<double>(cycles) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * Per-instruction, per-design stage schedule produced by plan().
 */
struct TimingPlan
{
    unsigned numStages = 5;
    /** Occupancy per stage (cycles), >= 1. */
    std::array<unsigned, maxStages> dur{};
    /** Cycles until the first chunk is available downstream. */
    std::array<unsigned, maxStages> lead{};
    /** Stage whose START waits for source operands. */
    unsigned consumeStage = 2;
    /** Control transfers redirect fetch after the END of this stage. */
    unsigned resolveStage = 2;
    /** ALU/other results are forwardable from this stage. */
    unsigned readyStage = 2;
    /** Load results are forwardable from this stage. */
    unsigned loadReadyStage = 3;
    /** Streamed forwarding: consumers may start one cycle after the
     * producing stage starts (chunkwise); otherwise they wait for its
     * end. */
    bool streamForward = false;
    /** Latch boundaries this instruction actually traverses. */
    unsigned latchBoundaries = 4;
};

/**
 * Encoding-dependent per-instruction quantities shared by the
 * concrete designs' plan() implementations and by the activity
 * accounting.
 */
struct InstrQuanta
{
    unsigned fetchBytes = 4;   ///< compressed instruction bytes (3/4)
    unsigned srcChunks = 0;    ///< max significant chunks over sources
    unsigned exChunks = 0;     ///< ALU work chunks (0 = no ALU use)
    unsigned exWorkBytes = 0;  ///< ALU activity bytes
    unsigned memChunks = 0;    ///< data chunks moved by a load/store
    unsigned resChunks = 0;    ///< significant chunks of the result
    bool isMult = false;
    bool isDiv = false;
    Cycle ifExtra = 0;         ///< I-side miss/TLB extra cycles
    Cycle memExtra = 0;        ///< D-side miss/TLB extra cycles
    unsigned pcChangedBlocks = 1;
    unsigned pcRippleExtra = 0; ///< serial PC increment overflow cycles
    bool redirect = false;      ///< control transfer

    bool operator==(const InstrQuanta &) const = default;
};

/**
 * Per-instruction helpers of the quanta front half, shared by the
 * recorder (QuantaRecorder::compute) and the consumers of a cached
 * record (SharedQuanta::Decoder), so each formula exists once.
 */
namespace quanta_detail
{

/** Chunks of a value under an encoding. */
inline unsigned
chunksOf(Word v, sig::Encoding enc)
{
    return sig::significantBytesUnder(v, enc) / sig::chunkBytes(enc);
}

/** Chunks moved by a memory access of @p bytes with datum @p v. */
inline unsigned
memChunksOf(Word v, unsigned bytes, sig::Encoding enc)
{
    const unsigned cb = sig::chunkBytes(enc);
    if (bytes <= cb)
        return 1;
    // Sub-word accesses compress within their own width: a halfword
    // whose upper byte is a sign fill moves one byte.
    Word extended = v;
    if (bytes == 2)
        extended = signExtend(v, 16);
    const unsigned full = divCeil(bytes, cb);
    return std::min(full, chunksOf(extended, enc));
}

/**
 * Significant bytes under @p enc per Ext3 tag (DynInstr::sigTags
 * nibbles). The Ext3 pattern of a word determines every encoding's
 * count exactly: Ext3 keeps the tagged bytes (popcount), Ext2 keeps
 * the low-order run up to the highest tagged byte (bit_width), and
 * Half1 keeps the upper halfword exactly when either of its bytes is
 * tagged. Entry 0 (no tag) is never consulted
 * — untagged operands classify on the spot.
 */
constexpr std::array<std::uint8_t, 16>
tagBytesTable(sig::Encoding enc)
{
    std::array<std::uint8_t, 16> t{};
    for (unsigned m = 1; m < 16; ++m) {
        unsigned bytes = 0;
        switch (enc) {
          case sig::Encoding::Ext3:
            bytes = static_cast<unsigned>(std::popcount(m));
            break;
          case sig::Encoding::Ext2:
            bytes = static_cast<unsigned>(std::bit_width(m));
            break;
          case sig::Encoding::Half1:
            bytes = (m & 0b1100u) ? 4 : 2;
            break;
        }
        t[m] = static_cast<std::uint8_t>(bytes);
    }
    return t;
}

/**
 * The encoding-dependent constants of the per-instruction formulas,
 * resolved once per recorder or per replay block instead of once per
 * instruction.
 */
struct EncodingParams
{
    explicit constexpr EncodingParams(sig::Encoding e)
        : enc(e), extBits(sig::extensionBits(e)),
          chunkBytes(sig::chunkBytes(e)), tagBytes(tagBytesTable(e))
    {
    }

    sig::Encoding enc;
    unsigned extBits;
    unsigned chunkBytes;
    std::array<std::uint8_t, 16> tagBytes;
};

/** Significant bytes of the three register-file values. */
struct OperandBytes
{
    unsigned rs, rt, res;
};

/**
 * Significance counts of @p di's register-file values under the
 * encoding: via the tags replay fills in (the tag table is exact) and
 * per-word classification when there are none (live simulation) —
 * bit-identical either way.
 */
inline OperandBytes
operandBytes(const cpu::DynInstr &di, const EncodingParams &ep)
{
    const unsigned tags = di.sigTags;
    if (tags != 0) {
        return {ep.tagBytes[tags & 0xFu], ep.tagBytes[(tags >> 4) & 0xFu],
                ep.tagBytes[(tags >> 8) & 0xFu]};
    }
    return {sig::significantBytesUnder(di.srcRs, ep.enc),
            sig::significantBytesUnder(di.srcRt, ep.enc),
            sig::significantBytesUnder(di.result, ep.enc)};
}

/**
 * The latch bits of one instruction that its quanta decide:
 * instruction + PC, and store data. Of the quanta it reads only
 * fetchBytes, pcChangedBlocks and memChunks.
 */
inline Count
latchQuantaBits(const isa::DecodedInstr &dec, unsigned fetch_bytes,
                unsigned pc_changed_blocks, unsigned mem_chunks,
                const EncodingParams &ep)
{
    const unsigned cb = ep.chunkBytes;
    Count latch_c = 8 * fetch_bytes + 1 + pc_changed_blocks * 8 * cb;
    if (dec.isStore)
        latch_c += 8 * mem_chunks * cb + ep.extBits;
    return latch_c;
}

/**
 * The latch bits of one instruction's register-file values: its
 * operands, and its result twice (executed and written back).
 */
inline Count
latchOperandBits(const isa::DecodedInstr &dec, const OperandBytes &ob,
                 const EncodingParams &ep)
{
    const unsigned eb = ep.extBits;
    Count latch_c = 0;
    if (dec.readsRs)
        latch_c += 8 * ob.rs + eb;
    if (dec.readsRt)
        latch_c += 8 * ob.rt + eb;
    if (dec.writesDest && dec.dest != isa::reg::zero)
        latch_c += 2 * (8 * ob.res + (ob.res ? eb : 0));
    return latch_c;
}

/**
 * Latch bits of one instruction before the design's boundary scaling
 * (addLatch, the only design-dependent piece of the activity
 * accounting): the quanta's part and the operands' part.
 */
inline Count
latchBaseBits(const isa::DecodedInstr &dec, unsigned fetch_bytes,
              unsigned pc_changed_blocks, unsigned mem_chunks,
              const OperandBytes &ob, const EncodingParams &ep)
{
    return latchQuantaBits(dec, fetch_bytes, pc_changed_blocks, mem_chunks,
                           ep) +
           latchOperandBits(dec, ob, ep);
}

} // namespace quanta_detail

/**
 * Design-independent per-instruction replay record.
 *
 * Everything a QuantaRecorder produces — hierarchy outcomes, ALU
 * occupancy, significance classification and the non-latch activity
 * accounting — depends only on the trace, the encoding, the memory
 * geometry, and the instruction compressor, not on the concrete
 * design. During trace replay one recorder per quanta key writes this
 * front half once, unless the TraceBuffer already caches the record,
 * and every pipeline of that key — in this study or any later one —
 * consumes it (retireBlockShared): latch scaling, plan() and
 * schedule() only. A seven-design CPI study does the quanta work
 * once, not seven times.
 *
 * The record holds no insignificant bits (the paper's rule applied
 * to the simulator's own state). A static instruction almost always
 * gets the same entry on every dynamic instance, so the record keeps
 * only what the static instruction cannot predict:
 *  - the dense Entry bit-packs the dynamic fields (layout: Field);
 *    the record's few dozen distinct entries form one dictionary,
 *    in order of first use, so equal entry streams give equal
 *    records;
 *  - per instruction, one hit bit: set when its entry equals the
 *    entry of the previous dynamic instance of the same static
 *    instruction (before its first instance a static instruction
 *    predicts the all-zero entry); 95.6% of the suite's instructions
 *    hit;
 *  - per miss-predicted instruction, an escape: its entry's
 *    dictionary index, escapeBits() wide, packed low bit first;
 *  - what the decoded instruction determines (isMult, isDiv) is
 *    not stored — the Cursor reads it from DynInstr::dec;
 *  - hierarchy latencies, almost always zero, live in the sparse
 *    index-sorted miss list, each block remembering where its misses
 *    start;
 *  - the pre-scaling latch bit count is not stored — the Decoder
 *    recomputes it with the recorder's own formula
 *    (quanta_detail::latchBaseBits) from the operand significance,
 *    once per block for every pipeline of the quanta group, while it
 *    decodes the block's dense entries (a hit reuses its last
 *    instance's quanta part, quanta_detail::latchQuantaBits).
 * Decoding is sequential: the per-static-instruction predictions are
 * state a Decoder carries from block to block.
 */
class SharedQuanta
{
  public:
    /** Dense per-instruction entry: the dynamic quanta, bit-packed. */
    using Entry = std::uint32_t;

    /** Fields of an Entry, packed low bit first in this order. */
    enum Field : unsigned
    {
        FetchBytes,
        SrcChunks,
        ExChunks,
        ExWorkBytes,
        MemChunks,
        ResChunks,
        PcChangedBlocks,
        PcRippleExtra,
        Redirect,
        NumFields,
    };

    /**
     * Bit width of each Field: chunk counts reach 4, ALU work bytes 8
     * (multiply/divide), the PC ripple 3.
     */
    static constexpr std::array<unsigned, NumFields> fieldBits = {
        3, 3, 3, 4, 3, 3, 3, 2, 1};
    static constexpr std::array<const char *, NumFields> fieldNames = {
        "fetchBytes",  "srcChunks",       "exChunks",
        "exWorkBytes", "memChunks",       "resChunks",
        "pcChangedBlocks", "pcRippleExtra", "redirect"};

    /** Bit offset of each Field within an Entry. */
    static constexpr std::array<unsigned, NumFields> fieldShift = [] {
        std::array<unsigned, NumFields> shift{};
        for (unsigned f = 1; f < NumFields; ++f)
            shift[f] = shift[f - 1] + fieldBits[f - 1];
        return shift;
    }();

    /** Bits of an Entry in use; the rest are zero. */
    static constexpr unsigned entryBits =
        fieldShift[NumFields - 1] + fieldBits[NumFields - 1];
    static_assert(entryBits <= 8 * sizeof(Entry));
    static_assert(sizeof(Entry) <= 4, "the dense entry is four bytes");

    static constexpr unsigned
    field(Entry e, Field f)
    {
        return (e >> fieldShift[f]) & ((1u << fieldBits[f]) - 1);
    }

    /**
     * Pack the dynamic fields of @p q. Fatal when a field does not fit
     * its width (never truncates); the latencies go to the miss list.
     */
    static Entry pack(const InstrQuanta &q);

    /** One instruction with a non-zero hierarchy latency. */
    struct Miss
    {
        std::uint32_t index; ///< record index of the instruction
        std::uint32_t ifExtra;
        std::uint32_t memExtra;

        bool operator==(const Miss &) const = default;
    };

    /**
     * Writes a record's hit bits, dictionary and escapes from its
     * dense entries, block by block. Holds the per-static-instruction
     * predictions and, until finish(), the escapes unpacked (their
     * width is known only once the dictionary is complete). One
     * Encoder writes one record.
     */
    class Encoder
    {
      public:
        /** An encoder over @p program's static instructions. */
        explicit Encoder(const isa::Program &program);

        /**
         * Append @p block, the next instructions of @p rec, whose
         * dense entries are @p entries.
         */
        void append(SharedQuanta &rec, std::span<const cpu::DynInstr> block,
                    std::span<const Entry> entries);

        /** Pack the escapes into @p rec: the stream is complete. */
        void finish(SharedQuanta &rec);

      private:
        Addr textStart_;
        /** Per static instruction: the entry of its last instance. */
        std::vector<Entry> last_;
        std::vector<std::uint32_t> escapes_;
    };

    /**
     * Decodes a record block after block, from its first instruction
     * on: rebuilds each block's dense entries and the pre-scaling
     * latch bit count of each instruction. A replay of a cached record
     * runs it once per block per quanta group (a recording replay
     * takes the recorder's values instead); every pipeline of the
     * group then consumes the result (retireBlockShared).
     */
    class Decoder
    {
      public:
        /**
         * A decoder of @p rec, recorded over @p program, under the
         * record's encoding @p enc. @p rec must outlive it.
         */
        Decoder(const SharedQuanta &rec, const isa::Program &program,
                sig::Encoding enc);

        /**
         * Decode @p block, the next instructions of the record, into
         * @p entries and @p latch.
         */
        void expandBlock(std::span<const cpu::DynInstr> block,
                         std::vector<Entry> &entries,
                         std::vector<Count> &latch);

      private:
        /** What a static instruction's last instance decoded to. */
        struct Last
        {
            Entry entry;
            /** quanta_detail::latchQuantaBits() of the entry. */
            std::uint32_t latchBits;
        };

        const SharedQuanta &rec_;
        quanta_detail::EncodingParams params_;
        Addr textStart_;
        /** Per static instruction: its last instance's entry. */
        std::vector<Last> last_;
        /** Record index of the next instruction. */
        std::size_t index_ = 0;
        /** Bit offset of the next escape. */
        std::size_t escapeAt_ = 0;
    };

    /**
     * Rebuilds the InstrQuanta of one block's instructions, in stream
     * order: the block's dense entries (the Decoder's, or the
     * recorder's), the decoded instruction's static fields, and the
     * miss list under a cursor.
     */
    class Cursor
    {
      public:
        /**
         * Block @p block_index of @p rec, from record index @p base,
         * whose dense entries are @p entries.
         */
        Cursor(const SharedQuanta &rec, std::size_t base,
               std::size_t block_index, std::span<const Entry> entries)
            : entry_(entries.data()), index_(base),
              miss_(rec.misses.data() + rec.blockMissStart[block_index]),
              missEnd_(rec.misses.data() + rec.misses.size()),
              missAt_(nextMissAt())
        {
        }

        /** Quanta of @p di, the next instruction of the block. */
        InstrQuanta next(const cpu::DynInstr &di);

      private:
        /** Record index of the next miss; SIZE_MAX once exhausted. */
        std::size_t
        nextMissAt() const
        {
            return miss_ != missEnd_ ? miss_->index : SIZE_MAX;
        }

        const Entry *entry_;
        /** Record index of the next instruction. */
        std::size_t index_;
        const Miss *miss_;
        const Miss *missEnd_;
        /** nextMissAt(), kept so each instruction costs one compare. */
        std::size_t missAt_;
    };

    /** Instructions the record covers. */
    std::size_t size() const { return instructions; }

    /** Width of one escape: enough bits for any dictionary index. */
    unsigned
    escapeBits() const
    {
        return dict.size() > 1 ? static_cast<unsigned>(std::bit_width(
                                     dict.size() - 1))
                               : 0;
    }

    /** Instructions the record covers. */
    std::size_t instructions = 0;
    /** Per instruction, low bit first: its entry repeats the last
     * instance's. */
    std::vector<std::uint64_t> hits;
    /** The distinct entries, in order of first use. */
    std::vector<Entry> dict;
    /** Per miss-predicted instruction, low bit first: the dictionary
     * index of its entry, escapeBits() wide. */
    std::vector<std::uint64_t> escapes;
    /** Instructions with a non-zero ifExtra or memExtra, by index. */
    std::vector<Miss> misses;
    /** Per replay block: index into misses of its first miss. */
    std::vector<std::uint32_t> blockMissStart;
    /**
     * Shared (non-latch) activity delta per replay block; the latch
     * category stays zero — it is design-dependent and consumers
     * compute it per instruction.
     */
    std::vector<ActivityTotals> blockDelta;
    /** Final hierarchy statistics of the recording pass. */
    mem::CacheStats l1i, l1d, l2;

    /** Approximate heap footprint in bytes. */
    std::size_t
    bytes() const
    {
        return hits.capacity() * sizeof(std::uint64_t) +
               dict.capacity() * sizeof(Entry) +
               escapes.capacity() * sizeof(std::uint64_t) +
               misses.capacity() * sizeof(Miss) +
               blockMissStart.capacity() * sizeof(std::uint32_t) +
               blockDelta.capacity() * sizeof(ActivityTotals);
    }

  private:
    /** Cold out-of-line panic of pack(): field @p f holds @p v. */
    [[noreturn, gnu::cold, gnu::noinline]] static void
    panicFieldRange(unsigned f, unsigned v);
};

/**
 * The design-independent front half of retirement: drives the memory
 * hierarchy and the serial ALU, classifies significance, and
 * accounts every activity category except latches. Its output per
 * instruction is an InstrQuanta plus the pre-scaling latch bit
 * count (quanta_detail::latchBaseBits); every design's scheduler
 * consumes that.
 *
 * Trace replay builds one recorder per quanta group, and only when
 * the trace caches no record for the group's key; it writes the
 * SharedQuanta record every pipeline of the group consumes — the
 * predicted entry stream and the miss list, not the latch base, which
 * it hands to the group's pipelines per block with the block's dense
 * entries and SharedQuanta::Decoder recomputes for a cached record. The
 * live path (InOrderPipeline::bind) gives each pipeline its own
 * recorder and feeds the unpacked quanta straight to the scheduler. The
 * process registry's `pipeline.quanta_recorders` counter counts the
 * recorders built.
 */
class QuantaRecorder
{
  public:
    /**
     * Bind to @p program. Cache-fill contents for the activity
     * accounting are sampled from @p memory, which must be the image
     * the functional core mutates. Without @p memory the recorder
     * owns an image initialised from the program's data segment and
     * applies the replayed trace's stores itself (capture applied
     * them while executing), so it sees exactly the bytes the live
     * run saw at that point in the stream.
     */
    QuantaRecorder(const PipelineConfig &config,
                   const isa::Program &program,
                   const mem::MainMemory *memory = nullptr);

    /**
     * Front half of one instruction: its quanta, with @p latch_base
     * set to its latch bit count before the design's boundary
     * scaling.
     */
    InstrQuanta compute(const cpu::DynInstr &di, Count &latch_base);

    /**
     * Append @p block to @p rec: each instruction's dense entry goes
     * to @p entries, the group's block scratch, and through the
     * record's Encoder into its hit bits and escapes; a miss-list
     * entry per instruction with a hierarchy latency, and the block's
     * miss-list start and shared activity delta. Each instruction's
     * latch base goes to @p latch_base for the group's pipelines (the
     * record keeps none; SharedQuanta::Decoder recomputes the same
     * entries and latch bases from it).
     */
    void recordBlock(std::span<const cpu::DynInstr> block,
                     SharedQuanta &rec,
                     std::vector<SharedQuanta::Entry> &entries,
                     std::vector<Count> &latch_base);

    /**
     * Complete @p rec: pack its escapes, store the hierarchy's final
     * statistics and trim its arrays to size.
     */
    void finish(SharedQuanta &rec);

    /**
     * Non-latch activity: of the last recordBlock(), or since
     * construction on the live path (compute() only).
     */
    const ActivityTotals &activity() const { return activity_; }

    const mem::MemoryHierarchy &hierarchy() const { return hierarchy_; }

  private:
    /**
     * Account every activity category except latches. @p ob holds
     * the operand values' significance counts under the encoding,
     * computed once by compute() (from DynInstr::sigTags when
     * replay filled them).
     */
    void accountActivity(const cpu::DynInstr &di, const InstrQuanta &q,
                         const sig::AluReport &alu,
                         const mem::MemOutcome &ifetch,
                         const mem::MemOutcome &daccess, bool has_mem,
                         const quanta_detail::OperandBytes &ob);

    /** Re-apply one trace store to the owned memory image. */
    void applyStore(const cpu::DynInstr &di);

    /** Compressed fetch width of the text word at @p addr (memo). */
    unsigned
    fetchWidthAt(Addr addr) const
    {
        return fetchWidth_[(addr - program_.textStart()) / wordBytes];
    }

    /** The encoding and its constants. */
    quanta_detail::EncodingParams params_;
    sig::SerialAlu alu_;
    mem::MemoryHierarchy hierarchy_;
    const isa::Program &program_;
    /** Owned evolving memory image in replay mode. */
    std::unique_ptr<mem::MainMemory> ownMemory_;
    const mem::MainMemory *memory_;

    /**
     * Per-static-instruction compressed fetch width, memoised at
     * construction (fetchBytes() permutes/recodes the whole word,
     * far too much work to redo for every dynamic instance).
     */
    std::vector<std::uint8_t> fetchWidth_;

    ActivityTotals activity_;
    /** Writes the record's hit bits, dictionary and escapes. */
    SharedQuanta::Encoder encoder_;
};

/**
 * Base class of every design: the reservation-recurrence scheduler
 * and its stall, latch-activity and predictor state; concrete
 * designs provide plan() and derive through SharedReplayModel, which
 * supplies the one per-instruction consume body.
 *
 * Replay feeds it SharedQuanta records (replayPipelines); the live
 * path feeds it a retirement stream through the TraceSink interface
 * after bind(). Either way, call result() at the end.
 */
class InOrderPipeline : public cpu::TraceSink
{
  public:
    InOrderPipeline(std::string name, PipelineConfig config);

    /**
     * Bind for live retirement: the pipeline gets its own
     * QuantaRecorder over @p program, sampling cache fills from
     * @p memory (the image the functional core mutates). Must be
     * called before the first retire().
     */
    void bind(const isa::Program &program, const mem::MainMemory &memory);

    // ---- shared-quanta replay plumbing (used by replayPipelines) --

    /**
     * Fingerprint of everything the design-independent quanta depend
     * on: encoding, memory geometry, and compressor ranking. Two
     * pipelines with equal keys may share one SharedQuanta record.
     */
    std::string quantaKey() const;

    /**
     * Retire @p block from a SharedQuanta record of this pipeline's
     * quanta key over the same block structure. @p base is the
     * record index of block[0], @p block_index the block's delta
     * index; @p entries and @p latch_base are the block's dense
     * entries and latch bases (SharedQuanta::Decoder, or the
     * recorder's), expanded once per block for the whole quanta
     * group, so every pipeline reads them from L1 rather than the
     * record. Final state is bit-identical to live retirement.
     */
    virtual void
    retireBlockShared(std::span<const cpu::DynInstr> block,
                      const SharedQuanta &rec, std::size_t base,
                      std::size_t block_index,
                      std::span<const SharedQuanta::Entry> entries,
                      std::span<const Count> latch_base) = 0;

    /**
     * Adopt the recording pass's hierarchy statistics so result()
     * reports real cache behaviour (a replaying pipeline drives no
     * hierarchy of its own).
     */
    void adoptSharedStats(const SharedQuanta &rec);

    /**
     * Adopt a complete memoised result: result() returns a copy of
     * @p r (with this pipeline's name) instead of locally accumulated
     * state. Used by replayPipelines() when a bit-identical earlier
     * replay of the same design/configuration/trace already produced
     * the result — the pipeline then skips the replay entirely.
     */
    void adoptResult(const PipelineResult &r);

    /**
     * True until the pipeline has consumed any instruction or adopted
     * a result: the state in which a memoised result is exactly what
     * a replay would produce, and in which a fresh full replay's
     * result is safe to memoise.
     */
    bool pristine() const { return instructions_ == 0 && !adoptedResult_; }

    /** An observer makes replays side-effectful: never memoise them. */
    bool observed() const { return observer_ != nullptr; }

    /**
     * True when this pipeline's plan() depends only on the
     * constructor configuration and the per-instruction quanta — the
     * precondition for memoising a full-trace replay result on the
     * trace (replayPipelines). Defaults to false so a custom
     * subclass with per-instance runtime state (a mock with a
     * std::function plan, an adaptive design) can never adopt
     * another instance's memoised result; the library's fixed
     * designs override it to true.
     */
    virtual bool planIsPure() const { return false; }

    /** Finalize and fetch results (idempotent). */
    PipelineResult result();

    const std::string &name() const { return name_; }
    const PipelineConfig &config() const { return config_; }

    /**
     * Per-instruction schedule callback: invoked after each
     * instruction is scheduled with its per-stage start/end cycles
     * (pipeline-diagram tooling and white-box tests).
     */
    using ScheduleObserver = std::function<void(
        const cpu::DynInstr &di, const TimingPlan &plan,
        const std::array<Cycle, maxStages> &start,
        const std::array<Cycle, maxStages> &end)>;

    void
    setScheduleObserver(ScheduleObserver obs)
    {
        observer_ = std::move(obs);
    }

  protected:
    /**
     * Per-instruction schedule for this design; its latchBoundaries
     * field scales the instruction's latch activity.
     */
    virtual TimingPlan plan(const cpu::DynInstr &di,
                            const InstrQuanta &q) = 0;

    /** The live path's recorder; fatal before bind(). */
    QuantaRecorder &
    liveRecorder()
    {
        SC_ASSERT(live_ != nullptr,
                  "pipeline '", name_, "' not bound to a program");
        return *live_;
    }

    /**
     * Check that @p rec, @p entries and @p latch_base cover the
     * @p size instructions from @p base and block @p block_index, and
     * account the block's shared activity.
     */
    void
    beginSharedBlock(const SharedQuanta &rec, std::size_t base,
                     std::size_t size, std::size_t block_index,
                     std::span<const SharedQuanta::Entry> entries,
                     std::span<const Count> latch_base)
    {
        SC_ASSERT(base + size <= rec.size() &&
                      block_index < rec.blockDelta.size() &&
                      block_index < rec.blockMissStart.size() &&
                      entries.size() == size && latch_base.size() == size,
                  "shared quanta record does not cover this block");
        activity_ += rec.blockDelta[block_index];
    }

    /** Scale and account the latch activity of one instruction. */
    void
    addLatch(Count base, unsigned boundaries)
    {
        Count latch_c = base + latchCtrlBits * boundaries;
        latch_c = latch_c * boundaries / 4;
        activity_.latch.add(latch_c, baselineLatchBits);
    }

    /**
     * Validate a plan before scheduling it: stage count within
     * bounds and every stage-role index inside the plan's depth
     * (schedule()'s start/end arrays are only written up to
     * numStages, so an out-of-range readyStage would read
     * indeterminate cycles), so a custom design's bad plan dies
     * loudly instead of publishing garbage cycles. Kept out of
     * schedule() itself so the scheduler stays within the inliner's
     * budget in the replay loops; the panic is out of line.
     */
    static void
    checkPlan(const TimingPlan &p)
    {
        const unsigned max_role =
            std::max(std::max(p.consumeStage, p.resolveStage),
                     std::max(p.readyStage, p.loadReadyStage));
        if (p.numStages - 2 > maxStages - 2 ||
            max_role >= p.numStages) [[unlikely]] {
            panicBadTimingPlan();
        }
    }

    /**
     * The reservation-recurrence scheduler. Defined inline: it runs
     * once per instruction per design on every path, and inlining it
     * into the (CRTP-devirtualised) consume body keeps the scheduler
     * state in registers across the block loop instead of
     * round-tripping through memory on an out-of-line call.
     */
    void
    schedule(const cpu::DynInstr &di, const InstrQuanta &q,
             const TimingPlan &plan)
    {
        const isa::DecodedInstr &dec = *di.dec;
        // Uninitialised on purpose (this runs once per instruction per
        // design): only stages [0, numStages) are ever read below. The
        // observer interface exposes the whole arrays, so zero the tail
        // for it on that (cold) path only.
        std::array<Cycle, maxStages> start;
        std::array<Cycle, maxStages> end;
        if (observer_) {
            start.fill(0);
            end.fill(0);
        }

        // Operand readiness (forwarding network).
        Cycle operand_ready = 0;
        if (dec.readsRs)
            operand_ready = std::max(operand_ready, regReady_[di.inst().rs()]);
        if (dec.readsRt)
            operand_ready = std::max(operand_ready, regReady_[di.inst().rt()]);
        if (dec.readsHilo)
            operand_ready = std::max(operand_ready, hiloReady_);

        // Fetch.
        const Cycle if_structural = prevEnd_[0];
        start[0] = std::max(if_structural, redirectReady_);
        if (redirectReady_ > if_structural)
            stalls_.controlCycles += redirectReady_ - if_structural;
        stalls_.icacheMissCycles += q.ifExtra;
        end[0] = start[0] + plan.dur[0];

        for (unsigned s = 1; s < plan.numStages; ++s) {
            const Cycle flow = start[s - 1] + plan.lead[s - 1];
            const Cycle structural = prevEnd_[s];
            const Cycle hazard =
                (s == plan.consumeStage) ? operand_ready : 0;
            start[s] = std::max({flow, structural, hazard});
            // Stall attribution, branchless: the waits are data-dependent
            // and unpredictable, so both deltas are computed and masked
            // by their win condition instead of branched over.
            const Cycle over_s = structural - std::max(flow, hazard);
            const Cycle over_h = hazard - std::max(flow, structural);
            stalls_.structuralCycles +=
                over_s * (structural > flow && structural >= hazard);
            stalls_.dataHazardCycles +=
                over_h * (hazard > flow && hazard > structural);
            end[s] = start[s] + plan.dur[s];
        }
        stalls_.dcacheMissCycles += q.memExtra;

        // Publish scheduler state. Stages this design never reaches are
        // zeroed only when a deeper plan preceded this one, so the
        // common fixed-depth case publishes exactly numStages entries.
        for (unsigned s = 0; s < plan.numStages; ++s)
            prevEnd_[s] = end[s];
        for (unsigned s = plan.numStages; s < prevNumStages_; ++s)
            prevEnd_[s] = 0;
        prevNumStages_ = plan.numStages;

        if (dec.writesDest && dec.dest != isa::reg::zero) {
            const unsigned rs =
                dec.isLoad ? plan.loadReadyStage : plan.readyStage;
            regReady_[dec.dest] = plan.streamForward
                                      ? start[rs] + plan.lead[rs]
                                      : end[rs];
        }
        if (dec.cls == isa::InstrClass::Mult ||
            dec.cls == isa::InstrClass::Div)
            hiloReady_ = end[plan.readyStage];
        if (dec.isControl) {
            const bool correct = predictor_.predictAndUpdate(
                di.pc, di.taken, di.nextPc, dec.isCondBranch);
            // A correct prediction keeps fetch on the right path: no
            // redirect bubble. A wrong one redirects after resolution.
            if (!correct)
                redirectReady_ = end[plan.resolveStage];
        }

        lastCycle_ = std::max(lastCycle_, end[plan.numStages - 1]);
        ++instructions_;

        if (observer_)
            observer_(di, plan, start, end);
    }

  private:
    /** Cold out-of-line panic for the timing-plan validation. */
    [[noreturn, gnu::cold, gnu::noinline]] static void
    panicBadTimingPlan();

    std::string name_;
    PipelineConfig config_;
    BranchPredictor predictor_;
    ScheduleObserver observer_;
    /** Front half of the live path (bind()); null on replay. */
    std::unique_ptr<QuantaRecorder> live_;

    // Scheduler state.
    std::array<Cycle, maxStages> prevEnd_{};
    /** Depth of the previous plan (bounds the prevEnd_ tail zeroing). */
    unsigned prevNumStages_ = maxStages;
    std::array<Cycle, isa::numRegs> regReady_{};
    Cycle hiloReady_ = 0;
    Cycle redirectReady_ = 0;
    Cycle lastCycle_ = 0;

    DWord instructions_ = 0;
    StallBreakdown stalls_;
    /** Latch activity, plus the shared deltas of consumed blocks. */
    ActivityTotals activity_;

    // Hierarchy stats adopted from a SharedQuanta record.
    mem::CacheStats l1i_, l1d_, l2_;
    // Complete result adopted from a replay memo, if any.
    std::unique_ptr<PipelineResult> adoptedResult_;
};

/**
 * CRTP intermediary between InOrderPipeline and the concrete
 * designs: holds the one per-instruction consume body, which both
 * the shared block loop and the live retire() run. D::plan() binds
 * statically inside it, so it inlines into the block loop; designs
 * stay `class X : public SharedReplayModel<X>` with a
 * `friend SharedReplayModel<X>` so plan() remains protected.
 */
template <typename D>
class SharedReplayModel : public InOrderPipeline
{
  public:
    using InOrderPipeline::InOrderPipeline;

    void
    retire(const cpu::DynInstr &di) override
    {
        Count latch_base;
        const InstrQuanta q = liveRecorder().compute(di, latch_base);
        consume(di, q, latch_base);
    }

    void
    retireBlockShared(std::span<const cpu::DynInstr> block,
                      const SharedQuanta &rec, std::size_t base,
                      std::size_t block_index,
                      std::span<const SharedQuanta::Entry> entries,
                      std::span<const Count> latch_base) override
    {
        beginSharedBlock(rec, base, block.size(), block_index, entries,
                         latch_base);
        SharedQuanta::Cursor cursor(rec, base, block_index, entries);
        for (std::size_t j = 0; j < block.size(); ++j)
            consume(block[j], cursor.next(block[j]), latch_base[j]);
    }

  private:
    /** Back half of one instruction: plan, latch scaling, schedule. */
    void
    consume(const cpu::DynInstr &di, const InstrQuanta &q,
            Count latch_base)
    {
        const TimingPlan tp = static_cast<D *>(this)->D::plan(di, q);
        checkPlan(tp);
        addLatch(latch_base, tp.latchBoundaries);
        schedule(di, q, tp);
    }
};

// ---- inline implementations of the per-instruction front half ----
//
// compute()/accountActivity() run once per instruction of every
// recorded block; defining them here lets them inline into the
// record loop and the live retire().

inline InstrQuanta
QuantaRecorder::compute(const cpu::DynInstr &di, Count &latch_base)
{
    const sig::Encoding enc = params_.enc;
    const isa::DecodedInstr &dec = *di.dec;
    if (ownMemory_ && dec.isStore)
        applyStore(di);
    InstrQuanta q;

    // Significance counts of the three register-file values, computed
    // once here and shared with the activity accounting below.
    const quanta_detail::OperandBytes ob =
        quanta_detail::operandBytes(di, params_);
    const unsigned chunk_bytes = sig::chunkBytes(enc);

    // ---- fetch side -----------------------------------------------------
    q.fetchBytes = fetchWidthAt(di.pc);
    const mem::MemOutcome ifo = hierarchy_.instrFetch(di.pc);
    q.ifExtra = ifo.extraLatency;

    // ---- PC update ------------------------------------------------------
    const unsigned block_bits = 8 * chunk_bytes;
    q.redirect = dec.isControl && di.nextPc != di.pc + 4;
    q.pcChangedBlocks = sig::changedBlocks(di.pc, di.nextPc, block_bits);
    if (!q.redirect) {
        const int hi =
            sig::highestChangedBlock(di.pc, di.nextPc, block_bits);
        q.pcRippleExtra = hi > 0 ? static_cast<unsigned>(hi) : 0;
    }

    // ---- register sources -----------------------------------------------
    if (dec.readsRs)
        q.srcChunks = std::max(q.srcChunks, ob.rs / chunk_bytes);
    if (dec.readsRt)
        q.srcChunks = std::max(q.srcChunks, ob.rt / chunk_bytes);

    // ---- ALU work ---------------------------------------------------------
    // One flat dispatch on the decode-time AluOp memo instead of the
    // class/format/funct/opcode cascade (same cases, same order of
    // evaluation — aluOpOf() in isa/instruction.cpp is the mapping).
    bool uses_alu = true;
    sig::AluReport alu;
    switch (dec.aluOp) {
      case isa::AluOp::AddRR:
        alu = alu_.add(di.srcRs, di.srcRt);
        break;
      case isa::AluOp::SubRR:
        alu = alu_.sub(di.srcRs, di.srcRt);
        break;
      case isa::AluOp::AndRR:
        alu = alu_.logic(di.srcRs, di.srcRt, sig::LogicOp::And);
        break;
      case isa::AluOp::OrRR:
        alu = alu_.logic(di.srcRs, di.srcRt, sig::LogicOp::Or);
        break;
      case isa::AluOp::XorRR:
        alu = alu_.logic(di.srcRs, di.srcRt, sig::LogicOp::Xor);
        break;
      case isa::AluOp::NorRR:
        alu = alu_.logic(di.srcRs, di.srcRt, sig::LogicOp::Nor);
        break;
      case isa::AluOp::SltRR:
        alu = alu_.slt(di.srcRs, di.srcRt, false);
        break;
      case isa::AluOp::SltuRR:
        alu = alu_.slt(di.srcRs, di.srcRt, true);
        break;
      case isa::AluOp::MoveHiLo:
        alu = alu_.passThrough(dec.writesDest ? di.result
                                              : di.srcRs);
        break;
      case isa::AluOp::AddImm:
        alu = alu_.add(di.srcRs,
                       static_cast<Word>(di.inst().simm16()));
        break;
      case isa::AluOp::SltImm:
        alu = alu_.slt(di.srcRs,
                       static_cast<Word>(di.inst().simm16()), false);
        break;
      case isa::AluOp::SltuImm:
        alu = alu_.slt(di.srcRs,
                       static_cast<Word>(di.inst().simm16()), true);
        break;
      case isa::AluOp::AndImm:
        alu = alu_.logic(di.srcRs, di.inst().imm16(),
                         sig::LogicOp::And);
        break;
      case isa::AluOp::OrImm:
        alu = alu_.logic(di.srcRs, di.inst().imm16(),
                         sig::LogicOp::Or);
        break;
      case isa::AluOp::XorImm:
        alu = alu_.logic(di.srcRs, di.inst().imm16(),
                         sig::LogicOp::Xor);
        break;
      case isa::AluOp::Lui:
        alu = alu_.passThrough(di.result);
        break;
      case isa::AluOp::Shift:
        alu = alu_.shift(di.srcRt, di.result);
        break;
      case isa::AluOp::Mult:
        alu = alu_.multDiv(di.srcRs, di.srcRt, 0);
        q.isMult = true;
        break;
      case isa::AluOp::Div:
        alu = alu_.multDiv(di.srcRs, di.srcRt, 0);
        q.isDiv = true;
        break;
      case isa::AluOp::MemAdd: // address generation
        alu = alu_.add(di.srcRs,
                       static_cast<Word>(di.inst().simm16()));
        break;
      case isa::AluOp::CmpRR:
        alu = alu_.sub(di.srcRs, di.srcRt);
        break;
      case isa::AluOp::CmpRZero:
        alu = alu_.sub(di.srcRs, 0);
        break;
      case isa::AluOp::None:
        alu.workMask = 0;
        alu.workBytes = 0;
        uses_alu = false;
        break;
    }
    q.exChunks = uses_alu ? std::max(1u, alu.workChunks()) : 0;
    q.exWorkBytes = alu.workBytes;

    // ---- memory ------------------------------------------------------------
    if (dec.isLoad || dec.isStore) {
        const mem::MemOutcome dout =
            hierarchy_.dataAccess(di.memAddr, dec.isStore);
        q.memExtra = dout.extraLatency;
        q.memChunks =
            quanta_detail::memChunksOf(di.memData, dec.memBytes, enc);
        accountActivity(di, q, alu, ifo, dout, true, ob);
    } else {
        accountActivity(di, q, alu, ifo, mem::MemOutcome{}, false, ob);
    }
    // ---- result ------------------------------------------------------------
    if (dec.writesDest && dec.dest != isa::reg::zero)
        q.resChunks = ob.res / chunk_bytes;

    latch_base = quanta_detail::latchBaseBits(
        dec, q.fetchBytes, q.pcChangedBlocks, q.memChunks, ob, params_);
    return q;
}

inline void
QuantaRecorder::accountActivity(const cpu::DynInstr &di, const InstrQuanta &q,
                                const sig::AluReport &alu,
                                const mem::MemOutcome &ifetch,
                                const mem::MemOutcome &daccess,
                                bool has_mem,
                                const quanta_detail::OperandBytes &ob)
{
    const sig::Encoding enc = params_.enc;
    const unsigned eb = params_.extBits;
    const unsigned cb = params_.chunkBytes;
    const isa::DecodedInstr &dec = *di.dec;

    // Fetch: 3-4 bytes plus the fetch extension bit vs a full word.
    activity_.fetch.add(8 * q.fetchBytes + 1, 32);
    if (ifetch.l1Fill) {
        const unsigned line_words =
            hierarchy_.l1i().params().lineBytes / wordBytes;
        for (unsigned w = 0; w < line_words; ++w) {
            const Addr a =
                ifetch.fillLine + static_cast<Addr>(w * wordBytes);
            unsigned fb = 4;
            if (a >= program_.textStart() && a < program_.textEnd())
                fb = fetchWidthAt(a);
            activity_.fetch.add(8 * fb + 1 + ifillPermuteBits, 32);
        }
    }

    // Register file reads.
    if (dec.readsRs)
        activity_.rfRead.add(8 * ob.rs + eb, 32);
    if (dec.readsRt)
        activity_.rfRead.add(8 * ob.rt + eb, 32);

    // Register file write-back.
    if (dec.writesDest && dec.dest != isa::reg::zero)
        activity_.rfWrite.add(8 * ob.res + eb, 32);

    // ALU datapath (exChunks is 0 exactly when the ALU is unused).
    if (q.exChunks != 0)
        activity_.alu.add(8 * alu.workBytes, 32);

    // Data cache.
    if (has_mem) {
        activity_.dcData.add(8 * q.memChunks * cb + eb, 32);
        activity_.dcTag.add(hierarchy_.l1d().tagBits(),
                            hierarchy_.l1d().tagBits());
        auto account_line = [&](Addr line) {
            const unsigned line_words =
                hierarchy_.l1d().params().lineBytes / wordBytes;
            for (unsigned w = 0; w < line_words; ++w) {
                const Word v = memory_->readWord(line + w * wordBytes);
                activity_.dcData.add(
                    8 * sig::significantBytesUnder(v, enc) + eb, 32);
            }
            activity_.dcTag.add(hierarchy_.l1d().tagBits(),
                                hierarchy_.l1d().tagBits());
        };
        if (daccess.l1Fill)
            account_line(daccess.fillLine);
        if (daccess.writeback)
            account_line(daccess.victimLine);
    }

    // PC increment.
    activity_.pcInc.add(q.pcChangedBlocks * 8 * cb, 32);
}

inline SharedQuanta::Entry
SharedQuanta::pack(const InstrQuanta &q)
{
    const std::array<unsigned, NumFields> v = {
        q.fetchBytes,      q.srcChunks,     q.exChunks,
        q.exWorkBytes,     q.memChunks,     q.resChunks,
        q.pcChangedBlocks, q.pcRippleExtra, q.redirect ? 1u : 0u};
    Entry e = 0;
    for (unsigned f = 0; f < NumFields; ++f) {
        if (v[f] >> fieldBits[f] != 0) [[unlikely]]
            panicFieldRange(f, v[f]);
        e |= v[f] << fieldShift[f];
    }
    return e;
}

inline InstrQuanta
SharedQuanta::Cursor::next(const cpu::DynInstr &di)
{
    const isa::DecodedInstr &dec = *di.dec;
    const Entry e = *entry_++;
    InstrQuanta q;
    q.fetchBytes = field(e, FetchBytes);
    q.srcChunks = field(e, SrcChunks);
    q.exChunks = field(e, ExChunks);
    q.exWorkBytes = field(e, ExWorkBytes);
    q.memChunks = field(e, MemChunks);
    q.resChunks = field(e, ResChunks);
    q.pcChangedBlocks = field(e, PcChangedBlocks);
    q.pcRippleExtra = field(e, PcRippleExtra);
    q.redirect = field(e, Redirect) != 0;
    // What compute() derives from the decoded instruction alone.
    q.isMult = dec.aluOp == isa::AluOp::Mult;
    q.isDiv = dec.aluOp == isa::AluOp::Div;
    if (index_++ == missAt_) [[unlikely]] {
        q.ifExtra = miss_->ifExtra;
        q.memExtra = miss_->memExtra;
        ++miss_;
        missAt_ = nextMissAt();
    }
    return q;
}


} // namespace sigcomp::pipeline

#endif // SIGCOMP_PIPELINE_PIPELINE_H_
