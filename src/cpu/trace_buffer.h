/**
 * @file
 * Compact capture/replay representation of a dynamic instruction
 * trace.
 *
 * All of the paper's studies are functions of one retirement stream
 * per benchmark, so functional simulation only needs to happen once:
 * TraceBuffer records the stream in structure-of-arrays form and
 * TraceView replays it — into any number of sinks, any number of
 * times — in cache-friendly blocks through the batched
 * TraceSink::retireBlock() interface.
 *
 * Compactness comes from the static structure of the stream and
 * from the paper's own rule, applied to the trace itself: store only
 * the bits that carry information. A trace keeps two columns, the
 * decode index of every instruction and the loaded bytes of every
 * load; everything else replay re-executes.
 *  - the PC is not stored: a 32-bit decode index both names the
 *    pre-decoded static instruction and reconstructs pc/nextPc
 *    (nextPc of instruction i is the pc of instruction i+1);
 *  - operand values are not stored: they are a pure function of the
 *    load log, so replay rebuilds srcRs/srcRt by carrying one
 *    architectural register file (plus HI/LO) across its blocks;
 *  - results, effective addresses, store data and branch outcomes
 *    are not stored either: replay runs each instruction through
 *    execute() (cpu/execute.h), the functional core's own semantics,
 *    on the operands it rebuilt and, for a load, the bytes the load
 *    read (loadData, in stream order, read by cursor);
 *  - significance tags are not stored: replay classifies each
 *    result and memData as it materialises a block and carries the
 *    operands' tags in a second register file beside the values
 *    (DynInstr::sigTags), so a tag exists only where its value does;
 *  - both columns are held only as their store/codec.h streams
 *    (SigPack significant bytes, DeltaVarint or Raw per 4096-value
 *    block), exactly the bytes a segment file holds: capture encodes
 *    each value once as it retires, a save copies the streams, a
 *    load adopts them, and replay decodes one codec block at a time
 *    into its own scratch.
 *
 * Replay is bit-exact: the DynInstr records a TraceView materialises
 * are field-for-field identical to the ones the functional core
 * produced during capture (asserted in test_trace.cpp). Consumers
 * that sample the memory image (pipeline::QuantaRecorder) re-apply
 * the trace's stores themselves.
 */

#ifndef SIGCOMP_CPU_TRACE_BUFFER_H_
#define SIGCOMP_CPU_TRACE_BUFFER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/execute.h"
#include "cpu/functional_core.h"
#include "cpu/trace.h"
#include "isa/program.h"
#include "store/codec.h"

namespace sigcomp::store
{
class TraceSerializer;
}

namespace sigcomp::cpu
{

class TraceView;

/**
 * What replay and the store loader's stream check read of one static
 * instruction, packed into five bytes so the per-dynamic-instruction
 * loops stream through one dense table instead of the
 * (string-bearing) DecodedInstr records.
 */
struct InstrFacts
{
    /** Register read as srcRs, or noOperand. */
    std::uint8_t rs;
    /** Register read as srcRt, or noOperand. */
    std::uint8_t rt;
    /** Register written with a result, or noDest (also for $zero). */
    std::uint8_t dest;
    /** load | store. */
    std::uint8_t flags;
    /** What execute() does. */
    ExecOp op;

    /** Register-file slot that always reads 0 ("no operand"). */
    static constexpr std::uint8_t noOperand = isa::numRegs;
    /** Register-file slot that absorbs writes ("no destination"). */
    static constexpr std::uint8_t noDest = isa::numRegs + 1;
    /** Load: consumes one loadData entry. */
    static constexpr std::uint8_t load = 1;
    /** Store. */
    static constexpr std::uint8_t store = 2;
    /** Load or store: carries a memData tag. */
    static constexpr std::uint8_t memOp = load | store;

    static InstrFacts of(const isa::DecodedInstr &d);
};

/** One workload's full retirement stream in structure-of-arrays form. */
class TraceBuffer
{
  public:
    static constexpr DWord defaultMaxInstrs = 100'000'000;

    /**
     * Functionally simulate @p program once on a fresh memory image
     * and record every retired instruction.
     *
     * Fatal if the program fails its self-check; also fatal on
     * hitting @p max_instrs unless @p allow_truncation is set
     * (truncated traces replay fine and are used by the capped
     * benchmark smoke runs).
     *
     * @p cancel (optional) aborts the capture cooperatively: a
     * cancelled capture throws CancelledError — a partial recording
     * must never be mistaken for a trace, so there is nothing to
     * return. The cache layer catches it and leaves no entry behind.
     */
    static TraceBuffer capture(const isa::Program &program,
                               DWord max_instrs = defaultMaxInstrs,
                               bool allow_truncation = false,
                               const CancelToken *cancel = nullptr);

    /** Number of retired instructions recorded. */
    std::size_t size() const { return decIdx_.size(); }

    /** The program this trace was captured from (owned copy). */
    const isa::Program &program() const { return program_; }

    /** Functional run result of the capture (instruction count etc.). */
    const RunResult &runResult() const { return result_; }

    /** True when capture stopped at the instruction cap. */
    bool
    truncated() const
    {
        return result_.reason == StopReason::InstrLimit;
    }

    /**
     * Approximate heap footprint of the encoded columns, the decode
     * cache and the annexes, in bytes.
     */
    std::size_t memoryBytes() const;

    /** The annexes' share of memoryBytes(). Thread-safe. */
    std::size_t annexBytes() const;

    // ---- consumer annexes ------------------------------------------
    //
    // Replay consumers can derive expensive pure functions of the
    // trace (e.g. the pipelines' design-independent quanta record)
    // and cache them here, keyed by a consumer-chosen fingerprint,
    // so the derivation also happens once per process and dies with
    // the trace on eviction. Type-erased to keep the cpu layer
    // ignorant of consumer types.

    /** The annex stored under @p key, or nullptr. Thread-safe. */
    std::shared_ptr<void> annexGet(const std::string &key) const;

    /**
     * Store @p value (approx @p bytes heap use) under @p key unless
     * one is already present; returns the winning annex. Thread-safe.
     */
    std::shared_ptr<void> annexStoreIfAbsent(const std::string &key,
                                             std::shared_ptr<void> value,
                                             std::size_t bytes) const;

    /**
     * All annex keys starting with @p prefix, sorted. Thread-safe.
     * The store tier uses this to find the "quanta:" records worth
     * persisting; Session tests use it to observe warm-loaded ones.
     */
    std::vector<std::string> annexKeys(const std::string &prefix) const;

    /**
     * Number of TraceView::replay() passes made over this buffer.
     * This is the accounting behind the fused-plan acceptance
     * property: Session::run() with N studies registered must leave
     * this at exactly one per fresh trace, not N.
     */
    std::uint64_t replayCount() const;

  private:
    friend class TraceView;
    /** Store tier: saves and adopts the encoded columns. */
    friend class store::TraceSerializer;

    TraceBuffer() = default;

    /**
     * Empty buffer bound to @p program (decode cache and facts table
     * built) with an initialised annex store, ready for capture or
     * the store tier to fill in the recorded columns (AnnexStore is
     * only defined in trace_buffer.cpp).
     */
    static TraceBuffer makeFor(const isa::Program &program);

    /** Program copy: keeps decode cache and data segment alive. */
    isa::Program program_;
    /** Decode cache, indexed by text word offset. */
    std::vector<isa::DecodedInstr> decoded_;
    /** InstrFacts::of each decode-cache entry, same indexing. */
    std::vector<InstrFacts> facts_;

    // -- per retired instruction (dense), encoded --------------------
    store::Column32 decIdx_;

    // -- loads only, in stream order (sparse), encoded ----------------
    /** The raw loaded bytes (DynInstr::memData of each load). */
    store::Column32 loadData_;

    /** nextPc of the final instruction (others derive from decIdx_). */
    Addr lastNextPc_ = 0;

    RunResult result_;

    /** Annex store behind a pointer so the buffer stays movable. */
    struct AnnexStore;
    std::shared_ptr<AnnexStore> annexes_;
};

/**
 * Replay cursor over a TraceBuffer.
 *
 * Views are cheap value types over a shared immutable buffer: many
 * studies (and many threads, each with its own sinks) can replay the
 * same capture concurrently.
 */
class TraceView
{
  public:
    /** Instructions materialised per retireBlock() call. */
    static constexpr std::size_t defaultBlockSize = 1024;

    explicit TraceView(const TraceBuffer &buffer) : buf_(&buffer) {}

    std::size_t size() const { return buf_->size(); }
    const TraceBuffer &buffer() const { return *buf_; }

    /**
     * Feed the whole trace to every sink, in order, in blocks of up
     * to @p block_size instructions. Each block is materialised once
     * and handed to every sink's retireBlock() before the next block
     * is built, so one materialisation amortises over all sinks (a
     * seven-design CPI study decodes the stream once, not seven
     * times).
     *
     * @p cancel is polled once per block: a fired token stops the
     * replay before the next block (the cancellation-granularity
     * guarantee) and the call returns false. Sinks fed a partial
     * stream hold partial state — callers must discard them.
     *
     * @return true when the whole trace was replayed.
     */
    bool replay(const std::vector<TraceSink *> &sinks,
                std::size_t block_size = defaultBlockSize,
                const CancelToken *cancel = nullptr) const;

    /** Convenience: replay into a single sink. */
    bool
    replay(TraceSink &sink, std::size_t block_size = defaultBlockSize) const
    {
        return replay(std::vector<TraceSink *>{&sink}, block_size);
    }

  private:
    const TraceBuffer *buf_;
};

} // namespace sigcomp::cpu

#endif // SIGCOMP_CPU_TRACE_BUFFER_H_
