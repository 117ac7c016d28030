/**
 * @file
 * Dynamic-instruction trace record and sink interface connecting the
 * functional core to the pipeline/activity models.
 */

#ifndef SIGCOMP_CPU_TRACE_H_
#define SIGCOMP_CPU_TRACE_H_

#include <span>

#include "common/types.h"
#include "isa/instruction.h"

namespace sigcomp::cpu
{

/**
 * One retired instruction with everything the timing and activity
 * models need: operand values, result, memory behaviour, and control
 * flow outcome.
 */
struct DynInstr
{
    Addr pc = 0;
    /** Pre-decoded static instruction (owned by the core's cache). */
    const isa::DecodedInstr *dec = nullptr;

    /** Value of rs when dec->readsRs. */
    Word srcRs = 0;
    /** Value of rt when dec->readsRt. */
    Word srcRt = 0;
    /** Value written to dec->dest when dec->writesDest. */
    Word result = 0;

    /** Effective address for loads/stores. */
    Addr memAddr = 0;
    /**
     * Raw datum moved to/from memory (zero-extended to 32 bits):
     * the stored value for stores, the unconverted loaded bytes for
     * loads. Width is dec->memBytes. A load's bytes are the only
     * values a trace keeps (its loadData column); replay derives
     * everything else, a store's datum included, with execute().
     */
    Word memData = 0;

    /** Conditional branch outcome. */
    bool taken = false;
    /** Address of the next dynamic instruction. */
    Addr nextPc = 0;

    /**
     * Packed Ext3 significance tags of the operand values, one nibble
     * each: srcRs | srcRt<<4 | result<<8 | memData<<12 (memData only
     * for loads/stores). Filled by TraceView::replay, the one place
     * tags are derived: it classifies each result and memData as it
     * materialises the instruction and carries the operand tags in a
     * register walk beside the values. Every legal tag has its low
     * bit set, so a filled field is never 0 and 0 means "no tags" —
     * live simulation leaves it so, and consumers fall back to
     * classifying the value. Tags are always exactly classifyExt3()
     * of the corresponding value; consumers using them produce
     * bit-identical results either way, just without classifying the
     * same word once per consumer.
     */
    std::uint16_t sigTags = 0;

    /** Ext3 tag of srcRs when sigTags is filled. */
    unsigned sigRs() const { return sigTags & 0xFu; }
    /** Ext3 tag of srcRt when sigTags is filled. */
    unsigned sigRt() const { return (sigTags >> 4) & 0xFu; }
    /** Ext3 tag of result when sigTags is filled. */
    unsigned sigRes() const { return (sigTags >> 8) & 0xFu; }
    /** Ext3 tag of memData when sigTags is filled (loads/stores). */
    unsigned sigMem() const { return (sigTags >> 12) & 0xFu; }

    const isa::Instruction &inst() const { return dec->inst; }
};

/**
 * Consumer of retired instructions. run() drives one sink; use a
 * fan-out sink to feed several models in one functional pass.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per retired instruction, in program order. */
    virtual void retire(const DynInstr &di) = 0;

    /**
     * Batched retirement: consume a contiguous run of the stream in
     * one call. Trace replay (cpu/trace_buffer.h) feeds sinks this
     * way so the per-instruction virtual dispatch disappears from
     * the hot loop; sinks with a tight inner loop override it (the
     * pipeline models and profilers do). The default preserves
     * per-instruction semantics exactly, so overriding is optional
     * and any interleaving of retire()/retireBlock() calls covering
     * the same stream leaves a sink in the same state.
     */
    virtual void
    retireBlock(std::span<const DynInstr> block)
    {
        for (const DynInstr &di : block)
            retire(di);
    }
};

} // namespace sigcomp::cpu

#endif // SIGCOMP_CPU_TRACE_H_
