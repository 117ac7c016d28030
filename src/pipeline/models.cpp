#include "pipeline/models.h"

#include <algorithm>

#include "common/logging.h"

namespace sigcomp::pipeline
{

namespace
{

/** EX occupancy of a non-serial design. */
unsigned
exCyclesParallel(const InstrQuanta &q, const PipelineConfig &cfg)
{
    if (q.isMult)
        return cfg.multCycles;
    if (q.isDiv)
        return cfg.divCycles;
    return 1;
}

/** Fill one atomic stage (lead == dur). */
void
atomicStage(TimingPlan &p, unsigned s, unsigned dur)
{
    p.dur[s] = dur;
    p.lead[s] = dur;
}

/**
 * Fill one streamed stage: @p extra cycles of fixed latency (cache
 * misses) followed by @p chunks cycles of chunkwise production; the
 * first chunk reaches the consumer after extra + first_after.
 */
void
streamedStage(TimingPlan &p, unsigned s, Cycle extra, unsigned chunks,
              unsigned first_after = 1)
{
    p.dur[s] = static_cast<unsigned>(extra) + chunks;
    p.lead[s] = static_cast<unsigned>(extra) + first_after;
}

} // namespace

const std::string &
designName(Design d)
{
    // Indexed by designIndex(); the last entry names an invalid value.
    static const std::string names[numDesigns + 1] = {
        "baseline32",
        "byte-serial",
        "halfword-serial",
        "byte-semi-parallel",
        "byte-parallel-skewed",
        "byte-parallel-compressed",
        "skewed-bypass",
        "?",
    };
    return names[std::min(designIndex(d), numDesigns)];
}

std::vector<Design>
allDesigns()
{
    return {Design::Baseline32,
            Design::ByteSerial,
            Design::HalfwordSerial,
            Design::ByteSemiParallel,
            Design::ByteParallelSkewed,
            Design::ByteParallelCompressed,
            Design::SkewedBypass};
}

std::unique_ptr<InOrderPipeline>
makePipeline(Design d, PipelineConfig config)
{
    switch (d) {
      case Design::Baseline32:
        return std::make_unique<Baseline32>(std::move(config));
      case Design::ByteSerial:
        return std::make_unique<StreamedSerial>(
            designName(d), kSerialWidths, std::move(config));
      case Design::HalfwordSerial:
        config.encoding = sig::Encoding::Half1;
        return std::make_unique<StreamedSerial>(
            designName(d), kSerialWidths, std::move(config));
      case Design::ByteSemiParallel:
        return std::make_unique<StreamedSerial>(
            designName(d), kSemiParallelWidths, std::move(config));
      case Design::ByteParallelSkewed:
        return std::make_unique<ByteParallelSkewed>(std::move(config));
      case Design::ByteParallelCompressed:
        return std::make_unique<ByteParallelCompressed>(
            std::move(config));
      case Design::SkewedBypass:
        return std::make_unique<SkewedBypass>(std::move(config));
    }
    SC_PANIC("unknown design");
}

std::string
widthsName(const StageWidths &w)
{
    return "serial-" + std::to_string(w.fetch) + "/" +
           std::to_string(w.rf) + "/" + std::to_string(w.alu) + "/" +
           std::to_string(w.dcache);
}

std::unique_ptr<InOrderPipeline>
makePipeline(const StageWidths &w, PipelineConfig config)
{
    return std::make_unique<StreamedSerial>(widthsName(w), w,
                                            std::move(config));
}

// --------------------------------------------------------------- Baseline32

Baseline32::Baseline32(PipelineConfig config)
    : SharedReplayModel("baseline32", std::move(config))
{
}

TimingPlan
Baseline32::plan(const cpu::DynInstr &di, const InstrQuanta &q)
{
    (void)di;
    TimingPlan p;
    p.numStages = 5;
    atomicStage(p, 0, 1 + static_cast<unsigned>(q.ifExtra));
    atomicStage(p, 1, 1);
    atomicStage(p, 2, exCyclesParallel(q, config()));
    atomicStage(p, 3, 1 + static_cast<unsigned>(q.memExtra));
    atomicStage(p, 4, 1);
    p.consumeStage = 2;
    p.resolveStage = 2;
    p.readyStage = 2;
    p.loadReadyStage = 3;
    p.streamForward = false;
    p.latchBoundaries = 4;
    return p;
}

// ----------------------------------------------------------- StreamedSerial

StreamedSerial::StreamedSerial(std::string name, StageWidths w,
                               PipelineConfig config)
    : SharedReplayModel(std::move(name), std::move(config))
{
    SC_ASSERT(w.fetch > 0 && w.rf > 0 && w.alu > 0 && w.dcache > 0,
              "stage widths must be at least one chunk");
    for (unsigned n = 0; n <= kMaxChunks; ++n) {
        // Every stage moves at least one chunk.
        const unsigned chunks = std::max(1u, n);
        // Three I-cache banks fetch 3 bytes + extension bit per cycle
        // and a fourth byte costs one more; a narrower fetch port
        // streams the instruction ("otherwise, every instruction
        // would incur at least two stall cycles", section 4).
        fetch_[n] = w.fetch >= 3 ? 1 + (n > 3 ? 1 : 0)
                                 : divCeil(n, w.fetch);
        // RF, ALU, D$ and WB: n chunks through a w-chunk port.
        rf_[n] = divCeil(chunks, w.rf);
        alu_[n] = divCeil(chunks, w.alu);
        dcache_[n] = divCeil(chunks, w.dcache);
        // The D$ feeds an ALU-wide consumer: its first usable group
        // needs min(chunks, alu) chunks from the cache port (two
        // cycles for a multi-byte load into the semi-parallel ALU).
        dcacheLead_[n] = divCeil(std::min(chunks, w.alu), w.dcache);
    }
}

TimingPlan
StreamedSerial::plan(const cpu::DynInstr &di, const InstrQuanta &q)
{
    (void)di;
    TimingPlan p;
    p.numStages = 5;
    // A rippling PC costs fetch cycles at any width.
    atomicStage(p, 0, cycles(fetch_, q.fetchBytes) + q.pcRippleExtra +
                          static_cast<unsigned>(q.ifExtra));
    streamedStage(p, 1, 0, cycles(rf_, q.srcChunks));
    // Iterative mult/div occupies the stage whole.
    if (q.isMult || q.isDiv)
        atomicStage(p, 2, exCyclesParallel(q, config()));
    else
        streamedStage(p, 2, 0, cycles(alu_, q.exChunks));
    streamedStage(p, 3, q.memExtra, cycles(dcache_, q.memChunks),
                  cycles(dcacheLead_, q.memChunks));
    // Write-back through the register file's port.
    streamedStage(p, 4, 0, cycles(rf_, q.resChunks));
    p.consumeStage = 2;
    p.resolveStage = 2;
    p.readyStage = 2;
    p.loadReadyStage = 3;
    p.streamForward = true;
    p.latchBoundaries = 4;
    return p;
}

// ------------------------------------------------------- ByteParallelSkewed

ByteParallelSkewed::ByteParallelSkewed(PipelineConfig config)
    : SharedReplayModel("byte-parallel-skewed", std::move(config))
{
}

TimingPlan
ByteParallelSkewed::plan(const cpu::DynInstr &di, const InstrQuanta &q)
{
    (void)di;
    // IF | RF0 | RF123+EX0 | EX123 | MEM0 | MEM123 | WB
    //
    // Forwarding is band-aligned: a consumer's EX0 takes byte 0 from
    // the producer's EX0 output and its EX123 takes the upper bytes
    // from EX123, so dependent ALU operations never stall — the
    // in-order structural recurrence already keeps the upper bands
    // aligned. Only HI/LO (iterative unit) and loads publish later.
    TimingPlan p;
    p.numStages = 7;
    atomicStage(p, 0, 1 + static_cast<unsigned>(q.ifExtra));
    atomicStage(p, 1, 1);
    atomicStage(p, 2, 1);
    atomicStage(p, 3, exCyclesParallel(q, config()));
    atomicStage(p, 4, 1 + static_cast<unsigned>(q.memExtra));
    atomicStage(p, 5, 1);
    atomicStage(p, 6, 1);
    p.consumeStage = 2;     // EX0
    p.resolveStage = 3;     // EX123 (all bytes compared)
    p.readyStage = (q.isMult || q.isDiv) ? 3 : 2;
    p.loadReadyStage = 4;   // MEM0 delivers byte 0 + extension bits
    p.streamForward = false;
    p.latchBoundaries = 6;
    return p;
}

// --------------------------------------------------- ByteParallelCompressed

ByteParallelCompressed::ByteParallelCompressed(PipelineConfig config)
    : SharedReplayModel("byte-parallel-compressed", std::move(config))
{
}

TimingPlan
ByteParallelCompressed::plan(const cpu::DynInstr &di, const InstrQuanta &q)
{
    // IF | RF_lo | RF_hi | EX | MEM_lo | MEM_hi | WB
    //
    // The "one more cycle in the same stage" of Fig 9 uses separate
    // sub-banks (low byte + extension bits vs remaining bytes), so a
    // wide instruction occupies the high sub-bank while its
    // successor reads the low one: wide operands lengthen an
    // instruction's path (and hence branch penalties and load-use
    // distances) without throttling throughput. Zero-duration
    // sub-stages model the skipped sub-banks.
    TimingPlan p;
    p.numStages = 7;
    // The three I-cache banks are shared, so a fourth-byte fetch
    // does block the next instruction's fetch.
    atomicStage(p, 0, 1 + (q.fetchBytes > 3 ? 1 : 0) +
                          static_cast<unsigned>(q.ifExtra));
    atomicStage(p, 1, 1);
    atomicStage(p, 2, q.srcChunks > 1 ? 1 : 0);
    atomicStage(p, 3, exCyclesParallel(q, config()));
    atomicStage(p, 4, 1 + static_cast<unsigned>(q.memExtra));
    const bool wide_load = di.dec->isLoad && q.memChunks > 1;
    atomicStage(p, 5, wide_load ? 1 : 0);
    atomicStage(p, 6, 1);
    p.consumeStage = 3;
    p.resolveStage = 3;
    p.readyStage = 3;
    p.loadReadyStage = 5;
    p.streamForward = false;
    p.latchBoundaries = 4;
    return p;
}

// -------------------------------------------------------------- SkewedBypass

SkewedBypass::SkewedBypass(PipelineConfig config)
    : SharedReplayModel("skewed-bypass", std::move(config))
{
}

TimingPlan
SkewedBypass::plan(const cpu::DynInstr &di, const InstrQuanta &q)
{
    // The skewed pipeline plus forwarding paths that let short
    // operands *skip* the wide half-stages (EX123/MEM123): skipped
    // stages get zero duration, which shortens the instruction's
    // effective pipeline (branch penalty, load-use distance) while
    // the structural recurrence still keeps wide instructions
    // band-aligned.
    const bool narrow =
        q.srcChunks <= 1 && q.resChunks <= 1 && !q.isMult && !q.isDiv;
    TimingPlan p;
    p.numStages = 7;
    atomicStage(p, 0, 1 + static_cast<unsigned>(q.ifExtra));
    atomicStage(p, 1, 1);
    atomicStage(p, 2, 1);
    atomicStage(p, 3, narrow ? 0 : exCyclesParallel(q, config()));
    atomicStage(p, 4, 1 + static_cast<unsigned>(q.memExtra));
    const bool has_mem = di.dec->isLoad || di.dec->isStore;
    atomicStage(p, 5, (has_mem && q.memChunks > 1) ? 1 : 0);
    atomicStage(p, 6, 1);
    p.consumeStage = 2;
    p.resolveStage = 3;   // collapses to EX0 for narrow operands
    // Band-aligned forwarding as in the plain skewed design (the
    // bypass network only adds paths).
    p.readyStage = (q.isMult || q.isDiv) ? 3 : 2;
    p.loadReadyStage = 4;
    p.streamForward = false;
    // Narrow instructions skip the wide half-stages entirely,
    // latching like the five-stage designs.
    // Unlike `narrow`, this leaves resChunks out: the pinned latch
    // activity was always computed that way.
    p.latchBoundaries = (q.srcChunks <= 1 && q.memChunks <= 1) ? 4 : 6;
    return p;
}

} // namespace sigcomp::pipeline
