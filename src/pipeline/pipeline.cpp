#include "pipeline/pipeline.h"

#include <algorithm>

#include "common/logging.h"

namespace sigcomp::pipeline
{

using cpu::DynInstr;
using isa::Funct;
using isa::InstrClass;
using isa::Opcode;

InOrderPipeline::InOrderPipeline(std::string name, PipelineConfig config)
    : name_(std::move(name)), config_(std::move(config)),
      alu_(config_.encoding), hierarchy_(config_.memory),
      predictor_(config_.predictor, config_.phtEntries,
                 config_.btbEntries)
{
    // Per-Ext3-tag significance counts under this pipeline's
    // encoding. The Ext3 pattern of a word determines every
    // encoding's count exactly: Ext3 keeps the tagged bytes
    // (popcount), Ext2 keeps the low-order run up to the highest
    // tagged byte (bit_width), and Half1 keeps the upper halfword
    // exactly when either of its bytes is tagged. Entry 0 (no tag)
    // is never consulted — untagged operands classify on the spot.
    for (unsigned m = 1; m < 16; ++m) {
        unsigned bytes = 0;
        switch (config_.encoding) {
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
        tagBytes_[m] = static_cast<std::uint8_t>(bytes);
    }
}

void
InOrderPipeline::bind(const isa::Program &program,
                      const mem::MainMemory &memory)
{
    program_ = &program;
    memory_ = &memory;

    // Memoise the compressed fetch width of every static
    // instruction: it is a pure function of the word under this
    // pipeline's compressor, and the hot path needs it for every
    // dynamic instance and every I-cache fill word.
    fetchWidth_.resize(program.text().size());
    for (std::size_t i = 0; i < fetchWidth_.size(); ++i) {
        fetchWidth_[i] = static_cast<std::uint8_t>(
            config_.compressor.fetchBytes(program.text()[i]));
    }
}

void
InOrderPipeline::bindReplay(const isa::Program &program)
{
    replayMemory_ = std::make_unique<mem::MainMemory>();
    const isa::DataSegment &data = program.data();
    if (!data.bytes.empty()) {
        replayMemory_->writeBlock(data.base, data.bytes.data(),
                                  data.bytes.size());
    }
    bind(program, *replayMemory_);
}

void
InOrderPipeline::applyStore(const cpu::DynInstr &di)
{
    switch (di.dec->memBytes) {
      case 1:
        replayMemory_->writeByte(di.memAddr,
                                 static_cast<Byte>(di.memData));
        break;
      case 2:
        replayMemory_->writeHalf(di.memAddr,
                                 static_cast<Half>(di.memData));
        break;
      default:
        replayMemory_->writeWord(di.memAddr, di.memData);
        break;
    }
}


void
InOrderPipeline::retire(const DynInstr &di)
{
    SC_ASSERT(program_ != nullptr,
              "pipeline '", name_, "' not bound to a program");
    if (replayMemory_ && di.dec->isStore)
        applyStore(di);
    InstrQuanta q = computeQuanta(di);
    const unsigned res_chunks = q.resChunks;
    q.resChunks = 0;
    addLatch(curLatchBase_, latchBoundaries(q));
    q.resChunks = res_chunks;
    const TimingPlan p = plan(di, q);
    checkPlan(p);
    schedule(di, q, p);
}

void
InOrderPipeline::panicBadTimingPlan()
{
    SC_PANIC("bad timing plan: stage count outside [2, ", maxStages,
             "] or a stage role index outside the plan's depth");
}

PipelineResult
InOrderPipeline::result()
{
    if (adoptedResult_) {
        PipelineResult r = *adoptedResult_;
        r.name = name_;
        return r;
    }
    PipelineResult r;
    r.name = name_;
    r.instructions = instructions_;
    r.cycles = lastCycle_;
    r.stalls = stalls_;
    r.activity = activity_;
    r.predictor = predictor_.stats();
    if (adoptedStats_.valid) {
        r.l1i = adoptedStats_.l1i;
        r.l1d = adoptedStats_.l1d;
        r.l2 = adoptedStats_.l2;
    } else {
        r.l1i = hierarchy_.l1i().stats();
        r.l1d = hierarchy_.l1d().stats();
        r.l2 = hierarchy_.l2().stats();
    }
    return r;
}

// ---- shared-quanta replay plumbing -----------------------------------

std::string
InOrderPipeline::quantaKey() const
{
    std::string key = "quanta:" + sig::encodingName(config_.encoding);
    auto num = [&](DWord v) { key += ':' + std::to_string(v); };
    auto cache = [&](const mem::CacheParams &c) {
        num(c.sizeBytes);
        num(c.assoc);
        num(c.lineBytes);
        num(c.hitLatency);
    };
    auto tlb = [&](const mem::TlbParams &t) {
        num(t.entries);
        num(t.assoc);
        num(t.pageBits);
        num(t.missPenalty);
    };
    cache(config_.memory.l1i);
    cache(config_.memory.l1d);
    cache(config_.memory.l2);
    num(config_.memory.memoryPenalty);
    tlb(config_.memory.itlb);
    tlb(config_.memory.dtlb);
    key += ":r";
    for (std::uint8_t f : config_.compressor.ranking())
        num(f);
    return key;
}

/** a - b per category (activity accumulates monotonically). */
ActivityTotals
InOrderPipeline::activityDelta(const ActivityTotals &a,
                               const ActivityTotals &b)
{
    auto sub = [](const BitPair &x, const BitPair &y) {
        BitPair d;
        d.compressed = x.compressed - y.compressed;
        d.baseline = x.baseline - y.baseline;
        return d;
    };
    ActivityTotals d;
    d.fetch = sub(a.fetch, b.fetch);
    d.rfRead = sub(a.rfRead, b.rfRead);
    d.rfWrite = sub(a.rfWrite, b.rfWrite);
    d.alu = sub(a.alu, b.alu);
    d.dcData = sub(a.dcData, b.dcData);
    d.dcTag = sub(a.dcTag, b.dcTag);
    d.pcInc = sub(a.pcInc, b.pcInc);
    d.latch = BitPair{}; // design-dependent: consumers compute it
    return d;
}

void
InOrderPipeline::retireBlockRecord(std::span<const cpu::DynInstr> block,
                                   SharedQuanta &rec)
{
    // Generic fallback: same body as the designs' devirtualised
    // overrides, with the hooks dispatched virtually.
    retireBlockRecordWith(
        block, rec,
        [this](const cpu::DynInstr &di, const InstrQuanta &q) {
            return plan(di, q);
        },
        [this](const InstrQuanta &q) { return latchBoundaries(q); });
}

void
InOrderPipeline::retireBlockShared(std::span<const cpu::DynInstr> block,
                                   const SharedQuanta &rec,
                                   std::size_t base,
                                   std::size_t block_index)
{
    // Generic fallback: same body as the designs' devirtualised
    // overrides, with the hooks dispatched virtually.
    retireBlockSharedWith(
        block, rec, base, block_index,
        [this](const cpu::DynInstr &di, const InstrQuanta &q) {
            return plan(di, q);
        },
        [this](const InstrQuanta &q) { return latchBoundaries(q); });
}

void
InOrderPipeline::adoptSharedStats(const SharedQuanta &rec)
{
    adoptedStats_.valid = true;
    adoptedStats_.l1i = rec.l1i;
    adoptedStats_.l1d = rec.l1d;
    adoptedStats_.l2 = rec.l2;
}

void
InOrderPipeline::adoptResult(const PipelineResult &r)
{
    adoptedResult_ = std::make_unique<PipelineResult>(r);
}

} // namespace sigcomp::pipeline
