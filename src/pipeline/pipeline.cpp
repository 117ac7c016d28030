#include "pipeline/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"

namespace sigcomp::pipeline
{

using cpu::DynInstr;

// ---- QuantaRecorder ----------------------------------------------------

QuantaRecorder::QuantaRecorder(const PipelineConfig &config,
                               const isa::Program &program,
                               const mem::MainMemory *memory)
    : encoding_(config.encoding), alu_(config.encoding),
      hierarchy_(config.memory), program_(program), memory_(memory)
{
    static telemetry::Counter &recorders =
        telemetry::Registry::process().counter("pipeline.quanta_recorders");
    recorders.inc();

    if (memory_ == nullptr) {
        ownMemory_ = std::make_unique<mem::MainMemory>();
        const isa::DataSegment &data = program.data();
        if (!data.bytes.empty()) {
            ownMemory_->writeBlock(data.base, data.bytes.data(),
                                   data.bytes.size());
        }
        memory_ = ownMemory_.get();
    }

    // Per-Ext3-tag significance counts under this encoding. The Ext3
    // pattern of a word determines every encoding's count exactly:
    // Ext3 keeps the tagged bytes (popcount), Ext2 keeps the
    // low-order run up to the highest tagged byte (bit_width), and
    // Half1 keeps the upper halfword exactly when either of its bytes
    // is tagged. Entry 0 (no tag) is never consulted — untagged
    // operands classify on the spot.
    for (unsigned m = 1; m < 16; ++m) {
        unsigned bytes = 0;
        switch (encoding_) {
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

    // Memoise the compressed fetch width of every static
    // instruction: it is a pure function of the word under the
    // compressor, and the hot path needs it for every dynamic
    // instance and every I-cache fill word.
    fetchWidth_.resize(program.text().size());
    for (std::size_t i = 0; i < fetchWidth_.size(); ++i) {
        fetchWidth_[i] = static_cast<std::uint8_t>(
            config.compressor.fetchBytes(program.text()[i]));
    }
}

void
QuantaRecorder::recordBlock(std::span<const DynInstr> block,
                            SharedQuanta &rec)
{
    // The block's shared activity is what accumulates from zero.
    activity_ = ActivityTotals{};
    // Pre-size the record for the block so the hot loop writes
    // through a bare pointer (capacity was reserved up front).
    const std::size_t rec_base = rec.q.size();
    rec.q.resize(rec_base + block.size());
    SharedQuanta::Packed *out = rec.q.data() + rec_base;
    for (const DynInstr &di : block) {
        Count latch_base;
        const InstrQuanta q = compute(di, latch_base);
        *out++ = SharedQuanta::pack(q, latch_base);
    }
    rec.blockDelta.push_back(activity_);
}

void
QuantaRecorder::finish(SharedQuanta &rec) const
{
    rec.l1i = hierarchy_.l1i().stats();
    rec.l1d = hierarchy_.l1d().stats();
    rec.l2 = hierarchy_.l2().stats();
}

void
QuantaRecorder::applyStore(const DynInstr &di)
{
    switch (di.dec->memBytes) {
      case 1:
        ownMemory_->writeByte(di.memAddr, static_cast<Byte>(di.memData));
        break;
      case 2:
        ownMemory_->writeHalf(di.memAddr, static_cast<Half>(di.memData));
        break;
      default:
        ownMemory_->writeWord(di.memAddr, di.memData);
        break;
    }
}

// ---- InOrderPipeline ---------------------------------------------------

InOrderPipeline::InOrderPipeline(std::string name, PipelineConfig config)
    : name_(std::move(name)), config_(std::move(config)),
      predictor_(config_.predictor, config_.phtEntries,
                 config_.btbEntries)
{
}

void
InOrderPipeline::bind(const isa::Program &program,
                      const mem::MainMemory &memory)
{
    live_ = std::make_unique<QuantaRecorder>(config_, program, &memory);
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
    if (live_) {
        r.activity += live_->activity();
        r.l1i = live_->hierarchy().l1i().stats();
        r.l1d = live_->hierarchy().l1d().stats();
        r.l2 = live_->hierarchy().l2().stats();
    } else {
        r.l1i = l1i_;
        r.l1d = l1d_;
        r.l2 = l2_;
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

void
InOrderPipeline::adoptSharedStats(const SharedQuanta &rec)
{
    l1i_ = rec.l1i;
    l1d_ = rec.l1d;
    l2_ = rec.l2;
}

void
InOrderPipeline::adoptResult(const PipelineResult &r)
{
    adoptedResult_ = std::make_unique<PipelineResult>(r);
}

} // namespace sigcomp::pipeline
