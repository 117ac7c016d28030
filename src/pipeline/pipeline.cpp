#include "pipeline/pipeline.h"

#include <algorithm>

#include "common/json.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace sigcomp::pipeline
{

using cpu::DynInstr;

// ---- QuantaRecorder ----------------------------------------------------

QuantaRecorder::QuantaRecorder(const PipelineConfig &config,
                               const isa::Program &program,
                               const mem::MainMemory *memory)
    : params_(config.encoding), alu_(config.encoding),
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
                            SharedQuanta &rec,
                            std::vector<SharedQuanta::Entry> &entries,
                            std::vector<Count> &latch_base)
{
    // The block's shared activity is what accumulates from zero.
    activity_ = ActivityTotals{};
    rec.blockMissStart.push_back(
        static_cast<std::uint32_t>(rec.misses.size()));
    std::size_t index = rec.size();
    SC_ASSERT(index + block.size() <= UINT32_MAX,
              "quanta record indices are 32-bit");
    entries.resize(block.size());
    latch_base.resize(block.size());
    SharedQuanta::Entry *out = entries.data();
    Count *latch = latch_base.data();
    for (const DynInstr &di : block) {
        const InstrQuanta q = compute(di, *latch++);
        *out++ = SharedQuanta::pack(q);
        if ((q.ifExtra | q.memExtra) != 0) [[unlikely]] {
            SC_ASSERT(q.ifExtra <= UINT32_MAX && q.memExtra <= UINT32_MAX,
                      "hierarchy latency does not fit 32 bits");
            rec.misses.push_back({static_cast<std::uint32_t>(index),
                                  static_cast<std::uint32_t>(q.ifExtra),
                                  static_cast<std::uint32_t>(q.memExtra)});
        }
        ++index;
    }
    coder_.append(rec, entries);
    rec.blockDelta.push_back(activity_);
}

void
QuantaRecorder::finish(SharedQuanta &rec) const
{
    rec.l1i = hierarchy_.l1i().stats();
    rec.l1d = hierarchy_.l1d().stats();
    rec.l2 = hierarchy_.l2().stats();
    rec.dict.shrink_to_fit();
    rec.misses.shrink_to_fit();
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

// ---- SharedQuanta ------------------------------------------------------

void
SharedQuanta::panicFieldRange(unsigned f, unsigned v)
{
    SC_PANIC("quanta field ", fieldNames[f], " = ", v, " does not fit its ",
             fieldBits[f], " bits");
}

void
SharedQuanta::Coder::append(SharedQuanta &rec,
                            std::span<const Entry> entries)
{
    std::size_t index = rec.codes.size();
    rec.codes.resize(index + entries.size());
    std::uint8_t *code = rec.codes.data() + index;
    for (const Entry e : entries) {
        if (index % chunkSize == 0) {
            // A new chunk: every slot of the old one reads as empty.
            rec.chunkStart.push_back(
                static_cast<std::uint32_t>(rec.dict.size()));
            tag_ += std::uint64_t{1} << 32;
        }
        const std::uint64_t key = tag_ | e;
        std::size_t s = (e * 0x9E3779B1u) >> (32 - 9);
        static_assert(slots == 1u << 9);
        while (key_[s] != key) {
            if (key_[s] < tag_) {
                // First use in this chunk: the entry joins its
                // dictionary (at most chunkSize of them, so the
                // code fits a byte).
                key_[s] = key;
                code_[s] = static_cast<std::uint8_t>(rec.dict.size() -
                                                     rec.chunkStart.back());
                rec.dict.push_back(e);
                break;
            }
            s = (s + 1) % slots;
        }
        *code++ = code_[s];
        ++index;
    }
}

void
SharedQuanta::expandBlock(std::span<const DynInstr> block, std::size_t base,
                          sig::Encoding enc, std::vector<Entry> &entries,
                          std::vector<Count> &latch) const
{
    SC_ASSERT(base + block.size() <= size(),
              "shared quanta record does not cover this block");
    entries.resize(block.size());
    latch.resize(block.size());
    const quanta_detail::EncodingParams ep(enc);
    // One chunk's run of the block at a time, so each run reads one
    // dictionary.
    for (std::size_t j = 0; j < block.size();) {
        const std::size_t i = base + j;
        const std::size_t run =
            std::min(block.size() - j, chunkSize - i % chunkSize);
        const Entry *d = dict.data() + chunkStart[i / chunkSize];
        const std::uint8_t *code = codes.data() + i;
        for (const std::size_t end = j + run; j < end; ++j) {
            const Entry e = d[*code++];
            entries[j] = e;
            latch[j] = quanta_detail::latchBaseBits(
                *block[j].dec, field(e, FetchBytes),
                field(e, PcChangedBlocks), field(e, MemChunks),
                quanta_detail::operandBytes(block[j], ep), ep);
        }
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
    std::string key;
    key.reserve(160);
    json::append(key, "quanta:", sig::encodingName(config_.encoding));
    auto num = [&](DWord v) { json::append(key, ':', v); };
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
