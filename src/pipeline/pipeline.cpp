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
      hierarchy_(config.memory), program_(program), memory_(memory),
      encoder_(program)
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
    encoder_.append(rec, block, entries);
}

void
QuantaRecorder::finish(SharedQuanta &rec)
{
    encoder_.finish(rec);
    rec.activity = activity_;
    rec.l1i = hierarchy_.l1i().stats();
    rec.l1d = hierarchy_.l1d().stats();
    rec.l2 = hierarchy_.l2().stats();
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

namespace
{

/** Static-instruction index of @p pc in a text segment at @p start. */
inline std::size_t
staticIndex(Addr pc, Addr start)
{
    return (pc - start) / wordBytes;
}

} // namespace

SharedQuanta::Encoder::Encoder(const isa::Program &program)
    : textStart_(program.textStart()), last_(program.text().size(), 0)
{
}

void
SharedQuanta::Encoder::append(SharedQuanta &rec,
                              std::span<const DynInstr> block,
                              std::span<const Entry> entries)
{
    std::size_t i = rec.instructions;
    rec.instructions += block.size();
    rec.hits.resize((rec.instructions + 63) / 64);
    for (std::size_t j = 0; j < block.size(); ++j, ++i) {
        const Entry e = entries[j];
        Entry &last = last_[staticIndex(block[j].pc, textStart_)];
        if (e == last) {
            rec.hits[i / 64] |= std::uint64_t{1} << (i % 64);
            continue;
        }
        last = e;
        // A new entry joins the dictionary on first use (a record
        // holds a few dozen, so a scan finds it).
        const auto at = std::find(rec.dict.begin(), rec.dict.end(), e);
        escapes_.push_back(static_cast<std::uint32_t>(at - rec.dict.begin()));
        if (at == rec.dict.end())
            rec.dict.push_back(e);
    }
}

void
SharedQuanta::Encoder::finish(SharedQuanta &rec)
{
    const unsigned width = rec.escapeBits();
    rec.escapes.assign((escapes_.size() * width + 63) / 64, 0);
    std::size_t at = 0;
    for (const std::uint32_t x : escapes_) {
        rec.escapes[at / 64] |= std::uint64_t{x} << (at % 64);
        if (at % 64 + width > 64)
            rec.escapes[at / 64 + 1] |= std::uint64_t{x} >> (64 - at % 64);
        at += width;
    }
    escapes_ = {};
    rec.hits.shrink_to_fit();
    rec.dict.shrink_to_fit();
}

SharedQuanta::Decoder::Decoder(const SharedQuanta &rec,
                               const isa::Program &program,
                               sig::Encoding enc)
    : rec_(rec), params_(enc), textStart_(program.textStart())
{
    // Before its first instance a static instruction predicts the
    // all-zero entry.
    last_.reserve(program.text().size());
    for (const isa::Instruction inst : program.text()) {
        last_.push_back({0, static_cast<std::uint32_t>(
                                quanta_detail::latchQuantaBits(
                                    isa::decode(inst), 0, 0, 0, params_))});
    }
}

void
SharedQuanta::Decoder::expandBlock(std::span<const DynInstr> block,
                                   std::vector<Entry> &entries,
                                   std::vector<Count> &latch)
{
    SC_ASSERT(index_ + block.size() <= rec_.size(),
              "shared quanta record does not cover this block");
    entries.resize(block.size());
    latch.resize(block.size());
    // Locals, so the stores below cannot make the loop reload them.
    const quanta_detail::EncodingParams ep = params_;
    const Addr text_start = textStart_;
    Last *const last = last_.data();
    const std::uint64_t *const escapes = rec_.escapes.data();
    const Entry *const dict = rec_.dict.data();
    const unsigned width = rec_.escapeBits();
    const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
    std::size_t at = escapeAt_;
    // One hit word's instructions at a time, its bits shifted down as
    // the loop consumes them.
    for (std::size_t j = 0; j < block.size();) {
        const std::size_t i = index_ + j;
        std::uint64_t hits = rec_.hits[i / 64] >> (i % 64);
        const std::size_t end = j + std::min(64 - i % 64, block.size() - j);
        for (; j < end; ++j, hits >>= 1) {
            const DynInstr &di = block[j];
            Last &l = last[staticIndex(di.pc, text_start)];
            if ((hits & 1) == 0) [[unlikely]] {
                // An escape: the entry's dictionary index, which may
                // straddle two words.
                std::uint64_t x = 0;
                if (width != 0) {
                    x = escapes[at / 64] >> (at % 64);
                    if (at % 64 + width > 64)
                        x |= escapes[at / 64 + 1] << (64 - at % 64);
                }
                at += width;
                const Entry e = dict[x & mask];
                l = {e, static_cast<std::uint32_t>(
                            quanta_detail::latchQuantaBits(
                                *di.dec, field(e, FetchBytes),
                                field(e, PcChangedBlocks),
                                field(e, MemChunks), ep))};
            }
            entries[j] = l.entry;
            // A hit's quanta part of the latch bits is its last
            // instance's.
            latch[j] = l.latchBits +
                       quanta_detail::latchOperandBits(
                           *di.dec, quanta_detail::operandBytes(di, ep), ep);
        }
    }
    escapeAt_ = at;
    index_ += block.size();
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
    activity_ += rec.activity;
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
