#include "analysis/profilers.h"

#include "common/logging.h"

namespace sigcomp::analysis
{

using isa::AluOp;

void
PatternProfiler::record(Word value)
{
    const sig::ByteMask m = sig::classifyExt3(value);
    patterns_.record(m);
    totalBytes_ += sig::maskBytes(m);
}

void
PatternProfiler::retire(const cpu::DynInstr &di)
{
    if (di.dec->readsRs)
        record(di.srcRs);
    if (di.dec->readsRt)
        record(di.srcRt);
    if (di.dec->writesDest && di.dec->dest != isa::reg::zero)
        record(di.result);
    if (di.dec->isLoad || di.dec->isStore)
        record(di.memData);
}

void
PatternProfiler::retireBlock(std::span<const cpu::DynInstr> block)
{
    // Flat tallies for the block, merged into the Distribution once:
    // the per-operand map walks disappear from the hot loop while
    // the final counts — and therefore every accessor — are exactly
    // what per-instruction record() calls produce.
    //
    // Replay blocks carry the tags TraceView::replay derives
    // (DynInstr::sigTags), so the per-operand classification
    // collapses to a histogram of those tags: slot 0 absorbs
    // the nibbles of non-participating operands (a filled tag is
    // never 0) and is discarded at the merge. One histogram per
    // operand slot: repeated patterns are the norm (runs of small
    // constants), and four disjoint count arrays keep the four
    // increments per instruction off each other's store-to-load
    // forwarding paths.
    Count c_rs[16] = {}, c_rt[16] = {}, c_res[16] = {}, c_mem[16] = {};
    for (const cpu::DynInstr &di : block) {
        const isa::DecodedInstr &dec = *di.dec;
        const unsigned t = di.sigTags;
        if (t == 0) {
            retire(di);
            continue;
        }
        ++c_rs[dec.readsRs ? (t & 0xFu) : 0u];
        ++c_rt[dec.readsRt ? ((t >> 4) & 0xFu) : 0u];
        ++c_res[dec.writesDest && dec.dest != isa::reg::zero
                    ? ((t >> 8) & 0xFu)
                    : 0u];
        ++c_mem[dec.isLoad || dec.isStore ? ((t >> 12) & 0xFu) : 0u];
    }
    Count bytes = 0;
    for (sig::ByteMask m = 1; m < 16;
         m = static_cast<sig::ByteMask>(m + 2)) {
        const Count n = c_rs[m] + c_rt[m] + c_res[m] + c_mem[m];
        if (n != 0) {
            patterns_.record(m, n);
            bytes += n * sig::maskBytes(m);
        }
    }
    totalBytes_ += bytes;
}

void
PatternProfiler::merge(const Profiler &other)
{
    const auto &o = dynamic_cast<const PatternProfiler &>(other);
    patterns_.merge(o.patterns_);
    totalBytes_ += o.totalBytes_;
}

double
PatternProfiler::ext2Coverage() const
{
    double cover = 0.0;
    for (sig::ByteMask m : sig::allBytePatterns())
        if (sig::isExt2Representable(m))
            cover += patterns_.fraction(m);
    return cover;
}

double
PatternProfiler::meanSignificantBytes() const
{
    return patterns_.total()
               ? static_cast<double>(totalBytes_) /
                     static_cast<double>(patterns_.total())
               : 0.0;
}

InstrMixProfiler::InstrMixProfiler(sig::InstrCompressor compressor)
    : compressor_(std::move(compressor))
{
}

InstrMixProfiler::InstrFacts
InstrMixProfiler::computeFacts(const isa::DecodedInstr &dec) const
{
    InstrFacts f;
    f.fetchBytes =
        static_cast<std::uint8_t>(compressor_.fetchBytes(dec.inst));

    if (dec.usesImmediate) {
        const Half imm = dec.inst.imm16();
        const Byte high = static_cast<Byte>(imm >> 8);
        const Byte low = static_cast<Byte>(imm & 0xff);
        const bool zero_ext = dec.inst.opcode() == isa::Opcode::Andi ||
                              dec.inst.opcode() == isa::Opcode::Ori ||
                              dec.inst.opcode() == isa::Opcode::Xori ||
                              dec.inst.opcode() == isa::Opcode::Lui;
        f.shortImm = high == (zero_ext ? Byte{0} : signFill(low));
    }

    // "additions/subtractions, memory instructions, and branches all
    // require an addition" (section 2.5).
    // Among ALU ops: add/sub and the set-on-less-than compares.
    f.addLike = dec.isLoad || dec.isStore || dec.isCondBranch ||
                dec.aluOp == AluOp::AddRR || dec.aluOp == AluOp::SubRR ||
                dec.aluOp == AluOp::AddImm || dec.aluOp == AluOp::SltRR ||
                dec.aluOp == AluOp::SltuRR || dec.aluOp == AluOp::SltImm ||
                dec.aluOp == AluOp::SltuImm;
    return f;
}

void
InstrMixProfiler::retire(const cpu::DynInstr &di)
{
    ++total_;
    const isa::DecodedInstr &dec = *di.dec;

    switch (dec.format) {
      case isa::Format::R:
        ++rFormat_;
        functs_.record(di.inst().functField());
        break;
      case isa::Format::J:
        ++jFormat_;
        break;
      case isa::Format::I:
        ++iFormat_;
        break;
    }

    const InstrFacts f = computeFacts(dec);
    if (dec.usesImmediate) {
        ++hasImm_;
        if (f.shortImm)
            ++shortImm_;
    }
    fetchBytes_ += f.fetchBytes;
    if (f.addLike)
        ++addLike_;
}

void
InstrMixProfiler::retireBlock(std::span<const cpu::DynInstr> block)
{
    Count total = 0, r_fmt = 0, i_fmt = 0, j_fmt = 0;
    Count has_imm = 0, short_imm = 0, fetch_bytes = 0, add_like = 0;
    Count functs[64] = {};

    for (const cpu::DynInstr &di : block) {
        const isa::DecodedInstr &dec = *di.dec;
        ++total;
        switch (dec.format) {
          case isa::Format::R:
            ++r_fmt;
            ++functs[dec.inst.functField()];
            break;
          case isa::Format::J:
            ++j_fmt;
            break;
          case isa::Format::I:
            ++i_fmt;
            break;
        }

        // Per-word facts through the direct-mapped memo: dynamic
        // streams revisit a small static working set, so this hits
        // nearly always and skips the compressor's permute/recode.
        const Word raw = dec.inst.raw();
        MemoEntry &e = memo_[(raw * 0x9E3779B9u) >> 23 & (memoSize - 1)];
        if (!e.valid || e.raw != raw) {
            e.raw = raw;
            e.facts = computeFacts(dec);
            e.valid = true;
        }
        if (dec.usesImmediate) {
            ++has_imm;
            if (e.facts.shortImm)
                ++short_imm;
        }
        fetch_bytes += e.facts.fetchBytes;
        if (e.facts.addLike)
            ++add_like;
    }

    total_ += total;
    rFormat_ += r_fmt;
    iFormat_ += i_fmt;
    jFormat_ += j_fmt;
    hasImm_ += has_imm;
    shortImm_ += short_imm;
    fetchBytes_ += fetch_bytes;
    addLike_ += add_like;
    for (unsigned code = 0; code < 64; ++code)
        if (functs[code] != 0)
            functs_.record(static_cast<std::uint8_t>(code), functs[code]);
}

void
InstrMixProfiler::merge(const Profiler &other)
{
    const auto &o = dynamic_cast<const InstrMixProfiler &>(other);
    functs_.merge(o.functs_);
    total_ += o.total_;
    rFormat_ += o.rFormat_;
    iFormat_ += o.iFormat_;
    jFormat_ += o.jFormat_;
    hasImm_ += o.hasImm_;
    shortImm_ += o.shortImm_;
    fetchBytes_ += o.fetchBytes_;
    addLike_ += o.addLike_;
}

PcProfiler::PcProfiler()
    : accs_{sig::PcActivityAccumulator(1), sig::PcActivityAccumulator(2),
            sig::PcActivityAccumulator(3), sig::PcActivityAccumulator(4),
            sig::PcActivityAccumulator(5), sig::PcActivityAccumulator(6),
            sig::PcActivityAccumulator(7), sig::PcActivityAccumulator(8)}
{
}

void
PcProfiler::retire(const cpu::DynInstr &di)
{
    const bool redirect = di.dec->isControl && di.nextPc != di.pc + 4;
    for (auto &acc : accs_)
        acc.update(di.pc, di.nextPc, redirect);
}

void
PcProfiler::retireBlock(std::span<const cpu::DynInstr> block)
{
    // SWAR accumulation: the eight block sizes' per-instruction
    // contributions live one byte per lane in the memo (changed8 /
    // cycles8), so each instruction costs two 8-lane adds. A lane's
    // per-instruction maximum is 32 (changed blocks at 1-bit
    // granularity), so the packed sums flush into the wide per-size
    // totals every 7 instructions — before any lane can carry into
    // its neighbour.
    Count changed_sum[8] = {};
    Count cycles_sum[8] = {};
    std::uint64_t changed_acc = 0;
    std::uint64_t cycles_acc = 0;
    unsigned pending = 0;
    const auto flush = [&] {
        for (unsigned i = 0; i < 8; ++i) {
            changed_sum[i] += (changed_acc >> (8 * i)) & 0xFFu;
            cycles_sum[i] += (cycles_acc >> (8 * i)) & 0xFFu;
        }
        changed_acc = 0;
        cycles_acc = 0;
        pending = 0;
    };
    for (const cpu::DynInstr &di : block) {
        const bool redirect =
            di.dec->isControl && di.nextPc != di.pc + 4;
        const Word x = di.pc ^ di.nextPc;

        // Sequential flow produces a handful of distinct difference
        // words and branch targets repeat (loops), so the pure parts
        // of the update hit this memo nearly always.
        PcMemoEntry &e = memo_[(x * 0x9E3779B9u) >> 23 & 511u];
        if (!e.valid || e.x != x) {
            e.x = x;
            e.valid = true;
            e.changed8 = 0;
            e.cycles8 = 0;
            for (unsigned b = 1; b <= 8; ++b) {
                e.changed8 |= static_cast<std::uint64_t>(
                                  sig::changedBlocksXor(x, b))
                              << (8 * (b - 1));
                e.cycles8 |=
                    static_cast<std::uint64_t>(
                        sig::PcActivityAccumulator::serialCyclesXor(x,
                                                                    b))
                    << (8 * (b - 1));
            }
        }
        changed_acc += e.changed8;
        // A redirect loads the PC in parallel: one cycle per size.
        cycles_acc += redirect ? 0x0101010101010101ull : e.cycles8;
        if (++pending == 7)
            flush();
    }
    flush();
    for (unsigned i = 0; i < 8; ++i) {
        accs_[i].applyUpdateBatch(block.size(), changed_sum[i],
                                  cycles_sum[i]);
    }
}

void
PcProfiler::merge(const Profiler &other)
{
    const auto &o = dynamic_cast<const PcProfiler &>(other);
    for (std::size_t i = 0; i < accs_.size(); ++i) {
        const sig::PcActivityAccumulator &a = o.accs_[i];
        accs_[i].applyUpdateBatch(a.updates(),
                                  a.activityBits() / a.blockBits(),
                                  a.cycles());
    }
}

const sig::PcActivityAccumulator &
PcProfiler::forBlockBits(unsigned bits) const
{
    SC_ASSERT(bits >= 1 && bits <= 8, "block size out of range");
    return accs_[bits - 1];
}

} // namespace sigcomp::analysis
