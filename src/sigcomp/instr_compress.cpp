#include "sigcomp/instr_compress.h"

#include <algorithm>

#include "common/logging.h"

namespace sigcomp::sig
{

using isa::Funct;
using isa::Opcode;

InstrCompressor::InstrCompressor(const std::vector<std::uint8_t> &ranked)
{
    SC_ASSERT(ranked.size() <= 64, "too many ranked functs");
    ranking_.assign(ranked.begin(),
                    ranked.begin() +
                        static_cast<std::ptrdiff_t>(
                            std::min<std::size_t>(ranked.size(), 8)));

    std::array<bool, 64> is_top{};
    std::array<bool, 64> code_used{};
    recode_.fill(0xff);
    decode_.fill(0xff);

    // The top-eight functs get codes with f1 (low three bits) zero.
    for (std::size_t r = 0; r < ranking_.size(); ++r) {
        const std::uint8_t raw = ranking_[r];
        SC_ASSERT(raw < 64, "funct value out of range");
        SC_ASSERT(!is_top[raw], "duplicate funct in ranking");
        const std::uint8_t code = static_cast<std::uint8_t>(r << 3);
        is_top[raw] = true;
        recode_[raw] = code;
        decode_[code] = raw;
        code_used[code] = true;
    }

    // Everything else maps onto the remaining codes (f1 != 0 or
    // unused short codes), ascending.
    std::uint8_t next = 0;
    for (unsigned raw = 0; raw < 64; ++raw) {
        if (is_top[raw])
            continue;
        while (next < 64 && (code_used[next] || (next & 7) == 0))
            ++next;
        if (next >= 64) {
            // Fewer than 8 top codes: reuse leftover f1==0 codes.
            for (std::uint8_t c = 0; c < 64; ++c) {
                if (!code_used[c]) {
                    next = c;
                    break;
                }
            }
        }
        recode_[raw] = next;
        decode_[next] = static_cast<std::uint8_t>(raw);
        code_used[next] = true;
    }
}

InstrCompressor
InstrCompressor::withDefaultRanking()
{
    // Built once: every default PipelineConfig copies it.
    static const InstrCompressor compressor(std::vector<std::uint8_t>{
        static_cast<std::uint8_t>(Funct::Addu),
        static_cast<std::uint8_t>(Funct::Sll),
        static_cast<std::uint8_t>(Funct::Slt),
        static_cast<std::uint8_t>(Funct::Subu),
        static_cast<std::uint8_t>(Funct::Jr),
        static_cast<std::uint8_t>(Funct::And),
        static_cast<std::uint8_t>(Funct::Or),
        static_cast<std::uint8_t>(Funct::Sra),
    });
    return compressor;
}

InstrCompressor
InstrCompressor::fromProfile(const Distribution<std::uint8_t> &funct_freq)
{
    std::vector<std::uint8_t> ranked;
    for (const auto &[funct, count] : funct_freq.ranked()) {
        (void)count;
        ranked.push_back(funct);
        if (ranked.size() == 8)
            break;
    }
    return InstrCompressor(ranked);
}

std::uint8_t
InstrCompressor::recodeFunct(std::uint8_t raw) const
{
    SC_ASSERT(raw < 64, "funct out of range");
    return recode_[raw];
}

std::uint8_t
InstrCompressor::decodeFunct(std::uint8_t recoded) const
{
    SC_ASSERT(recoded < 64, "funct code out of range");
    return decode_[recoded];
}

bool
InstrCompressor::isShamtShift(std::uint8_t raw_funct)
{
    const auto f = static_cast<Funct>(raw_funct);
    return f == Funct::Sll || f == Funct::Srl || f == Funct::Sra;
}

bool
InstrCompressor::zeroExtendsImm(Opcode op)
{
    return op == Opcode::Andi || op == Opcode::Ori ||
           op == Opcode::Xori || op == Opcode::Lui;
}

Byte
InstrCompressor::iFormatFillByte(Opcode op, Byte imm_low)
{
    return zeroExtendsImm(op) ? Byte{0} : signFill(imm_low);
}

StoredInstr
InstrCompressor::compress(isa::Instruction inst) const
{
    StoredInstr st;
    const Opcode op = inst.opcode();

    if (op == Opcode::Special) {
        const std::uint8_t code = recode_[inst.functField()];
        const std::uint8_t f2 = code >> 3;
        const std::uint8_t f1 = code & 7;
        const bool shift = isShamtShift(inst.functField());

        Word w = 0;
        w = setBitField(w, 26, 6, static_cast<Word>(op));
        // Plain shifts do not read rs: its slot carries shamt.
        w = setBitField(w, 21, 5, shift ? inst.shamt() : inst.rs());
        w = setBitField(w, 16, 5, inst.rt());
        w = setBitField(w, 11, 5, inst.rd());
        w = setBitField(w, 8, 3, f2);
        w = setBitField(w, 5, 3, f1);
        w = setBitField(w, 0, 5, shift ? 0 : inst.shamt());
        st.permuted = w;
        // Low byte is f1 and the (vacated or zero) shamt zone.
        st.fourBytes = (w & 0xff) != 0;
        return st;
    }

    if (op == Opcode::J || op == Opcode::Jal) {
        st.permuted = inst.raw();
        st.fourBytes = true;
        return st;
    }

    // I-format (including RegImm branches): swap immediate bytes so
    // the usually-redundant high half sits in the low stored byte.
    const Half imm = inst.imm16();
    const Byte imm_low = static_cast<Byte>(imm & 0xff);
    const Byte imm_high = static_cast<Byte>(imm >> 8);

    Word w = inst.raw() & 0xffff0000;
    w = setBitField(w, 8, 8, imm_low);
    w = setBitField(w, 0, 8, imm_high);
    st.permuted = w;
    st.fourBytes = imm_high != iFormatFillByte(op, imm_low);
    return st;
}

isa::Instruction
InstrCompressor::decompress(const StoredInstr &st) const
{
    const Word w = st.permuted;
    const auto op = static_cast<Opcode>(bitField(w, 26, 6));

    if (op == Opcode::Special) {
        const std::uint8_t f2 =
            static_cast<std::uint8_t>(bitField(w, 8, 3));
        const std::uint8_t f1 =
            st.fourBytes ? static_cast<std::uint8_t>(bitField(w, 5, 3))
                         : 0;
        const std::uint8_t raw_funct =
            decode_[static_cast<std::uint8_t>((f2 << 3) | f1)];
        const bool shift = isShamtShift(raw_funct);

        const auto slot_rs = static_cast<isa::Reg>(bitField(w, 21, 5));
        const auto rt = static_cast<isa::Reg>(bitField(w, 16, 5));
        const auto rd = static_cast<isa::Reg>(bitField(w, 11, 5));
        const unsigned shamt =
            shift ? slot_rs : (st.fourBytes ? bitField(w, 0, 5) : 0);
        const isa::Reg rs = shift ? isa::reg::zero : slot_rs;

        return isa::Instruction::makeR(static_cast<Funct>(raw_funct), rd,
                                       rs, rt, shamt);
    }

    if (op == Opcode::J || op == Opcode::Jal)
        return isa::Instruction(w);

    const Byte imm_low = static_cast<Byte>(bitField(w, 8, 8));
    const Byte imm_high =
        st.fourBytes ? static_cast<Byte>(bitField(w, 0, 8))
                     : iFormatFillByte(op, imm_low);
    Word out = w & 0xffff0000;
    out = setBitField(out, 0, 16,
                      static_cast<Word>(imm_low) |
                          (static_cast<Word>(imm_high) << 8));
    return isa::Instruction(out);
}

} // namespace sigcomp::sig
