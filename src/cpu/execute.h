/**
 * @file
 * The value semantics of the ISA, in one place: what an instruction
 * computes from its operands, HI/LO and the bytes it loads.
 *
 * FunctionalCore::step runs execute() against the live register file
 * and memory; TraceView::replay runs the same function against the
 * registers it rebuilds and the loaded bytes a trace keeps. So every
 * result, effective address, store datum and branch outcome a replay
 * hands its sinks is the one the core produced, by construction, and
 * a trace stores none of them.
 */

#ifndef SIGCOMP_CPU_EXECUTE_H_
#define SIGCOMP_CPU_EXECUTE_H_

#include <cstdint>

#include "common/bitutil.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace sigcomp::cpu
{

/**
 * The operation a static instruction performs, resolved once per
 * static instruction (execOpOf) so execute() dispatches on one dense
 * byte instead of class, funct and opcode fields.
 */
enum class ExecOp : std::uint8_t
{
    Nop,
    Unknown,    ///< undecodable word: executing it is fatal in the core
    Syscall,    ///< no value; the core handles the call itself
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    Add,        ///< add/addu (no overflow traps)
    Sub,        ///< sub/subu
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
    Mfhi,
    Mflo,
    Mthi,
    Mtlo,
    Mult,
    Multu,
    Div,
    Divu,
    AddImm,     ///< addi/addiu
    SltImm,
    SltuImm,
    AndImm,
    OrImm,
    XorImm,
    Lui,
    Lb,
    Lbu,
    Lh,
    Lhu,
    Lw,
    Sb,
    Sh,
    Sw,
    Beq,
    Bne,
    Blez,
    Bgtz,
    Bltz,
    Bgez,
    J,
    Jal,
    Jr,
    Jalr,
};

/** The ExecOp of decoded instruction @p d. */
ExecOp execOpOf(const isa::DecodedInstr &d);

/** The multiply/divide result registers. */
struct HiLo
{
    Word hi = 0;
    Word lo = 0;
};

/** What one instruction's execution determines besides HI/LO. */
struct Outcome
{
    /**
     * Value for the destination register (0 for instructions that
     * write none); the caller applies the $zero rule.
     */
    Word result = 0;
    /** Effective address of a load or store, else 0. */
    Addr memAddr = 0;
    /**
     * The datum moved to or from memory, zero-extended: the raw
     * loaded bytes of a load, the stored bytes of a store, else 0.
     */
    Word memData = 0;
    /** Branch outcome; true for every jump. */
    bool taken = false;
    /** Address of the next instruction (replay reads it from decIdx). */
    Addr nextPc = 0;
};

/**
 * Execute @p op (instruction word @p inst at @p pc) on operand values
 * @p rs and @p rt, updating @p hl for multiply, divide and moves to
 * HI/LO. @p mem supplies the loaded bytes, `Word load(Addr, unsigned
 * bytes)` returning them zero-extended, and takes the stored ones,
 * `void store(Addr, Word datum, unsigned bytes)`.
 *
 * Wrap-around arithmetic (no overflow traps). A divide by zero
 * leaves HI and LO at zero; INT32_MIN / -1 gives LO = INT32_MIN,
 * HI = 0.
 */
template <typename Memory>
inline Outcome
execute(ExecOp op, isa::Instruction inst, Addr pc, Word rs, Word rt,
        HiLo &hl, Memory &mem)
{
    Outcome o;
    o.nextPc = pc + 4;
    const Word simm = static_cast<Word>(inst.simm16());
    const auto branch = [&](bool taken) {
        o.taken = taken;
        if (taken)
            o.nextPc = pc + 4 + (simm << 2);
    };
    switch (op) {
      case ExecOp::Nop:
      case ExecOp::Unknown:
      case ExecOp::Syscall:
        break;

      case ExecOp::Sll: o.result = rt << inst.shamt(); break;
      case ExecOp::Srl: o.result = rt >> inst.shamt(); break;
      case ExecOp::Sra:
        o.result = static_cast<Word>(static_cast<SWord>(rt) >>
                                     inst.shamt());
        break;
      case ExecOp::Sllv: o.result = rt << (rs & 31); break;
      case ExecOp::Srlv: o.result = rt >> (rs & 31); break;
      case ExecOp::Srav:
        o.result = static_cast<Word>(static_cast<SWord>(rt) >> (rs & 31));
        break;

      case ExecOp::Add: o.result = rs + rt; break;
      case ExecOp::Sub: o.result = rs - rt; break;
      case ExecOp::And: o.result = rs & rt; break;
      case ExecOp::Or: o.result = rs | rt; break;
      case ExecOp::Xor: o.result = rs ^ rt; break;
      case ExecOp::Nor: o.result = ~(rs | rt); break;
      case ExecOp::Slt:
        o.result = static_cast<SWord>(rs) < static_cast<SWord>(rt);
        break;
      case ExecOp::Sltu: o.result = rs < rt; break;
      case ExecOp::Mfhi: o.result = hl.hi; break;
      case ExecOp::Mflo: o.result = hl.lo; break;
      case ExecOp::Mthi: hl.hi = rs; break;
      case ExecOp::Mtlo: hl.lo = rs; break;

      case ExecOp::Mult: {
        const std::int64_t p =
            std::int64_t{static_cast<SWord>(rs)} * static_cast<SWord>(rt);
        hl.lo = static_cast<Word>(p);
        hl.hi = static_cast<Word>(static_cast<std::uint64_t>(p) >> 32);
        break;
      }
      case ExecOp::Multu: {
        const std::uint64_t p = std::uint64_t{rs} * rt;
        hl.lo = static_cast<Word>(p);
        hl.hi = static_cast<Word>(p >> 32);
        break;
      }
      case ExecOp::Div: {
        const SWord a = static_cast<SWord>(rs);
        const SWord b = static_cast<SWord>(rt);
        if (b == 0) {
            hl = {};
        } else if (a == INT32_MIN && b == -1) {
            hl.lo = static_cast<Word>(INT32_MIN);
            hl.hi = 0;
        } else {
            hl.lo = static_cast<Word>(a / b);
            hl.hi = static_cast<Word>(a % b);
        }
        break;
      }
      case ExecOp::Divu:
        if (rt == 0) {
            hl = {};
        } else {
            hl.lo = rs / rt;
            hl.hi = rs % rt;
        }
        break;

      case ExecOp::AddImm: o.result = rs + simm; break;
      case ExecOp::SltImm:
        o.result = static_cast<SWord>(rs) < inst.simm16();
        break;
      case ExecOp::SltuImm: o.result = rs < simm; break;
      case ExecOp::AndImm: o.result = rs & inst.imm16(); break;
      case ExecOp::OrImm: o.result = rs | inst.imm16(); break;
      case ExecOp::XorImm: o.result = rs ^ inst.imm16(); break;
      case ExecOp::Lui: o.result = Word{inst.imm16()} << 16; break;

      case ExecOp::Lb:
        o.memAddr = rs + simm;
        o.memData = mem.load(o.memAddr, 1);
        o.result = signExtend(o.memData, 8);
        break;
      case ExecOp::Lbu:
        o.memAddr = rs + simm;
        o.memData = o.result = mem.load(o.memAddr, 1);
        break;
      case ExecOp::Lh:
        o.memAddr = rs + simm;
        o.memData = mem.load(o.memAddr, 2);
        o.result = signExtend(o.memData, 16);
        break;
      case ExecOp::Lhu:
        o.memAddr = rs + simm;
        o.memData = o.result = mem.load(o.memAddr, 2);
        break;
      case ExecOp::Lw:
        o.memAddr = rs + simm;
        o.memData = o.result = mem.load(o.memAddr, 4);
        break;

      case ExecOp::Sb:
        o.memAddr = rs + simm;
        o.memData = rt & 0xff;
        mem.store(o.memAddr, o.memData, 1);
        break;
      case ExecOp::Sh:
        o.memAddr = rs + simm;
        o.memData = rt & 0xffff;
        mem.store(o.memAddr, o.memData, 2);
        break;
      case ExecOp::Sw:
        o.memAddr = rs + simm;
        o.memData = rt;
        mem.store(o.memAddr, o.memData, 4);
        break;

      case ExecOp::Beq: branch(rs == rt); break;
      case ExecOp::Bne: branch(rs != rt); break;
      case ExecOp::Blez: branch(static_cast<SWord>(rs) <= 0); break;
      case ExecOp::Bgtz: branch(static_cast<SWord>(rs) > 0); break;
      case ExecOp::Bltz: branch(static_cast<SWord>(rs) < 0); break;
      case ExecOp::Bgez: branch(static_cast<SWord>(rs) >= 0); break;

      case ExecOp::J:
      case ExecOp::Jal:
        o.taken = true;
        o.nextPc = (pc & 0xf0000000) | (inst.target26() << 2);
        if (op == ExecOp::Jal)
            o.result = pc + 4; // link address
        break;
      case ExecOp::Jr:
      case ExecOp::Jalr:
        o.taken = true;
        o.nextPc = rs;
        if (op == ExecOp::Jalr)
            o.result = pc + 4;
        break;
    }
    return o;
}

} // namespace sigcomp::cpu

#endif // SIGCOMP_CPU_EXECUTE_H_
