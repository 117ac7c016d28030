/**
 * @file
 * Programmatic assembler: workload kernels are written against this
 * builder API (label-based control flow, pseudo-instructions, data
 * directives) and linked into a Program.
 */

#ifndef SIGCOMP_ISA_ASSEMBLER_H_
#define SIGCOMP_ISA_ASSEMBLER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "isa/program.h"

namespace sigcomp::isa
{

/**
 * Two-pass assembler. Instructions are emitted immediately; label
 * references are recorded as fixups and patched in finish().
 *
 * Pseudo-instructions (li, la, move, b, blt/bge/bgt/ble, mul, neg)
 * expand to fixed-length sequences so instruction addresses are
 * stable at emission time.
 */
class Assembler
{
  public:
    Assembler() = default;

    // ---- labels ------------------------------------------------------
    /** Bind @p name to the current text position. */
    void label(const std::string &name);

    /** Bind @p name to the current data position. */
    void dataLabel(const std::string &name);

    // ---- R-format ----------------------------------------------------
    void sll(Reg rd, Reg rt, unsigned shamt);
    void srl(Reg rd, Reg rt, unsigned shamt);
    void sra(Reg rd, Reg rt, unsigned shamt);
    void sllv(Reg rd, Reg rt, Reg rs);
    void srlv(Reg rd, Reg rt, Reg rs);
    void srav(Reg rd, Reg rt, Reg rs);
    void jr(Reg rs);
    void jalr(Reg rd, Reg rs);
    void syscall();
    void mfhi(Reg rd);
    void mflo(Reg rd);
    void mthi(Reg rs);
    void mtlo(Reg rs);
    void mult(Reg rs, Reg rt);
    void multu(Reg rs, Reg rt);
    void div(Reg rs, Reg rt);
    void divu(Reg rs, Reg rt);
    void add(Reg rd, Reg rs, Reg rt);
    void addu(Reg rd, Reg rs, Reg rt);
    void sub(Reg rd, Reg rs, Reg rt);
    void subu(Reg rd, Reg rs, Reg rt);
    void and_(Reg rd, Reg rs, Reg rt);
    void or_(Reg rd, Reg rs, Reg rt);
    void xor_(Reg rd, Reg rs, Reg rt);
    void nor(Reg rd, Reg rs, Reg rt);
    void slt(Reg rd, Reg rs, Reg rt);
    void sltu(Reg rd, Reg rs, Reg rt);

    // ---- I-format ----------------------------------------------------
    void addi(Reg rt, Reg rs, std::int16_t imm);
    void addiu(Reg rt, Reg rs, std::int16_t imm);
    void slti(Reg rt, Reg rs, std::int16_t imm);
    void sltiu(Reg rt, Reg rs, std::int16_t imm);
    void andi(Reg rt, Reg rs, std::uint16_t imm);
    void ori(Reg rt, Reg rs, std::uint16_t imm);
    void xori(Reg rt, Reg rs, std::uint16_t imm);
    void lui(Reg rt, std::uint16_t imm);
    void lb(Reg rt, std::int16_t off, Reg base);
    void lh(Reg rt, std::int16_t off, Reg base);
    void lw(Reg rt, std::int16_t off, Reg base);
    void lbu(Reg rt, std::int16_t off, Reg base);
    void lhu(Reg rt, std::int16_t off, Reg base);
    void sb(Reg rt, std::int16_t off, Reg base);
    void sh(Reg rt, std::int16_t off, Reg base);
    void sw(Reg rt, std::int16_t off, Reg base);

    // ---- control flow (label-target forms) ----------------------------
    void beq(Reg rs, Reg rt, const std::string &target);
    void bne(Reg rs, Reg rt, const std::string &target);
    void blez(Reg rs, const std::string &target);
    void bgtz(Reg rs, const std::string &target);
    void bltz(Reg rs, const std::string &target);
    void bgez(Reg rs, const std::string &target);
    void j(const std::string &target);
    void jal(const std::string &target);

    // ---- pseudo-instructions ------------------------------------------
    /** rd = imm (1 instruction if it fits 16 bits, else lui+ori). */
    void li(Reg rd, SWord imm);
    /** rd = address of @p sym (always lui+ori, 2 instructions). */
    void la(Reg rd, const std::string &sym);
    /** rd = rs. */
    void move(Reg rd, Reg rs);
    /** rd = -rs. */
    void neg(Reg rd, Reg rs);
    /** Unconditional branch. */
    void b(const std::string &target);
    /** rd = rs * rt (mult + mflo). */
    void mul(Reg rd, Reg rs, Reg rt);
    /** Signed compare-and-branch pairs (slt + bne/beq). */
    void blt(Reg rs, Reg rt, const std::string &target);
    void bge(Reg rs, Reg rt, const std::string &target);
    void bgt(Reg rs, Reg rt, const std::string &target);
    void ble(Reg rs, Reg rt, const std::string &target);
    void nop();

    /** li $v0, Exit; syscall. */
    void exitProgram();
    /** Trap asserting a0 == a1 inside the simulated program. */
    void assertEq();
    /** li $v0, PrintInt; syscall (prints $a0). */
    void printInt();

    // ---- data directives ----------------------------------------------
    /** Align the data cursor to @p alignment bytes. */
    void dataAlign(unsigned alignment);
    /** Append one 32-bit word; returns its address. */
    Addr dataWord(Word value);
    /** Append words. */
    Addr dataWords(std::span<const Word> values);
    /** Append halfwords. */
    Addr dataHalves(std::span<const std::int16_t> values);
    /** Append raw bytes. */
    Addr dataBytes(std::span<const Byte> values);
    /** Append @p n zero bytes. */
    Addr dataSpace(std::size_t n);

    /** Current data cursor address. */
    Addr dataCursor() const;

    /**
     * Resolve fixups and produce the linked program.
     * Fatal on undefined or duplicate labels and on out-of-range
     * branch displacements.
     */
    Program finish(const std::string &program_name);

  private:
    enum class FixupKind { BranchRel16, Jump26, Hi16, Lo16 };

    struct Fixup
    {
        std::size_t index;
        FixupKind kind;
        std::string label;
    };

    void emit(Instruction inst);
    void emitBranch(Instruction inst, const std::string &target);
    Addr addrOfIndex(std::size_t index) const;

    std::vector<Instruction> text_;
    std::vector<Byte> data_;
    std::map<std::string, Addr> symbols_;
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace sigcomp::isa

#endif // SIGCOMP_ISA_ASSEMBLER_H_
