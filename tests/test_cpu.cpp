/**
 * @file
 * Functional-core tests: instruction semantics, programs with
 * control flow and memory, syscalls, and trace emission.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/functional_core.h"
#include "isa/assembler.h"
#include "isa/text_assembler.h"

namespace sigcomp::cpu
{
namespace
{

using isa::Assembler;
using isa::Opcode;
using isa::Program;
namespace reg = isa::reg;

/** Collects the full trace for inspection. */
class VectorSink : public TraceSink
{
  public:
    void retire(const DynInstr &di) override { trace.push_back(di); }
    std::vector<DynInstr> trace;
};

Program
asmProgram(const std::function<void(Assembler &)> &body,
           const std::string &name = "t")
{
    Assembler a;
    a.label("main");
    body(a);
    a.exitProgram();
    return a.finish(name);
}

TEST(FunctionalCore, ArithmeticBasics)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 20);
        a.li(reg::t1, 22);
        a.addu(reg::t2, reg::t0, reg::t1);
        a.subu(reg::t3, reg::t0, reg::t1);
        a.and_(reg::t4, reg::t0, reg::t1);
        a.or_(reg::t5, reg::t0, reg::t1);
        a.xor_(reg::t6, reg::t0, reg::t1);
        a.nor(reg::t7, reg::t0, reg::t1);
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    const RunResult r = core.run();
    EXPECT_EQ(r.reason, StopReason::Exited);
    EXPECT_EQ(core.reg(reg::t2), 42u);
    EXPECT_EQ(core.reg(reg::t3), static_cast<Word>(-2));
    EXPECT_EQ(core.reg(reg::t4), 20u & 22u);
    EXPECT_EQ(core.reg(reg::t5), 20u | 22u);
    EXPECT_EQ(core.reg(reg::t6), 20u ^ 22u);
    EXPECT_EQ(core.reg(reg::t7), ~(20u | 22u));
}

TEST(FunctionalCore, ZeroRegisterIsImmutable)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 7);
        a.addu(reg::zero, reg::t0, reg::t0);
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::zero), 0u);
}

TEST(FunctionalCore, ShiftSemantics)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, -8);           // 0xfffffff8
        a.sll(reg::t1, reg::t0, 4);
        a.srl(reg::t2, reg::t0, 4);
        a.sra(reg::t3, reg::t0, 4);
        a.li(reg::t4, 36);           // shift amounts use low 5 bits
        a.sllv(reg::t5, reg::t0, reg::t4);
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::t1), 0xffffff80u);
    EXPECT_EQ(core.reg(reg::t2), 0x0fffffffu);
    EXPECT_EQ(core.reg(reg::t3), 0xffffffffu);
    EXPECT_EQ(core.reg(reg::t5), static_cast<Word>(-8) << 4);
}

TEST(FunctionalCore, SltVariants)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, -1);
        a.li(reg::t1, 1);
        a.slt(reg::t2, reg::t0, reg::t1);  // signed: -1 < 1
        a.sltu(reg::t3, reg::t0, reg::t1); // unsigned: 0xffffffff > 1
        a.slti(reg::t4, reg::t1, 100);
        a.sltiu(reg::t5, reg::t1, 0xffff); // imm sign-extends, huge
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::t2), 1u);
    EXPECT_EQ(core.reg(reg::t3), 0u);
    EXPECT_EQ(core.reg(reg::t4), 1u);
    EXPECT_EQ(core.reg(reg::t5), 1u);
}

TEST(FunctionalCore, MultDivHiLo)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, -6);
        a.li(reg::t1, 7);
        a.mult(reg::t0, reg::t1);
        a.mflo(reg::t2);
        a.mfhi(reg::t3);
        a.li(reg::t4, 45);
        a.li(reg::t5, 7);
        a.div(reg::t4, reg::t5);
        a.mflo(reg::t6); // quotient
        a.mfhi(reg::t7); // remainder
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::t2), static_cast<Word>(-42));
    EXPECT_EQ(core.reg(reg::t3), 0xffffffffu); // sign of product
    EXPECT_EQ(core.reg(reg::t6), 6u);
    EXPECT_EQ(core.reg(reg::t7), 3u);
}

TEST(FunctionalCore, DivideByZeroIsSafe)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 5);
        a.li(reg::t1, 0);
        a.div(reg::t0, reg::t1);
        a.mflo(reg::t2);
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    EXPECT_EQ(core.run().reason, StopReason::Exited);
    EXPECT_EQ(core.reg(reg::t2), 0u);
}

TEST(FunctionalCore, DivideCornerCases)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, INT32_MIN);
        a.li(reg::t1, -1);
        a.div(reg::t0, reg::t1); // overflows: LO = INT32_MIN, HI = 0
        a.mflo(reg::s0);
        a.mfhi(reg::s1);
        a.li(reg::t2, 0);
        a.mthi(reg::t1);
        a.divu(reg::t0, reg::t2); // by zero: HI = LO = 0
        a.mflo(reg::s2);
        a.mfhi(reg::s3);
        a.divu(reg::t1, reg::t0); // 0xffffffff / 0x80000000
        a.mflo(reg::s4);
        a.mfhi(reg::s5);
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    EXPECT_EQ(core.run().reason, StopReason::Exited);
    EXPECT_EQ(core.reg(reg::s0), 0x80000000u);
    EXPECT_EQ(core.reg(reg::s1), 0u);
    EXPECT_EQ(core.reg(reg::s2), 0u);
    EXPECT_EQ(core.reg(reg::s3), 0u);
    EXPECT_EQ(core.reg(reg::s4), 1u);
    EXPECT_EQ(core.reg(reg::s5), 0x7fffffffu);
}

TEST(FunctionalCore, LoadStoreAllWidths)
{
    Assembler a;
    a.dataLabel("buf");
    a.dataSpace(16);
    a.label("main");
    a.la(reg::s0, "buf");
    a.li(reg::t0, -2);           // 0xfffffffe
    a.sw(reg::t0, 0, reg::s0);
    a.sh(reg::t0, 4, reg::s0);
    a.sb(reg::t0, 8, reg::s0);
    a.lw(reg::t1, 0, reg::s0);
    a.lh(reg::t2, 4, reg::s0);   // sign-extended
    a.lhu(reg::t3, 4, reg::s0);  // zero-extended
    a.lb(reg::t4, 8, reg::s0);
    a.lbu(reg::t5, 8, reg::s0);
    a.exitProgram();
    const Program p = a.finish("mem");

    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::t1), 0xfffffffeu);
    EXPECT_EQ(core.reg(reg::t2), 0xfffffffeu);
    EXPECT_EQ(core.reg(reg::t3), 0x0000fffeu);
    EXPECT_EQ(core.reg(reg::t4), 0xfffffffeu);
    EXPECT_EQ(core.reg(reg::t5), 0x000000feu);
}

TEST(FunctionalCore, LoopComputesTriangularNumber)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 10); // n
        a.li(reg::t1, 0);  // sum
        a.label("loop");
        a.addu(reg::t1, reg::t1, reg::t0);
        a.addiu(reg::t0, reg::t0, -1);
        a.bgtz(reg::t0, "loop");
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::t1), 55u);
}

TEST(FunctionalCore, JalAndJrSubroutine)
{
    Assembler a;
    a.label("main");
    a.li(reg::a0, 5);
    a.jal("double");
    a.move(reg::s0, reg::v1);
    a.exitProgram();
    a.label("double");
    a.addu(reg::v1, reg::a0, reg::a0);
    a.jr(reg::ra);
    const Program p = a.finish("call");

    mem::MainMemory m;
    FunctionalCore core(p, m);
    EXPECT_EQ(core.run().reason, StopReason::Exited);
    EXPECT_EQ(core.reg(reg::s0), 10u);
}

TEST(FunctionalCore, BranchVariants)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::s0, 0);
        a.li(reg::t0, -3);
        a.bltz(reg::t0, "neg");
        a.li(reg::s0, 111); // skipped
        a.label("neg");
        a.addiu(reg::s0, reg::s0, 1);
        a.bgez(reg::zero, "z");
        a.addiu(reg::s0, reg::s0, 100); // skipped
        a.label("z");
        a.addiu(reg::s0, reg::s0, 1);
        a.blez(reg::zero, "done");
        a.addiu(reg::s0, reg::s0, 100); // skipped
        a.label("done");
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    core.run();
    EXPECT_EQ(core.reg(reg::s0), 2u);
}

TEST(FunctionalCore, SyscallsPrintAndAssert)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::a0, 42);
        a.printInt();
        a.li(reg::a0, 7);
        a.li(reg::a1, 7);
        a.assertEq();
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    const RunResult r = core.run();
    EXPECT_EQ(r.reason, StopReason::Exited);
    ASSERT_EQ(core.printedInts().size(), 1u);
    EXPECT_EQ(core.printedInts()[0], 42);
}

TEST(FunctionalCore, AssertFailureStopsRun)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::a0, 1);
        a.li(reg::a1, 2);
        a.assertEq();
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    const RunResult r = core.run();
    EXPECT_EQ(r.reason, StopReason::AssertFailed);
    EXPECT_EQ(r.assertActual, 1u);
    EXPECT_EQ(r.assertExpected, 2u);
}

TEST(FunctionalCore, InstrLimitStops)
{
    Assembler a;
    a.label("main");
    a.label("forever");
    a.b("forever");
    const Program p = a.finish("inf");
    mem::MainMemory m;
    FunctionalCore core(p, m);
    const RunResult r = core.run(nullptr, 1000);
    EXPECT_EQ(r.reason, StopReason::InstrLimit);
    EXPECT_EQ(r.instructions, 1000u);
}

TEST(FunctionalCore, TraceRecordsOperandsAndMemory)
{
    Assembler a;
    a.dataLabel("x");
    a.dataWord(0x1234);
    a.label("main");
    a.la(reg::s0, "x");
    a.lw(reg::t0, 0, reg::s0);
    a.addiu(reg::t1, reg::t0, 1);
    a.sw(reg::t1, 0, reg::s0);
    a.exitProgram();
    const Program p = a.finish("trace");

    mem::MainMemory m;
    FunctionalCore core(p, m);
    VectorSink sink;
    core.run(&sink);

    // lui, ori, lw, addiu, sw, li(v0), syscall = 7 records.
    ASSERT_EQ(sink.trace.size(), 7u);

    const DynInstr &lw = sink.trace[2];
    EXPECT_TRUE(lw.dec->isLoad);
    EXPECT_EQ(lw.memAddr, isa::dataBase);
    EXPECT_EQ(lw.memData, 0x1234u);
    EXPECT_EQ(lw.result, 0x1234u);

    const DynInstr &addiu = sink.trace[3];
    EXPECT_EQ(addiu.srcRs, 0x1234u);
    EXPECT_EQ(addiu.result, 0x1235u);

    const DynInstr &sw = sink.trace[4];
    EXPECT_TRUE(sw.dec->isStore);
    EXPECT_EQ(sw.memData, 0x1235u);
    EXPECT_EQ(m.readWord(isa::dataBase), 0x1235u);
}

TEST(FunctionalCore, TraceBranchOutcomes)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        a.beq(reg::t0, reg::zero, "skip"); // not taken
        a.bne(reg::t0, reg::zero, "skip"); // taken
        a.nop();
        a.label("skip");
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    VectorSink sink;
    core.run(&sink);

    const DynInstr &nt = sink.trace[1];
    EXPECT_FALSE(nt.taken);
    EXPECT_EQ(nt.nextPc, nt.pc + 4);
    const DynInstr &tk = sink.trace[2];
    EXPECT_TRUE(tk.taken);
    EXPECT_NE(tk.nextPc, tk.pc + 4);
}

TEST(FunctionalCore, NextPcChainsThroughTrace)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 3);
        a.label("l");
        a.addiu(reg::t0, reg::t0, -1);
        a.bgtz(reg::t0, "l");
    });
    mem::MainMemory m;
    FunctionalCore core(p, m);
    VectorSink sink;
    core.run(&sink);
    for (std::size_t i = 0; i + 1 < sink.trace.size(); ++i)
        EXPECT_EQ(sink.trace[i].nextPc, sink.trace[i + 1].pc);
}

TEST(FunctionalCore, RunToCompletionHelper)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::a0, 3);
        a.li(reg::a1, 3);
        a.assertEq();
    });
    const RunResult r = runToCompletion(p);
    EXPECT_EQ(r.reason, StopReason::Exited);
    EXPECT_GT(r.instructions, 0u);
}

} // namespace
} // namespace sigcomp::cpu
