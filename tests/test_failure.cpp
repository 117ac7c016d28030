/**
 * @file
 * Failure-injection tests: user errors must die with fatal()
 * (clean exit + message) and internal misuse must die with panic(),
 * per the gem5-style error discipline in common/logging.h.
 */

#include <gtest/gtest.h>

#include "cpu/functional_core.h"
#include "isa/assembler.h"
#include "isa/text_assembler.h"
#include "mem/cache.h"
#include "mem/main_memory.h"
#include "workloads/workload.h"
#include "tests/live_oracle.h"

namespace sigcomp
{
namespace
{

using isa::Assembler;
namespace reg = isa::reg;

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, DuplicateLabelIsFatal)
{
    EXPECT_EXIT(
        {
            Assembler a;
            a.label("x");
            a.label("x");
        },
        ::testing::ExitedWithCode(1), "duplicate label");
}

TEST(FailureDeathTest, UndefinedLabelIsFatal)
{
    EXPECT_EXIT(
        {
            Assembler a;
            a.label("main");
            a.b("nowhere");
            a.finish("bad");
        },
        ::testing::ExitedWithCode(1), "undefined label");
}

TEST(FailureDeathTest, UnknownMnemonicIsFatal)
{
    EXPECT_EXIT(isa::assembleText(".text\nmain:\n  frobnicate $t0\n",
                                  "bad"),
                ::testing::ExitedWithCode(1), "unknown mnemonic");
}

TEST(FailureDeathTest, BadRegisterIsFatal)
{
    EXPECT_EXIT(isa::assembleText(".text\nmain:\n  addu $t0, $t1, $zz\n",
                                  "bad"),
                ::testing::ExitedWithCode(1), "bad register");
}

TEST(FailureDeathTest, DataDirectiveOutsideDataIsFatal)
{
    EXPECT_EXIT(isa::assembleText(".text\n.word 5\n", "bad"),
                ::testing::ExitedWithCode(1), "outside .data");
}

TEST(FailureDeathTest, ImmediateRangeIsFatal)
{
    EXPECT_EXIT(isa::assembleText(".text\nmain:\n  addiu $t0, $t0, "
                                  "700000\n",
                                  "bad"),
                ::testing::ExitedWithCode(1), "immediate out of range");
}

TEST(FailureDeathTest, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(workloads::Suite::build("doom"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(FailureDeathTest, UnknownSymbolIsFatal)
{
    Assembler a;
    a.label("main");
    a.exitProgram();
    const isa::Program p = a.finish("t");
    EXPECT_EXIT(p.symbol("missing"), ::testing::ExitedWithCode(1),
                "unknown symbol");
}

TEST(FailureDeathTest, UnalignedWordAccessPanics)
{
    mem::MainMemory m;
    EXPECT_DEATH(m.readWord(0x1001), "unaligned");
    EXPECT_DEATH(m.writeHalf(0x1001, 1), "unaligned");
}

TEST(FailureDeathTest, BadCacheGeometryPanics)
{
    EXPECT_DEATH(mem::Cache(mem::CacheParams{"c", 8192, 1, 33, 1}),
                 "power of two");
    EXPECT_DEATH(mem::Cache(mem::CacheParams{"c", 8191, 1, 32, 1}),
                 "divisible");
}

TEST(FailureDeathTest, FetchOutsideTextPanics)
{
    Assembler a;
    a.label("main");
    a.exitProgram();
    const isa::Program p = a.finish("t");
    EXPECT_DEATH(p.fetch(isa::textBase + 0x1000), "outside text");
}

TEST(FailureDeathTest, UnknownSyscallIsFatal)
{
    Assembler a;
    a.label("main");
    a.li(reg::v0, 9999);
    a.syscall();
    const isa::Program p = a.finish("t");
    EXPECT_EXIT(
        {
            mem::MainMemory m;
            cpu::FunctionalCore core(p, m);
            core.run();
        },
        ::testing::ExitedWithCode(1), "unknown syscall");
}

TEST(FailureDeathTest, PipelineWithoutBindPanics)
{
    auto pipe = pipeline::makePipeline(pipeline::Design::Baseline32,
                                       pipeline::PipelineConfig());
    cpu::DynInstr di;
    isa::DecodedInstr dec = isa::decode(isa::Instruction::nop());
    di.dec = &dec;
    EXPECT_DEATH(pipe->retire(di), "not bound");
}

TEST(FailureDeathTest, SelfCheckFailurePropagates)
{
    Assembler a;
    a.label("main");
    a.li(reg::a0, 1);
    a.li(reg::a1, 2);
    a.assertEq();
    a.exitProgram();
    const isa::Program p = a.finish("bad-check");
    auto pipe = pipeline::makePipeline(pipeline::Design::Baseline32,
                                       pipeline::PipelineConfig());
    EXPECT_EXIT(live::runPipelines(p, {pipe.get()}),
                ::testing::ExitedWithCode(1), "failed self-check");
}

TEST(FailureDeathTest, BranchOutOfRangeInTextAsmIsFatal)
{
    // Shift amount range check in the text assembler.
    EXPECT_EXIT(isa::assembleText(".text\nmain:\n  sll $t0, $t0, 99\n",
                                  "bad"),
                ::testing::ExitedWithCode(1), "shift amount");
}

} // namespace
} // namespace sigcomp
