/**
 * @file
 * Pipeline timing and activity tests: hand-computed schedules on the
 * baseline, occupancy/streaming behaviour of the serial designs,
 * branch/load-use penalties, cache-miss latency plumbing,
 * cross-design invariants on a real workload, and the SharedQuanta
 * replay records of the whole suite.
 */

#include <gtest/gtest.h>

#include <functional>

#include "cpu/trace_buffer.h"
#include "isa/assembler.h"
#include "pipeline/runner.h"
#include "workloads/workload.h"
#include "tests/live_oracle.h"

namespace sigcomp::pipeline
{
namespace
{

using isa::Assembler;
using isa::Program;
namespace reg = isa::reg;

/** Memory with all miss penalties zeroed: pure-pipeline timing. */
PipelineConfig
zeroLatencyConfig()
{
    PipelineConfig cfg;
    cfg.memory.l2.hitLatency = 0;
    cfg.memory.memoryPenalty = 0;
    cfg.memory.itlb.missPenalty = 0;
    cfg.memory.dtlb.missPenalty = 0;
    return cfg;
}

Program
asmProgram(const std::function<void(Assembler &)> &body)
{
    Assembler a;
    a.label("main");
    body(a);
    a.exitProgram();
    return a.finish("t");
}

PipelineResult
runOne(const Program &p, Design d,
       PipelineConfig cfg = zeroLatencyConfig())
{
    auto pipe = makePipeline(d, cfg);
    live::runPipelines(p, {pipe.get()});
    return pipe->result();
}

// ----------------------------------------------------------------- baseline

TEST(Baseline, StraightLineCpiIsOne)
{
    // N independent narrow ALU ops + exit (li + syscall): every
    // instruction enters IF one cycle apart; the last ends at N+4.
    const Program p = asmProgram([](Assembler &a) {
        for (int i = 0; i < 20; ++i)
            a.addiu(reg::t0, reg::zero, static_cast<std::int16_t>(i));
    });
    const PipelineResult r = runOne(p, Design::Baseline32);
    EXPECT_EQ(r.instructions, 22u); // 20 + li v0 + syscall
    EXPECT_EQ(r.cycles, r.instructions + 4);
    EXPECT_EQ(r.stalls.total(), 0u);
}

TEST(Baseline, ForwardingHidesAluDependencies)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        for (int i = 0; i < 20; ++i)
            a.addu(reg::t0, reg::t0, reg::t0); // tight dependence
    });
    const PipelineResult r = runOne(p, Design::Baseline32);
    EXPECT_EQ(r.cycles, r.instructions + 4);
    EXPECT_EQ(r.stalls.dataHazardCycles, 0u);
}

TEST(Baseline, BranchPenaltyIsTwoCycles)
{
    // Four not-taken branches with independent operands.
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        a.nop();
        a.nop();
        for (int i = 0; i < 4; ++i) {
            a.beq(reg::t0, reg::zero, "off");
            a.nop();
            a.nop();
        }
        a.label("off");
    });
    const PipelineResult r = runOne(p, Design::Baseline32);
    // 4 conditional branches; exitProgram has no control transfer.
    EXPECT_EQ(r.stalls.controlCycles, 4u * 2u);
}

TEST(Baseline, LoadUseStallsOneCycle)
{
    Assembler a;
    a.dataLabel("x");
    a.dataWord(7);
    a.label("main");
    a.la(reg::s0, "x");
    a.lw(reg::t0, 0, reg::s0);
    a.addu(reg::t1, reg::t0, reg::t0); // immediate use: 1 bubble
    a.lw(reg::t2, 0, reg::s0);
    a.nop();
    a.addu(reg::t3, reg::t2, reg::t2); // one instr apart: no bubble
    a.exitProgram();
    const PipelineResult r = runOne(a.finish("lu"), Design::Baseline32);
    EXPECT_EQ(r.stalls.dataHazardCycles, 1u);
}

TEST(Baseline, MultiplierBlocksConsumers)
{
    const Program with_mult = asmProgram([](Assembler &a) {
        a.li(reg::t0, 3);
        a.li(reg::t1, 5);
        a.mult(reg::t0, reg::t1);
        a.mflo(reg::t2);
    });
    const PipelineResult r = runOne(with_mult, Design::Baseline32);
    // mult occupies EX for multCycles(4); mflo reads LO afterwards.
    EXPECT_GT(r.stalls.dataHazardCycles + r.stalls.structuralCycles, 2u);
}

TEST(Baseline, ColdMissesAreAccounted)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
    });
    PipelineConfig cfg; // real latencies
    const PipelineResult r = runOne(p, Design::Baseline32, cfg);
    // First fetch: I-TLB miss (30) + L2 miss (30).
    EXPECT_GE(r.stalls.icacheMissCycles, 60u);
    EXPECT_EQ(r.l1i.readMisses, 1u);
}

TEST(Baseline, DcacheMissLatencyAccounted)
{
    Assembler a;
    a.dataLabel("x");
    a.dataWord(1);
    a.label("main");
    a.la(reg::s0, "x");
    a.lw(reg::t0, 0, reg::s0);
    a.exitProgram();
    PipelineConfig cfg;
    const PipelineResult r = runOne(a.finish("m"), Design::Baseline32,
                                    cfg);
    EXPECT_GE(r.stalls.dcacheMissCycles, 60u); // D-TLB + L2 miss
    EXPECT_EQ(r.l1d.readMisses, 1u);
}

// ---------------------------------------------------------------- byte-serial

TEST(ByteSerial, NarrowStraightLineStaysNearCpiOne)
{
    const Program p = asmProgram([](Assembler &a) {
        for (int i = 0; i < 30; ++i)
            a.addiu(reg::t0, reg::zero, 5);
    });
    const PipelineResult r = runOne(p, Design::ByteSerial);
    // All quantities are single-byte; the machine streams at 1 IPC.
    EXPECT_LE(r.cycles, r.instructions + 6);
}

TEST(ByteSerial, WideOperandsSerialise)
{
    const Program narrow = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        a.li(reg::t1, 2);
        for (int i = 0; i < 16; ++i)
            a.addu(reg::t2, reg::t0, reg::t1);
    });
    const Program wide = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x12345678); // 2 instrs
        a.li(reg::t1, 0x7654321);  // 2 instrs
        for (int i = 0; i < 16; ++i)
            a.addu(reg::t2, reg::t0, reg::t1);
    });
    const PipelineResult rn = runOne(narrow, Design::ByteSerial);
    const PipelineResult rw = runOne(wide, Design::ByteSerial);
    // Wide adds occupy RF/EX/WB for 4 cycles each.
    EXPECT_GT(rw.cycles, rn.cycles + 3 * 14);
    EXPECT_GT(rw.stalls.structuralCycles, rn.stalls.structuralCycles);
}

TEST(ByteSerial, StreamingOverlapsDependentChain)
{
    // Dependent wide adds: streaming forwarding lets a consumer
    // start one cycle behind its producer instead of four.
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x12345678);
        for (int i = 0; i < 10; ++i)
            a.addu(reg::t0, reg::t0, reg::t0);
    });
    const PipelineResult r = runOne(p, Design::ByteSerial);
    // Atomic forwarding would cost >= 3 extra cycles per link.
    // Structural EX occupancy (4 cycles each) dominates instead.
    EXPECT_LT(r.stalls.dataHazardCycles, 10u);
    EXPECT_GT(r.stalls.structuralCycles, 20u);
}

TEST(ByteSerial, FourByteInstructionsSlowFetch)
{
    // xori needs a 4-byte fetch only when the immediate is wide;
    // nor (not in the default top-8 functs) always needs 4 bytes.
    const Program three = asmProgram([](Assembler &a) {
        for (int i = 0; i < 20; ++i)
            a.addu(reg::t0, reg::t1, reg::t2);
    });
    const Program four = asmProgram([](Assembler &a) {
        for (int i = 0; i < 20; ++i)
            a.nor(reg::t0, reg::t1, reg::t2);
    });
    const PipelineResult r3 = runOne(three, Design::ByteSerial);
    const PipelineResult r4 = runOne(four, Design::ByteSerial);
    EXPECT_GE(r4.cycles, r3.cycles + 18);
}

TEST(ByteSerial, BranchPenaltyGrowsWithOperandWidth)
{
    const Program narrow = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        for (int i = 0; i < 6; ++i) {
            a.beq(reg::t0, reg::zero, "out");
            a.nop();
        }
        a.label("out");
    });
    const Program wide = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x12345678);
        for (int i = 0; i < 6; ++i) {
            a.beq(reg::t0, reg::zero, "out");
            a.nop();
        }
        a.label("out");
    });
    const PipelineResult rn = runOne(narrow, Design::ByteSerial);
    const PipelineResult rw = runOne(wide, Design::ByteSerial);
    EXPECT_GT(rw.stalls.controlCycles, rn.stalls.controlCycles);
}

// ------------------------------------------------------------ other designs

TEST(HalfwordSerial, HalfwordOperandsBeatByteSerial)
{
    // 0x1234 is two significant bytes but one significant halfword.
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x1234);
        for (int i = 0; i < 20; ++i)
            a.addu(reg::t1, reg::t0, reg::t0);
    });
    const PipelineResult rb = runOne(p, Design::ByteSerial);
    const PipelineResult rh = runOne(p, Design::HalfwordSerial);
    EXPECT_LT(rh.cycles, rb.cycles);
}

TEST(SemiParallel, TwoByteAluHalvesWideAddOccupancy)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x12345678);
        a.li(reg::t1, 0x23456789);
        for (int i = 0; i < 16; ++i)
            a.addu(reg::t2, reg::t0, reg::t1);
    });
    const PipelineResult serial = runOne(p, Design::ByteSerial);
    const PipelineResult semi = runOne(p, Design::ByteSemiParallel);
    EXPECT_LT(semi.cycles, serial.cycles);
    // Four-byte adds: serial EX holds 4 cycles, semi-parallel 2.
    EXPECT_GE(serial.cycles, semi.cycles + 16);
}

TEST(Skewed, LongerPipeRaisesBranchPenalty)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1);
        for (int i = 0; i < 8; ++i) {
            a.beq(reg::t0, reg::zero, "out");
            a.nop();
        }
        a.label("out");
    });
    const PipelineResult base = runOne(p, Design::Baseline32);
    const PipelineResult skew = runOne(p, Design::ByteParallelSkewed);
    EXPECT_GT(skew.stalls.controlCycles, base.stalls.controlCycles);
    // Exactly one extra cycle per branch (resolve in stage 3 of 7).
    EXPECT_EQ(skew.stalls.controlCycles,
              base.stalls.controlCycles + 8);
}

TEST(SkewedBypass, NarrowBranchesResolveEarly)
{
    const Program p = asmProgram([](Assembler &a) {
        a.li(reg::t0, 1); // single significant byte
        for (int i = 0; i < 8; ++i) {
            a.beq(reg::t0, reg::zero, "out");
            a.nop();
        }
        a.label("out");
    });
    const PipelineResult skew = runOne(p, Design::ByteParallelSkewed);
    const PipelineResult byp = runOne(p, Design::SkewedBypass);
    EXPECT_LT(byp.stalls.controlCycles, skew.stalls.controlCycles);
}

TEST(Compressed, WideSourcesKeepStreamingAtFullRate)
{
    // The second register-read cycle uses a separate sub-bank, so a
    // stream of wide-operand adds still flows at ~1 IPC: wide
    // operands lengthen the path, not the throughput.
    const Program narrow = asmProgram([](Assembler &a) {
        a.li(reg::t0, 3);
        for (int i = 0; i < 16; ++i)
            a.addu(reg::t1, reg::t0, reg::t0);
    });
    const Program wide = asmProgram([](Assembler &a) {
        a.li(reg::t0, 0x12345678);
        for (int i = 0; i < 16; ++i)
            a.addu(reg::t1, reg::t0, reg::t0);
    });
    const PipelineResult rn = runOne(narrow,
                                     Design::ByteParallelCompressed);
    const PipelineResult rw = runOne(wide,
                                     Design::ByteParallelCompressed);
    EXPECT_LE(rw.cycles, rn.cycles + 4);
}

TEST(Compressed, WideSourceBranchesPayOneExtraCycle)
{
    const auto mk = [](SWord v) {
        return asmProgram([v](Assembler &a) {
            a.li(reg::t0, v);
            a.nop();
            a.nop();
            for (int i = 0; i < 8; ++i) {
                a.beq(reg::t0, reg::zero, "out");
                a.nop();
            }
            a.label("out");
        });
    };
    const PipelineResult rn =
        runOne(mk(1), Design::ByteParallelCompressed);
    const PipelineResult rw =
        runOne(mk(0x12345678), Design::ByteParallelCompressed);
    // Wide comparison operands pass through the RF high sub-bank,
    // resolving one cycle later: 8 extra control cycles.
    EXPECT_EQ(rw.stalls.controlCycles, rn.stalls.controlCycles + 8);
}

TEST(Compressed, WideLoadsLengthenLoadUse)
{
    Assembler a;
    a.dataLabel("narrow");
    a.dataWord(3);
    a.dataLabel("wide");
    a.dataWord(0x12345678);
    a.label("main");
    a.la(reg::s0, "narrow");
    a.la(reg::s1, "wide");
    a.nop();
    a.nop();
    a.lw(reg::t0, 0, reg::s0);
    a.addu(reg::t1, reg::t0, reg::t0); // narrow load-use
    a.nop();
    a.nop();
    a.lw(reg::t2, 0, reg::s1);
    a.addu(reg::t3, reg::t2, reg::t2); // wide load-use: +1 cycle
    a.exitProgram();
    const PipelineResult r =
        runOne(a.finish("wl"), Design::ByteParallelCompressed);
    // Narrow: MEM_hi skipped -> 1 bubble; wide: 2 bubbles.
    EXPECT_EQ(r.stalls.dataHazardCycles, 1u + 2u);
}

// --------------------------------------------------------------- invariants

TEST(CrossDesign, WorkloadInvariants)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    PipelineConfig cfg; // paper memory parameters
    const std::vector<Design> designs = allDesigns();
    const std::vector<PipelineResult> rs =
        live::runDesigns(w.program, designs, cfg);

    // Same committed instruction stream everywhere.
    for (const PipelineResult &r : rs)
        EXPECT_EQ(r.instructions, rs[0].instructions) << r.name;

    const auto cpi = [&](Design d) {
        for (std::size_t i = 0; i < designs.size(); ++i)
            if (designs[i] == d)
                return rs[i].cpi();
        ADD_FAILURE();
        return 0.0;
    };

    const double base = cpi(Design::Baseline32);
    EXPECT_GT(base, 1.0);
    // The baseline is the fastest design.
    for (const PipelineResult &r : rs)
        EXPECT_GE(r.cpi() + 1e-9, base) << r.name;
    // Serialisation ordering from the paper.
    EXPECT_GT(cpi(Design::ByteSerial), cpi(Design::ByteSemiParallel));
    EXPECT_GT(cpi(Design::ByteSerial), cpi(Design::HalfwordSerial));
    EXPECT_GE(cpi(Design::ByteSemiParallel),
              cpi(Design::ByteParallelCompressed));
    EXPECT_GE(cpi(Design::ByteParallelSkewed) + 1e-9,
              cpi(Design::SkewedBypass));
}

TEST(CrossDesign, ActivityInvariants)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    auto pipe = makePipeline(Design::ByteSerial, PipelineConfig());
    live::runPipelines(w.program, {pipe.get()});
    const ActivityTotals &a = pipe->result().activity;

    for (const BitPair *bp :
         {&a.fetch, &a.rfRead, &a.rfWrite, &a.alu, &a.dcData, &a.pcInc,
          &a.latch}) {
        EXPECT_GT(bp->baseline, 0u);
        EXPECT_LE(bp->compressed, bp->baseline);
        EXPECT_GE(bp->saving(), 0.0);
        EXPECT_LE(bp->saving(), 100.0);
    }
    // Tag activity is identical by construction (paper: ~0-1%).
    EXPECT_EQ(a.dcTag.compressed, a.dcTag.baseline);
}

TEST(CrossDesign, ActivitySavingsInPaperBands)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    auto pipe = makePipeline(Design::ByteSerial, PipelineConfig());
    live::runPipelines(w.program, {pipe.get()});
    const ActivityTotals &a = pipe->result().activity;

    EXPECT_GT(a.fetch.saving(), 5.0);
    EXPECT_LT(a.fetch.saving(), 35.0);
    EXPECT_GT(a.rfRead.saving(), 20.0);
    EXPECT_LT(a.rfRead.saving(), 80.0);
    EXPECT_GT(a.alu.saving(), 10.0);
    EXPECT_LT(a.alu.saving(), 80.0);
    EXPECT_GT(a.pcInc.saving(), 50.0);
    EXPECT_LT(a.pcInc.saving(), 90.0);
    EXPECT_GT(a.latch.saving(), 20.0);
    EXPECT_LT(a.latch.saving(), 80.0);
}

TEST(CrossDesign, HalfwordSavingsAreSmallerThanByte)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    auto byte_pipe = makePipeline(Design::ByteSerial, PipelineConfig());
    auto half_pipe =
        makePipeline(Design::HalfwordSerial, PipelineConfig());
    live::runPipelines(w.program, {byte_pipe.get(), half_pipe.get()});
    const ActivityTotals &ab = byte_pipe->result().activity;
    const ActivityTotals &ah = half_pipe->result().activity;
    EXPECT_GT(ab.rfRead.saving(), ah.rfRead.saving());
    EXPECT_GT(ab.alu.saving(), ah.alu.saving());
    EXPECT_GT(ab.pcInc.saving(), ah.pcInc.saving());
}

TEST(LiveOracle, FeedsPipelinesAndExtraSinks)
{
    struct CountSink : cpu::TraceSink
    {
        void retire(const cpu::DynInstr &) override { ++n; }
        Count n = 0;
    };
    const Program p = asmProgram([](Assembler &a) { a.nop(); });
    CountSink s1, s2;
    auto pipe = makePipeline(Design::Baseline32, zeroLatencyConfig());
    const cpu::RunResult r = live::runPipelines(p, {pipe.get()}, {&s1, &s2});
    EXPECT_EQ(s1.n, r.instructions);
    EXPECT_EQ(s2.n, r.instructions);
    EXPECT_EQ(pipe->result().instructions, r.instructions);
}

TEST(Result, EmptyPipelineIsSane)
{
    auto pipe = makePipeline(Design::Baseline32, PipelineConfig());
    const PipelineResult r = pipe->result();
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_DOUBLE_EQ(r.cpi(), 0.0);
}

// ------------------------------------------------------ shared quanta records

/** The three quanta groups of the suite's activity studies. */
const std::array<sig::Encoding, 3> kRecordEncodings = {
    sig::Encoding::Ext3, sig::Encoding::Ext2, sig::Encoding::Half1};

/** One suite workload's trace and its SharedQuanta record per encoding. */
struct SuiteRecords
{
    std::string name;
    std::shared_ptr<cpu::TraceBuffer> trace;
    std::array<std::shared_ptr<const SharedQuanta>, 3> rec;
};

/**
 * Every suite workload captured once and replayed through one
 * activity-study pipeline per encoding, which records and publishes
 * the group's SharedQuanta (built on first use, shared by the tests
 * below).
 */
const std::vector<SuiteRecords> &
suiteRecords()
{
    static const std::vector<SuiteRecords> all = [] {
        std::vector<SuiteRecords> out;
        for (const std::string &name : workloads::Suite::names()) {
            SuiteRecords r;
            r.name = name;
            r.trace = std::make_shared<cpu::TraceBuffer>(
                cpu::TraceBuffer::capture(
                    workloads::Suite::build(name).program));
            for (std::size_t e = 0; e < kRecordEncodings.size(); ++e) {
                const sig::Encoding enc = kRecordEncodings[e];
                auto pipe = makePipeline(enc == sig::Encoding::Half1
                                             ? Design::HalfwordSerial
                                             : Design::ByteSerial,
                                         analysis::suiteConfig(enc));
                replayPipelines(*r.trace, {pipe.get()});
                r.rec[e] = std::static_pointer_cast<const SharedQuanta>(
                    r.trace->annexGet(pipe->quantaKey()));
            }
            out.push_back(std::move(r));
        }
        return out;
    }();
    return all;
}

TEST(SharedQuantaRecord, HierarchyOutcomesAreEqualAcrossEncodings)
{
    // The hierarchy sees addresses only, so every quanta group of a
    // workload holds the same miss list and cache statistics (the
    // precondition for sharing one miss list across groups).
    for (const SuiteRecords &r : suiteRecords()) {
        SCOPED_TRACE(r.name);
        for (const auto &rec : r.rec)
            ASSERT_NE(rec, nullptr);
        const SharedQuanta &ext3 = *r.rec[0];
        EXPECT_FALSE(ext3.misses.empty());
        for (std::size_t e = 1; e < r.rec.size(); ++e) {
            SCOPED_TRACE(sig::encodingName(kRecordEncodings[e]));
            const SharedQuanta &other = *r.rec[e];
            EXPECT_TRUE(other.misses == ext3.misses);
            EXPECT_TRUE(other.blockMissStart == ext3.blockMissStart);
            EXPECT_TRUE(other.l1i == ext3.l1i);
            EXPECT_TRUE(other.l1d == ext3.l1d);
            EXPECT_TRUE(other.l2 == ext3.l2);
        }
    }
}

TEST(SharedQuantaRecord, CursorRebuildsWhatTheRecorderComputes)
{
    // Replays each record through the consumers' Decoder and Cursor
    // next to a fresh recorder: every instruction's quanta and latch
    // base must match field for field.
    struct CompareSink : cpu::TraceSink
    {
        CompareSink(const SharedQuanta &rec, const PipelineConfig &cfg,
                    const isa::Program &program)
            : rec(rec), decoder(rec, program, cfg.encoding),
              recorder(cfg, program)
        {
        }

        void
        retire(const cpu::DynInstr &di) override
        {
            retireBlock(std::span<const cpu::DynInstr>(&di, 1));
        }

        void
        retireBlock(std::span<const cpu::DynInstr> block) override
        {
            std::vector<SharedQuanta::Entry> entries;
            std::vector<Count> latch;
            decoder.expandBlock(block, entries, latch);
            SharedQuanta::Cursor cursor(rec, base, blockIndex, entries);
            for (std::size_t j = 0; j < block.size(); ++j) {
                Count want_latch = 0;
                const InstrQuanta want =
                    recorder.compute(block[j], want_latch);
                const InstrQuanta got = cursor.next(block[j]);
                if (!(got == want) || latch[j] != want_latch) {
                    if (mismatches++ == 0)
                        firstMismatch = base;
                }
                ++base;
            }
            ++blockIndex;
        }

        const SharedQuanta &rec;
        SharedQuanta::Decoder decoder;
        QuantaRecorder recorder;
        std::size_t base = 0;
        std::size_t blockIndex = 0;
        std::size_t mismatches = 0;
        std::size_t firstMismatch = 0;
    };

    for (const SuiteRecords &r : suiteRecords()) {
        for (std::size_t e = 0; e < kRecordEncodings.size(); ++e) {
            SCOPED_TRACE(r.name + " " +
                         sig::encodingName(kRecordEncodings[e]));
            ASSERT_NE(r.rec[e], nullptr);
            PipelineConfig cfg = analysis::suiteConfig(kRecordEncodings[e]);
            CompareSink sink(*r.rec[e], cfg, r.trace->program());
            cpu::TraceView(*r.trace).replay(sink);
            EXPECT_EQ(sink.base, r.trace->size());
            EXPECT_EQ(sink.mismatches, 0u)
                << "first at record index " << sink.firstMismatch;
        }
    }
}

TEST(SharedQuantaRecord, FitsPointThreeFiveBytesPerInstruction)
{
    // One hit bit per instruction plus the escapes, the dictionary,
    // the miss list and the block deltas (about 0.13 B per
    // instruction of the 0.35); a one-byte code per instruction
    // cannot fit.
    for (const SuiteRecords &r : suiteRecords()) {
        for (std::size_t e = 0; e < kRecordEncodings.size(); ++e) {
            SCOPED_TRACE(r.name + " " +
                         sig::encodingName(kRecordEncodings[e]));
            ASSERT_NE(r.rec[e], nullptr);
            EXPECT_EQ(r.rec[e]->size(), r.trace->size());
            EXPECT_LE(static_cast<double>(r.rec[e]->bytes()),
                      0.35 * static_cast<double>(r.trace->size()));
        }
    }
}

TEST(SharedQuantaRecordDeathTest, PackRefusesAFieldOutOfRange)
{
    // In range: every field at its widest legal value round-trips.
    InstrQuanta q;
    q.fetchBytes = 4;
    q.srcChunks = 4;
    q.exChunks = 4;
    q.exWorkBytes = 8;
    q.memChunks = 4;
    q.resChunks = 4;
    q.pcChangedBlocks = 4;
    q.pcRippleExtra = 3;
    q.redirect = true;
    const SharedQuanta::Entry e = SharedQuanta::pack(q);
    EXPECT_EQ(SharedQuanta::field(e, SharedQuanta::ExWorkBytes), 8u);
    EXPECT_EQ(SharedQuanta::field(e, SharedQuanta::PcRippleExtra), 3u);
    EXPECT_EQ(SharedQuanta::field(e, SharedQuanta::Redirect), 1u);
    EXPECT_EQ(e >> SharedQuanta::entryBits, 0u);

    // One past each field's width dies instead of truncating.
    const auto with = [](unsigned InstrQuanta::*f, unsigned v) {
        InstrQuanta bad;
        bad.*f = v;
        return bad;
    };
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::fetchBytes, 8)),
                 "fetchBytes");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::srcChunks, 8)),
                 "srcChunks");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::exChunks, 8)),
                 "exChunks");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::exWorkBytes, 16)),
                 "exWorkBytes");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::memChunks, 8)),
                 "memChunks");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::resChunks, 8)),
                 "resChunks");
    EXPECT_DEATH(
        SharedQuanta::pack(with(&InstrQuanta::pcChangedBlocks, 8)),
        "pcChangedBlocks");
    EXPECT_DEATH(SharedQuanta::pack(with(&InstrQuanta::pcRippleExtra, 4)),
                 "pcRippleExtra");
}

} // namespace
} // namespace sigcomp::pipeline
