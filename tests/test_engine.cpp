/**
 * @file
 * White-box tests of the in-order scheduling engine (the recurrence
 * in InOrderPipeline) through a mock design whose TimingPlan is
 * injected per test: occupancy pipelining, streamed leads,
 * zero-duration (skipped) stages, forwarding roles, and plan
 * validation.
 */

#include <gtest/gtest.h>

#include <functional>

#include "isa/assembler.h"
#include "pipeline/pipeline.h"
#include "tests/live_oracle.h"

namespace sigcomp::pipeline
{
namespace
{

using isa::Assembler;
using isa::Program;
namespace reg = isa::reg;

/** Pipeline whose plan() is a test-supplied function. */
class MockPipeline : public SharedReplayModel<MockPipeline>
{
    friend SharedReplayModel<MockPipeline>;

  public:
    using PlanFn =
        std::function<TimingPlan(const cpu::DynInstr &,
                                 const InstrQuanta &)>;

    MockPipeline(PlanFn fn, PipelineConfig cfg)
        : SharedReplayModel("mock", std::move(cfg)), fn_(std::move(fn))
    {
    }

  protected:
    TimingPlan
    plan(const cpu::DynInstr &di, const InstrQuanta &q) override
    {
        return fn_(di, q);
    }

  private:
    PlanFn fn_;
};

PipelineConfig
zeroLatency()
{
    PipelineConfig cfg;
    cfg.memory.l2.hitLatency = 0;
    cfg.memory.memoryPenalty = 0;
    cfg.memory.itlb.missPenalty = 0;
    cfg.memory.dtlb.missPenalty = 0;
    return cfg;
}

/** K independent single-byte ALU ops + exit (K+2 instructions). */
Program
straightLine(int k)
{
    Assembler a;
    a.label("main");
    for (int i = 0; i < k; ++i)
        a.addiu(reg::t0, reg::zero, 1);
    a.exitProgram();
    return a.finish("sl");
}

/** Dependent chain t0 += t0, K links (K+3 instructions). */
Program
chain(int k)
{
    Assembler a;
    a.label("main");
    a.li(reg::t0, 1);
    for (int i = 0; i < k; ++i)
        a.addu(reg::t0, reg::t0, reg::t0);
    a.exitProgram();
    return a.finish("chain");
}

/** Uniform plan: 5 atomic unit stages. */
TimingPlan
unitPlan()
{
    TimingPlan p;
    p.numStages = 5;
    for (unsigned s = 0; s < 5; ++s) {
        p.dur[s] = 1;
        p.lead[s] = 1;
    }
    p.consumeStage = 2;
    p.resolveStage = 2;
    p.readyStage = 2;
    p.loadReadyStage = 3;
    return p;
}

Cycle
runMock(const Program &prog, const MockPipeline::PlanFn &fn,
        PipelineResult *out = nullptr)
{
    MockPipeline pipe(fn, zeroLatency());
    live::runPipelines(prog, {&pipe});
    const PipelineResult r = pipe.result();
    if (out)
        *out = r;
    return r.cycles;
}

TEST(Engine, UnitStagesGiveDepthPlusInstructions)
{
    const Program p = straightLine(10); // 12 instructions
    const Cycle cycles =
        runMock(p, [](const auto &, const auto &) { return unitPlan(); });
    EXPECT_EQ(cycles, 12u + 4u);
}

TEST(Engine, ZeroDurationStageShortensDepth)
{
    const Program p = straightLine(10);
    const Cycle cycles = runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.dur[2] = 0; // skipped stage
        tp.lead[2] = 0;
        return tp;
    });
    EXPECT_EQ(cycles, 12u + 3u);
}

TEST(Engine, MultiCycleStageLimitsThroughput)
{
    // Stage 1 holds each instruction 4 cycles, streaming its first
    // chunk after 1: cycles = 5 + 4*(N-1).
    const Program p = straightLine(6); // 8 instructions
    const Cycle cycles = runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.dur[1] = 4;
        tp.lead[1] = 1;
        return tp;
    });
    EXPECT_EQ(cycles, 5u + 4u * 7u);
}

TEST(Engine, AtomicLeadDelaysDownstreamFlow)
{
    // Same occupancy but atomic hand-off (lead == dur): each
    // instruction's stage 2 starts 3 cycles later than streamed.
    const Program p = straightLine(1); // 3 instructions
    const Cycle streamed = runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.dur[1] = 4;
        tp.lead[1] = 1;
        return tp;
    });
    const Cycle atomic = runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.dur[1] = 4;
        tp.lead[1] = 4;
        return tp;
    });
    EXPECT_EQ(atomic, streamed + 3u);
}

TEST(Engine, LateReadyStageCreatesChainStalls)
{
    // Forwarding from stage 3 instead of 2: every dependent link
    // waits one extra cycle.
    const Program p = chain(10);
    PipelineResult near_r, far_r;
    runMock(p, [](const auto &, const auto &) {
        return unitPlan(); // ready at EX end: no stalls
    }, &near_r);
    runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.readyStage = 3;
        return tp;
    }, &far_r);
    EXPECT_EQ(near_r.stalls.dataHazardCycles, 0u);
    // 10 chain links + the final checked use in exit setup are
    // spaced out by one bubble each.
    EXPECT_GE(far_r.stalls.dataHazardCycles, 10u);
    EXPECT_GT(far_r.cycles, near_r.cycles + 8);
}

TEST(Engine, EarlyConsumeStageExposesHazards)
{
    // Consuming operands at stage 1 instead of 2 lengthens the
    // producer->consumer distance by one.
    const Program p = chain(10);
    PipelineResult r;
    runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.consumeStage = 1;
        return tp;
    }, &r);
    EXPECT_GE(r.stalls.dataHazardCycles, 10u);
}

TEST(Engine, ResolveStageSetsBranchPenalty)
{
    Assembler a;
    a.label("main");
    a.li(reg::t0, 1);
    a.nop();
    a.nop();
    for (int i = 0; i < 5; ++i) {
        a.beq(reg::t0, reg::zero, "out");
        a.nop();
    }
    a.label("out");
    a.exitProgram();
    const Program p = a.finish("br");

    for (unsigned resolve : {2u, 3u, 4u}) {
        PipelineResult r;
        runMock(p, [resolve](const auto &, const auto &) {
            TimingPlan tp = unitPlan();
            tp.resolveStage = resolve;
            return tp;
        }, &r);
        EXPECT_EQ(r.stalls.controlCycles, 5u * resolve) << resolve;
    }
}

TEST(Engine, StructuralStallsAttributedToBusyStage)
{
    const Program p = straightLine(8);
    PipelineResult r;
    runMock(p, [](const auto &, const auto &) {
        TimingPlan tp = unitPlan();
        tp.dur[3] = 2; // every instruction blocks MEM for 2 cycles
        tp.lead[3] = 2;
        return tp;
    }, &r);
    EXPECT_GT(r.stalls.structuralCycles, 0u);
    EXPECT_EQ(r.stalls.dataHazardCycles, 0u);
    EXPECT_EQ(r.stalls.controlCycles, 0u);
}

TEST(EngineDeathTest, TooManyStagesPanics)
{
    const Program p = straightLine(1);
    EXPECT_DEATH(runMock(p,
                         [](const auto &, const auto &) {
                             TimingPlan tp = unitPlan();
                             tp.numStages = maxStages + 1;
                             return tp;
                         }),
                 "bad timing plan");
}

TEST(EngineDeathTest, TooFewStagesPanics)
{
    const Program p = straightLine(1);
    EXPECT_DEATH(runMock(p,
                         [](const auto &, const auto &) {
                             TimingPlan tp = unitPlan();
                             tp.numStages = 1;
                             return tp;
                         }),
                 "bad timing plan");
}

TEST(Engine, QuantaReportPlausibleForMixedProgram)
{
    // Sanity of the InstrQuanta the engine hands to plans.
    Assembler a;
    a.dataLabel("buf");
    a.dataWord(0x12345678);
    a.label("main");
    a.la(reg::s0, "buf");
    a.lw(reg::t1, 0, reg::s0);
    a.addu(reg::t2, reg::t1, reg::t1);
    a.exitProgram();
    const Program p = a.finish("q");

    struct Probe
    {
        unsigned max_src = 0;
        unsigned max_mem = 0;
        unsigned loads = 0;
    };
    Probe probe;
    runMock(p, [&probe](const cpu::DynInstr &di, const InstrQuanta &q) {
        probe.max_src = std::max(probe.max_src, q.srcChunks);
        if (di.dec->isLoad) {
            ++probe.loads;
            probe.max_mem = std::max(probe.max_mem, q.memChunks);
        }
        return unitPlan();
    });
    EXPECT_EQ(probe.loads, 1u);
    EXPECT_EQ(probe.max_mem, 4u); // 0x12345678 is four chunks
    EXPECT_GE(probe.max_src, 4u); // the addu reads the wide value
}

} // namespace
} // namespace sigcomp::pipeline

namespace sigcomp::pipeline
{
namespace
{

/** Exact per-stage schedules observed through the engine hook. */
TEST(Engine, ObserverReportsExactSchedules)
{
    const Program p = straightLine(2); // 4 instructions
    struct Sched
    {
        std::array<Cycle, maxStages> start;
        std::array<Cycle, maxStages> end;
    };
    std::vector<Sched> scheds;

    MockPipeline pipe(
        [](const auto &, const auto &) { return unitPlan(); },
        zeroLatency());
    pipe.setScheduleObserver(
        [&](const cpu::DynInstr &, const TimingPlan &,
            const std::array<Cycle, maxStages> &start,
            const std::array<Cycle, maxStages> &end) {
            scheds.push_back({start, end});
        });
    live::runPipelines(p, {&pipe});

    ASSERT_EQ(scheds.size(), 4u);
    for (std::size_t i = 0; i < scheds.size(); ++i) {
        for (unsigned s = 0; s < 5; ++s) {
            EXPECT_EQ(scheds[i].start[s], i + s) << i << " " << s;
            EXPECT_EQ(scheds[i].end[s], i + s + 1) << i << " " << s;
        }
    }
}

TEST(Engine, ObserverSeesStallGaps)
{
    // A load-use pair: the consumer's EX must start exactly at the
    // load's MEM end.
    Assembler a;
    a.dataLabel("x");
    a.dataWord(1);
    a.label("main");
    a.la(reg::s0, "x");
    a.lw(reg::t0, 0, reg::s0);
    a.addu(reg::t1, reg::t0, reg::t0);
    a.exitProgram();
    const Program p = a.finish("lu");

    Cycle load_mem_end = 0;
    Cycle use_ex_start = 0;
    MockPipeline pipe(
        [](const auto &, const auto &) { return unitPlan(); },
        zeroLatency());
    pipe.setScheduleObserver(
        [&](const cpu::DynInstr &di, const TimingPlan &,
            const std::array<Cycle, maxStages> &start,
            const std::array<Cycle, maxStages> &end) {
            if (di.dec->isLoad)
                load_mem_end = end[3];
            else if (di.dec->name == "addu")
                use_ex_start = start[2];
        });
    live::runPipelines(p, {&pipe});
    EXPECT_EQ(use_ex_start, load_mem_end);
}

} // namespace
} // namespace sigcomp::pipeline
