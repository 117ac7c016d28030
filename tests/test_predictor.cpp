/**
 * @file
 * Branch predictor tests: unit behaviour of the bimodal/BTB front
 * end and its integration with the pipeline models (the paper's
 * deferred branch-prediction study).
 */

#include <gtest/gtest.h>

#include <functional>

#include "isa/assembler.h"
#include "pipeline/predictor.h"
#include "workloads/workload.h"
#include "tests/live_oracle.h"

namespace sigcomp::pipeline
{
namespace
{

using isa::Assembler;
using isa::Program;
namespace reg = isa::reg;

TEST(Predictor, NoneAlwaysMispredicts)
{
    BranchPredictor p(PredictorKind::None);
    EXPECT_FALSE(p.predictAndUpdate(0x400000, true, 0x400100, true));
    EXPECT_FALSE(p.predictAndUpdate(0x400000, false, 0, true));
    EXPECT_EQ(p.stats().lookups, 2u);
    EXPECT_EQ(p.stats().mispredicts, 2u);
    EXPECT_DOUBLE_EQ(p.stats().accuracy(), 0.0);
}

TEST(Predictor, NotTakenCorrectOnFallThrough)
{
    BranchPredictor p(PredictorKind::NotTaken);
    EXPECT_TRUE(p.predictAndUpdate(0x400000, false, 0, true));
    EXPECT_FALSE(p.predictAndUpdate(0x400004, true, 0x400100, true));
    EXPECT_EQ(p.stats().mispredicts, 1u);
}

TEST(Predictor, BimodalLearnsLoopBranch)
{
    BranchPredictor p(PredictorKind::Bimodal);
    const Addr pc = 0x00400010;
    // Loop branch: taken many times. First few iterations train the
    // counter and BTB; afterwards prediction is correct.
    int correct = 0;
    for (int i = 0; i < 20; ++i)
        correct += p.predictAndUpdate(pc, true, 0x00400000, true);
    EXPECT_GE(correct, 17);
    // Final not-taken exit mispredicts once.
    EXPECT_FALSE(p.predictAndUpdate(pc, false, 0, true));
}

TEST(Predictor, BimodalTakenNeedsBtb)
{
    BranchPredictor p(PredictorKind::Bimodal, 512, 128);
    const Addr pc_a = 0x00400020;
    // Same BTB set (128-entry, word-indexed), different tag; far
    // enough apart to use distinct PHT counters.
    const Addr pc_b = pc_a + 128 * 4;

    // Train A taken (counter saturates, BTB learns the target).
    p.predictAndUpdate(pc_a, true, 0x00401000, true);
    p.predictAndUpdate(pc_a, true, 0x00401000, true);
    EXPECT_TRUE(p.predictAndUpdate(pc_a, true, 0x00401000, true));

    // B evicts A's BTB entry.
    p.predictAndUpdate(pc_b, true, 0x00402000, true);

    // A's direction is still predicted taken, but the target is
    // gone: that is a BTB miss and a redirect.
    const Count misses_before = p.stats().btbMisses;
    EXPECT_FALSE(p.predictAndUpdate(pc_a, true, 0x00401000, true));
    EXPECT_GT(p.stats().btbMisses, misses_before);
}

TEST(Predictor, BimodalHysteresis)
{
    BranchPredictor p(PredictorKind::Bimodal);
    const Addr pc = 0x00400030;
    for (int i = 0; i < 8; ++i)
        p.predictAndUpdate(pc, true, 0x400000, true);
    // One not-taken blip must not flip a saturated counter.
    p.predictAndUpdate(pc, false, 0, true);
    EXPECT_TRUE(p.predictAndUpdate(pc, true, 0x400000, true));
}

TEST(Predictor, UnconditionalJumpsPredictViaBtb)
{
    BranchPredictor p(PredictorKind::Bimodal);
    const Addr pc = 0x00400040;
    EXPECT_FALSE(p.predictAndUpdate(pc, true, 0x00402000, false));
    EXPECT_TRUE(p.predictAndUpdate(pc, true, 0x00402000, false));
}

TEST(Predictor, NamesAreStable)
{
    EXPECT_EQ(predictorName(PredictorKind::None), "none");
    EXPECT_EQ(predictorName(PredictorKind::NotTaken), "not-taken");
    EXPECT_EQ(predictorName(PredictorKind::Bimodal), "bimodal");
}

// ------------------------------------------------------- pipeline coupling

Program
loopProgram(int trips)
{
    Assembler a;
    a.label("main");
    a.li(reg::t0, static_cast<SWord>(trips));
    a.label("loop");
    a.addiu(reg::t0, reg::t0, -1);
    a.bgtz(reg::t0, "loop");
    a.exitProgram();
    return a.finish("loop");
}

PipelineConfig
zeroLatency(PredictorKind k)
{
    PipelineConfig cfg;
    cfg.memory.l2.hitLatency = 0;
    cfg.memory.memoryPenalty = 0;
    cfg.memory.itlb.missPenalty = 0;
    cfg.memory.dtlb.missPenalty = 0;
    cfg.predictor = k;
    return cfg;
}

TEST(PredictedPipeline, BimodalRemovesLoopBubbles)
{
    const Program p = loopProgram(200);
    auto none = makePipeline(Design::Baseline32,
                             zeroLatency(PredictorKind::None));
    auto bim = makePipeline(Design::Baseline32,
                            zeroLatency(PredictorKind::Bimodal));
    live::runPipelines(p, {none.get(), bim.get()});
    const PipelineResult rn = none->result();
    const PipelineResult rb = bim->result();
    EXPECT_EQ(rn.instructions, rb.instructions);
    // ~200 branch bubbles (2 cycles each) disappear.
    EXPECT_LT(rb.cycles + 300, rn.cycles);
    EXPECT_GT(rb.predictor.accuracy(), 0.9);
    EXPECT_LT(rb.stalls.controlCycles, rn.stalls.controlCycles / 5);
}

TEST(PredictedPipeline, PredictionHelpsSkewedMoreThanBaseline)
{
    // The longer skewed pipeline pays 3 cycles per control bubble vs
    // the baseline's 2, so prediction buys it more.
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    PipelineConfig off;
    PipelineConfig on;
    on.predictor = PredictorKind::Bimodal;

    auto base_off = makePipeline(Design::Baseline32, off);
    auto base_on = makePipeline(Design::Baseline32, on);
    auto skew_off = makePipeline(Design::ByteParallelSkewed, off);
    auto skew_on = makePipeline(Design::ByteParallelSkewed, on);
    live::runPipelines(w.program, {base_off.get(), base_on.get(),
                             skew_off.get(), skew_on.get()});

    const double base_gain =
        base_off->result().cpi() - base_on->result().cpi();
    const double skew_gain =
        skew_off->result().cpi() - skew_on->result().cpi();
    EXPECT_GT(base_gain, 0.0);
    EXPECT_GT(skew_gain, base_gain);
}

TEST(PredictedPipeline, NotTakenBetweenNoneAndBimodal)
{
    const workloads::Workload w = workloads::Suite::build("gsmdec");
    std::vector<std::unique_ptr<InOrderPipeline>> pipes;
    for (PredictorKind k : {PredictorKind::None, PredictorKind::NotTaken,
                            PredictorKind::Bimodal}) {
        PipelineConfig cfg;
        cfg.predictor = k;
        pipes.push_back(makePipeline(Design::Baseline32, cfg));
    }
    live::runPipelines(w.program,
                 {pipes[0].get(), pipes[1].get(), pipes[2].get()});
    const double none = pipes[0]->result().cpi();
    const double nt = pipes[1]->result().cpi();
    const double bim = pipes[2]->result().cpi();
    EXPECT_LE(nt, none + 1e-9);
    EXPECT_LT(bim, nt);
}

TEST(PredictedPipeline, ActivityUnchangedByPrediction)
{
    // Prediction changes timing, not the amount of significant data
    // moved (no wrong-path execution is modelled).
    const workloads::Workload w = workloads::Suite::build("epic");
    PipelineConfig off;
    PipelineConfig on;
    on.predictor = PredictorKind::Bimodal;
    auto a = makePipeline(Design::ByteSerial, off);
    auto b = makePipeline(Design::ByteSerial, on);
    live::runPipelines(w.program, {a.get(), b.get()});
    EXPECT_EQ(a->result().activity.rfRead.compressed,
              b->result().activity.rfRead.compressed);
    EXPECT_EQ(a->result().activity.alu.compressed,
              b->result().activity.alu.compressed);
}

} // namespace
} // namespace sigcomp::pipeline
