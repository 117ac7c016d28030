/**
 * @file
 * Energy model tests: monotonicity, unit sanity, the section-2.4
 * bank-splitting equivalence, and report construction.
 */

#include <gtest/gtest.h>

#include "power/energy_model.h"
#include "workloads/workload.h"
#include "tests/live_oracle.h"

namespace sigcomp::power
{
namespace
{

TEST(EnergyModel, ZeroBitsZeroEnergy)
{
    const TechParams tech;
    EXPECT_DOUBLE_EQ(arrayEnergyPj(tech, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(logicEnergyPj(tech, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(latchEnergyPj(tech, 0.0), 0.0);
}

TEST(EnergyModel, LinearInActivity)
{
    const TechParams tech;
    EXPECT_NEAR(arrayEnergyPj(tech, 200.0),
                2.0 * arrayEnergyPj(tech, 100.0), 1e-12);
    EXPECT_NEAR(logicEnergyPj(tech, 64.0),
                2.0 * logicEnergyPj(tech, 32.0), 1e-12);
}

TEST(EnergyModel, QuadraticInVdd)
{
    TechParams lo, hi;
    lo.vdd = 1.0;
    hi.vdd = 2.0;
    EXPECT_NEAR(arrayEnergyPj(hi, 100.0),
                4.0 * arrayEnergyPj(lo, 100.0), 1e-12);
}

TEST(EnergyModel, BankSplitIsEnergyNeutral)
{
    // Section 2.4: four byte-wide accesses cost about the same word
    // line, bit line and sense amp energy as one 32-bit access.
    const TechParams tech;
    const double ratio = bankSplitEnergyRatio(tech, 32, 32, 4);
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(EnergyModel, ReportCoversAllStructures)
{
    pipeline::ActivityTotals a;
    a.fetch.add(100, 200);
    a.rfRead.add(50, 100);
    a.rfWrite.add(40, 80);
    a.alu.add(30, 60);
    a.dcData.add(20, 40);
    a.dcTag.add(10, 10);
    a.pcInc.add(8, 32);
    a.latch.add(100, 288);
    const EnergyReport rep = buildEnergyReport(a);
    EXPECT_EQ(rep.structures.size(), 8u);
    EXPECT_GT(rep.totalBaselinePj, rep.totalCompressedPj);
    EXPECT_GT(rep.savingPercent(), 0.0);
    for (const StructureEnergy &se : rep.structures) {
        EXPECT_GE(se.baselinePj, se.compressedPj) << se.structure;
        EXPECT_FALSE(se.structure.empty());
    }
}

TEST(EnergyModel, WorkloadEnergySavingInPlausibleBand)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    auto pipe = pipeline::makePipeline(pipeline::Design::ByteSerial,
                                       pipeline::PipelineConfig());
    live::runPipelines(w.program, {pipe.get()});
    const EnergyReport rep =
        buildEnergyReport(pipe->result().activity);
    // The paper's activity savings are 30-40%; total pipeline energy
    // saving should land in a similar band.
    EXPECT_GT(rep.savingPercent(), 15.0);
    EXPECT_LT(rep.savingPercent(), 60.0);
}

} // namespace
} // namespace sigcomp::power
