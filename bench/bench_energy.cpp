/**
 * @file
 * Energy extension (the analysis the paper's conclusion calls for):
 * convert per-stage activity into dynamic energy with the
 * Wattch-style model, per design, plus the section-2.4 bank-split
 * check.
 */

#include "bench/bench_util.h"
#include "power/energy_model.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

int
main()
{
    bench::banner("Energy estimate per pipeline design",
                  "extension of Canal/Gonzalez/Smith MICRO-33 section "
                  "7 (paper reports activity; energy model is "
                  "Wattch-style)");

    const power::TechParams tech;
    std::printf("bank-split check (section 2.4): 4 byte-banks vs one "
                "32-bit array energy ratio = %.3f (paper argues "
                "~1.0)\n",
                power::bankSplitEnergyRatio(tech, 32, 32, 4));

    const analysis::SuiteReport suite = bench::runPlan(
        analysis::StudyPlan().cpi(
            {Design::ByteSerial, Design::HalfwordSerial,
             Design::ByteSemiParallel, Design::ByteParallelSkewed,
             Design::ByteParallelCompressed, Design::SkewedBypass},
            analysis::suiteConfig()));
    const analysis::CpiStudyResult &study = suite.cpi.front();
    // Suite-total activity per design (column i of the study).
    auto suiteActivity = [&](std::size_t i) {
        ActivityTotals total;
        for (const auto &per_design : study.results)
            total += per_design[i].activity;
        return total;
    };

    TextTable t({"design", "pipeline pJ/1k-instr (sig.)",
                 "pJ/1k-instr (32-bit baseline)", "energy saving %"});
    for (std::size_t i = 0; i < study.designs.size(); ++i) {
        DWord instructions = 0;
        for (const auto &per_design : study.results)
            instructions += per_design[i].instructions;
        const power::EnergyReport rep =
            power::buildEnergyReport(suiteActivity(i), tech);
        const double per_k =
            1000.0 / static_cast<double>(instructions);
        t.beginRow()
            .cell(designName(study.designs[i]))
            .cell(rep.totalCompressedPj * per_k, 1)
            .cell(rep.totalBaselinePj * per_k, 1)
            .cell(rep.savingPercent(), 1)
            .endRow();
    }
    bench::printTable("pipeline dynamic energy (suite total)", t);

    // Per-structure breakdown for the byte-serial design (column 0).
    const power::EnergyReport rep =
        power::buildEnergyReport(suiteActivity(0), tech);
    TextTable b({"structure", "compressed pJ", "baseline pJ",
                 "saving %"});
    for (const power::StructureEnergy &se : rep.structures) {
        b.beginRow()
            .cell(se.structure)
            .cell(se.compressedPj, 0)
            .cell(se.baselinePj, 0)
            .cell(se.savingPercent(), 1)
            .endRow();
    }
    bench::printTable("byte-serial per-structure energy", b);
    bench::note("skewed designs show smaller latch savings (longer "
                "pipe), the skewed+bypass variant recovers them — "
                "matching the paper's qualitative discussion.");
    return 0;
}
