/**
 * @file
 * Table 2 reproduction: PC-update activity (bits operated on) and
 * latency (cycles) as a function of the increment block size, both
 * from the closed form and empirically from the suite's dynamic PC
 * stream.
 */

#include "analysis/profilers.h"
#include "bench/bench_util.h"
#include "sigcomp/pc_increment.h"

using namespace sigcomp;
using namespace sigcomp::analysis;

int
main()
{
    bench::banner("Table 2: activity and latency estimates for PC "
                  "updating",
                  "Canal/Gonzalez/Smith MICRO-33, Table 2 (closed form "
                  "b/(1-2^-b), 1/(1-2^-b))");

    PcProfiler pc;
    bench::runPlan(StudyPlan().profile({&pc}));

    TextTable t({"block bits", "analytic bits", "analytic cycles",
                 "measured bits", "measured cycles"});
    for (unsigned b = 1; b <= 8; ++b) {
        const auto &acc = pc.forBlockBits(b);
        t.beginRow()
            .cell(static_cast<std::uint64_t>(b))
            .cell(sig::pcAnalyticActivityBits(b), 4)
            .cell(sig::pcAnalyticLatency(b), 4)
            .cell(acc.meanActivityBits(), 4)
            .cell(acc.meanCycles(), 4)
            .endRow();
    }
    bench::printTable("PC update cost vs block size", t);

    const auto &byte_acc = pc.forBlockBits(8);
    std::printf("\nbyte-block PC activity saving vs 32-bit "
                "incrementer: %.1f%% (paper Table 5: 73.3%%)\n",
                100.0 * (1.0 - byte_acc.meanActivityBits() / 32.0));
    bench::note("analytic column is the paper's pure +1 counter; the "
                "measured column includes branch/jump redirects from "
                "the real PC stream, which add a little activity.");
    return 0;
}
