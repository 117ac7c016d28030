/**
 * @file
 * Shared renderer for the CPI figures (Figs 4/6/8/10): per-benchmark
 * CPI bars for a set of designs, plus mean uplift vs the baseline.
 */

#ifndef SIGCOMP_BENCH_BENCH_CPI_COMMON_H_
#define SIGCOMP_BENCH_BENCH_CPI_COMMON_H_

#include "bench/bench_util.h"

namespace sigcomp::bench
{

/** Run the suite over designs and print the per-benchmark table. */
inline void
cpiFigure(const std::vector<pipeline::Design> &designs)
{
    using pipeline::Design;
    const auto rows =
        runPlan(analysis::StudyPlan().cpi(designs, analysis::suiteConfig()))
            .cpi.front()
            .rows();

    std::vector<std::string> headers = {"benchmark"};
    for (pipeline::Design d : designs)
        headers.push_back(pipeline::designName(d));
    TextTable t(headers);
    for (const analysis::CpiRow &row : rows) {
        t.beginRow().cell(row.benchmark);
        for (pipeline::Design d : designs)
            t.cell(row.cpi.at(d), 3);
        t.endRow();
    }
    t.beginRow().cell("GEOMEAN");
    for (pipeline::Design d : designs)
        t.cell(analysis::meanCpi(rows, d), 3);
    t.endRow();
    printTable("CPI per benchmark", t);

    const double base = analysis::meanCpi(rows, Design::Baseline32);
    std::printf("\nmean CPI uplift vs 32-bit baseline:\n");
    for (pipeline::Design d : designs) {
        if (d == Design::Baseline32)
            continue;
        const double up = analysis::meanCpi(rows, d) / base - 1.0;
        std::printf("  %-26s %+5.1f%%\n",
                    pipeline::designName(d).c_str(), 100.0 * up);
    }
}

} // namespace sigcomp::bench

#endif // SIGCOMP_BENCH_BENCH_CPI_COMMON_H_
