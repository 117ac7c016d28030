/**
 * @file
 * Shared row renderer for the Table 5/6 activity-reduction tables.
 */

#ifndef SIGCOMP_BENCH_BENCH_ACTIVITY_COMMON_H_
#define SIGCOMP_BENCH_BENCH_ACTIVITY_COMMON_H_

#include "bench/bench_util.h"

namespace sigcomp::bench
{

/** Render an activity study as a paper-style Table 5/6. */
inline TextTable
activityTable(const std::vector<analysis::ActivityRow> &rows)
{
    TextTable t({"benchmark", "Fetch", "RFread", "RFwrite", "ALU",
                 "D$data", "D$tag", "PCinc", "Latches"});
    auto add_row = [&](const std::string &name,
                       const pipeline::ActivityTotals &a) {
        t.beginRow()
            .cell(name)
            .cell(a.fetch.saving(), 1)
            .cell(a.rfRead.saving(), 1)
            .cell(a.rfWrite.saving(), 1)
            .cell(a.alu.saving(), 1)
            .cell(a.dcData.saving(), 1)
            .cell(a.dcTag.saving(), 1)
            .cell(a.pcInc.saving(), 1)
            .cell(a.latch.saving(), 1)
            .endRow();
    };
    for (const analysis::ActivityRow &r : rows)
        add_row(r.benchmark, r.activity);
    add_row("AVG", analysis::sumActivity(rows));
    return t;
}

} // namespace sigcomp::bench

#endif // SIGCOMP_BENCH_BENCH_ACTIVITY_COMMON_H_
