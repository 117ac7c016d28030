/**
 * @file
 * Table 5 reproduction: percent activity reduction per pipeline
 * stage at byte (8-bit) granularity with the 3-bit extension scheme.
 */

#include "bench/bench_activity_common.h"

using namespace sigcomp;

int
main()
{
    bench::banner("Table 5: activity reduction (%) for datapath "
                  "operations, 8-bit granularity",
                  "Canal/Gonzalez/Smith MICRO-33, Table 5 (paper AVG: "
                  "fetch 18.2, RFread 46.5, RFwrite 42.1, ALU 33.2, "
                  "D$data ~30, D$tag ~1, PCinc 73.3, latches 42.2)");

    const auto rows =
        bench::runPlan(analysis::StudyPlan().activity(sig::Encoding::Ext3))
            .activity.front()
            .rows;
    bench::printTable("activity savings vs 32-bit baseline (byte "
                      "granularity)",
                      bench::activityTable(rows));
    bench::note("D$data savings run above the paper's 31% average "
                "because the synthetic media arrays hold narrower "
                "values than Mediabench heap data; every other "
                "column should sit in the paper's per-benchmark "
                "range.");
    return 0;
}
