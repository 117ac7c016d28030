/**
 * @file
 * Table 6 reproduction: percent activity reduction per pipeline
 * stage at halfword (16-bit) granularity.
 */

#include "bench/bench_activity_common.h"

using namespace sigcomp;

int
main()
{
    bench::banner("Table 6: activity reduction (%) for datapath "
                  "operations, 16-bit granularity",
                  "Canal/Gonzalez/Smith MICRO-33, Table 6 (paper AVG: "
                  "fetch 18.2, RFread 35.9, RFwrite 30.3, ALU 22.1, "
                  "D$data 23.4, D$tag 0, PCinc 46.7, latches 34.9)");

    const auto rows =
        bench::runPlan(analysis::StudyPlan().activity(sig::Encoding::Half1))
            .activity.front()
            .rows;
    bench::printTable("activity savings vs 32-bit baseline (halfword "
                      "granularity)",
                      bench::activityTable(rows));
    bench::note("savings are uniformly smaller than Table 5, as in "
                "the paper: halfword granularity trades compression "
                "for implementation simplicity and speed.");
    return 0;
}
