/**
 * @file
 * Branch-prediction ablation — the study the paper defers ("the
 * trend is toward implementing branch prediction. The implications
 * of branch prediction will be the subject of future study",
 * section 3). For each design: CPI without prediction (the paper's
 * machines), with static not-taken, and with a bimodal predictor +
 * BTB. The longer significance pipelines benefit most, narrowing
 * their gap to the baseline.
 */

#include "bench/bench_util.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

int
main()
{
    bench::banner("Ablation: branch prediction across the design "
                  "space",
                  "future work deferred by Canal/Gonzalez/Smith "
                  "MICRO-33 section 3");

    // One CPI study per predictor, all riding one fused pass: the
    // predictor is not part of the quanta key, so the three studies
    // share each trace's design-independent front half.
    const PredictorKind kinds[] = {PredictorKind::None,
                                   PredictorKind::NotTaken,
                                   PredictorKind::Bimodal};
    analysis::StudyPlan plan;
    for (PredictorKind k : kinds) {
        PipelineConfig cfg = analysis::suiteConfig();
        cfg.predictor = k;
        plan.cpi(allDesigns(), cfg);
    }
    const analysis::SuiteReport rep = bench::runPlan(plan);
    auto geomeanCpi = [&](Design d, PredictorKind k) {
        return rep.cpi[static_cast<std::size_t>(k)].geomeanCpi(d);
    };

    TextTable t({"design", "no prediction", "not-taken", "bimodal",
                 "bimodal gain %"});
    double base_bimodal = 0.0;
    for (Design d : allDesigns()) {
        const double none = geomeanCpi(d, PredictorKind::None);
        const double nt = geomeanCpi(d, PredictorKind::NotTaken);
        const double bim = geomeanCpi(d, PredictorKind::Bimodal);
        if (d == Design::Baseline32)
            base_bimodal = bim;
        t.beginRow()
            .cell(designName(d))
            .cell(none, 3)
            .cell(nt, 3)
            .cell(bim, 3)
            .cell(100.0 * (1.0 - bim / none), 1)
            .endRow();
    }
    bench::printTable("geomean CPI by predictor (suite)", t);

    std::printf("\nwith bimodal prediction the significance designs "
                "sit at these uplifts over the predicted baseline "
                "(%.3f):\n", base_bimodal);
    for (Design d : allDesigns()) {
        if (d == Design::Baseline32)
            continue;
        const double bim = geomeanCpi(d, PredictorKind::Bimodal);
        std::printf("  %-26s %+5.1f%%\n", designName(d).c_str(),
                    100.0 * (bim / base_bimodal - 1.0));
    }
    bench::note("expected shape: every design gains; the deeper "
                "skewed pipes and the serial designs (whose branch "
                "resolution is occupancy-delayed) gain the most, so "
                "prediction *narrows* the cost of significance "
                "compression.");
    return 0;
}
