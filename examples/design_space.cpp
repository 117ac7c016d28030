/**
 * @file
 * Design-space explorer: one table for an entire workload showing,
 * for every pipeline design (optionally with branch prediction), the
 * performance/energy trade-off — the view a low-power SoC architect
 * would actually use to pick a point.
 *
 * Usage: design_space [workload] [--predict] [--store DIR]
 *
 * Built on the Session + StudyPlan API: one registered CPI study over
 * all designs returns full PipelineResults (CPI, stalls, activity) in
 * a single fused replay of the workload's trace, and the energy
 * column is derived from the same pass. With --store, the trace is
 * loaded from (or on first run saved to) the persistent trace store,
 * so repeated explorer invocations — a different flag, a different
 * predictor — skip functional simulation entirely.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/session.h"
#include "common/table.h"
#include "power/energy_model.h"
#include "workloads/workload.h"

using namespace sigcomp;
using pipeline::Design;

int
main(int argc, char **argv)
{
    std::string wl = "rawcaudio";
    bool predict = false;
    std::string store_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--predict") == 0)
            predict = true;
        else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc)
            store_dir = argv[++i];
        else
            wl = argv[i];
    }

    const power::TechParams tech;

    pipeline::PipelineConfig cfg = analysis::suiteConfig();
    if (predict)
        cfg.predictor = pipeline::PredictorKind::Bimodal;

    // One Session (optionally store-backed), one plan, one fused
    // replay pass: every design's full result comes back in a
    // SuiteReport.
    analysis::Session session({.storeDir = store_dir});
    analysis::StudyPlan plan;
    plan.workloads({wl}).cpi(pipeline::allDesigns(), cfg);
    const analysis::SuiteReport report = session.run(plan);
    const analysis::CpiStudyResult &study = report.cpi.front();

    std::printf("workload: %s   branch prediction: %s\n\n", wl.c_str(),
                predict ? "bimodal" : "off (paper machines)");

    TextTable t({"design", "CPI", "vs base %", "energy pJ/instr",
                 "energy save %", "CPI x energy (rel)"});
    double base_cpi = 0.0;
    double base_ep = 0.0;
    for (std::size_t d = 0; d < study.designs.size(); ++d) {
        const pipeline::PipelineResult &r = study.results[0][d];
        const power::EnergyReport rep =
            power::buildEnergyReport(r.activity, tech);
        const bool is_base = r.name == "baseline32";
        const double energy =
            (is_base ? rep.totalBaselinePj : rep.totalCompressedPj) /
            static_cast<double>(r.instructions);
        if (is_base) {
            base_cpi = r.cpi();
            base_ep = energy;
        }
        t.beginRow()
            .cell(r.name)
            .cell(r.cpi(), 3)
            .cell(100.0 * (r.cpi() / base_cpi - 1.0), 1)
            .cell(energy, 2)
            .cell(100.0 * (1.0 - energy / base_ep), 1)
            .cell((r.cpi() / base_cpi) * (energy / base_ep), 3)
            .endRow();
    }
    std::printf("%s", t.toString().c_str());
    std::printf("\nreading: 'CPI x energy' < 1.0 means the design "
                "beats the 32-bit baseline on the energy-delay "
                "trade-off even before clock scaling (see "
                "the clock-scaling ablation in bench_paper).\n");
    return 0;
}
