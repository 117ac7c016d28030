/**
 * @file
 * Declarative description of a suite experiment: which studies to
 * run, over which workloads. A StudyPlan is inert data —
 * Session::run(plan) executes it with **one fused replay pass per
 * workload trace** feeding every registered study (see
 * analysis/session.h), so "N studies over M designs/encodings" costs
 * one trace traversal, not N. HOW a plan runs is not plan data: the
 * thread count, trace store and capture limit are the executing
 * Session's SessionConfig, and tracing is SIGCOMP_TRACE /
 * telemetry::startTracing.
 *
 *   analysis::PatternProfiler patterns;
 *   analysis::InstrMixProfiler mix;
 *   StudyPlan plan;
 *   plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
 *       .activity(sig::Encoding::Ext3)
 *       .profile({&patterns, &mix})
 *       .energy(power::TechParams{})
 *       .workloads({"rawcaudio", "cjpeg"});
 *   analysis::SuiteReport report = session.run(plan);
 *   // patterns and mix now hold both workloads' tallies.
 */

#ifndef SIGCOMP_ANALYSIS_STUDY_PLAN_H_
#define SIGCOMP_ANALYSIS_STUDY_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "pipeline/models.h"
#include "pipeline/pipeline.h"
#include "power/energy_model.h"
#include "sigcomp/compressed_word.h"

namespace sigcomp::json
{
struct Error;
} // namespace sigcomp::json

namespace sigcomp::analysis
{

class Profiler;
class Session;

class StudyPlan
{
  public:
    /**
     * Register an activity study (paper Tables 5/6): every workload
     * through the serial pipeline at @p enc's granularity
     * (Half1 -> halfword-serial, else byte-serial) with the
     * suite-profiled compressor. Repeatable: one result per call, in
     * call order.
     */
    StudyPlan &activity(sig::Encoding enc = sig::Encoding::Ext3);

    /**
     * Register a CPI study (paper Figs 4/6/8/10): every workload
     * through each of @p designs built with @p config. Repeatable.
     * The result carries full PipelineResults (CPI, stalls, activity,
     * cache stats), so one registered study also serves energy and
     * explorer consumers.
     */
    StudyPlan &cpi(std::vector<pipeline::Design> designs,
                   pipeline::PipelineConfig config);

    /**
     * Register a CPI study over section-5 width points: every
     * workload through the streamed serial pipeline at each of
     * @p points (pipeline::makePipeline(StageWidths, ...)) built with
     * @p config. The result's columns are the points, named by
     * pipeline::widthsName(). Width points share the fused pass,
     * quanta group and result memos of the named designs; the wire
     * schema carries named designs only, so writePlanJson() refuses
     * a plan with width points.
     */
    StudyPlan &cpi(std::vector<pipeline::StageWidths> points,
                   pipeline::PipelineConfig config);

    /**
     * Register caller-owned profilers (paper Tables 1-4). Each
     * workload's fused pass feeds its own fork() of every profiler,
     * so workloads replay in parallel and no profiler is touched by
     * two threads; after the fan-out the forks are merge()d into the
     * caller's profilers in suite order, which leaves them exactly
     * as one serial feed of the suite would. A stopped (partial) run
     * merges the forks of the workloads the report covers and no
     * others. A plan with profilers is never answered from result
     * memos: every workload replays. Repeatable (appends).
     */
    StudyPlan &profile(std::vector<Profiler *> profilers);

    /**
     * Register an energy study: per-workload Wattch-style energy of
     * @p design at @p enc (suite-profiled compressor) under
     * @p tech. Rides the same fused pass. Repeatable.
     */
    StudyPlan &energy(power::TechParams tech = power::TechParams{},
                      pipeline::Design design =
                          pipeline::Design::ByteSerial,
                      sig::Encoding enc = sig::Encoding::Ext3);

    /**
     * Restrict the plan to these workloads, in this order (default:
     * the full suite in canonical order). Names must be suite
     * workloads or programs registered on the executing Session.
     */
    StudyPlan &workloads(std::vector<std::string> names);

    /**
     * Drop each workload's cached trace right after its fused pass,
     * so peak memory tails off at one workload's footprint.
     */
    StudyPlan &evictAfterReplay(bool on = true);

    /**
     * Give the run at most @p ms milliseconds of wall clock. An
     * expired deadline stops the plan at the next replay-block /
     * capture-stride boundary; the executing Session returns a
     * partial SuiteReport with deadlineExceeded set instead of
     * throwing. 0 means "already expired" (useful in tests for a
     * deterministic empty partial report).
     */
    StudyPlan &deadlineMs(std::uint64_t ms);

    /**
     * Attach an external cancellation token (from a CancelSource the
     * caller keeps). Firing it stops the run at the next boundary;
     * the Session returns a partial report with cancelled set.
     * Combines with deadlineMs(): whichever fires first wins.
     */
    StudyPlan &cancel(CancelToken token);

    /** True when any study (or profiler) is registered. */
    bool hasStudies() const;

  private:
    friend class Session;
    // The wire codec (analysis/plan_json.h) reads private state to
    // serialize and to compare round-trip results; it builds parsed
    // plans through the public API only.
    friend bool writePlanJson(const StudyPlan &plan, std::string *out,
                              json::Error *error);
    friend bool planEquals(const StudyPlan &a, const StudyPlan &b);
    friend bool planFingerprint(const StudyPlan &plan, std::string *hex,
                                json::Error *error);

    /** A CPI study's columns: its designs, then its width points. */
    struct CpiSpec
    {
        std::vector<pipeline::Design> designs;
        std::vector<pipeline::StageWidths> widths;
        pipeline::PipelineConfig config;

        std::size_t columns() const
        {
            return designs.size() + widths.size();
        }
    };
    struct EnergySpec
    {
        power::TechParams tech;
        pipeline::Design design;
        sig::Encoding enc;
    };

    std::vector<sig::Encoding> activity_;
    std::vector<CpiSpec> cpi_;
    std::vector<EnergySpec> energy_;
    std::vector<Profiler *> profilers_;
    std::vector<std::string> workloads_;
    bool evictAfterReplay_ = false;
    std::uint64_t deadlineMs_ = 0;
    bool hasDeadline_ = false;
    /** Runtime handle, not plan data: planEquals() ignores it. */
    CancelToken cancel_;
};

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_STUDY_PLAN_H_
