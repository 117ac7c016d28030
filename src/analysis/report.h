/**
 * @file
 * Structured results of a Session::run(StudyPlan) — per-study row
 * types, the aggregate SuiteReport, and its uniform JSON
 * serialization.
 *
 * ActivityRow and PipelineResult are also what the tests'
 * live-simulation oracle returns, so the bit-identity tests compare
 * engine and oracle results directly.
 */

#ifndef SIGCOMP_ANALYSIS_REPORT_H_
#define SIGCOMP_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "common/telemetry.h"
#include "pipeline/models.h"
#include "pipeline/pipeline.h"
#include "power/energy_model.h"
#include "sigcomp/compressed_word.h"

namespace sigcomp::analysis
{

/** One per-benchmark row of an activity study (Table 5/6). */
struct ActivityRow
{
    std::string benchmark;
    pipeline::ActivityTotals activity;
};

/** Summed activity across rows (the tables' AVG line). */
pipeline::ActivityTotals sumActivity(const std::vector<ActivityRow> &rows);

/** Results of one registered activity study (one encoding). */
struct ActivityStudyResult
{
    sig::Encoding encoding = sig::Encoding::Ext3;
    std::vector<ActivityRow> rows;

    /** The AVG line. */
    pipeline::ActivityTotals total() const { return sumActivity(rows); }
};

/**
 * Results of one registered CPI study: the full PipelineResult of
 * every (workload, design) pair — CPI, stall breakdown, activity and
 * cache statistics — so consumers that need more than the CPI figure
 * (energy reports, explorer tables) read it from the same replay.
 */
struct CpiStudyResult
{
    /** The study's columns: these designs, then these width points. */
    std::vector<pipeline::Design> designs;
    std::vector<pipeline::StageWidths> widths;
    std::vector<std::string> benchmarks;
    /**
     * results[w][c] = column c run over benchmarks[w]: designs[c]
     * for c < designs.size(), else widths[c - designs.size()].
     */
    std::vector<std::vector<pipeline::PipelineResult>> results;

    /** Column of design @p d; fatal when the study lacks it. */
    std::size_t column(pipeline::Design d) const;

    /** Geometric-mean CPI of @p d across the benchmarks. */
    double geomeanCpi(pipeline::Design d) const;

    /** Geometric-mean CPI of column @p c across the benchmarks. */
    double columnGeomeanCpi(std::size_t c) const;

    /** designName() or widthsName() of column @p c. */
    std::string columnName(std::size_t c) const;

    std::size_t columns() const { return designs.size() + widths.size(); }
};

/** One per-benchmark row of an energy study. */
struct EnergyRow
{
    std::string benchmark;
    DWord instructions = 0;
    power::EnergyReport report;
};

/** Results of one registered energy study (design x encoding). */
struct EnergyStudyResult
{
    pipeline::Design design = pipeline::Design::ByteSerial;
    sig::Encoding encoding = sig::Encoding::Ext3;
    power::TechParams tech;
    std::vector<EnergyRow> rows;
    /** Energy of the summed activity (the model is linear). */
    power::EnergyReport total;
};

/**
 * Everything one Session::run produced, plus the engine accounting
 * that backs the fused-pass guarantees (captures/replay passes/store
 * loads performed by this run — a fresh trace with N studies
 * registered contributes exactly one replay pass).
 */
struct SuiteReport
{
    std::vector<std::string> workloads;
    unsigned threads = 0;
    /** Sum of per-workload dynamic instruction counts (one pass). */
    DWord instructions = 0;

    std::vector<ActivityStudyResult> activity;
    std::vector<CpiStudyResult> cpi;
    std::vector<EnergyStudyResult> energy;
    /** Number of caller profilers the plan registered. */
    std::size_t profileSinks = 0;

    // -- engine accounting for this run (deltas, not totals) ---------
    std::uint64_t replayPasses = 0; ///< TraceView passes performed
    std::uint64_t captures = 0;     ///< functional simulations performed
    std::uint64_t storeLoads = 0;   ///< traces served from the disk tier
    double wallMs = 0.0;

    // -- health accounting (fault handling during this run) ----------
    // These report COST, never correctness: an injected or real I/O
    // fault may bump every counter here while the study results above
    // stay byte-identical to a fault-free run (pinned by
    // tests/test_fault.cpp).
    std::uint64_t storeLoadFailures = 0; ///< damaged/unreadable loads
    std::uint64_t quarantinedSegments = 0; ///< corrupt segments set aside
    std::uint64_t retries = 0; ///< transient-fault retries in the store
    /** Degradation events in occurrence order (capped by the cache). */
    std::vector<std::string> degradations;

    // -- request-lifecycle outcome (v4) -------------------------------
    // A partial or refused run is an OUTCOME, not an exception: the
    // rows present are exact (each harvested workload completed its
    // full fused pass), only coverage shrinks. Exactly one of
    // cancelled/deadlineExceeded is set on a stopped run; rejected
    // runs carry no rows at all.
    /** Plan stopped early by an external CancelToken. */
    bool cancelled = false;
    /** Plan stopped early by its deadlineMs() budget. */
    bool deadlineExceeded = false;
    /** Plan refused admission (limits in SessionConfig); no rows. */
    bool rejected = false;
    /** Human-readable admission refusal reason (empty otherwise). */
    std::string rejectReason;

    /**
     * This run's full metrics delta off the session's telemetry
     * registry (the engine/health scalars above are views into it).
     * Serialized as the `telemetry` block: counters and histogram
     * bucket shapes only — deterministic and golden-pinnable; wall
     * times (Nanos-unit metrics) and gauges are excluded.
     */
    telemetry::Snapshot telemetry;

    /**
     * Serialize as JSON (schema "sigcomp-suite-report-v4", see README
     * "Experiment API"; v2 added the "health" block, v3 the
     * "telemetry" block, v4 the request-lifecycle outcome fields in
     * "health"). Stable key order, no trailing newline variance —
     * diffable across runs.
     */
    std::string toJson() const;
};

/**
 * @p json with every `"wall_ms": <number>` value rewritten to 0.000.
 * Wall times are the only run-dependent numbers in a report, so two
 * zeroed reports of one plan compare byte for byte
 * (`sigcomp_client --zero-wall`, the daemon golden test).
 */
std::string zeroWallMs(const std::string &json);

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_REPORT_H_
