/**
 * @file
 * Wire codec for StudyPlan: the serving-grade plan ingestion seam.
 *
 * A SuiteReport travels OUT of the engine as JSON (analysis/report.h);
 * this is the inverse direction — a StudyPlan travelling IN, schema
 * "sigcomp-study-plan-v2". Unlike the report serializer, the parser
 * faces UNTRUSTED input: it is strict (exact schema, no unknown
 * fields, no duplicate keys, hard caps on every count, string length
 * and nesting depth), classifies every failure into the PlanErrorKind
 * taxonomy with the byte offset where it was detected, and never
 * aborts the process — SC_ASSERT is for internal invariants, not for
 * other people's bytes. The JSON grammar, its string/depth caps and
 * the taxonomy are common/json.h's Reader; this file adds the schema.
 *
 * Round-trip guarantee (pinned by tests/test_plan_json.cpp and the
 * fuzz harness): for any plan P that writePlanJson accepts,
 * parsePlanJson(writePlanJson(P)) succeeds and the result satisfies
 * planEquals with P. Plans carrying process-local state — profiler
 * pointers, a live cancellation token — or what the schema does
 * not express — a non-default memory hierarchy, CPI width points —
 * are refused by the SERIALIZER with Unsupported, so nothing that
 * parses was lossy to write.
 *
 * A plan says WHICH studies to run, never HOW: thread count, tracing
 * and the trace store belong to the executing Session (SessionConfig),
 * so the wire has no execution keys. v2 dropped v1's "threads"
 * override; a document carrying it fails with UnknownField.
 *
 * Wire shape (stable key order as emitted):
 *
 *   {
 *     "schema": "sigcomp-study-plan-v2",
 *     "workloads": ["rawcaudio", ...],        // [] = full suite
 *     "evict_after_replay": false,
 *     "deadline_ms": 5000,                    // only when set
 *     "activity": [{"encoding": "ext3"}, ...],
 *     "cpi": [{"designs": ["byte-serial", ...],
 *              "config": {"encoding": "ext3", "mult_cycles": 4,
 *                         "div_cycles": 12, "predictor": "none",
 *                         "pht_entries": 512, "btb_entries": 128,
 *                         "compressor_ranking": [42, ...]}}, ...],
 *     "energy": [{"design": "byte-serial", "encoding": "ext3",
 *                 "tech": {"vdd": 1.8, ...}}, ...]
 *   }
 *
 * Doubles are emitted with %.17g and parsed with strtod, so every
 * IEEE-754 value round-trips bit-exactly.
 */

#ifndef SIGCOMP_ANALYSIS_PLAN_JSON_H_
#define SIGCOMP_ANALYSIS_PLAN_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/study_plan.h"
#include "common/json.h"

namespace sigcomp::analysis
{

/**
 * Failure taxonomy of plan ingestion: the JSON reader's own
 * (common/json.h), under the names the daemon, perfbench and the
 * tests use.
 */
using PlanErrorKind = json::ErrorKind;
using PlanError = json::Error;

/** Canonical lower-case name ("syntax", "unknown-field", ...). */
inline std::string
planErrorKindName(PlanErrorKind k)
{
    return json::errorKindName(k);
}

// ---- hard caps (all enforced with OutOfRange) -----------------------
/** Whole-document size cap. */
constexpr std::size_t kMaxPlanJsonBytes = 1 << 20;
/** Bracket/brace nesting cap (the grammar needs only 5). */
constexpr std::size_t kMaxPlanJsonDepth = json::kMaxDepth;
/** Cap on any single string value. */
constexpr std::size_t kMaxPlanStringBytes = json::kMaxStringBytes;
/** Cap on the workloads array. */
constexpr std::size_t kMaxPlanWorkloads = 256;
/** Cap on each study array (activity/cpi/energy). */
constexpr std::size_t kMaxPlanStudies = 32;
/** Cap on one CPI study's designs array. */
constexpr std::size_t kMaxPlanDesigns = 32;
/** Cap on compressor_ranking entries (funct values are 6-bit). */
constexpr std::size_t kMaxPlanRankingEntries = 64;
/** Cap on deadline_ms (~11.5 days; anything longer is a typo). */
constexpr std::uint64_t kMaxPlanDeadlineMs = 1000000000;
/** Cap on mult_cycles/div_cycles. */
constexpr std::uint64_t kMaxPlanOpCycles = 1000;
/** Cap on pht_entries/btb_entries (must also be powers of two). */
constexpr std::uint64_t kMaxPlanPredictorEntries = 1 << 20;
/** Cap on tech.vdd in volts (exclusive of 0 below). */
constexpr double kMaxPlanVdd = 20.0;

/**
 * Parse one plan document. On success returns true and assigns a
 * freshly built plan to @p out (previous contents replaced). On
 * failure returns false, leaves @p out untouched, and fills
 * @p error (when non-null) with the FIRST failure in input order.
 */
bool parsePlanJson(std::string_view json, StudyPlan *out,
                   PlanError *error);

/**
 * Serialize @p plan. Returns false with Unsupported when the plan
 * carries state the wire cannot express (profilers, a live
 * cancel token, a non-default memory hierarchy, CPI width points);
 * @p out is untouched on failure.
 */
bool writePlanJson(const StudyPlan &plan, std::string *out,
                   PlanError *error);

/**
 * Semantic plan equality — the round-trip oracle. Compares every
 * plan field including the deadline builder-tracking flag and the
 * compressor ranking, EXCEPT the cancellation token, which
 * is a process-local runtime handle, not plan data.
 */
bool planEquals(const StudyPlan &a, const StudyPlan &b);

/**
 * Content fingerprint of a plan: the lowercase SHA-256 hex digest of
 * its canonical wire form (writePlanJson's exact bytes). Because the
 * wire form is canonical — stable key order, %.17g doubles — two
 * plans fingerprint equal iff they are planEquals-equal and
 * wire-expressible, so it names a plan's content. Like
 * planEquals, the cancellation token is ignored (a runtime handle,
 * not plan content). Returns false with @p error set when the plan
 * is not wire-expressible (sinks, custom hierarchy, width points);
 * @p hex is untouched on failure.
 */
bool planFingerprint(const StudyPlan &plan, std::string *hex,
                     PlanError *error);

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_PLAN_JSON_H_
