/**
 * @file
 * Session: an isolated experiment-engine instance — it holds a
 * TraceCache (RAM + optional disk tier, its own or shared with other
 * Sessions), a capture limit, its parallelism and its admission
 * limits — plus the fused StudyPlan executor.
 *
 * A Session gives two guarantees:
 *
 *  - **Isolation.** Each Session owns its executor, admission
 *    limits and, unless built over a shared TraceCache, its cache
 *    with that cache's store binding and capture limit, all fixed by
 *    its SessionConfig at construction; any number coexist in one
 *    process without cross-talk (per-test, per-store). Sessions on a
 *    shared cache (sigcompd's tenants) share its resident traces,
 *    quanta and result memos (pure functions of the store, so no row
 *    changes), its metrics and its registered programs: a tenant's
 *    addWorkload() is daemon-wide, and no wire path reaches it.
 *    A StudyPlan only says which studies to run, never how.
 *  - **One fused replay pass.** Session::run(StudyPlan) executes
 *    every registered study — activity, CPI, profiling, energy —
 *    off a single batched replay of each workload trace (the
 *    ZipLine-style touch-the-data-once discipline): each block is
 *    materialised once and fans out to every pipeline group and
 *    profiler fork through the existing retireBlock path. The
 *    per-workload replay counters assert exactly one pass; results
 *    are bit-identical to running the studies one at a time.
 *
 * Every table, figure and ablation runs on this one engine path;
 * live FunctionalCore-to-pipeline simulation exists only as the
 * tests' ground-truth oracle (tests/live_oracle.h).
 *
 * Thread-safety: a Session holds no mutable state of its own beyond
 * its admission counts and its TraceCache, which is internally
 * synchronized (see
 * trace_cache.h — every guarded member is thread-annotation-checked
 * under Clang). trace()/prewarm()/addWorkload()/run() may be called
 * from any number of threads on one Session; concurrent run() calls
 * are safe but serialise on the shared executor's job queue.
 * config() is immutable after construction. The TSan stress test
 * (test_tsan_stress.cpp) exercises many Sessions over one shared
 * read-only store while another session evicts concurrently, and
 * Sessions over one shared TraceCache whose plans overlap while one
 * of them evicts.
 */

#ifndef SIGCOMP_ANALYSIS_SESSION_H_
#define SIGCOMP_ANALYSIS_SESSION_H_

#include <condition_variable>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/study_plan.h"
#include "analysis/trace_cache.h"
#include "common/cancel.h"
#include "common/mutex.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"

namespace sigcomp::analysis
{

class Session
{
  public:
    /**
     * A Session serving from @p cache, which other Sessions may
     * share (see Isolation above); without one it builds its own
     * from @p config. A shared cache's store binding and capture
     * limit must be the ones @p config names.
     */
    explicit Session(SessionConfig config = {},
                     std::shared_ptr<TraceCache> cache = nullptr);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * A process-wide Session. Nothing in the library, tools, benches
     * or tests uses it any more: its one remaining caller is
     * perfbench's warmCompressor(), which clears its cache. perfbench
     * belongs to the benchmark and is changed only with it, so
     * deleting this waits for the next benchmark change.
     */
    static Session &defaultSession();

    TraceCache &cache() { return *cache_; }
    const SessionConfig &config() const { return config_; }

    /** This session's executor (owned, or the shared pool). */
    ParallelExecutor &executor() const;

    /** The workload's trace via this session's two-tier cache. */
    TraceCache::TracePtr trace(const std::string &workload);

    /** Capture/load every listed workload not yet cached, fanned out. */
    void prewarm(const std::vector<std::string> &names);

    /**
     * Register an ad-hoc program as a workload of this session's
     * cache (plan.workloads({name}) then runs studies over it), and
     * so of every Session sharing that cache.
     */
    void addWorkload(const std::string &name, isa::Program program);

    /**
     * Execute @p plan: one fused batched replay per workload feeding
     * every registered study, assembled into a SuiteReport. Rows and
     * totals are bit-identical to running the studies one plan at a
     * time, and to live simulation, at any thread count. Workloads
     * fan out across the executor, one task per workload fetching
     * (loading or capturing) and replaying its own trace; each task
     * feeds its own fork of every plan profiler, and the forks merge
     * into the caller's profilers in suite order after the fan-out
     * (see StudyPlan::profile). After each pass the session
     * write-backs newly derived SharedQuanta annexes to the attached
     * store, so warm-store processes skip the quanta front half as
     * well as capture.
     *
     * The run is instrumented end to end (see common/telemetry.h):
     * the report's `telemetry` block is this run's metrics delta,
     * and while tracing is on (SIGCOMP_TRACE or
     * telemetry::startTracing) its spans join the process trace.
     * Telemetry is a pure side channel — study rows are
     * bit-identical with it on, off, or compiled out.
     *
     * Request lifecycle (serving mode): a plan carrying a deadline
     * (StudyPlan::deadlineMs) or a cancellation token
     * (StudyPlan::cancel) stops at the next block boundary once it
     * fires and returns a PARTIAL report — rows only for workloads
     * whose fused pass completed, cancelled/deadlineExceeded set,
     * profilers holding those workloads' tallies only —
     * with the trace store left consistent (saves are atomic and a
     * cancelled plan stops writing rather than writing less). With
     * admission limits configured (SessionConfig) a plan arriving
     * when the running plans and the queue are both full is instead
     * refused up front: rejected + rejectReason set, no rows, no
     * engine work performed.
     */
    SuiteReport run(const StudyPlan &plan);

  private:
    /** Admission verdict for one arriving plan. */
    enum class Admission
    {
        Admitted, ///< slot held; caller must releaseSlot()
        Rejected, ///< running and queue full; reject-with-reason
        Stopped,  ///< plan's token fired while queued; no slot
    };

    /** run() minus admission: the fused study executor. */
    SuiteReport runStudies(const StudyPlan &plan,
                           const CancelToken &token);

    /**
     * Gate one plan through the admission limits; blocks in the
     * bounded queue while at capacity (polling @p token).
     */
    Admission admitPlan(const CancelToken &token, std::string *why)
        SIGCOMP_EXCLUDES(admissionMu_);

    /** Release an Admitted plan's slot and wake one queued waiter. */
    void releaseSlot() SIGCOMP_EXCLUDES(admissionMu_);

    SessionConfig config_;
    std::shared_ptr<TraceCache> cache_;
    /** Only when config_.threads != 0 (else the shared pool). */
    std::unique_ptr<ParallelExecutor> exec_;

    /** Guards the admission counts; never held across a plan. */
    mutable Mutex admissionMu_;
    std::condition_variable admissionCv_;
    unsigned runningPlans_ SIGCOMP_GUARDED_BY(admissionMu_) = 0;
    unsigned queuedPlans_ SIGCOMP_GUARDED_BY(admissionMu_) = 0;
    /**
     * Admission telemetry in the cache's namespace, so summed over
     * every Session on the cache: the gauge counts the plans queued
     * in any of them, the counters every admission and rejection.
     * The counters move before the run's baseline snapshot is taken,
     * and the gauge is excluded from report serialization, so the
     * report telemetry block of an admitted plan is unchanged.
     */
    telemetry::Gauge &queueDepth_ =
        cache_->metrics().gauge("session.admission_queue_depth");
    telemetry::Counter &admitted_ =
        cache_->metrics().counter("session.plans_admitted");
    telemetry::Counter &rejected_ =
        cache_->metrics().counter("session.plans_rejected");
};

/**
 * The funct-ranked instruction compressor of the paper's Table 3
 * step, built from the suite's committed funct ranking: no Session
 * work, no captures. Profiling the suite with InstrMixProfiler
 * reproduces the ranking exactly (test_analysis pins this).
 */
const sig::InstrCompressor &suiteCompressor();

/** Pipeline config with the suite-profiled compressor installed. */
pipeline::PipelineConfig suiteConfig(
    sig::Encoding enc = sig::Encoding::Ext3);

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_SESSION_H_
