/**
 * @file
 * Process-wide two-tier cache of captured workload traces.
 *
 * Every study in this repository is a pure function of one dynamic
 * trace per benchmark (the paper derives all of Tables 3-6 and
 * Figs 4-10 from a single SimpleScalar trace per workload), so
 * functional simulation is a once-per-process cost: the first study
 * to touch a workload captures its retirement stream into a
 * TraceBuffer, and every later study — activity, CPI, profiling,
 * any design, any encoding — replays the shared immutable buffer.
 * Derived data (SharedQuanta records, `result:` memos) stays with
 * the trace as annexes. Several Sessions may serve from one cache
 * (sigcompd's tenants do), so a process that shares its cache holds
 * each trace and its annexes once, however many Sessions use it.
 *
 * Two tiers: the RAM map is the hot tier; an optional
 * store::TraceStore directory (SessionConfig::storeDir) is the
 * persistent cold tier. With a store attached, a miss first tries to
 * load the workload's significance-compressed segment from disk — a
 * cold *process* then skips functional capture entirely — and fresh
 * captures are written through so the next process benefits. A trace
 * stays in RAM until evict() or clear() drops it; the plan decides
 * that (StudyPlan::evictAfterReplay). The store binding and capture
 * limit are fixed at construction from the SessionConfig the cache
 * is built from; a different setting is a different cache.
 *
 * Thread-safety: get() performs exactly one capture per workload no
 * matter how many threads race on the first touch (later callers
 * block on the winner's shared_future); different workloads capture
 * concurrently. captures() counts functional passes and
 * storeLoads()/storeSaves() count disk-tier traffic so tests can
 * assert the simulate-once and capture-once-per-machine properties.
 */

#ifndef SIGCOMP_ANALYSIS_TRACE_CACHE_H_
#define SIGCOMP_ANALYSIS_TRACE_CACHE_H_

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "cpu/trace_buffer.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace sigcomp::analysis
{

/**
 * Construction-time configuration of a Session and of any TraceCache
 * built from it: the one place an execution setting is chosen. A
 * cache reads the store binding (storeDir, readOnly, durableSaves,
 * env) and captureLimit; the Session reads the rest. Nothing here
 * changes after construction; a different setting means a different
 * Session.
 */
struct SessionConfig
{
    /**
     * Workload-level parallelism: 0 = the shared process pool
     * (bounded, recommended), otherwise a dedicated executor of this
     * size (1 = serial reference).
     */
    unsigned threads = 0;
    /** Persistent trace store directory; empty = RAM tiers only. */
    std::string storeDir = {};
    /**
     * Never write segments. Only meaningful with storeDir — setting
     * it without one is a configuration error and fatal.
     */
    bool readOnly = false;
    /**
     * Per-workload capture cap. The default (TraceBuffer's
     * defaultMaxInstrs) treats hitting the limit as fatal; any other
     * value allows truncated captures — the benchmark smoke mode.
     * Store segments are keyed by this value: a segment captured
     * under a different cap never replays.
     */
    DWord captureLimit = cpu::TraceBuffer::defaultMaxInstrs;
    /** fsync-guard published segments (store::StoreOptions). */
    bool durableSaves = true;
    /**
     * I/O seam handed to the store (nullptr = real filesystem). The
     * fault-injection tests run whole sessions over a hostile Env;
     * only the health counters may differ from a fault-free run.
     */
    Env *env = nullptr;

    // ---- admission control (serving mode; two limits) ---------------
    /**
     * Plans executing concurrently on this Session. A plan arriving
     * at capacity waits in the bounded queue below (or is rejected
     * when the queue is full too). 0 = unlimited (library mode), and
     * then nothing is ever queued or rejected.
     */
    unsigned maxConcurrentPlans = 0;
    /**
     * Plans allowed to wait for a slot when at capacity; one past
     * the queue is rejected-with-reason immediately. Meaningful only
     * with maxConcurrentPlans set. 0 = no queue (reject at capacity).
     */
    unsigned maxQueuedPlans = 0;
};

class TraceCache
{
  public:
    using TracePtr = std::shared_ptr<const cpu::TraceBuffer>;

    /**
     * A cache with @p config's store binding and capture limit (its
     * other settings are the Session's).
     */
    explicit TraceCache(const SessionConfig &config = {});
    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The workload's trace: from RAM if hot, else loaded from the
     * attached store, else captured on first touch (and written
     * through to the store). @p workload must be a name registered
     * via registerProgram() or one workloads::Suite::build() accepts.
     *
     * @p cancel (optional) bounds a capture performed by this call:
     * once the token fires, the functional pass stops at the next
     * poll stride and the call throws CancelledError. The slot is
     * not poisoned — the entry is dropped and a later get() (with a
     * live token) retries; concurrent waiters on the same workload
     * observe the same CancelledError and may likewise retry.
     */
    TracePtr get(const std::string &workload,
                 const CancelToken *cancel = nullptr);

    /**
     * Register an ad-hoc program under @p workload, shadowing any
     * suite workload of that name for this cache only (custom
     * kernels of every Session on this cache). Drops a cached trace of the same name so the
     * next get() captures the new program. Registered programs are
     * strictly RAM-resident: the disk tier is never read for them
     * nor written with them, so shadowing a suite name cannot
     * clobber that workload's shared store segment.
     */
    void registerProgram(const std::string &workload,
                         isa::Program program);

    /** True when the workload's trace is cached (or being captured). */
    bool contains(const std::string &workload) const;

    /**
     * The workload's trace when it is in RAM and ready, else nullptr
     * (absent, or a capture/load still in flight). Never captures or
     * loads.
     */
    TracePtr resident(const std::string &workload);

    /** The attached disk tier, or nullptr. */
    std::shared_ptr<const store::TraceStore> store() const
    {
        return store_;
    }

    /**
     * Drop one workload's trace from RAM. Outstanding TracePtrs stay
     * valid (shared ownership); the next get() reloads or recaptures.
     * This is how StudyPlan::evictAfterReplay keeps peak
     * memory at one workload's footprint.
     */
    void evict(const std::string &workload);

    /** Drop all RAM entries (tests and benchmarks). Keeps the store. */
    void clear();

    /**
     * This cache's metric namespace (one registry per cache,
     * shared by every Session on it): the accounting and health counters
     * below, the capture-size histogram, and — through the store
     * binding — the attached TraceStore's retry/byte metrics.
     * Session::run snapshots it around a plan to build the
     * SuiteReport telemetry block.
     */
    telemetry::Registry &metrics() { return metrics_; }

    /** Functional capture passes performed over this cache's life. */
    std::uint64_t captures() const { return captures_.value(); }

    /** Traces served from the disk tier instead of capture. */
    std::uint64_t storeLoads() const { return storeLoads_.value(); }

    /** Segments written through to the disk tier. */
    std::uint64_t storeSaves() const { return storeSaves_.value(); }

    // ---- health counters (SuiteReport v2 "health" block) -------------

    /**
     * Store loads that failed for a damaged or unreadable segment
     * (LoadFailure::Corrupt/Io). Ordinary misses — no segment, stale
     * capture parameters — don't count: they are the cache working
     * as designed, not a fault.
     */
    std::uint64_t storeLoadFailures() const
    {
        return storeLoadFailures_.value();
    }

    /** Corrupt segments renamed aside (then healed by recapture). */
    std::uint64_t quarantinedSegments() const
    {
        return quarantined_.value();
    }

    /**
     * True once store writes were disabled mid-run: a permanent
     * fault class (ENOSPC/EROFS-class) or repeated transient
     * exhaustion on save. The session keeps running on RAM-resident
     * captures; it just loses the cross-process warm-start benefit.
     */
    bool storeWritesDegraded() const { return writesDegraded_.load(); }

    /**
     * Human-readable degradation events in occurrence order
     * (quarantines, write-disable transitions, unreadable-store
     * fallbacks), capped at kMaxDegradations.
     */
    std::vector<std::string> degradations() const;

    static constexpr std::size_t kMaxDegradations = 100;

    /**
     * Persist @p workload's derived "quanta:" annexes (the
     * SharedQuanta records replays published on @p trace) to the
     * attached store by re-saving its segment in the annex-bearing
     * format, so later *processes* skip the quanta front half. No-op
     * without a writable store or when the segment already carries
     * every record. Session::run calls this after each fused pass.
     * A fired @p cancel skips the save entirely (a cancelled plan
     * must stop writing, not start a fresh segment rewrite).
     */
    void persistAnnexes(const std::string &workload,
                        const cpu::TraceBuffer &trace,
                        const CancelToken *cancel = nullptr);

    /** Total heap footprint of the cached traces, in bytes. */
    std::size_t memoryBytes() const;

    /**
     * The annexes' share of memoryBytes(): derived records (quanta
     * records, result memos) on the cached traces, in bytes.
     */
    std::size_t annexBytes() const;

    /** Traces in RAM and ready (those memoryBytes() counts). */
    std::size_t residentTraces() const;

    /** Per-workload capture cap (SessionConfig::captureLimit). */
    DWord captureLimit() const { return limit_; }

  private:
    /**
     * Write-through save with failure classification: on success
     * bumps storeSaves_, on failure warns and feeds the degradation
     * policy (permanent fault, or repeated transient exhaustion,
     * disables further writes). @p what labels the save kind in the
     * warning ("save", "persist annexes for"). A fired
     * @p cancel skips the save before it starts; a token that fires
     * *during* a failing save suppresses the degradation accounting
     * (a cancellation-truncated retry round says nothing about the
     * store's health).
     */
    bool saveThrough(const store::TraceStore &store,
                     const std::string &workload,
                     const cpu::TraceBuffer &trace, DWord limit,
                     const char *what,
                     const CancelToken *cancel = nullptr)
        SIGCOMP_EXCLUDES(mu_);

    /** Record a degradation event (capped at kMaxDegradations). */
    void recordDegradation(std::string event) SIGCOMP_EXCLUDES(mu_);

    /**
     * Classify a failed store load: count it, quarantine corrupt
     * segments on writable stores, record the degradation event.
     */
    void noteLoadFailure(const store::TraceStore &store,
                         const std::string &workload,
                         store::LoadFailure failure,
                         const std::string &why) SIGCOMP_EXCLUDES(mu_);

    /**
     * Guards every map/tier field below. Held only for bookkeeping —
     * never across capture, store I/O, or future.get() on a pending
     * entry — so a slow capture can't stall unrelated workloads.
     * Lock order: mu_ before TraceBuffer's annex mutex
     * (memoryBytes -> TraceBuffer::memoryBytes); never the reverse.
     */
    mutable Mutex mu_;
    std::map<std::string, std::shared_future<TracePtr>> entries_
        SIGCOMP_GUARDED_BY(mu_);
    std::map<std::string, isa::Program> programs_ SIGCOMP_GUARDED_BY(mu_);
    /**
     * The cache's metric namespace. Declared before the handle
     * references below (they bind to slots inside it). Accounting
     * and health counters live here — deliberately lock-free
     * handles rather than mu_-guarded fields: they are bumped on
     * the capture/store-I/O paths that intentionally run outside
     * the lock, and read by tests and reports while other threads
     * are mid-get(). Pinned by the TSan counter-hammer test in
     * test_tsan_stress.cpp. Eager registration in the member
     * initializers keeps the metric set (and so the report
     * telemetry block's shape) identical across runs.
     */
    telemetry::Registry metrics_;
    telemetry::Counter &captures_ = metrics_.counter("cache.captures");
    telemetry::Counter &storeLoads_ = metrics_.counter("cache.store_loads");
    telemetry::Counter &storeSaves_ = metrics_.counter("cache.store_saves");
    telemetry::Counter &evictions_ = metrics_.counter("cache.evictions");
    telemetry::Counter &storeLoadFailures_ =
        metrics_.counter("cache.store_load_failures");
    telemetry::Counter &quarantined_ =
        metrics_.counter("cache.quarantined_segments");
    /** Retired-instruction count of each functional capture. */
    telemetry::Histogram &captureInstrs_ =
        metrics_.histogram("cache.capture_instructions");
    /**
     * Fixed at construction, so read without mu_. The store is
     * declared after metrics_: its retry/byte metrics bind there.
     */
    const std::shared_ptr<store::TraceStore> store_;
    const DWord limit_;
    /** Consecutive transient-exhausted save failures. */
    std::atomic<unsigned> transientSaveFailures_{0};
    std::atomic<bool> writesDegraded_{false};
    std::vector<std::string> degradations_ SIGCOMP_GUARDED_BY(mu_);
};

} // namespace sigcomp::analysis

#endif // SIGCOMP_ANALYSIS_TRACE_CACHE_H_
