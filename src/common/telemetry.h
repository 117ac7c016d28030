/**
 * @file
 * Unified telemetry layer: a thread-safe metrics registry
 * (counters, gauges, fixed-bucket histograms behind cheap handles)
 * plus a scoped-span tracer draining to Chrome trace-event JSON.
 *
 * Design constraints, in order:
 *
 *  1. Counters are the engine's accounting (captures, store loads,
 *     health counters) and are ALWAYS live — reports depend on
 *     them.  Gauges and histograms are observability-only and are
 *     gated by the runtime enable flag (SIGCOMP_TELEMETRY=off or
 *     setEnabled(false)) so the disabled-mode cost of a histogram
 *     site is one relaxed atomic load.
 *  2. Spans are a pure side channel.  SIGCOMP_SPAN's fast path when
 *     tracing is inactive is one relaxed atomic load and a branch;
 *     no clock is read.  When active, each thread appends to a
 *     private fixed-capacity buffer (no locks, no allocation after
 *     first use) published with release/acquire so a concurrent
 *     trace writer reads only completed entries — TSan-clean by
 *     construction, not by suppression.
 *  3. Snapshots are deterministic: name-sorted, values only (no
 *     wall times), so a snapshot delta can be embedded in golden-
 *     pinned report bytes.
 *
 * Tracing activates via SIGCOMP_TRACE=out.json (any binary linking
 * the library: started at static-init, flushed at exit) or
 * programmatically via startTracing() / stopTracing() / writeTrace().
 * Tracing is a process setting: a StudyPlan carries no trace file.
 *
 * Compile-time kill switch: configuring with -DSIGCOMP_TELEMETRY=OFF
 * defines SIGCOMP_TELEMETRY_DISABLED, which compiles SIGCOMP_SPAN to
 * nothing and pins enabled() to false (gauges/histograms become
 * dead stores the optimizer removes).  Counters and the registry
 * survive even then — they are accounting, not telemetry.
 */

#ifndef SIGCOMP_COMMON_TELEMETRY_H
#define SIGCOMP_COMMON_TELEMETRY_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"

namespace sigcomp
{
namespace telemetry
{

/** What a metric's value measures — drives report formatting. */
enum class Unit : std::uint8_t { Count, Bytes, Nanos };

/** Metric shape. */
enum class Kind : std::uint8_t { Counter, Gauge, Histogram };

/** Stable name for a unit ("count", "bytes", "nanos"). */
const char *unitName(Unit unit);

namespace detail
{
/** Runtime enable flag for gauges/histograms (spans have their own). */
extern std::atomic<bool> g_enabled;
/** True while a trace collection window is open. */
extern std::atomic<bool> g_tracing;
} // namespace detail

/**
 * Whether gauge/histogram recording is live.  Counters ignore this:
 * they are engine accounting, not optional observability.
 */
inline bool
enabled()
{
#if defined(SIGCOMP_TELEMETRY_DISABLED)
    return false;
#else
    return detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/** Flip gauge/histogram recording at runtime (overrides SIGCOMP_TELEMETRY). */
void setEnabled(bool on);

/**
 * Monotonic counter.  Handles are stable references into a Registry
 * and never invalidated; inc() is one relaxed fetch_add.
 */
class Counter
{
  public:
    void
    inc(std::uint64_t by = 1)
    {
        value_.fetch_add(by, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Instantaneous level (e.g. executor queue depth).  set() is gated by
 * enabled(); add() is not: a level kept as a running sum of deltas
 * from several owners must see every delta, or it drifts.
 */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        if (enabled())
            value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/**
 * Fixed-bucket histogram over unsigned 64-bit samples.  Bucket i
 * holds samples whose bit width is i (bucket 0 is exactly v == 0),
 * i.e. power-of-two size/latency classes — deterministic across
 * platforms, no floating point, 65 buckets total.  Gated by
 * enabled().
 *
 * count/sum/bucket updates are individually atomic but not grouped;
 * a snapshot taken while writers are live may be momentarily
 * inconsistent between the three.  Report snapshots are taken at
 * quiescent points (after joins), where they are exact.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    void
    record(std::uint64_t v)
    {
        if (!enabled())
            return;
        const unsigned b = static_cast<unsigned>(std::bit_width(v));
        buckets_[b].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry; // snapshot() reads buckets_ directly

    std::atomic<std::uint64_t> buckets_[kBuckets]{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/** One metric's state at snapshot time. */
struct SnapshotMetric {
    /**
     * Points into a process-wide table of every metric name ever
     * registered (never freed), so a snapshot copies no strings and
     * may outlive its registry.
     */
    std::string_view name;
    Kind kind = Kind::Counter;
    Unit unit = Unit::Count;
    /// Counter value (Kind::Counter only).
    std::uint64_t value = 0;
    /// Instantaneous level (Kind::Gauge only).
    std::int64_t gauge = 0;
    /// Histogram totals (Kind::Histogram only).
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Histogram buckets with trailing zeros trimmed.
    std::vector<std::uint64_t> buckets;
};

/**
 * A deterministic, name-sorted copy of a registry's metrics.
 * Default-constructed == empty (the report writer emits an empty
 * telemetry block for it).
 */
struct Snapshot {
    std::vector<SnapshotMetric> metrics;

    /**
     * Per-metric difference after - before.  Metrics absent from
     * @p before (registered mid-window) difference against zero;
     * gauges carry the after-value unchanged (levels, not totals).
     */
    static Snapshot delta(const Snapshot &before, Snapshot after);

    /**
     * Counter value (or histogram sample count) for @p name; 0 when
     * absent — report plumbing reads legacy fields through this.
     */
    std::uint64_t value(const std::string &name) const;
};

/**
 * Named metric registry.  Lookup (counter()/gauge()/histogram())
 * takes a mutex and is meant for setup paths; the returned handle
 * references are stable for the registry's lifetime and are the
 * hot-path interface.  Re-requesting a name returns the same handle;
 * re-requesting it as a different kind is a programming error and
 * panics.
 *
 * Registries are instantiable so a component (TraceCache) can own a
 * private, per-instance metric namespace; process() is the shared
 * fallback for process-wide components (ParallelExecutor, stores
 * constructed without an explicit registry).
 */
class Registry
{
  public:
    // Out-of-line: Slot is incomplete here, and even the defaulted
    // constructor potentially invokes the slot map's destructor.
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Process-wide registry (never destroyed). */
    static Registry &process();

    Counter &counter(const std::string &name, Unit unit = Unit::Count)
        SIGCOMP_EXCLUDES(mu_);
    Gauge &gauge(const std::string &name, Unit unit = Unit::Count)
        SIGCOMP_EXCLUDES(mu_);
    Histogram &histogram(const std::string &name, Unit unit = Unit::Count)
        SIGCOMP_EXCLUDES(mu_);

    /** Name-sorted deterministic copy of every metric. */
    Snapshot snapshot() const SIGCOMP_EXCLUDES(mu_);

  private:
    struct Slot;

    Slot &slot(const std::string &name, Kind kind, Unit unit)
        SIGCOMP_EXCLUDES(mu_);

    mutable Mutex mu_;
    /// std::map: stable addresses via unique_ptr, iteration already
    /// name-sorted for snapshot().
    std::map<std::string, std::unique_ptr<Slot>> slots_ SIGCOMP_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

namespace detail
{
std::uint64_t spanClockNanos();
void emitSpan(const char *label, std::uint64_t start_ns);
} // namespace detail

/**
 * RAII scope measuring one span.  Instantiate via SIGCOMP_SPAN so
 * the label survives the scope (must be a string literal / static
 * string: the tracer stores the pointer, not a copy).
 */
class SpanScope
{
  public:
    explicit SpanScope(const char *label)
        : label_(detail::g_tracing.load(std::memory_order_relaxed) ? label
                                                                   : nullptr)
    {
        if (label_ != nullptr)
            start_ = detail::spanClockNanos();
    }

    ~SpanScope()
    {
        if (label_ != nullptr)
            detail::emitSpan(label_, start_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    const char *label_;
    std::uint64_t start_ = 0;
};

#if defined(SIGCOMP_TELEMETRY_DISABLED)
#define SIGCOMP_SPAN(label)                                                   \
    do {                                                                      \
    } while (0)
#else
#define SIGCOMP_SPAN_CONCAT2(a, b) a##b
#define SIGCOMP_SPAN_CONCAT(a, b) SIGCOMP_SPAN_CONCAT2(a, b)
#define SIGCOMP_SPAN(label)                                                   \
    ::sigcomp::telemetry::SpanScope SIGCOMP_SPAN_CONCAT(sigcomp_span_,        \
                                                        __COUNTER__)(label)
#endif

/** Open a trace collection window (idempotent; sets the time origin once). */
void startTracing();

/** Close the collection window.  Recorded spans stay writable to JSON. */
void stopTracing();

/** Whether a collection window is currently open. */
bool tracingActive();

/**
 * Name the calling thread's track in the trace ("executor-worker-3").
 * Effective whether called before or after the thread's first span.
 */
void setThreadName(const std::string &name);

/**
 * Write every span recorded since the first startTracing() as Chrome
 * trace-event JSON (chrome://tracing / Perfetto loadable).
 * Non-draining and idempotent: a later write sees a superset.
 */
void writeTrace(std::FILE *f);

/** writeTrace() to @p path; false + *why on I/O failure. */
bool writeTrace(const std::string &path, std::string *why = nullptr);

/** Spans discarded because a thread buffer filled (diagnostic only). */
std::uint64_t droppedSpans();

} // namespace telemetry
} // namespace sigcomp

#endif // SIGCOMP_COMMON_TELEMETRY_H
