/**
 * @file
 * Telemetry implementation: registry slots, the span tracer's
 * thread-local buffers, and the Chrome trace-event JSON writer.
 *
 * Concurrency discipline (pinned by tests/test_telemetry.cpp under
 * TSan):
 *  - Registry: name->slot map under mu_; handle hot paths are
 *    relaxed atomics on stable slots.
 *  - Tracer: each thread owns a fixed-capacity buffer registered
 *    once under TracerState::mu.  The owning thread writes
 *    entries[i] then publishes with count.store(release); the
 *    writer reads count.load(acquire) and only entries below it.
 *    ThreadBuffer::name is only read/written under TracerState::mu
 *    (it lives outside the lock-free path).
 *  - All long-lived singletons are intentionally leaked so atexit
 *    flushing and late worker threads never race static
 *    destruction.
 */

#include "common/telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>

#include "common/json.h"
#include "common/logging.h"

namespace sigcomp
{
namespace telemetry
{

namespace detail
{
std::atomic<bool> g_enabled{true};
std::atomic<bool> g_tracing{false};
} // namespace detail

const char *
unitName(Unit unit)
{
    switch (unit) {
      case Unit::Count:
        return "count";
      case Unit::Bytes:
        return "bytes";
      case Unit::Nanos:
        return "nanos";
    }
    return "count";
}

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace
{

/** @p name's copy in the process-wide name table (see SnapshotMetric). */
std::string_view
internName(const std::string &name)
{
    static Mutex mu;
    // Leaked like Registry::process(): snapshots may be read late.
    static auto *names = new std::set<std::string, std::less<>>;
    MutexLock lock(mu);
    return *names->insert(name).first;
}

} // namespace

struct Registry::Slot {
    Slot(std::string_view name_in, Kind kind_in, Unit unit_in)
        : name(name_in), kind(kind_in), unit(unit_in)
    {}

    const std::string_view name;
    const Kind kind;
    const Unit unit;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry &
Registry::process()
{
    // Leaked: worker threads and atexit hooks may touch process
    // metrics after main() returns.
    static Registry *registry = new Registry;
    return *registry;
}

Registry::Slot &
Registry::slot(const std::string &name, Kind kind, Unit unit)
{
    MutexLock lock(mu_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        it = slots_
                 .emplace(name, std::make_unique<Slot>(internName(name),
                                                       kind, unit))
                 .first;
    }
    SC_ASSERT(it->second->kind == kind,
              "telemetry metric '", name, "' re-registered as a different kind");
    return *it->second;
}

Counter &
Registry::counter(const std::string &name, Unit unit)
{
    return slot(name, Kind::Counter, unit).counter;
}

Gauge &
Registry::gauge(const std::string &name, Unit unit)
{
    return slot(name, Kind::Gauge, unit).gauge;
}

Histogram &
Registry::histogram(const std::string &name, Unit unit)
{
    return slot(name, Kind::Histogram, unit).histogram;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    MutexLock lock(mu_);
    snap.metrics.reserve(slots_.size());
    // std::map iteration order is the name sort the Snapshot
    // contract promises.
    for (const auto &[name, slot] : slots_) {
        SnapshotMetric m;
        m.name = slot->name;
        m.kind = slot->kind;
        m.unit = slot->unit;
        switch (slot->kind) {
          case Kind::Counter:
            m.value = slot->counter.value();
            break;
          case Kind::Gauge:
            m.gauge = slot->gauge.value();
            break;
          case Kind::Histogram:
            m.count = slot->histogram.count();
            m.sum = slot->histogram.sum();
            std::uint64_t buckets[Histogram::kBuckets];
            std::size_t used = 0;
            for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
                buckets[i] = slot->histogram.buckets_[i].load(
                    std::memory_order_relaxed);
                if (buckets[i] != 0)
                    used = i + 1;
            }
            m.buckets.assign(buckets, buckets + used);
            break;
        }
        snap.metrics.push_back(std::move(m));
    }
    return snap;
}

Snapshot
Snapshot::delta(const Snapshot &before, Snapshot after)
{
    // Differenced in place: a caller that hands over a fresh snapshot
    // pays for no second copy of its bucket vectors.
    std::size_t bi = 0;
    for (SnapshotMetric &d : after.metrics) {
        while (bi < before.metrics.size() && before.metrics[bi].name < d.name)
            ++bi;
        if (bi < before.metrics.size() && before.metrics[bi].name == d.name) {
            const SnapshotMetric &b = before.metrics[bi];
            // Counters and histogram totals are monotonic, so the
            // subtractions cannot underflow; gauges keep the
            // after-value (a level, not a total).
            d.value -= b.value;
            d.count -= b.count;
            d.sum -= b.sum;
            for (std::size_t i = 0;
                 i < d.buckets.size() && i < b.buckets.size(); ++i)
                d.buckets[i] -= b.buckets[i];
            while (!d.buckets.empty() && d.buckets.back() == 0)
                d.buckets.pop_back();
        }
    }
    return after;
}

std::uint64_t
Snapshot::value(const std::string &name) const
{
    for (const SnapshotMetric &m : metrics) {
        if (m.name == name)
            return m.kind == Kind::Histogram ? m.count : m.value;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

namespace
{

struct SpanEvent {
    const char *label;
    std::uint64_t startNs;
    std::uint64_t durNs;
};

struct ThreadBuffer {
    /// 2^18 spans (~6 MB) per thread; beyond that spans are dropped
    /// and counted — a profiler must never grow unbounded inside
    /// the process it profiles.
    static constexpr std::uint32_t kCapacity = 1u << 18;

    explicit ThreadBuffer(std::uint64_t tid_in)
        : tid(tid_in), entries(kCapacity)
    {}

    const std::uint64_t tid;
    std::vector<SpanEvent> entries;
    /// Publication index: owner stores with release after writing
    /// entries[count]; readers load with acquire.
    std::atomic<std::uint32_t> count{0};
    /// Track label; read/written only under TracerState::mu.
    std::string name;
};

struct TracerState {
    Mutex mu;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers SIGCOMP_GUARDED_BY(mu);
    std::uint64_t nextTid SIGCOMP_GUARDED_BY(mu) = 1;
    /// Trace time origin (first startTracing), 0 = unset.
    std::atomic<std::uint64_t> originNs{0};
    std::atomic<std::uint64_t> dropped{0};
};

TracerState &
tracer()
{
    // Leaked: see file comment.
    static TracerState *state = new TracerState;
    return *state;
}

struct TlsSlot {
    std::shared_ptr<ThreadBuffer> buf;
    /// Name set before the thread's first span.
    std::string pendingName;
};

TlsSlot &
tls()
{
    thread_local TlsSlot slot;
    return slot;
}

ThreadBuffer *
tlsBuffer()
{
    TlsSlot &slot = tls();
    if (!slot.buf) {
        TracerState &t = tracer();
        MutexLock lock(t.mu);
        auto buf = std::make_shared<ThreadBuffer>(t.nextTid++);
        buf->name = slot.pendingName;
        t.buffers.push_back(buf);
        slot.buf = std::move(buf);
    }
    return slot.buf.get();
}

} // namespace

namespace detail
{

std::uint64_t
spanClockNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
emitSpan(const char *label, std::uint64_t start_ns)
{
    const std::uint64_t end_ns = spanClockNanos();
    ThreadBuffer *buf = tlsBuffer();
    const std::uint32_t i = buf->count.load(std::memory_order_relaxed);
    if (i >= ThreadBuffer::kCapacity) {
        tracer().dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    buf->entries[i] = SpanEvent{label, start_ns, end_ns - start_ns};
    buf->count.store(i + 1, std::memory_order_release);
}

} // namespace detail

void
startTracing()
{
    TracerState &t = tracer();
    std::uint64_t expected = 0;
    t.originNs.compare_exchange_strong(expected, detail::spanClockNanos(),
                                       std::memory_order_relaxed);
    detail::g_tracing.store(true, std::memory_order_relaxed);
}

void
stopTracing()
{
    detail::g_tracing.store(false, std::memory_order_relaxed);
}

bool
tracingActive()
{
    return detail::g_tracing.load(std::memory_order_relaxed);
}

void
setThreadName(const std::string &name)
{
    TlsSlot &slot = tls();
    if (slot.buf) {
        MutexLock lock(tracer().mu);
        slot.buf->name = name;
    } else {
        slot.pendingName = name;
    }
}

std::uint64_t
droppedSpans()
{
    return tracer().dropped.load(std::memory_order_relaxed);
}

void
writeTrace(std::FILE *f)
{
    TracerState &t = tracer();
    const std::uint64_t origin = t.originNs.load(std::memory_order_relaxed);
    std::fputs("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n", f);
    bool first = true;
    MutexLock lock(t.mu);
    for (const auto &buf : t.buffers) {
        const unsigned long long tid = buf->tid;
        if (!buf->name.empty()) {
            std::fprintf(f,
                         "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %llu, "
                         "\"name\": \"thread_name\", \"args\": {\"name\": ",
                         first ? "" : ",\n", tid);
            json::writeString(f, buf->name);
            std::fputs("}}", f);
            first = false;
        }
        const std::uint32_t n = buf->count.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < n; ++i) {
            const SpanEvent &e = buf->entries[i];
            std::fprintf(
                f,
                "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                "\"ts\": %.3f, \"dur\": %.3f, \"cat\": \"sigcomp\", "
                "\"name\": \"%s\"}",
                first ? "" : ",\n", tid,
                static_cast<double>(e.startNs - origin) / 1000.0,
                static_cast<double>(e.durNs) / 1000.0, e.label);
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
}

bool
writeTrace(const std::string &path, std::string *why)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        if (why != nullptr)
            *why = path + ": " + std::strerror(errno);
        return false;
    }
    writeTrace(f);
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
        if (why != nullptr)
            *why = path + ": write failed";
        return false;
    }
    return true;
}

namespace
{

/**
 * Static-init bootstrap: SIGCOMP_TELEMETRY=off|0|false disables
 * gauge/histogram recording; SIGCOMP_TRACE=out.json opens a trace
 * window for the whole process lifetime and flushes at exit —
 * any binary linking the library becomes traceable with no code
 * change.
 */
struct EnvBootstrap {
    EnvBootstrap()
    {
        const char *mode = std::getenv("SIGCOMP_TELEMETRY");
        if (mode != nullptr) {
            const std::string v(mode);
            if (v == "off" || v == "0" || v == "false")
                setEnabled(false);
        }
        const char *path = std::getenv("SIGCOMP_TRACE");
        if (path != nullptr && *path != '\0') {
            startTracing();
            std::atexit([] {
                const char *p = std::getenv("SIGCOMP_TRACE");
                if (p == nullptr || *p == '\0')
                    return;
                std::string why;
                if (!writeTrace(std::string(p), &why))
                    SC_WARN("SIGCOMP_TRACE flush failed: ", why);
            });
        }
    }
};

const EnvBootstrap bootstrap;

} // namespace

} // namespace telemetry
} // namespace sigcomp
