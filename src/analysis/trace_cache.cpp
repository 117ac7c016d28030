#include "analysis/trace_cache.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "common/logging.h"

namespace sigcomp::analysis
{

TraceCache::TraceCache(const SessionConfig &config)
    : store_(config.storeDir.empty()
                 ? nullptr
                 : std::make_shared<store::TraceStore>(
                       config.storeDir,
                       store::StoreOptions{
                           .readOnly = config.readOnly,
                           .durableSaves = config.durableSaves,
                           .env = config.env,
                           // Store retry/byte metrics land in this
                           // cache's namespace, so the per-run
                           // report delta sees them.
                           .registry = &metrics_})),
      limit_(config.captureLimit)
{
}

void
TraceCache::registerProgram(const std::string &workload,
                            isa::Program program)
{
    MutexLock lock(mu_);
    programs_.insert_or_assign(workload, std::move(program));
    // A cached trace of the old program must not satisfy gets of the
    // new one.
    entries_.erase(workload);
}

TraceCache::TracePtr
TraceCache::get(const std::string &workload, const CancelToken *cancel)
{
    std::shared_future<TracePtr> future;
    std::promise<TracePtr> promise;
    bool capture_here = false;
    std::optional<workloads::Workload> registered;

    {
        MutexLock lock(mu_);
        auto it = entries_.find(workload);
        if (it == entries_.end()) {
            future = promise.get_future().share();
            entries_.emplace(workload, Entry{.trace = future});
            capture_here = true;
            auto pit = programs_.find(workload);
            if (pit != programs_.end())
                registered = workloads::Workload{workload, pit->second};
        } else {
            future = it->second.trace;
        }
    }

    if (capture_here) {
        // Registered ad-hoc programs are strictly session-local: they
        // never touch the disk tier, so a custom program shadowing a
        // suite workload's name cannot clobber (or be satisfied by)
        // that workload's shared segment.
        const store::TraceStore *store = registered ? nullptr : store_.get();
        TracePtr trace;
        try {
            const DWord limit = limit_;
            const bool capped =
                limit != cpu::TraceBuffer::defaultMaxInstrs;
            const workloads::Workload w =
                registered ? std::move(*registered)
                           : workloads::Suite::build(workload);

            // Disk tier first: a hit skips functional capture. Any
            // load failure falls through to recapture (the store is
            // a cache, not a source of truth) — ordinary misses
            // silently, damage counted and quarantined so the
            // write-through below heals the segment.
            if (store != nullptr) {
                std::string why;
                auto failure = store::LoadFailure::None;
                trace = store->load(workload, w.program, limit, &why,
                                    &failure);
                if (trace == nullptr &&
                    failure != store::LoadFailure::Missing &&
                    failure != store::LoadFailure::Stale)
                    noteLoadFailure(*store, workload, failure, why);
            }
            if (trace != nullptr) {
                storeLoads_.inc();
                noteSegmentKeys(workload, *trace,
                                store::TraceStore::persistableAnnexKeys(
                                    *trace));
            } else {
                {
                    SIGCOMP_SPAN("cache.capture");
                    trace = std::make_shared<cpu::TraceBuffer>(
                        cpu::TraceBuffer::capture(w.program, limit,
                                                  capped, cancel));
                }
                captures_.inc();
                captureInstrs_.record(trace->size());
                // Write-through so the *next* process skips capture.
                // A failed save (full disk, races) costs nothing but
                // a later recapture.
                if (store != nullptr && !store->readOnly() &&
                    saveThrough(*store, workload, *trace, limit, "save",
                                cancel))
                    noteSegmentKeys(workload, *trace, {});
            }
        } catch (...) {
            // Don't poison the slot with a broken future: drop the
            // entry so a later get() can retry, unblock any waiters
            // with the exception, and rethrow.
            {
                MutexLock lock(mu_);
                entries_.erase(workload);
            }
            promise.set_exception(std::current_exception());
            throw;
        }
        promise.set_value(trace);
        return trace;
    }
    return future.get();
}

bool
TraceCache::contains(const std::string &workload) const
{
    MutexLock lock(mu_);
    return entries_.find(workload) != entries_.end();
}

TraceCache::TracePtr
TraceCache::resident(const std::string &workload)
{
    MutexLock lock(mu_);
    const auto it = entries_.find(workload);
    if (it == entries_.end() ||
        it->second.trace.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
        return nullptr;
    return it->second.trace.get();
}

void
TraceCache::evict(const std::string &workload)
{
    SIGCOMP_SPAN("cache.evict");
    MutexLock lock(mu_);
    if (entries_.erase(workload) != 0)
        evictions_.inc();
}

void
TraceCache::clear()
{
    MutexLock lock(mu_);
    entries_.clear();
}

namespace
{

/** Sum @p bytes over the ready traces of @p entries. */
template <typename Entries, typename Bytes>
std::size_t
sumReady(const Entries &entries, Bytes bytes)
{
    std::size_t total = 0;
    for (const auto &[name, entry] : entries) {
        if (entry.trace.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            total += bytes(*entry.trace.get());
        }
    }
    return total;
}

} // namespace

std::size_t
TraceCache::memoryBytes() const
{
    MutexLock lock(mu_);
    return sumReady(entries_, [](const cpu::TraceBuffer &t) {
        return t.memoryBytes();
    });
}

std::size_t
TraceCache::annexBytes() const
{
    MutexLock lock(mu_);
    return sumReady(entries_, [](const cpu::TraceBuffer &t) {
        return t.annexBytes();
    });
}

std::size_t
TraceCache::residentTraces() const
{
    MutexLock lock(mu_);
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [](const auto &entry) {
            return entry.second.trace.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready;
        }));
}

void
TraceCache::persistAnnexes(const std::string &workload,
                           const cpu::TraceBuffer &trace,
                           const CancelToken *cancel)
{
    if (cancelRequested(cancel) || store_ == nullptr ||
        store_->readOnly())
        return;
    // Compare exactly what a save would persist (canonical records,
    // capped), so an ineligible record can't force no-op re-saves.
    const std::vector<std::string> keys =
        store::TraceStore::persistableAnnexKeys(trace);
    if (keys.empty())
        return;
    std::vector<std::string> held;
    bool known = false;
    {
        MutexLock lock(mu_);
        // Session-local registered programs never persist (see get()).
        if (programs_.find(workload) != programs_.end())
            return;
        const auto it = entries_.find(workload);
        if (it != entries_.end() && it->second.segmentTrace == &trace) {
            held = it->second.segmentKeys;
            known = true;
        }
    }
    if (!known) {
        // A trace this cache neither loaded nor saved (its slot was
        // evicted or replaced meanwhile): ask the segment. A missing
        // or unreadable segment has no annexes.
        store::SegmentInfo disk;
        (void)store_->info(workload, disk);
        for (const store::ColumnStat &ax : disk.annexes)
            held.push_back(ax.name);
    }
    // Only rewrite the segment when it is actually missing a record;
    // repeated runs of the same plan must not keep re-encoding it.
    const bool missing =
        std::any_of(keys.begin(), keys.end(), [&](const std::string &key) {
            return std::find(held.begin(), held.end(), key) == held.end();
        });
    if (missing && saveThrough(*store_, workload, trace, limit_,
                               "persist annexes for", cancel))
        noteSegmentKeys(workload, trace, keys);
}

void
TraceCache::noteSegmentKeys(const std::string &workload,
                            const cpu::TraceBuffer &trace,
                            std::vector<std::string> keys)
{
    MutexLock lock(mu_);
    const auto it = entries_.find(workload);
    if (it == entries_.end())
        return;
    it->second.segmentTrace = &trace;
    it->second.segmentKeys = std::move(keys);
}

std::vector<std::string>
TraceCache::degradations() const
{
    MutexLock lock(mu_);
    return degradations_;
}

void
TraceCache::recordDegradation(std::string event)
{
    MutexLock lock(mu_);
    if (degradations_.size() < kMaxDegradations)
        degradations_.push_back(std::move(event));
}

void
TraceCache::noteLoadFailure(const store::TraceStore &store,
                            const std::string &workload,
                            store::LoadFailure failure,
                            const std::string &why)
{
    storeLoadFailures_.inc();
    if (failure == store::LoadFailure::Corrupt && !store.readOnly()) {
        std::string quarantined_path;
        if (store.quarantine(workload, &quarantined_path)) {
            quarantined_.inc();
            SC_WARN("trace store: quarantined corrupt segment '",
                    workload, "' (", why, ") -> ", quarantined_path);
            recordDegradation("quarantined '" + workload +
                              "': " + why);
            return;
        }
    }
    SC_WARN("trace store: cannot load '", workload, "' (", why,
            "); falling back to capture");
    recordDegradation("load failed '" + workload + "': " + why);
}

bool
TraceCache::saveThrough(const store::TraceStore &store,
                        const std::string &workload,
                        const cpu::TraceBuffer &trace, DWord limit,
                        const char *what, const CancelToken *cancel)
{
    // Once degraded, stop trying: each attempt re-serializes the
    // whole trace just to fail at the first write.
    if (writesDegraded_.load())
        return false;
    // A cancelled plan stops writing; it does not start new segment
    // writes. (The store's own atomic-replace discipline covers the
    // mid-save case — see store.save's cancel handling.)
    if (cancelRequested(cancel))
        return false;
    std::string why;
    EnvFault fault = EnvFault::None;
    if (store.save(workload, trace, limit, &why, &fault, cancel)) {
        storeSaves_.inc();
        transientSaveFailures_.store(0);
        return true;
    }
    // A save whose retry rounds were cut short by cancellation says
    // nothing about the store's health: don't let it trip the
    // degradation policy of a session that may keep running.
    if (cancelRequested(cancel)) {
        SC_WARN("trace store: ", what, " '", workload,
                "' abandoned by cancellation: ", why);
        return false;
    }
    SC_WARN("trace store: cannot ", what, " '", workload, "': ", why);
    // Degradation policy: permanent fault classes disable writes at
    // once; transient classes only after several *exhausted* retry
    // rounds in a row (each store->save already retried internally).
    bool degrade = true;
    if (fault == EnvFault::Transient)
        degrade = transientSaveFailures_.fetch_add(1) + 1 >= 3;
    if (degrade && !writesDegraded_.exchange(true)) {
        SC_WARN("trace store: writes disabled for this session (",
                envFaultName(fault),
                "); traces stay RAM-resident");
        recordDegradation(std::string("store writes disabled (") +
                          envFaultName(fault) + "): " + why);
    }
    return false;
}

} // namespace sigcomp::analysis
