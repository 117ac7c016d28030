#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"

namespace sigcomp
{

namespace detail
{

/**
 * One in-flight parallelFor. Indices are self-scheduled off an
 * atomic counter, so load imbalance between workloads evens out.
 * Shared ownership (submitter + every worker that saw the job) keeps
 * the object alive until the last straggler is done touching it.
 */
struct Job
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *body = nullptr;
    /** Cooperative stop: fired -> remaining indices retire unrun. */
    const CancelToken *cancel = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};

    Mutex error_mutex;
    std::size_t error_index SIGCOMP_GUARDED_BY(error_mutex) =
        std::numeric_limits<std::size_t>::max();
    std::exception_ptr error SIGCOMP_GUARDED_BY(error_mutex);

    void
    recordError(std::size_t index, std::exception_ptr e)
    {
        MutexLock lock(error_mutex);
        if (index < error_index) {
            error_index = index;
            error = std::move(e);
        }
    }
};

struct ExecutorState
{
    Mutex mutex;
    /** Signals workers that a job was published (or shutdown). */
    std::condition_variable work_ready;
    /** Signals job completion / retirement / slot-free transitions. */
    std::condition_variable work_done;
    std::shared_ptr<Job> job SIGCOMP_GUARDED_BY(mutex);
    bool shutdown SIGCOMP_GUARDED_BY(mutex) = false;
    /** Touched only by the owning ParallelExecutor's ctor/dtor. */
    std::vector<std::thread> workers;
};

namespace
{

/** True on pool-owned threads: nested fan-outs run inline. */
thread_local bool inside_worker = false;

/** Claim and run indices until the job's index space is exhausted. */
void
drainJob(Job &job)
{
    // Process-registry handles: the executor is a process-wide
    // component (there is one global pool plus short-lived scoped
    // ones), so its metrics don't belong to any one Session's
    // namespace. Function-local statics bind once.
    static telemetry::Gauge &queue_depth =
        telemetry::Registry::process().gauge("executor.queue_depth");
    static telemetry::Histogram &task_nanos =
        telemetry::Registry::process().histogram("executor.task_nanos",
                                                 telemetry::Unit::Nanos);
    for (;;) {
        const std::size_t i =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job.n) {
            queue_depth.set(0);
            return;
        }
        // Unclaimed indices remaining after this claim.
        queue_depth.set(static_cast<std::int64_t>(job.n - i - 1));
        // Cancelled jobs drain fast: claim and retire without
        // running the body. The done count still reaches n, so the
        // submitter's completion wait is unchanged.
        if (cancelRequested(job.cancel)) {
            job.done.fetch_add(1, std::memory_order_acq_rel);
            continue;
        }
        const bool timed = telemetry::enabled();
        const std::uint64_t t0 = timed ? telemetry::detail::spanClockNanos()
                                       : 0;
        {
            SIGCOMP_SPAN("executor.task");
            try {
                (*job.body)(i);
            } catch (...) {
                job.recordError(i, std::current_exception());
            }
        }
        if (timed)
            task_nanos.record(telemetry::detail::spanClockNanos() - t0);
        job.done.fetch_add(1, std::memory_order_acq_rel);
    }
}

void
workerLoop(ExecutorState *state, unsigned index)
{
    inside_worker = true;
    // Per-worker trace track (the submitting thread keeps its own).
    telemetry::setThreadName("executor-worker-" + std::to_string(index));
    for (;;) {
        std::shared_ptr<Job> job;
        {
            UniqueLock lock(state->mutex);
            while (!state->shutdown && state->job == nullptr)
                state->work_ready.wait(lock.native());
            if (state->shutdown)
                return;
            job = state->job;
        }
        drainJob(*job);
        {
            UniqueLock lock(state->mutex);
            // Wake the submitter (it waits for done == n). Notifying
            // with the mutex held pairs with its locked predicate
            // check, so the final done increment is never missed.
            state->work_done.notify_all();
            // Park until this job is retired so we never drain the
            // same job twice. Pointer comparison only; the submitter
            // may already have returned.
            while (!state->shutdown && state->job == job)
                state->work_done.wait(lock.native());
            if (state->shutdown)
                return;
        }
    }
}

} // namespace
} // namespace detail

ParallelExecutor::ParallelExecutor(unsigned threads)
    : thread_count_(threads == 0 ? defaultThreadCount() : threads),
      state_(new detail::ExecutorState)
{
    for (unsigned i = 1; i < thread_count_; ++i)
        state_->workers.emplace_back(detail::workerLoop, state_, i);
}

ParallelExecutor::~ParallelExecutor()
{
    {
        MutexLock lock(state_->mutex);
        state_->shutdown = true;
    }
    state_->work_ready.notify_all();
    state_->work_done.notify_all();
    for (std::thread &t : state_->workers)
        t.join();
    delete state_;
}

ParallelExecutor &
ParallelExecutor::global()
{
    static ParallelExecutor pool(0);
    return pool;
}

unsigned
ParallelExecutor::defaultThreadCount()
{
    if (const char *env = std::getenv("SIGCOMP_THREADS")) {
        unsigned v = 0;
        if (parseThreadCount(env, &v) && v != 0)
            return v;
        SC_WARN("ignoring SIGCOMP_THREADS='", env,
                "' (want an integer in [1, ", kMaxThreads, "])");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool
ParallelExecutor::parseThreadCount(std::string_view text, unsigned *out)
{
    std::uint64_t v = 0;
    if (!json::parseWholeNumber(text, kMaxThreads, &v))
        return false;
    *out = static_cast<unsigned>(v);
    return true;
}

void
ParallelExecutor::run(std::size_t n,
                      const std::function<void(std::size_t)> &body,
                      const CancelToken *cancel)
{
    if (n == 0)
        return;

    // Serial fast paths: single-thread executors, single-element
    // jobs, and nested calls from inside a pool worker all run
    // inline on the calling thread. Exceptions propagate directly,
    // satisfying the lowest-index guarantee trivially.
    if (thread_count_ <= 1 || n == 1 || detail::inside_worker) {
        std::exception_ptr first_error;
        for (std::size_t i = 0; i < n; ++i) {
            if (cancelRequested(cancel))
                break;
            try {
                body(i);
            } catch (...) {
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
        if (first_error)
            std::rethrow_exception(first_error);
        return;
    }

    auto job = std::make_shared<detail::Job>();
    job->n = n;
    job->body = &body;
    job->cancel = cancel;

    {
        UniqueLock lock(state_->mutex);
        // Serialise external submitters: one published job at a time.
        while (state_->job != nullptr)
            state_->work_done.wait(lock.native());
        state_->job = job;
    }
    // A worker parked on work_done (waiting for the *previous* job's
    // retirement) re-checks its predicate on work_done; one parked
    // idle waits on work_ready. Poke both.
    state_->work_ready.notify_all();
    state_->work_done.notify_all();

    // The submitter is one of the threadCount() participants.
    detail::drainJob(*job);

    {
        UniqueLock lock(state_->mutex);
        while (job->done.load(std::memory_order_acquire) != n)
            state_->work_done.wait(lock.native());
        state_->job = nullptr; // retire: workers may re-arm
    }
    state_->work_done.notify_all();

    // Every index has retired (done == n observed above), but take
    // the error lock anyway: it is what the annotations promise, and
    // it costs one uncontended acquire per job.
    std::exception_ptr error;
    {
        MutexLock lock(job->error_mutex);
        error = job->error;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace sigcomp
