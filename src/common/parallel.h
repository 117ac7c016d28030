/**
 * @file
 * Bounded thread-pool executor for the suite-experiment fan-outs.
 *
 * A Session (analysis/session.h) runs one independent capture and
 * fused replay per workload; ParallelExecutor spreads those across
 * cores while keeping results order-stable: parallelFor(n, f) invokes
 * f(0) .. f(n-1) exactly once each, callers write results into
 * pre-sized slot i, and the assembled output is byte-for-byte the
 * same as a serial loop regardless of scheduling.
 */

#ifndef SIGCOMP_COMMON_PARALLEL_H_
#define SIGCOMP_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <string_view>

#include "common/cancel.h"

namespace sigcomp
{

namespace detail
{
struct ExecutorState;
} // namespace detail

/**
 * Fixed-size pool of worker threads executing index-space jobs.
 *
 * Semantics:
 *  - `threads` is the total parallelism, caller included: an
 *    executor built with threads == 1 spawns no workers and
 *    degenerates to a plain serial loop on the calling thread.
 *    threads == 0 resolves to defaultThreadCount().
 *  - parallelFor blocks until every index has been processed; the
 *    calling thread participates in the work.
 *  - If one or more invocations throw, every remaining index still
 *    runs (no holes in result slots), and the exception thrown by
 *    the *lowest* index is rethrown on the calling thread — the same
 *    exception a serial loop would surface first.
 *  - A parallelFor issued from inside a worker (nested parallelism)
 *    runs inline and serially on that worker; no deadlock.
 *  - One job runs at a time per executor; concurrent external
 *    callers are serialised.
 */
class ParallelExecutor
{
  public:
    explicit ParallelExecutor(unsigned threads = 0);
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Total parallelism (workers + the participating caller). */
    unsigned threadCount() const { return thread_count_; }

    /**
     * Process-wide shared pool sized to defaultThreadCount().
     * Prefer this over ad-hoc executors so nested fan-outs share one
     * bounded set of threads.
     */
    static ParallelExecutor &global();

    /**
     * Resolution of threads == 0: the SIGCOMP_THREADS environment
     * variable when parseThreadCount() accepts it and it is not 0,
     * otherwise std::thread::hardware_concurrency(), never less
     * than 1.
     */
    static unsigned defaultThreadCount();

    /**
     * The largest thread count a user may ask for: well above any
     * real machine, so a mistyped huge value (or "-1") is refused
     * instead of turning into billions of std::thread spawns.
     */
    static constexpr unsigned kMaxThreads = 1024;

    /**
     * The one thread-count parse, for SIGCOMP_THREADS and every
     * --threads flag: a whole number in [0, kMaxThreads] (0 = the
     * default wherever a thread count is taken).
     */
    static bool parseThreadCount(std::string_view text, unsigned *out);

    /**
     * Invoke fn(i) for i in [0, n), blocking until all complete.
     *
     * @p cancel (optional) is polled as each index is claimed: once
     * the token fires, remaining indices are skipped (claimed and
     * retired without running the body) so the call returns at task
     * granularity instead of draining the queue. Skipping creates
     * holes — only cancellation-aware callers that track per-index
     * completion themselves should pass a token.
     */
    template <typename Fn>
    void
    parallelFor(std::size_t n, Fn &&fn,
                const CancelToken *cancel = nullptr)
    {
        std::function<void(std::size_t)> body(std::ref(fn));
        run(n, body, cancel);
    }

  private:
    void run(std::size_t n, const std::function<void(std::size_t)> &body,
             const CancelToken *cancel = nullptr);

    unsigned thread_count_;
    detail::ExecutorState *state_;
};

} // namespace sigcomp

#endif // SIGCOMP_COMMON_PARALLEL_H_
