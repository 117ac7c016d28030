/**
 * @file
 * Cooperative cancellation and deadlines for the request lifecycle.
 *
 * A CancelSource owns the cancellation flag; CancelTokens are cheap
 * copyable views of it, optionally carrying a deadline. Everything
 * long-running on the Session::run path — functional capture, the
 * fused replay loop, executor dispatch, store save retries — polls a
 * token at its natural work granularity (a replay block, a capture
 * chunk, one executor task) and stops at the next boundary when the
 * token fires. Cancellation is advisory, never preemptive: work in
 * flight completes its current block, and every stop point is chosen
 * so persistent state (the trace store) is either untouched or
 * complete (see store/trace_store.h's durable-save discipline).
 *
 * Deadlines are plain values, not shared state: deriving a token
 * with withDeadlineAfter() min-combines deadlines, and expiry is
 * computed against the steady clock on each poll. An explicit
 * cancel() always wins over a deadline when both apply.
 */

#ifndef SIGCOMP_COMMON_CANCEL_H_
#define SIGCOMP_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>

namespace sigcomp
{

/** Why a run stopped early (None = it was never asked to). */
enum class CancelReason : std::uint8_t
{
    None = 0,
    Cancelled,        ///< CancelSource::cancel() was called
    DeadlineExceeded, ///< the token's deadline passed
};

class CancelSource;

/**
 * Read-side view of a cancellation request. Default-constructed
 * tokens can never fire (canStop() == false), so APIs take a token
 * by value with no null checks; passing `const CancelToken *` with
 * nullptr meaning "uncancellable" is the convention on hot paths.
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** True when this token could ever request a stop. */
    bool
    canStop() const
    {
        return state_ != nullptr || deadlineNanos_ != kNoDeadline;
    }

    /** Poll: has a cancel or deadline expiry been requested? */
    bool
    stopRequested() const
    {
        if (state_ != nullptr &&
            state_->load(std::memory_order_acquire)) {
            return true;
        }
        return deadlineNanos_ != kNoDeadline &&
               nowNanos() >= deadlineNanos_;
    }

    /** Why stopRequested() is true (explicit cancel wins). */
    CancelReason
    reason() const
    {
        if (state_ != nullptr &&
            state_->load(std::memory_order_acquire)) {
            return CancelReason::Cancelled;
        }
        if (deadlineNanos_ != kNoDeadline && nowNanos() >= deadlineNanos_)
            return CancelReason::DeadlineExceeded;
        return CancelReason::None;
    }

    /**
     * A copy of this token that additionally expires @p delta from
     * now (min-combined with any existing deadline).
     */
    CancelToken
    withDeadlineAfter(std::chrono::nanoseconds delta) const
    {
        CancelToken t = *this;
        const std::int64_t at = nowNanos() + delta.count();
        if (at < t.deadlineNanos_)
            t.deadlineNanos_ = at;
        return t;
    }

    /** No deadline sentinel. */
    static constexpr std::int64_t kNoDeadline =
        std::numeric_limits<std::int64_t>::max();

    /** Steady-clock now in nanoseconds (the deadline timebase). */
    static std::int64_t
    nowNanos()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

  private:
    friend class CancelSource;

    explicit CancelToken(std::shared_ptr<const std::atomic<bool>> state)
        : state_(std::move(state))
    {}

    std::shared_ptr<const std::atomic<bool>> state_;
    std::int64_t deadlineNanos_ = kNoDeadline;
};

/** Owner of one cancellation flag; hands out tokens. */
class CancelSource
{
  public:
    CancelSource() : state_(std::make_shared<std::atomic<bool>>(false)) {}

    CancelToken token() const { return CancelToken(state_); }

    /** Request a stop. Idempotent, thread-safe, never blocks. */
    void cancel() { state_->store(true, std::memory_order_release); }

    bool
    cancelled() const
    {
        return state_->load(std::memory_order_acquire);
    }

  private:
    std::shared_ptr<std::atomic<bool>> state_;
};

/**
 * Thrown by capture/replay when a cancel arrives mid-operation: the
 * aborted work's partial state must not look like a result, so the
 * stack unwinds instead of returning one. Session::run catches it
 * and marks the workload incomplete in the partial report.
 */
class CancelledError : public std::exception
{
  public:
    const char *
    what() const noexcept override
    {
        return "operation cancelled";
    }
};

/** Convention helper for `const CancelToken *` plumbing. */
inline bool
cancelRequested(const CancelToken *cancel)
{
    return cancel != nullptr && cancel->stopRequested();
}

} // namespace sigcomp

#endif // SIGCOMP_COMMON_CANCEL_H_
