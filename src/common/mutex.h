/**
 * @file
 * Annotated mutex wrappers: std::mutex with the Clang Thread Safety
 * Analysis capability attributes attached.
 *
 * libstdc++'s std::mutex and std::lock_guard carry no TSA
 * attributes, so code locking through them is invisible to
 * `-Wthread-safety` — every SIGCOMP_GUARDED_BY access would warn even
 * when correctly locked. These thin wrappers (zero overhead: the
 * lock/unlock calls inline to the std::mutex ones) make the
 * acquire/release visible to the analysis, the same approach taken
 * by Abseil's annotated Mutex. All mutex-protected state in this
 * tree uses sigcomp::Mutex; tools/sigcomp_lint rejects raw
 * std::mutex/std::shared_mutex members.
 */

#ifndef SIGCOMP_COMMON_MUTEX_H_
#define SIGCOMP_COMMON_MUTEX_H_

#include <mutex>

#include "common/thread_annotations.h"

namespace sigcomp
{

/** std::mutex carrying the TSA "mutex" capability. */
class SIGCOMP_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() SIGCOMP_ACQUIRE()
    {
        mu_.lock();
    }

    void
    unlock() SIGCOMP_RELEASE()
    {
        mu_.unlock();
    }

  private:
    friend class UniqueLock;
    std::mutex mu_;
};

/** RAII lock over a Mutex (the annotated std::lock_guard). */
class SIGCOMP_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) SIGCOMP_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    ~MutexLock() SIGCOMP_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

/**
 * RAII lock exposing the underlying std::unique_lock for
 * std::condition_variable waits (the annotated std::unique_lock).
 *
 * The TSA idiom for waiting: hold a UniqueLock and call
 * `cv.wait(lock.native())` inside an explicit `while (!predicate)`
 * loop. The wait releases and reacquires the real mutex, but the
 * analysis treats the capability as continuously held — which is
 * exactly the caller-visible contract, since the predicate and all
 * guarded accesses around the wait do run under the lock.
 */
class SIGCOMP_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu) SIGCOMP_ACQUIRE(mu) : lock_(mu.mu_) {}

    ~UniqueLock() SIGCOMP_RELEASE() {}

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    /** The held std lock, for std::condition_variable::wait. */
    std::unique_lock<std::mutex> &
    native()
    {
        return lock_;
    }

  private:
    std::unique_lock<std::mutex> lock_;
};

} // namespace sigcomp

#endif // SIGCOMP_COMMON_MUTEX_H_
