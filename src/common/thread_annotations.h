/**
 * @file
 * Clang Thread Safety Analysis macros (no-ops on other compilers).
 *
 * The engine is deeply concurrent — ParallelExecutor fans suite
 * replays across cores, several Sessions coexist over one shared
 * store, TraceCache evicts while other threads read —
 * so every lock contract in the tree is machine-checked, not
 * comment-documented: each guarded member names its mutex
 * (SIGCOMP_GUARDED_BY) and each locking function declares what it
 * acquires or expects (SIGCOMP_REQUIRES / SIGCOMP_ACQUIRE /
 * SIGCOMP_EXCLUDES). Clang builds compile with
 * `-Wthread-safety -Werror=thread-safety` (see CMakeLists.txt), so a
 * new member that touches shared state without naming its mutex, or
 * a call path that skips a required lock, fails the build. GCC
 * compiles the annotations away.
 *
 * Conventions for new code (see README "Correctness tooling"):
 *  - protect shared state with sigcomp::Mutex (common/mutex.h), not
 *    raw std::mutex: the wrapper carries the capability attributes
 *    the analysis needs (libstdc++'s std::mutex has none);
 *  - every mutex member must have at least one SIGCOMP_GUARDED_BY
 *    user (enforced by tools/sigcomp_lint);
 *  - lock with sigcomp::MutexLock / sigcomp::UniqueLock so scope and
 *    capability agree; private helpers called under the lock take
 *    SIGCOMP_REQUIRES(mu_) instead of re-locking;
 *  - condition-variable waits go through UniqueLock::native() inside
 *    an explicit while loop — the analysis treats the capability as
 *    held across the wait, which matches the post-wait state.
 *
 * Macro set and semantics follow the Clang TSA documentation
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html).
 */

#ifndef SIGCOMP_COMMON_THREAD_ANNOTATIONS_H_
#define SIGCOMP_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SIGCOMP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIGCOMP_THREAD_ANNOTATION(x) // no-op: GCC has no TSA
#endif

/** Class is a lockable capability (mutex-like). */
#define SIGCOMP_CAPABILITY(x) SIGCOMP_THREAD_ANNOTATION(capability(x))

/** RAII class acquiring in its constructor, releasing in its dtor. */
#define SIGCOMP_SCOPED_CAPABILITY SIGCOMP_THREAD_ANNOTATION(scoped_lockable)

/** Member readable/writable only with @p x held. */
#define SIGCOMP_GUARDED_BY(x) SIGCOMP_THREAD_ANNOTATION(guarded_by(x))

/** Pointee readable/writable only with @p x held. */
#define SIGCOMP_PT_GUARDED_BY(x) SIGCOMP_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must hold the listed capabilities (exclusive). */
#define SIGCOMP_REQUIRES(...) \
    SIGCOMP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Caller must hold the listed capabilities (shared). */
#define SIGCOMP_REQUIRES_SHARED(...) \
    SIGCOMP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function acquires the capability and holds it on return. */
#define SIGCOMP_ACQUIRE(...) \
    SIGCOMP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capability. */
#define SIGCOMP_RELEASE(...) \
    SIGCOMP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires iff it returns @p success (first argument). */
#define SIGCOMP_TRY_ACQUIRE(...) \
    SIGCOMP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the listed capabilities (deadlock guard). */
#define SIGCOMP_EXCLUDES(...) \
    SIGCOMP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define SIGCOMP_RETURN_CAPABILITY(x) \
    SIGCOMP_THREAD_ANNOTATION(lock_returned(x))

/** Declared lock acquisition order (deadlock-freedom documentation). */
#define SIGCOMP_ACQUIRED_BEFORE(...) \
    SIGCOMP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SIGCOMP_ACQUIRED_AFTER(...) \
    SIGCOMP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** Escape hatch — use only with a comment explaining why. */
#define SIGCOMP_NO_THREAD_SAFETY_ANALYSIS \
    SIGCOMP_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // SIGCOMP_COMMON_THREAD_ANNOTATIONS_H_
