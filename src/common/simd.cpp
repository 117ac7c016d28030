#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace sigcomp::simd
{

namespace
{

SimdLevel
probe()
{
#if defined(__x86_64__) || defined(__i386__)
    // __builtin_cpu_supports covers the OS-support (XGETBV) side of
    // AVX2 as well as the CPUID feature bit.
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
    if (__builtin_cpu_supports("ssse3"))
        return SimdLevel::Ssse3;
    return SimdLevel::Scalar;
#else
    return SimdLevel::Scalar;
#endif
}

bool
forceScalarEnv()
{
    const char *v = std::getenv("SIGCOMP_FORCE_SCALAR");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/** Detected level, probed exactly once. */
SimdLevel
detected()
{
    static const SimdLevel level = probe();
    return level;
}

/** Sentinel: SIGCOMP_FORCE_SCALAR not yet resolved. */
constexpr SimdLevel kUnresolved = static_cast<SimdLevel>(0xFF);

std::atomic<SimdLevel> active{kUnresolved};

} // namespace

SimdLevel
detectedSimdLevel()
{
    return detected();
}

SimdLevel
activeSimdLevel()
{
    SimdLevel level = active.load(std::memory_order_relaxed);
    if (level == kUnresolved) {
        // First kernel call resolves the SIGCOMP_FORCE_SCALAR
        // override. compare_exchange, not a plain store: a
        // setSimdLevel() pin racing this lazy resolution must stick —
        // with a blind store, a concurrent first dispatch could
        // silently undo the pin it had already observed as pending
        // (found by the PR 6 concurrency audit; hammered by
        // test_tsan_stress.cpp).
        SimdLevel want =
            forceScalarEnv() ? SimdLevel::Scalar : detected();
        if (active.compare_exchange_strong(level, want,
                                           std::memory_order_relaxed))
            return want;
        return level; // a concurrent pin (or resolver) won
    }
    return level;
}

void
setSimdLevel(SimdLevel level)
{
    // Clamp to what this CPU can run; an unsupported level (AVX2 on a
    // non-AVX2 part or a non-x86 build) degrades to Scalar.
    SimdLevel want = SimdLevel::Scalar;
    for (const SimdLevel l : availableSimdLevels())
        if (l == level)
            want = level;
    active.store(want, std::memory_order_relaxed);
}

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar: return "scalar";
      case SimdLevel::Ssse3: return "ssse3";
      case SimdLevel::Avx2: return "avx2";
    }
    return "?";
}

std::vector<SimdLevel>
availableSimdLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    const SimdLevel best = detected();
#if defined(__x86_64__) || defined(__i386__)
    if (best == SimdLevel::Ssse3 || best == SimdLevel::Avx2)
        levels.push_back(SimdLevel::Ssse3);
    if (best == SimdLevel::Avx2)
        levels.push_back(SimdLevel::Avx2);
#endif
    return levels;
}

} // namespace sigcomp::simd
