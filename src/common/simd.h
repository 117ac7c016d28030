/**
 * @file
 * Runtime SIMD dispatch for the batch significance kernels.
 *
 * The library is built for a generic baseline (no -march flags), so
 * vectorised kernels cannot be selected at compile time: each x86
 * implementation is compiled with a per-function target attribute and
 * chosen at runtime from CPUID. The active level is process-wide:
 *
 *  - detectedSimdLevel() — the best level this CPU supports, probed
 *    once (AVX2 > SSSE3 > scalar on x86; scalar elsewhere).
 *  - activeSimdLevel()   — the level the kernels actually dispatch
 *    on. Defaults to the detected level; the SIGCOMP_FORCE_SCALAR
 *    environment variable (any value but "0") pins it to Scalar
 *    before the first kernel call, and setSimdLevel() moves it
 *    anywhere up to the detected level (tests and benchmarks sweep
 *    every available level to pin bit-identity and measure each
 *    implementation).
 *
 * Every kernel is bit-identical across levels — the scalar
 * implementation is the specification, vector levels are verified
 * against it exhaustively in test_simd.cpp — so dispatch is purely a
 * throughput decision and never changes results.
 */

#ifndef SIGCOMP_COMMON_SIMD_H_
#define SIGCOMP_COMMON_SIMD_H_

#include <cstdint>
#include <vector>

namespace sigcomp::simd
{

/**
 * Dispatch levels in increasing preference order. Scalar is always
 * available; SSSE3/AVX2 apply to x86-64 builds.
 */
enum class SimdLevel : std::uint8_t
{
    Scalar = 0,
    Ssse3 = 1,
    Avx2 = 2,
};

/** Best level this CPU/build supports (probed once, cached). */
SimdLevel detectedSimdLevel();

/**
 * The level the kernels dispatch on right now. First call resolves
 * the SIGCOMP_FORCE_SCALAR override; thereafter only setSimdLevel()
 * changes it.
 */
SimdLevel activeSimdLevel();

/**
 * Pin dispatch to @p level (clamped to detectedSimdLevel(); a level
 * this build cannot run falls back to Scalar). Test/benchmark
 * hook — prefer calling it from a single thread before fanning out
 * work. Concurrent use is data-race-free: the level is one atomic,
 * and a pin always sticks even against a racing first-dispatch
 * resolution of SIGCOMP_FORCE_SCALAR (kernels already in flight
 * finish on the level they loaded; results are level-independent by
 * the bit-identity contract).
 */
void setSimdLevel(SimdLevel level);

/** Lower-case level name ("scalar", "ssse3", "avx2"). */
const char *simdLevelName(SimdLevel level);

/**
 * Every level this process can actually run, in ascending order and
 * always starting with Scalar — the sweep domain for equivalence
 * tests and per-level benchmarks.
 */
std::vector<SimdLevel> availableSimdLevels();

} // namespace sigcomp::simd

#endif // SIGCOMP_COMMON_SIMD_H_
