/**
 * @file
 * Runtime SIMD dispatch for the vector paths that a measured
 * workload gains from: the SSSE3 SigPack codec (store/codec.cpp) and
 * the PCLMUL CRC-32 (common/crc32.cpp).
 *
 * The library is built for a generic baseline (no -march flags), so
 * vector code cannot be selected at compile time: each x86
 * implementation is compiled with a per-function target attribute and
 * chosen at runtime from CPUID. The active level is process-wide:
 *
 *  - detectedSimdLevel() — the best level this CPU supports, probed
 *    once (SSSE3 > scalar on x86; scalar elsewhere).
 *  - activeSimdLevel()   — the level the vector paths actually
 *    dispatch on. Defaults to the detected level; the
 *    SIGCOMP_FORCE_SCALAR environment variable (any value but "0")
 *    pins it to Scalar before the first dispatch, and setSimdLevel()
 *    moves it anywhere up to the detected level (tests and
 *    benchmarks sweep every available level to pin bit-identity and
 *    measure each implementation).
 *
 * Every vector path is bit-identical to its scalar one — the scalar
 * implementation is the specification, and test_simd.cpp pins the
 * vector paths against it at every level — so dispatch is purely a
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
 * available; SSSE3 applies to x86-64 builds.
 */
enum class SimdLevel : std::uint8_t
{
    Scalar = 0,
    Ssse3 = 1,
};

/** Best level this CPU/build supports (probed once, cached). */
SimdLevel detectedSimdLevel();

/**
 * The level the vector paths dispatch on right now. First call
 * resolves the SIGCOMP_FORCE_SCALAR override; thereafter only
 * setSimdLevel() changes it.
 */
SimdLevel activeSimdLevel();

/**
 * Pin dispatch to @p level (clamped to detectedSimdLevel(); a level
 * this build cannot run falls back to Scalar). Test/benchmark
 * hook — prefer calling it from a single thread before fanning out
 * work. Concurrent use is data-race-free: the level is one atomic,
 * and a pin always sticks even against a racing first-dispatch
 * resolution of SIGCOMP_FORCE_SCALAR (calls already in flight
 * finish on the level they loaded; results are level-independent by
 * the bit-identity contract).
 */
void setSimdLevel(SimdLevel level);

/** Lower-case level name ("scalar", "ssse3"). */
const char *simdLevelName(SimdLevel level);

/**
 * Every level this process can actually run, in ascending order and
 * always starting with Scalar — the sweep domain for equivalence
 * tests and per-level benchmarks.
 */
std::vector<SimdLevel> availableSimdLevels();

} // namespace sigcomp::simd

#endif // SIGCOMP_COMMON_SIMD_H_
