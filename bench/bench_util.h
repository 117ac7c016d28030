/**
 * @file
 * Shared benchmark inputs.
 */

#ifndef SIGCOMP_BENCH_BENCH_UTIL_H_
#define SIGCOMP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace sigcomp::bench
{

/**
 * Operand stream with the paper's Table-1 significance mix (~60%
 * 1-byte, ~20% 2-byte, rest wide/pointers/negatives, interleaved
 * unpredictably) — the distribution the significance classifiers
 * actually see. The single source for bench_micro, the
 * bench_suite_timing kernel block, and the SIMD equivalence tests,
 * so every consumer measures/verifies the same stream.
 */
inline std::vector<Word>
operandMix(std::size_t n, std::uint64_t seed = 42)
{
    Rng rng(seed);
    std::vector<Word> vs(n);
    for (Word &v : vs) {
        const Word r = rng.next32();
        const unsigned sel = r & 15;
        if (sel < 9)
            v = r & 0x7f; // small positive
        else if (sel < 11)
            v = static_cast<Word>(-static_cast<SWord>(r & 0xff));
        else if (sel < 13)
            v = r & 0x7fff; // halfword-ish
        else if (sel < 14)
            v = 0x10000000u | (r & 0xffffff); // pointer-like
        else
            v = r; // wide
    }
    return vs;
}

} // namespace sigcomp::bench

#endif // SIGCOMP_BENCH_BENCH_UTIL_H_
