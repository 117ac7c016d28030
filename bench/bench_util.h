/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses.
 */

#ifndef SIGCOMP_BENCH_BENCH_UTIL_H_
#define SIGCOMP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/session.h"
#include "common/rng.h"
#include "common/table.h"
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

/**
 * Run @p plan on the default Session — the one suiteConfig() profiled
 * the suite on — so a reproduction binary captures each workload once.
 */
inline analysis::SuiteReport
runPlan(const analysis::StudyPlan &plan)
{
    return analysis::Session::defaultSession().run(plan);
}

/** Print a banner naming the experiment and its paper reference. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================="
                "=============================\n");
}

/** Print one table with a caption. */
inline void
printTable(const std::string &caption, const TextTable &t)
{
    std::printf("\n-- %s --\n", caption.c_str());
    std::cout << t.toString();
}

/** Print a paper-vs-measured note line. */
inline void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

} // namespace sigcomp::bench

#endif // SIGCOMP_BENCH_BENCH_UTIL_H_
