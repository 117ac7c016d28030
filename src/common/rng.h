/**
 * @file
 * Small deterministic PRNG so simulations are reproducible across
 * platforms and standard-library versions.
 */

#ifndef SIGCOMP_COMMON_RNG_H_
#define SIGCOMP_COMMON_RNG_H_

#include "common/types.h"

namespace sigcomp
{

/**
 * xorshift64* generator. Deterministic, fast, and adequate for
 * synthetic workload data; not for cryptography.
 */
class Rng
{
  public:
    /** Construct with a non-zero seed (0 is remapped internally). */
    explicit Rng(DWord seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    DWord
    next64()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** Next 32-bit value. */
    Word next32() { return static_cast<Word>(next64() >> 32); }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    Word
    below(Word bound)
    {
        return static_cast<Word>(next64() % bound);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    SWord
    range(SWord lo, SWord hi)
    {
        return lo + static_cast<SWord>(below(
            static_cast<Word>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

  private:
    DWord state;
};

} // namespace sigcomp

#endif // SIGCOMP_COMMON_RNG_H_
