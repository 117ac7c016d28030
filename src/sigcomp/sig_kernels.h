/**
 * @file
 * Batch significance kernels: classify/tally whole columns of 32-bit
 * words per call instead of one word at a time.
 *
 * The paper's premise is that significance classification is cheap
 * enough to run on every operand; these kernels make it cheap enough
 * to run on every operand *of a multi-million-instruction replay*:
 * the trace engine classifies whole capture columns (sidecar tags),
 * the store codec classifies whole codec blocks, and the pattern
 * profiler tallies whole replay blocks.
 *
 * Every kernel is a loop over the per-word functions of
 * sigcomp/byte_pattern.h, which are the specification; test_simd.cpp
 * pins them against the byte-walking reference classifiers. There is
 * no per-level dispatch here: vector bodies measured no faster than
 * these loops, so only the store codec and the CRC keep SIMD paths
 * (common/simd.h).
 *
 * All kernels accept arbitrary n (including 0) and unaligned
 * pointers.
 */

#ifndef SIGCOMP_SIGCOMP_SIG_KERNELS_H_
#define SIGCOMP_SIGCOMP_SIG_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "sigcomp/byte_pattern.h"

namespace sigcomp::sig
{

/** out[i] = classifyExt3(v[i]) for i in [0, n). */
void classifyExt3Block(const Word *v, std::size_t n, ByteMask *out);

/**
 * Fused classify + histogram: counts[m] += |{i : classifyExt3(v[i])
 * == m}| for the 8 legal patterns (illegal indices are never
 * touched). The total significant-byte count of the batch is
 * recoverable as sum over m of counts[m] * maskBytes(m), so callers
 * tallying Table-1 distributions need no second pass.
 */
void patternTallyBlock(const Word *v, std::size_t n, Count counts[16]);

/**
 * Pack three parallel tag columns into the trace sidecar layout:
 * out[i] = rs[i] | rt[i]<<4 | res[i]<<8.
 */
void packSigTagsBlock(const ByteMask *rs, const ByteMask *rt,
                      const ByteMask *res, std::size_t n,
                      std::uint16_t *out);

} // namespace sigcomp::sig

#endif // SIGCOMP_SIGCOMP_SIG_KERNELS_H_
