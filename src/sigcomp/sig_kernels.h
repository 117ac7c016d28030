/**
 * @file
 * Batch significance kernels: classify whole columns of 32-bit words
 * per call instead of one word at a time.
 *
 * The store codec classifies each codec block with these before it
 * sizes the block's SigPack encoding. (Trace replay classifies word
 * by word as it materialises each instruction: a tag lives beside
 * its value, never as a column of its own.)
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

} // namespace sigcomp::sig

#endif // SIGCOMP_SIGCOMP_SIG_KERNELS_H_
