#include "sigcomp/sig_kernels.h"

namespace sigcomp::sig
{

void
classifyExt3Block(const Word *v, std::size_t n, ByteMask *out)
{
    // A plain loop over the branchless per-word classifier: hand
    // vectorised SSSE3/AVX2 bodies ran at 0.87-1.24x of it on a
    // 4-vCPU x86-64 host (bench_suite_timing's kernels block), so
    // they were not worth their code.
    for (std::size_t i = 0; i < n; ++i)
        out[i] = classifyExt3(v[i]);
}

} // namespace sigcomp::sig
