#include "sigcomp/sig_kernels.h"

#include <cstring>

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

void
packSigTagsBlock(const ByteMask *rs, const ByteMask *rt,
                 const ByteMask *res, std::size_t n, std::uint16_t *out)
{
    // SWAR over eight tags at a time: spread each source byte into
    // its u16 lane, shift the whole register by the field offset.
    // (The byte-order games assume little-endian; anything else
    // takes the scalar tail for the whole column.)
    std::size_t i = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    for (; i + 8 <= n; i += 8) {
        std::uint64_t a, b, c;
        std::memcpy(&a, rs + i, 8);
        std::memcpy(&b, rt + i, 8);
        std::memcpy(&c, res + i, 8);
        for (unsigned half = 0; half < 2; ++half) {
            const std::uint64_t sel = half ? 32 : 0;
            // Spread 4 bytes x >> sel into 4 u16 lanes.
            const auto spread = [](std::uint32_t x) {
                std::uint64_t s = x;
                s = (s | (s << 16)) & 0x0000FFFF0000FFFFull;
                s = (s | (s << 8)) & 0x00FF00FF00FF00FFull;
                return s;
            };
            const std::uint64_t packed =
                spread(static_cast<std::uint32_t>(a >> sel)) |
                (spread(static_cast<std::uint32_t>(b >> sel)) << 4) |
                (spread(static_cast<std::uint32_t>(c >> sel)) << 8);
            std::memcpy(out + i + 4 * half, &packed, 8);
        }
    }
#endif
    for (; i < n; ++i) {
        out[i] = static_cast<std::uint16_t>(rs[i] | (rt[i] << 4) |
                                            (res[i] << 8));
    }
}

} // namespace sigcomp::sig
