#include "store/codec.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/simd.h"
#include "sigcomp/byte_pattern.h"
#include "sigcomp/sig_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SIGCOMP_X86_CODEC 1
#endif

namespace sigcomp::store
{

namespace
{

inline std::uint32_t
zigzag(std::uint32_t prev, std::uint32_t v)
{
    const std::int32_t d =
        static_cast<std::int32_t>(v - prev); // wrap-around delta
    return (static_cast<std::uint32_t>(d) << 1) ^
           static_cast<std::uint32_t>(d >> 31);
}

inline std::uint32_t
unzigzag(std::uint32_t prev, std::uint32_t z)
{
    const std::uint32_t d = (z >> 1) ^ (~(z & 1) + 1);
    return prev + d;
}

/** LEB128 length of @p z: ceil(significant bits / 7), min 1. */
inline unsigned
varintLen(std::uint32_t z)
{
    return (static_cast<unsigned>(std::bit_width(z | 1u)) + 6u) / 7u;
}

inline void
putVarint(std::vector<std::uint8_t> &out, std::uint32_t z)
{
    while (z >= 0x80u) {
        out.push_back(static_cast<std::uint8_t>(z) | 0x80u);
        z >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(z));
}

/** @return false on overrun or an over-long (>5 byte) varint. */
inline bool
getVarint(const std::uint8_t *bytes, std::size_t len, std::size_t &pos,
          std::uint32_t &z)
{
    z = 0;
    for (unsigned shift = 0; shift < 35; shift += 7) {
        if (pos >= len)
            return false;
        const std::uint8_t b = bytes[pos++];
        z |= static_cast<std::uint32_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0)
            return true;
    }
    return false;
}

/** Per-block scratch for the Ext3 masks (classify once, use twice). */
using MaskBlock = std::array<sig::ByteMask, codecBlockValues>;

/** Significant-byte count per 4-bit pattern (0 = illegal: bit 0 of a
 * legal Ext3 pattern is always set). */
constexpr std::uint8_t kNeed[16] = {0, 1, 0, 2, 0, 2, 0, 3,
                                    0, 2, 0, 3, 0, 3, 0, 4};

/** Exact SigPack payload size for a block: tag plane + packed bytes. */
std::size_t
sigPackSize(const MaskBlock &masks, std::size_t k)
{
    std::size_t bytes = (k + 1) / 2;
    for (std::size_t i = 0; i < k; ++i)
        bytes += kNeed[masks[i]];
    return bytes;
}

// ---- SigPack shuffle tables ----------------------------------------
//
// One 4-byte pattern per tag, stored as a little-endian u32 so a
// whole per-value lane of a PSHUFB control register is one table
// load plus an offset add:
//
//  - kCompressShuf picks a value's significant bytes in low-to-high
//    order (encode: word bytes -> packed stream bytes);
//  - kStoredShuf scatters packed stream bytes back to their word
//    positions (decode), 0x80 in extension positions;
//  - kGovShuf places, in each extension position, the index of the
//    nearest stored byte below it (the byte whose sign governs the
//    fill), 0x80 in stored positions.
//
// 0x80 lanes stay >= 0x80 after any group offset add (offsets are at
// most 12), and PSHUFB writes zero for any control byte with the
// high bit set, which is exactly the "not this lane" behaviour both
// directions need.

struct ShufTriple
{
    std::uint32_t compress;
    std::uint32_t stored;
    std::uint32_t gov;
};

constexpr std::array<ShufTriple, 16>
buildShuf()
{
    std::array<ShufTriple, 16> t{};
    for (unsigned m = 0; m < 16; ++m) {
        std::uint32_t comp = 0, stored = 0, gov = 0;
        unsigned slot = 0;
        for (unsigned j = 0; j < 4; ++j) {
            const unsigned below =
                static_cast<unsigned>(std::popcount(m & ((1u << j) - 1)));
            if (m & (1u << j)) {
                comp |= j << (8 * slot);
                ++slot;
                stored |= below << (8 * j);
                gov |= 0x80u << (8 * j);
            } else {
                // below >= 1 for legal tags (bit 0 always set); the
                // m==0 row is never used (kNeed[0] == 0).
                stored |= 0x80u << (8 * j);
                gov |= (below == 0 ? 0x80u : below - 1) << (8 * j);
            }
        }
        for (unsigned j = slot; j < 4; ++j)
            comp |= 0x80u << (8 * j);
        t[m] = {comp, stored, gov};
    }
    return t;
}

constexpr std::array<ShufTriple, 16> kShuf = buildShuf();

/**
 * Branchless reconstruction constants per pattern: the packed
 * little-endian bytes spread into their word positions as
 *   v = (s & k0) | ((s & k8) << 8) | ((s & k16) << 16)
 * and the extension bytes fill in closed form — every pattern has at
 * most two runs of extension bytes, each governed by the sign of the
 * stored byte directly below the run, so
 *   v |= ((v >> sh1) & 1) * mul1;  v |= ((v >> sh2) & 1) * mul2;
 * smears each governing sign across its run in one multiply.
 */
struct Spread
{
    Word k0, k8, k16;
    unsigned sh1;
    Word mul1;
    unsigned sh2;
    Word mul2;
};

constexpr Spread kSpread[16] = {
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x000000FFu, 0, 0, 7, 0xFFFFFF00u, 0, 0},              // eees
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x0000FFFFu, 0, 0, 15, 0xFFFF0000u, 0, 0},             // eess
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x000000FFu, 0x0000FF00u, 0, 7, 0x0000FF00u, 23,
     0xFF000000u},                                          // eses
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x00FFFFFFu, 0, 0, 23, 0xFF000000u, 0, 0},             // esss
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x000000FFu, 0, 0x0000FF00u, 7, 0x00FFFF00u, 0, 0},    // sees
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x0000FFFFu, 0x00FF0000u, 0, 15, 0x00FF0000u, 0, 0},   // sess
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0x000000FFu, 0x00FFFF00u, 0, 7, 0x0000FF00u, 0, 0},    // sses
    {0, 0, 0, 0, 0, 0, 0},                                  // illegal
    {0xFFFFFFFFu, 0, 0, 0, 0, 0, 0},                        // ssss
};

/** Rebuild one word from its packed bytes @p s under pattern @p m. */
inline Word
sigReconstruct(Word s, unsigned m)
{
    const Spread &sp = kSpread[m];
    Word v = (s & sp.k0) | ((s & sp.k8) << 8) | ((s & sp.k16) << 16);
    v |= ((v >> sp.sh1) & 1u) * sp.mul1;
    v |= ((v >> sp.sh2) & 1u) * sp.mul2;
    return v;
}

/** Scalar SigPack payload writer (tail + non-x86 fallback). */
void
sigPackEncodeScalar(const std::uint32_t *vals, const sig::ByteMask *masks,
                    std::size_t k, std::uint8_t *out)
{
    for (std::size_t i = 0; i < k; ++i) {
        const sig::ByteMask mask = masks[i];
        for (unsigned b = 0; b < 4; ++b)
            if (mask & (1u << b))
                *out++ = static_cast<std::uint8_t>(vals[i] >> (8 * b));
    }
}

#if SIGCOMP_X86_CODEC

/**
 * PSHUFB compressor: four values per iteration. The per-value
 * compress patterns (plus the 4i source-lane bias) are written
 * head-to-tail into a little scratch control block — each u32 write
 * may spill past its value's slot, but the next value's write lands
 * exactly at the slot end and overwrites the spill, and bytes past
 * the group total are never copied out. One shuffle then packs all
 * four values' significant bytes in stream order.
 */
__attribute__((target("ssse3"))) std::size_t
sigPackEncodeSsse3(const std::uint32_t *vals, const sig::ByteMask *masks,
                   std::size_t k, std::uint8_t *out)
{
    const std::uint8_t *const start = out;
    std::size_t i = 0;
    for (; i + 4 <= k; i += 4) {
        const unsigned m0 = masks[i], m1 = masks[i + 1];
        const unsigned m2 = masks[i + 2], m3 = masks[i + 3];
        const unsigned n0 = kNeed[m0], n1 = kNeed[m1];
        const unsigned n2 = kNeed[m2], n3 = kNeed[m3];

        std::uint8_t ctl[20];
        std::uint32_t c;
        c = kShuf[m0].compress;
        std::memcpy(ctl, &c, 4);
        c = kShuf[m1].compress + 0x04040404u;
        std::memcpy(ctl + n0, &c, 4);
        c = kShuf[m2].compress + 0x08080808u;
        std::memcpy(ctl + n0 + n1, &c, 4);
        c = kShuf[m3].compress + 0x0C0C0C0Cu;
        std::memcpy(ctl + n0 + n1 + n2, &c, 4);

        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(vals + i));
        const __m128i ctlv =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(ctl));
        // Caller guarantees >= 16 bytes of slack past the payload.
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_shuffle_epi8(v, ctlv));
        out += n0 + n1 + n2 + n3;
    }
    sigPackEncodeScalar(vals + i, masks + i, k - i, out);
    for (; i < k; ++i)
        out += kNeed[masks[i]];
    return static_cast<std::size_t>(out - start);
}

/**
 * PSHUFB decoder: four values per iteration while a full 16-byte
 * lookahead fits in the payload. Stored bytes scatter to their word
 * positions through one shuffle; a second shuffle replicates each
 * extension run's governing byte into the run, where a signed
 * compare against zero turns it into the 0x00/0xFF fill.
 */
__attribute__((target("ssse3"))) bool
sigPackDecodeSsse3(const std::uint8_t *bytes, std::size_t plane_k,
                   const std::uint8_t *data, std::size_t payload,
                   std::size_t k, std::uint32_t *dst, std::size_t &i_out,
                   std::size_t &off_out)
{
    const __m128i zero = _mm_setzero_si128();
    std::size_t i = 0;
    std::size_t off = 0;
    (void)plane_k;
    while (i + 4 <= k && off + 16 <= payload) {
        const std::uint8_t t0 = bytes[i >> 1];
        const std::uint8_t t1 = bytes[(i >> 1) + 1];
        const unsigned m0 = t0 & 0x0Fu, m1 = t0 >> 4;
        const unsigned m2 = t1 & 0x0Fu, m3 = t1 >> 4;
        const unsigned n0 = kNeed[m0], n1 = kNeed[m1];
        const unsigned n2 = kNeed[m2], n3 = kNeed[m3];
        if (n0 == 0 || n1 == 0 || n2 == 0 || n3 == 0)
            return false;
        const unsigned o1 = n0, o2 = n0 + n1, o3 = n0 + n1 + n2;

        const __m128i ctl_s = _mm_setr_epi32(
            static_cast<int>(kShuf[m0].stored),
            static_cast<int>(kShuf[m1].stored + o1 * 0x01010101u),
            static_cast<int>(kShuf[m2].stored + o2 * 0x01010101u),
            static_cast<int>(kShuf[m3].stored + o3 * 0x01010101u));
        const __m128i ctl_g = _mm_setr_epi32(
            static_cast<int>(kShuf[m0].gov),
            static_cast<int>(kShuf[m1].gov + o1 * 0x01010101u),
            static_cast<int>(kShuf[m2].gov + o2 * 0x01010101u),
            static_cast<int>(kShuf[m3].gov + o3 * 0x01010101u));

        const __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(data + off));
        const __m128i stored = _mm_shuffle_epi8(d, ctl_s);
        const __m128i gov = _mm_shuffle_epi8(d, ctl_g);
        // 0xFF exactly in the extension bytes whose governing stored
        // byte is negative (gov is zero in stored positions).
        const __m128i fill = _mm_cmpgt_epi8(zero, gov);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_or_si128(stored, fill));
        off += o3 + n3;
        i += 4;
    }
    i_out = i;
    off_out = off;
    return true;
}

#endif // SIGCOMP_X86_CODEC

void
sigPackEncode(const std::uint32_t *vals, const MaskBlock &masks,
              std::size_t k, std::vector<std::uint8_t> &out)
{
    // Tag plane first: two 4-bit Ext3 patterns per byte, value i in
    // the low nibble for even i.
    const std::size_t plane = (k + 1) / 2;
    std::size_t payload = 0;
    for (std::size_t i = 0; i < k; ++i)
        payload += kNeed[masks[i]];

    const std::size_t base = out.size();
    // 16 bytes of slack lets the vector path store whole registers.
    out.resize(base + plane + payload + 16);
    std::uint8_t *p = out.data() + base;
    for (std::size_t i = 0; i + 2 <= k; i += 2)
        p[i >> 1] = static_cast<std::uint8_t>(masks[i] |
                                              (masks[i + 1] << 4));
    if (k & 1)
        p[k >> 1] = masks[k - 1];

    std::uint8_t *payload_out = p + plane;
#if SIGCOMP_X86_CODEC
    if (simd::activeSimdLevel() == simd::SimdLevel::Ssse3) {
        sigPackEncodeSsse3(vals, masks.data(), k, payload_out);
    } else {
        sigPackEncodeScalar(vals, masks.data(), k, payload_out);
    }
#else
    sigPackEncodeScalar(vals, masks.data(), k, payload_out);
#endif
    out.resize(base + plane + payload);
}

/**
 * SigPack decode. This is the store tier's hot loop (every operand
 * and result word of every replayed trace): warm-store load has to
 * beat functional recapture, so at SSSE3 dispatch whole groups of four
 * values decode through the shuffle tables above, and the rest of
 * the block (or the whole block at scalar dispatch) runs the
 * branchless two-per-tag-byte pair loop. An unpredictable branch per
 * value (the obvious switch on the pattern) costs more than either.
 * The last few values, where a lookahead would overrun the payload,
 * fall back to a byte-at-a-time walk.
 */
bool
sigPackDecode(const std::uint8_t *bytes, std::size_t len, std::size_t k,
              std::uint32_t *dst)
{
    const std::size_t plane = (k + 1) / 2;
    if (len < plane)
        return false;
    const std::uint8_t *data = bytes + plane;
    const std::size_t payload = len - plane;

    std::size_t off = 0;
    std::size_t i = 0;
#if SIGCOMP_X86_CODEC
    if (simd::activeSimdLevel() == simd::SimdLevel::Ssse3) {
        if (!sigPackDecodeSsse3(bytes, plane, data, payload, k, dst, i,
                                off))
            return false;
    }
#endif
    while (i + 2 <= k && off + 8 <= payload) {
        const std::uint8_t tags = bytes[i >> 1];
        const unsigned m0 = tags & 0x0Fu;
        const unsigned m1 = tags >> 4;
        const unsigned n0 = kNeed[m0];
        const unsigned n1 = kNeed[m1];
        if (n0 == 0 || n1 == 0)
            return false;
        dst[i] = sigReconstruct(getU32(data + off), m0);
        dst[i + 1] = sigReconstruct(getU32(data + off + n0), m1);
        off += n0 + n1;
        i += 2;
    }
    // Safe byte-at-a-time tail.
    for (; i < k; ++i) {
        const std::uint8_t tags = bytes[i >> 1];
        const unsigned mask = (i & 1) ? (tags >> 4) : (tags & 0x0Fu);
        const unsigned need = kNeed[mask];
        if (need == 0 || off + need > payload)
            return false;
        Word s = 0;
        for (unsigned b = 0; b < need; ++b)
            s |= static_cast<Word>(data[off + b]) << (8 * b);
        dst[i] = sigReconstruct(s, mask);
        off += need;
    }
    return off == payload;
}

} // namespace

void
encodeColumn32(const std::uint32_t *vals, std::size_t n,
               std::vector<std::uint8_t> &out, const std::uint8_t *tags)
{
    std::uint32_t prev = 0;
    MaskBlock masks;
    for (std::size_t base = 0; base < n; base += codecBlockValues) {
        const std::size_t k = std::min(codecBlockValues, n - base);
        const std::uint32_t *block = vals + base;
        if (tags != nullptr) {
            std::memcpy(masks.data(), tags + base, k);
        } else {
            sig::classifyExt3Block(block, k, masks.data());
        }

        const std::size_t raw_size = 4 * k;
        const std::size_t sig_size = sigPackSize(masks, k);
        std::size_t delta_size = 0;
        {
            std::uint32_t p = prev;
            for (std::size_t i = 0; i < k; ++i) {
                delta_size += varintLen(zigzag(p, block[i]));
                p = block[i];
            }
        }

        BlockMode mode = BlockMode::Raw;
        std::size_t best = raw_size;
        if (sig_size < best) {
            mode = BlockMode::SigPack;
            best = sig_size;
        }
        if (delta_size < best) {
            mode = BlockMode::DeltaVarint;
            best = delta_size;
        }

        out.push_back(static_cast<std::uint8_t>(mode));
        putU32(out, static_cast<std::uint32_t>(best));
        switch (mode) {
        case BlockMode::Raw:
            for (std::size_t i = 0; i < k; ++i)
                putU32(out, block[i]);
            break;
        case BlockMode::SigPack:
            sigPackEncode(block, masks, k, out);
            break;
        case BlockMode::DeltaVarint: {
            std::uint32_t p = prev;
            for (std::size_t i = 0; i < k; ++i) {
                putVarint(out, zigzag(p, block[i]));
                p = block[i];
            }
            break;
        }
        }
        prev = block[k - 1];
    }

    // Zero-length columns encode to zero bytes; nothing to do.
}

bool
decodeColumn32(const std::uint8_t *bytes, std::size_t len, std::size_t n,
               std::vector<std::uint32_t> &out)
{
    out.resize(n);
    std::uint32_t *dst = out.data();
    std::uint32_t prev = 0;
    std::size_t produced = 0;
    std::size_t pos = 0;
    while (produced < n) {
        const std::size_t k = std::min(codecBlockValues, n - produced);
        if (pos + 5 > len)
            return false;
        const std::uint8_t mode = bytes[pos];
        const std::size_t payload = getU32(bytes + pos + 1);
        pos += 5;
        if (payload > len - pos)
            return false;
        const std::uint8_t *p = bytes + pos;

        switch (static_cast<BlockMode>(mode)) {
        case BlockMode::Raw:
            if (payload != 4 * k)
                return false;
            for (std::size_t i = 0; i < k; ++i)
                dst[produced + i] = getU32(p + 4 * i);
            break;
        case BlockMode::SigPack:
            if (!sigPackDecode(p, payload, k, dst + produced))
                return false;
            break;
        case BlockMode::DeltaVarint: {
            std::size_t vpos = 0;
            std::size_t i = 0;
            // Fast path: local deltas are almost always one byte, so
            // whole groups of eight continuation-free varint bytes
            // decode without any per-byte branching (checked with
            // one mask over the group).
            while (i + 8 <= k && vpos + 8 <= payload) {
                std::uint64_t g;
                std::memcpy(&g, p + vpos, 8);
                if ((g & 0x8080808080808080ull) != 0)
                    break;
                for (unsigned j = 0; j < 8; ++j) {
                    prev = unzigzag(
                        prev,
                        static_cast<std::uint32_t>((g >> (8 * j)) &
                                                   0x7Fu));
                    dst[produced + i + j] = prev;
                }
                vpos += 8;
                i += 8;
            }
            for (; i < k; ++i) {
                std::uint32_t z;
                // One-byte fast path for stragglers.
                if (vpos < payload && p[vpos] < 0x80u) {
                    z = p[vpos++];
                } else if (!getVarint(p, payload, vpos, z)) {
                    return false;
                }
                prev = unzigzag(prev, z);
                dst[produced + i] = prev;
            }
            if (vpos != payload)
                return false;
            break;
        }
        default:
            return false;
        }
        pos += payload;
        produced += k;
        prev = dst[produced - 1];
    }
    return pos == len;
}

void
encodeColumn64Raw(const std::uint64_t *vals, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    out.reserve(out.size() + 8 * n);
    for (std::size_t i = 0; i < n; ++i)
        putU64(out, vals[i]);
}

bool
decodeColumn64Raw(const std::uint8_t *bytes, std::size_t len,
                  std::size_t n, std::vector<std::uint64_t> &out)
{
    if (len != 8 * n)
        return false;
    out.clear();
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(getU64(bytes + 8 * i));
    return true;
}

} // namespace sigcomp::store
