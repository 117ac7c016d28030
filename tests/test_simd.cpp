/**
 * @file
 * SIMD and kernel equivalence suite: the SigPack column codec and
 * the checksum must be bit-identical to their scalar references at
 * every dispatch level this host can run, and the batch significance
 * kernels must match the byte-walking reference classifiers —
 * exhaustively over the 0..2^16 boundary range (placed in every byte
 * position) and over randomized word patterns, including unaligned
 * heads and ragged block lengths. CTest runs this binary
 * twice: once with native dispatch and once under
 * SIGCOMP_FORCE_SCALAR=1 (see tests/CMakeLists.txt), so the
 * environment override is exercised continuously.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "sigcomp/byte_pattern.h"
#include "sigcomp/sig_kernels.h"
#include "store/codec.h"

namespace sigcomp
{
namespace
{

using simd::SimdLevel;

/** Restore the entry dispatch level after each test. */
class SimdTest : public ::testing::Test
{
  protected:
    void SetUp() override { entry_ = simd::activeSimdLevel(); }
    void TearDown() override { simd::setSimdLevel(entry_); }

    SimdLevel entry_ = SimdLevel::Scalar;
};

/**
 * The kernel input battery: every 16-bit value in every byte pair
 * position (boundary sweep: all sign-fill/carry edges live within
 * two adjacent bytes), then randomized full-width patterns.
 */
std::vector<Word>
kernelBattery()
{
    std::vector<Word> vs;
    vs.reserve(3 * 65536 + 65536);
    for (std::uint32_t v = 0; v < 65536; ++v) {
        vs.push_back(v);
        vs.push_back(v << 8);
        vs.push_back(v << 16);
    }
    Rng rng(0xC0FFEE);
    for (unsigned i = 0; i < 65536; ++i)
        vs.push_back(rng.next32());
    return vs;
}

/** Ragged lengths the kernels must get right (block tails). */
const std::size_t kLengths[] = {0, 1, 15, 16, 17, 33};

TEST_F(SimdTest, LevelPlumbing)
{
    const std::vector<SimdLevel> levels = simd::availableSimdLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), SimdLevel::Scalar);

    // If the force-scalar override is active for this process, the
    // active level must be Scalar no matter what the CPU has.
    const char *force = std::getenv("SIGCOMP_FORCE_SCALAR");
    if (force != nullptr && *force != '\0' &&
        std::string(force) != "0") {
        EXPECT_EQ(simd::activeSimdLevel(), SimdLevel::Scalar);
    }

    for (const SimdLevel l : levels) {
        simd::setSimdLevel(l);
        EXPECT_EQ(simd::activeSimdLevel(), l);
        EXPECT_NE(std::string(simd::simdLevelName(l)), "?");
    }
    // Unsupported levels clamp to scalar rather than misdispatch.
    simd::setSimdLevel(static_cast<SimdLevel>(0x7f));
    EXPECT_EQ(simd::activeSimdLevel(), SimdLevel::Scalar);
}

TEST_F(SimdTest, ClassifyKernelsMatchScalarReferencesEverywhere)
{
    const std::vector<Word> vs = kernelBattery();
    std::vector<sig::ByteMask> mask(vs.size());
    sig::classifyExt3Block(vs.data(), vs.size(), mask.data());
    for (std::size_t i = 0; i < vs.size(); ++i) {
        ASSERT_EQ(mask[i], sig::classifyExt3Reference(vs[i]))
            << "ext3 @" << i << " v=" << vs[i];
    }
}

TEST_F(SimdTest, KernelsHandleRaggedLengthsAndUnalignedHeads)
{
    Rng rng(77);
    std::vector<Word> vs(64);
    for (Word &v : vs)
        v = rng.next32();

    for (const std::size_t n : kLengths) {
        for (const std::size_t off :
             {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
            ASSERT_LE(off + n, vs.size());
            std::vector<sig::ByteMask> out(n + 1, 0xEE);
            sig::classifyExt3Block(vs.data() + off, n, out.data());
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(out[i], sig::classifyExt3Reference(vs[off + i]));
            // The kernel must not write past n outputs.
            EXPECT_EQ(out[n], 0xEE);
        }
    }
}

/** The shared Table-1 operand mix (bench/bench_util.h). */
std::vector<Word>
operandMix(std::size_t n)
{
    return bench::operandMix(n);
}

TEST_F(SimdTest, SigPackCodecIsIdenticalAcrossLevels)
{
    // Encoded bytes must match byte-for-byte across levels (the
    // segment CRCs depend on them), and any level must decode any
    // level's output. Lengths cross the codec block size to cover
    // tail blocks.
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{15},
          std::size_t{4095}, std::size_t{4096}, std::size_t{4097},
          std::size_t{3 * 4096 + 33}}) {
        const std::vector<Word> vs = operandMix(n);

        std::vector<std::vector<std::uint8_t>> encs;
        for (const SimdLevel level : simd::availableSimdLevels()) {
            simd::setSimdLevel(level);
            std::vector<std::uint8_t> enc;
            store::encodeColumn32(vs.data(), vs.size(), enc);
            encs.push_back(std::move(enc));
        }
        for (std::size_t l = 1; l < encs.size(); ++l)
            ASSERT_EQ(encs[l], encs[0]) << "n=" << n;

        for (const SimdLevel level : simd::availableSimdLevels()) {
            simd::setSimdLevel(level);
            std::vector<Word> back;
            ASSERT_TRUE(store::decodeColumn32(
                encs[0].data(), encs[0].size(), n, back));
            ASSERT_EQ(back, vs)
                << simd::simdLevelName(level) << " n=" << n;
        }
    }
}

TEST_F(SimdTest, Crc32MatchesBitwiseReferenceAtEveryLevel)
{
    // Independent bitwise implementation of the reflected polynomial.
    const auto ref = [](std::uint32_t crc, const std::uint8_t *p,
                        std::size_t n) {
        crc = ~crc;
        for (std::size_t i = 0; i < n; ++i) {
            crc ^= p[i];
            for (int k = 0; k < 8; ++k)
                crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
        }
        return ~crc;
    };

    // Known answer (the standard "123456789" check value).
    EXPECT_EQ(crc32(0, "123456789", 9), 0xCBF43926u);

    Rng rng(123);
    std::vector<std::uint8_t> buf(70000);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next32());

    for (const SimdLevel level : simd::availableSimdLevels()) {
        simd::setSimdLevel(level);
        for (const std::size_t len :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{64}, std::size_t{127}, std::size_t{128},
              std::size_t{129}, std::size_t{4096},
              std::size_t{65521}}) {
            for (const std::size_t off :
                 {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
                ASSERT_LE(off + len, buf.size());
                const std::uint32_t want =
                    ref(0, buf.data() + off, len);
                ASSERT_EQ(crc32(0, buf.data() + off, len), want)
                    << simd::simdLevelName(level) << " len=" << len;
                // Chained updates must match one-shot.
                std::uint32_t chained =
                    crc32(0, buf.data() + off, len / 3);
                chained = crc32(chained, buf.data() + off + len / 3,
                                len - len / 3);
                ASSERT_EQ(chained, want);
            }
        }
    }
}

} // namespace
} // namespace sigcomp
