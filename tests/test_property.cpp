/**
 * @file
 * Property-based and parameterized sweeps across the whole stack:
 * pattern-constrained value generation, encoding round trips,
 * serial-ALU equivalence, instruction-compressor sweeps per opcode,
 * and randomly generated programs executed across every pipeline
 * design with cross-design invariants.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "common/rng.h"
#include "isa/assembler.h"
#include "pipeline/runner.h"
#include "sigcomp/compressed_word.h"
#include "sigcomp/instr_compress.h"
#include "sigcomp/serial_alu.h"
#include "store/trace_store.h"
#include "tests/live_oracle.h"
#include "tests/scratch_dir.h"

namespace sigcomp
{
namespace
{

using isa::Assembler;
using isa::Program;
namespace reg = isa::reg;

// ------------------------------------------------ pattern-constrained values

/** Generate a value whose Ext3 classification equals @p mask. */
Word
valueWithPattern(sig::ByteMask mask, Rng &rng)
{
    for (int attempt = 0; attempt < 10000; ++attempt) {
        Word v = 0;
        Byte below = 0;
        for (unsigned i = 0; i < 4; ++i) {
            Byte b;
            if (i == 0) {
                b = static_cast<Byte>(rng.next32());
            } else if (mask & (1u << i)) {
                // Significant: anything except the fill byte.
                do {
                    b = static_cast<Byte>(rng.next32());
                } while (b == signFill(below));
            } else {
                b = signFill(below);
            }
            v = setWordByte(v, i, b);
            below = b;
        }
        if (sig::classifyExt3(v) == mask)
            return v;
    }
    ADD_FAILURE() << "could not generate pattern "
                  << sig::patternName(mask);
    return 0;
}

class PatternSweep
    : public ::testing::TestWithParam<sig::ByteMask>
{
};

TEST_P(PatternSweep, GeneratedValuesClassifyAndRoundTrip)
{
    Rng rng(GetParam() * 977u + 1);
    for (int i = 0; i < 2000; ++i) {
        const Word v = valueWithPattern(GetParam(), rng);
        EXPECT_EQ(sig::classifyExt3(v), GetParam());
        const auto cw = sig::CompressedWord::compress(
            v, sig::Encoding::Ext3);
        EXPECT_EQ(cw.decompress(), v);
        EXPECT_EQ(cw.bytes(), sig::maskBytes(GetParam()));
    }
}

TEST_P(PatternSweep, SerialAluWorkCoversPattern)
{
    Rng rng(GetParam() * 31u + 7);
    const sig::SerialAlu alu(sig::Encoding::Ext3);
    for (int i = 0; i < 2000; ++i) {
        const Word a = valueWithPattern(GetParam(), rng);
        const Word b = rng.next32();
        const sig::AluReport r = alu.add(a, b);
        EXPECT_EQ(r.result, a + b);
        const std::uint8_t need = GetParam() | sig::classifyExt3(b);
        EXPECT_EQ(r.workMask & need, need);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternSweep,
    ::testing::ValuesIn(sig::allBytePatterns()),
    [](const auto &info) { return sig::patternName(info.param); });

// ---------------------------------------------------- encoding equivalences

TEST(EncodingProperty, Ext3MaskIsSubsetOfExt2Mask)
{
    Rng rng(404);
    for (int i = 0; i < 100000; ++i) {
        const Word v = rng.next32();
        const sig::ByteMask e3 = sig::classifyExt3(v);
        const sig::ByteMask e2 = sig::classifyExt2(v);
        EXPECT_EQ(e3 & e2, e3) << std::hex << v;
    }
}

TEST(EncodingProperty, Ext2EqualsExt3OnPrefixPatterns)
{
    Rng rng(405);
    for (int i = 0; i < 100000; ++i) {
        const Word v = rng.next32();
        const sig::ByteMask e3 = sig::classifyExt3(v);
        if (sig::isExt2Representable(e3)) {
            EXPECT_EQ(sig::classifyExt2(v), e3) << std::hex << v;
        }
    }
}

TEST(EncodingProperty, HalfMaskConsistentWithByteMask)
{
    Rng rng(406);
    for (int i = 0; i < 100000; ++i) {
        const Word v = rng.next32();
        // If the whole upper halfword is byte-droppable as a prefix,
        // the halfword scheme can drop it too.
        if (significantBytes(v) <= 2) {
            EXPECT_EQ(sig::classifyHalf(v), 0b01) << std::hex << v;
        }
        if (sig::classifyHalf(v) == 0b01) {
            EXPECT_LE(significantBytes(v), 2u) << std::hex << v;
        }
    }
}

// --------------------------------------------------- serial ALU equivalence

class AluOpSweep : public ::testing::TestWithParam<sig::Encoding>
{
};

TEST_P(AluOpSweep, AllOpsMatchArchitecturalResults)
{
    const sig::SerialAlu alu(GetParam());
    Rng rng(42 + static_cast<DWord>(GetParam()));
    for (int i = 0; i < 30000; ++i) {
        // Stratified widths: mix narrow and wide operands.
        Word a = rng.next32();
        Word b = rng.next32();
        if (i % 3 == 0)
            a = signExtend(a & 0xff, 8);
        if (i % 5 == 0)
            b = signExtend(b & 0xffff, 16);

        EXPECT_EQ(alu.add(a, b).result, a + b);
        EXPECT_EQ(alu.sub(a, b).result, a - b);
        EXPECT_EQ(alu.slt(a, b, false).result,
                  (static_cast<SWord>(a) < static_cast<SWord>(b)) ? 1u
                                                                  : 0u);
        EXPECT_EQ(alu.slt(a, b, true).result, (a < b) ? 1u : 0u);

        // Work bytes bounded and result masks exact.
        for (const sig::AluReport &r :
             {alu.add(a, b), alu.logic(a, b, sig::LogicOp::Xor)}) {
            EXPECT_LE(r.workBytes, 2u * wordBytes);
            EXPECT_EQ(r.resultMask,
                      sig::maskUnder(r.result, GetParam()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, AluOpSweep,
    ::testing::Values(sig::Encoding::Ext2, sig::Encoding::Ext3,
                      sig::Encoding::Half1),
    [](const auto &info) { return sig::encodingName(info.param); });

// ------------------------------------------- instruction compressor sweeps

class OpcodeSweep : public ::testing::TestWithParam<std::uint8_t>
{
};

TEST_P(OpcodeSweep, CompressorRoundTripsEveryField)
{
    const auto comp = sig::InstrCompressor::withDefaultRanking();
    Rng rng(GetParam() + 1);
    for (int i = 0; i < 5000; ++i) {
        Word w = rng.next32();
        w = setBitField(w, 26, 6, GetParam());
        if (GetParam() == 0) {
            // Valid functs only; non-shift instructions have shamt 0.
            static const std::uint8_t functs[] = {
                0x00, 0x02, 0x03, 0x04, 0x06, 0x07, 0x08, 0x09,
                0x0c, 0x10, 0x12, 0x18, 0x1a, 0x20, 0x21, 0x22,
                0x23, 0x24, 0x25, 0x26, 0x27, 0x2a, 0x2b};
            const std::uint8_t f = functs[rng.below(sizeof(functs))];
            w = setBitField(w, 0, 6, f);
            const auto ff = static_cast<isa::Funct>(f);
            if (ff == isa::Funct::Sll || ff == isa::Funct::Srl ||
                ff == isa::Funct::Sra) {
                w = setBitField(w, 21, 5, 0);
            } else {
                w = setBitField(w, 6, 5, 0);
            }
        }
        const isa::Instruction inst{w};
        sig::StoredInstr st = comp.compress(inst);
        if (!st.fourBytes)
            st.permuted &= 0xffffff00;
        EXPECT_EQ(comp.decompress(st).raw(), inst.raw())
            << std::hex << w;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeSweep,
    ::testing::Values(0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                      0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
                      0x20, 0x21, 0x23, 0x24, 0x25, 0x28, 0x29, 0x2b));

// ----------------------------------------------------- random program fuzz

/**
 * Generate a random, always-terminating program: straight-line ALU/
 * memory soup plus forward-only branches, ending in the exit
 * syscall.
 */
Program
randomProgram(DWord seed, int length)
{
    Rng rng(seed);
    Assembler a;
    a.dataLabel("scratch");
    a.dataSpace(256);
    a.label("main");
    a.la(reg::s0, "scratch");
    // Seed some registers with mixed-width values.
    for (isa::Reg r = reg::t0; r <= reg::t7; ++r)
        a.li(r, static_cast<SWord>(rng.next32() >>
                                   (8 * rng.below(4))));

    int label_id = 0;
    for (int i = 0; i < length; ++i) {
        const auto t = [&] {
            return static_cast<isa::Reg>(reg::t0 + rng.below(8));
        };
        switch (rng.below(12)) {
          case 0: a.addu(t(), t(), t()); break;
          case 1: a.subu(t(), t(), t()); break;
          case 2: a.and_(t(), t(), t()); break;
          case 3: a.or_(t(), t(), t()); break;
          case 4: a.xor_(t(), t(), t()); break;
          case 5: a.slt(t(), t(), t()); break;
          case 6:
            a.addiu(t(), t(),
                    static_cast<std::int16_t>(rng.range(-512, 511)));
            break;
          case 7:
            a.sll(t(), t(), rng.below(32));
            break;
          case 8:
            a.lw(t(), static_cast<std::int16_t>(rng.below(63) * 4),
                 reg::s0);
            break;
          case 9:
            a.sw(t(), static_cast<std::int16_t>(rng.below(63) * 4),
                 reg::s0);
            break;
          case 10: {
            // Forward branch over one instruction: terminates
            // whichever way it goes.
            // Built with += rather than operator+ to dodge GCC 12's
            // bogus -Wrestrict on string concatenation (PR 105651).
            std::string lab = "f";
            lab += std::to_string(label_id++);
            a.beq(t(), t(), lab);
            a.addu(t(), t(), t());
            a.label(lab);
            break;
          }
          default:
            a.mult(t(), t());
            a.mflo(t());
            break;
        }
    }
    a.exitProgram();
    return a.finish("fuzz" + std::to_string(seed));
}

class ProgramFuzz : public ::testing::TestWithParam<DWord>
{
};

TEST_P(ProgramFuzz, CrossDesignInvariantsHold)
{
    const Program p = randomProgram(GetParam(), 250);
    const auto designs = pipeline::allDesigns();
    const auto results =
        live::runDesigns(p, designs, pipeline::PipelineConfig());

    const auto &base = results[0];
    EXPECT_GT(base.instructions, 250u);
    for (const auto &r : results) {
        // Same committed stream everywhere.
        EXPECT_EQ(r.instructions, base.instructions) << r.name;
        // Cycles bound below by instruction count (no superscalar).
        EXPECT_GE(r.cycles, r.instructions) << r.name;
        // Baseline is fastest.
        EXPECT_GE(r.cycles, base.cycles) << r.name;
        // Activity never negative, never above baseline.
        EXPECT_LE(r.activity.rfRead.compressed,
                  r.activity.rfRead.baseline)
            << r.name;
        EXPECT_LE(r.activity.pcInc.compressed,
                  r.activity.pcInc.baseline)
            << r.name;
    }
    // Byte-serial is the slowest design (index 1 in allDesigns).
    for (const auto &r : results)
        EXPECT_LE(r.cycles, results[1].cycles) << r.name;
}

TEST_P(ProgramFuzz, PredictionNeverHurts)
{
    const Program p = randomProgram(GetParam() ^ 0xabcdef, 200);
    pipeline::PipelineConfig off;
    pipeline::PipelineConfig on;
    on.predictor = pipeline::PredictorKind::Bimodal;
    auto a = pipeline::makePipeline(pipeline::Design::Baseline32, off);
    auto b = pipeline::makePipeline(pipeline::Design::Baseline32, on);
    live::runPipelines(p, {a.get(), b.get()});
    EXPECT_LE(b->result().cycles, a->result().cycles);
}

TEST_P(ProgramFuzz, StoreReplayMatchesLiveForEveryDesignAndEncoding)
{
    // Differential oracle: the live FunctionalCore-to-pipeline run vs
    // capture -> store segment -> load -> batched replay, for every
    // design under every encoding.
    const Program p = randomProgram(GetParam() ^ 0x5eed, 250);
    const std::filesystem::path dir = test::scratchDir(
        "sigcomp-property-" + std::to_string(GetParam()));
    std::filesystem::remove_all(dir);
    const store::TraceStore ts(dir.string());
    ASSERT_TRUE(ts.save(p.name(), cpu::TraceBuffer::capture(p),
                        cpu::TraceBuffer::defaultMaxInstrs));
    std::string why;
    const auto loaded =
        ts.load(p.name(), p, cpu::TraceBuffer::defaultMaxInstrs, &why);
    ASSERT_NE(loaded, nullptr) << why;

    const auto designs = pipeline::allDesigns();
    for (sig::Encoding enc : {sig::Encoding::Ext2, sig::Encoding::Ext3,
                              sig::Encoding::Half1}) {
        pipeline::PipelineConfig cfg;
        cfg.encoding = enc;
        const auto expected = live::runDesigns(p, designs, cfg);
        std::vector<std::unique_ptr<pipeline::InOrderPipeline>> owned;
        std::vector<pipeline::InOrderPipeline *> pipes;
        for (pipeline::Design d : designs) {
            owned.push_back(pipeline::makePipeline(d, cfg));
            pipes.push_back(owned.back().get());
        }
        pipeline::replayPipelines(*loaded, pipes);
        for (std::size_t d = 0; d < expected.size(); ++d) {
            SCOPED_TRACE(sig::encodingName(enc));
            live::expectSameResult(owned[d]->result(), expected[d]);
        }
    }
    std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12));

} // namespace
} // namespace sigcomp
