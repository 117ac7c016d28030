/**
 * @file
 * Plan ingestion tests: the "sigcomp-study-plan-v2" wire contract.
 *
 * Three layers:
 *  - round-trip: parse(serialize(p)) satisfies planEquals for
 *    builder-constructed plans of every shape, and re-serialization
 *    is byte-identical (the serializer is a canonical form);
 *  - the error taxonomy: every PlanErrorKind branch fires on a
 *    crafted input, with a byte offset pointing into the right
 *    token, and a failed parse leaves the output plan untouched;
 *  - hostility: caps enforced one-past-the-limit, truncation at
 *    every prefix length, a deterministic xorshift mutation storm
 *    over the golden document (the in-tree cousin of the libFuzzer
 *    harness in fuzz_plan_json.cpp).
 *
 * The committed golden (tests/golden/study_plan.json) pins the wire
 * bytes; regenerate after an INTENTIONAL schema change with:
 *     SIGCOMP_UPDATE_GOLDEN=1 ./build/tests/test_plan_json
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/plan_json.h"
#include "analysis/profilers.h"
#include "analysis/study_plan.h"
#include "common/cancel.h"

namespace sigcomp
{
namespace
{

using analysis::parsePlanJson;
using analysis::PlanError;
using analysis::PlanErrorKind;
using analysis::StudyPlan;
using analysis::writePlanJson;
using pipeline::Design;

std::string
goldenPath()
{
    return std::string(SIGCOMP_TEST_DATA_DIR) +
           "/golden/study_plan.json";
}

/** Serialize or die — for plans the wire must accept. */
std::string
mustWrite(const StudyPlan &plan)
{
    std::string json;
    PlanError err;
    EXPECT_TRUE(writePlanJson(plan, &json, &err)) << err.render();
    return json;
}

/** Parse or die — for documents the parser must accept. */
StudyPlan
mustParse(const std::string &json)
{
    StudyPlan plan;
    PlanError err;
    EXPECT_TRUE(parsePlanJson(json, &plan, &err)) << err.render();
    return plan;
}

/** Expect a parse failure of @p kind; returns the error for closer
 * inspection. The output plan must be untouched on failure. */
PlanError
expectParseError(const std::string &json, PlanErrorKind kind)
{
    StudyPlan sentinel;
    sentinel.workloads({"sentinel"}).deadlineMs(7);
    StudyPlan probe;
    probe.workloads({"sentinel"}).deadlineMs(7);
    PlanError err;
    EXPECT_FALSE(parsePlanJson(json, &probe, &err)) << json;
    EXPECT_EQ(static_cast<int>(err.kind), static_cast<int>(kind))
        << err.render() << "\n  input: " << json;
    EXPECT_TRUE(analysis::planEquals(probe, sentinel))
        << "a failed parse must leave the output plan untouched";
    return err;
}

/** The kitchen-sink builder plan: every wire-expressible feature. */
StudyPlan
fullPlan()
{
    power::TechParams tech;
    tech.vdd = 1.35;
    tech.bitLineFf = 0.22;
    tech.logicFfPerBit = 0.0375;
    pipeline::PipelineConfig cfg;
    cfg.encoding = sig::Encoding::Half1;
    cfg.multCycles = 7;
    cfg.divCycles = 19;
    cfg.predictor = pipeline::PredictorKind::Bimodal;
    cfg.phtEntries = 1024;
    cfg.btbEntries = 64;
    cfg.compressor = sig::InstrCompressor({33, 35, 42, 0, 9});
    StudyPlan plan;
    plan.workloads({"rawcaudio", "epic"})
        .evictAfterReplay()
        .deadlineMs(2500)
        .activity(sig::Encoding::Ext2)
        .activity(sig::Encoding::Ext3)
        .cpi({Design::Baseline32, Design::SkewedBypass}, cfg)
        .energy(tech, Design::ByteSerial, sig::Encoding::Ext3);
    return plan;
}

// ---- round trips -----------------------------------------------------

TEST(PlanJsonRoundTrip, BuilderPlansSurviveTheWire)
{
    std::vector<StudyPlan> plans;
    plans.emplace_back(); // empty plan
    plans.push_back(fullPlan());
    {
        StudyPlan p; // defaults everywhere, one study
        p.cpi({Design::ByteSerial}, pipeline::PipelineConfig{});
        plans.push_back(std::move(p));
    }
    {
        StudyPlan p; // deadline 0 = already expired, still plan data
        p.deadlineMs(0).energy();
        plans.push_back(std::move(p));
    }

    for (std::size_t i = 0; i < plans.size(); ++i) {
        const std::string wire = mustWrite(plans[i]);
        const StudyPlan parsed = mustParse(wire);
        EXPECT_TRUE(analysis::planEquals(parsed, plans[i]))
            << "plan " << i << " wire:\n" << wire;
        // The serializer is a canonical form: one more trip is
        // byte-identical, which is what the fuzz harness leans on.
        EXPECT_EQ(mustWrite(parsed), wire) << "plan " << i;
    }
}

TEST(PlanJsonRoundTrip, GoldenDocumentIsPinned)
{
    const std::string actual = mustWrite(fullPlan());
    const char *update = std::getenv("SIGCOMP_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0' &&
        std::string(update) != "0") {
        std::ofstream out(goldenPath(),
                          std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot rewrite " << goldenPath();
        out << actual;
        GTEST_SKIP() << "golden study_plan.json regenerated — commit";
    }
    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << goldenPath()
        << " (generate with SIGCOMP_UPDATE_GOLDEN=1 and commit)";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(actual, buf.str())
        << "wire bytes changed — if intentional, bump the schema id, "
           "update README, and regenerate the golden";
    EXPECT_TRUE(
        analysis::planEquals(mustParse(buf.str()), fullPlan()));
}

TEST(PlanJsonRoundTrip, WhitespaceAndEscapesAreTolerated)
{
    // The parser accepts any JSON spelling of the same plan: spacing
    // is free, strings may use escapes.
    const StudyPlan parsed = mustParse(
        "\n{\r\n\t\"schema\" : \"sigcomp-study-plan-v2\" ,"
        "\"workloads\":[\"raw\\u0063audio\"],\t"
        "\"evict_after_replay\" :\n false }");
    StudyPlan want;
    want.workloads({"rawcaudio"});
    EXPECT_TRUE(analysis::planEquals(parsed, want));
}

// ---- the error taxonomy, branch by branch ----------------------------

TEST(PlanJsonErrors, SyntaxBranch)
{
    const std::string good = mustWrite(fullPlan());
    // Truncation at EVERY prefix is a classified failure, never a
    // crash and never a silent success. (The document ends "}\n";
    // the prefix dropping only that newline is still complete, so
    // the loop stops at the closing brace.)
    ASSERT_EQ(good.back(), '\n');
    for (std::size_t len = 0; len + 1 < good.size(); ++len) {
        StudyPlan out;
        PlanError err;
        ASSERT_FALSE(parsePlanJson(good.substr(0, len), &out, &err))
            << "prefix of " << len << " bytes parsed?";
        ASSERT_NE(static_cast<int>(err.kind),
                  static_cast<int>(PlanErrorKind::None));
    }

    expectParseError("", PlanErrorKind::Syntax);
    expectParseError("{", PlanErrorKind::Syntax);
    expectParseError("nonsense", PlanErrorKind::Syntax);
    expectParseError("{\"schema\": \"sigcomp-study-plan-v2\"} trailing",
                     PlanErrorKind::Syntax);
    expectParseError("{\"schema\": \"sigcomp-study-plan-v2\" "
                     "\"deadline_ms\": 1}",
                     PlanErrorKind::Syntax); // missing comma
    expectParseError("{\"schema\": \"sigcomp-study-plan-v2\", "
                     "\"workloads\": [\"a\" \"b\"]}",
                     PlanErrorKind::Syntax); // missing comma in array
    expectParseError("{\"workloads\": [\"unterminated]}",
                     PlanErrorKind::Syntax);
    expectParseError("{\"workloads\": [\"bad \\q escape\"]}",
                     PlanErrorKind::Syntax);
    expectParseError("{\"workloads\": [\"trunc \\u00\"]}",
                     PlanErrorKind::Syntax);
    expectParseError("{\"deadline_ms\": 12-3}", PlanErrorKind::Syntax);
    expectParseError("{\"energy\": [{\"tech\": {\"vdd\": 1.2e}}]}",
                     PlanErrorKind::Syntax);
    expectParseError("{42: true}", PlanErrorKind::Syntax);

    // A duplicate-key error points AT the duplicated key token.
    const std::string dup =
        "{\"evict_after_replay\": false, \"evict_after_replay\": true}";
    const PlanError err = expectParseError(dup, PlanErrorKind::Syntax);
    EXPECT_EQ(err.offset, dup.find("\"evict_after_replay\": true"));
    EXPECT_NE(err.message.find("duplicate"), std::string::npos);
}

TEST(PlanJsonErrors, UnknownFieldBranch)
{
    const PlanError top = expectParseError(
        "{\"schema\": \"sigcomp-study-plan-v2\", \"bogus\": 1}",
        PlanErrorKind::UnknownField);
    EXPECT_NE(top.message.find("bogus"), std::string::npos);
    // Execution settings are not plan data: v2 has no "threads" key,
    // so a v1-style thread override is refused, not clamped.
    const PlanError threads = expectParseError(
        "{\"schema\": \"sigcomp-study-plan-v2\", \"threads\": 4}",
        PlanErrorKind::UnknownField);
    EXPECT_NE(threads.message.find("threads"), std::string::npos);
    expectParseError("{\"activity\": [{\"enc\": \"ext3\"}]}",
                     PlanErrorKind::UnknownField);
    expectParseError("{\"cpi\": [{\"designz\": []}]}",
                     PlanErrorKind::UnknownField);
    expectParseError(
        "{\"cpi\": [{\"config\": {\"mult_cycle\": 4}}]}",
        PlanErrorKind::UnknownField);
    expectParseError("{\"energy\": [{\"tech\": {\"vd\": 1.0}}]}",
                     PlanErrorKind::UnknownField);
}

TEST(PlanJsonErrors, BadTypeBranch)
{
    expectParseError("{\"workloads\": 5}", PlanErrorKind::BadType);
    expectParseError("{\"evict_after_replay\": 1}",
                     PlanErrorKind::BadType);
    expectParseError("{\"schema\": 17}", PlanErrorKind::BadType);
    expectParseError("{\"deadline_ms\": 1.5}", PlanErrorKind::BadType);
    expectParseError("{\"deadline_ms\": NaN}", PlanErrorKind::BadType);
    expectParseError("{\"energy\": [{\"tech\": {\"vdd\": true}}]}",
                     PlanErrorKind::BadType);
    expectParseError("{\"cpi\": [{\"designs\": \"byte-serial\"}]}",
                     PlanErrorKind::BadType);
}

TEST(PlanJsonErrors, OutOfRangeBranch)
{
    // Numeric caps: the cap value itself passes, one past fails.
    {
        StudyPlan ok = mustParse(
            "{\"schema\": \"sigcomp-study-plan-v2\", "
            "\"deadline_ms\": 1000000000}");
        EXPECT_TRUE(ok.hasStudies() == false);
    }
    expectParseError("{\"deadline_ms\": -1}", PlanErrorKind::OutOfRange);
    expectParseError("{\"deadline_ms\": 1000000001}",
                     PlanErrorKind::OutOfRange);
    expectParseError(
        "{\"deadline_ms\": 99999999999999999999999999999}",
        PlanErrorKind::OutOfRange);
    expectParseError("{\"cpi\": [{\"config\": {\"mult_cycles\": 0}}]}",
                     PlanErrorKind::OutOfRange);
    expectParseError(
        "{\"cpi\": [{\"config\": {\"div_cycles\": 1001}}]}",
        PlanErrorKind::OutOfRange);
    expectParseError(
        "{\"cpi\": [{\"config\": {\"pht_entries\": 48}}]}",
        PlanErrorKind::OutOfRange); // not a power of two
    expectParseError(
        "{\"cpi\": [{\"config\": {\"compressor_ranking\": [64]}}]}",
        PlanErrorKind::OutOfRange);
    expectParseError(
        "{\"cpi\": [{\"config\": {\"compressor_ranking\": [3, 3]}}]}",
        PlanErrorKind::OutOfRange); // duplicate funct
    expectParseError("{\"energy\": [{\"tech\": {\"vdd\": 0}}]}",
                     PlanErrorKind::OutOfRange);
    expectParseError("{\"energy\": [{\"tech\": {\"vdd\": 1e999}}]}",
                     PlanErrorKind::OutOfRange);
    expectParseError("{\"energy\": [{\"tech\": {\"vdd\": -1.1}}]}",
                     PlanErrorKind::OutOfRange);

    // A string longer than the cap.
    expectParseError("{\"workloads\": [\"" + std::string(129, 'x') +
                         "\"]}",
                     PlanErrorKind::OutOfRange);
    // More workloads than the cap (256 + 1 one-byte names).
    {
        std::string doc = "{\"workloads\": [";
        for (int i = 0; i < 257; ++i)
            doc += std::string(i ? "," : "") + "\"w\"";
        doc += "]}"; // duplicate names are fine; the cap fires first
        expectParseError(doc, PlanErrorKind::OutOfRange);
    }
    // Nesting past the depth cap.
    expectParseError(std::string(13, '[') + std::string(13, ']'),
                     PlanErrorKind::OutOfRange);
    // A document past the whole-input cap (cheap: no parsing done).
    expectParseError(std::string((1 << 20) + 1, ' '),
                     PlanErrorKind::OutOfRange);
}

TEST(PlanJsonErrors, UnsupportedBranch)
{
    // The retired v1 schema (it carried a "threads" override).
    expectParseError("{\"schema\": \"sigcomp-study-plan-v1\"}",
                     PlanErrorKind::Unsupported);
    expectParseError("{\"schema\": \"sigcomp-study-plan-v3\"}",
                     PlanErrorKind::Unsupported);
    const PlanError missing = expectParseError(
        "{\"workloads\": []}", PlanErrorKind::Unsupported);
    EXPECT_NE(missing.message.find("schema"), std::string::npos);
    expectParseError("{\"workloads\": [\"caf\xc3\xa9\"]}",
                     PlanErrorKind::Unsupported);
    expectParseError("{\"workloads\": [\"caf\\u00e9\"]}",
                     PlanErrorKind::Unsupported);

    // Serialize-side: process-local plan state has no wire form.
    auto expectWriteUnsupported = [](const StudyPlan &plan) {
        std::string out = "sentinel";
        PlanError err;
        EXPECT_FALSE(writePlanJson(plan, &out, &err));
        EXPECT_EQ(static_cast<int>(err.kind),
                  static_cast<int>(PlanErrorKind::Unsupported))
            << err.render();
        EXPECT_EQ(out, "sentinel") << "failed write must not touch out";
    };
    {
        class NullSink : public analysis::Profiler
        {
            void retire(const cpu::DynInstr &) override {}
            std::unique_ptr<Profiler>
            fork() const override
            {
                return std::make_unique<NullSink>();
            }
            void merge(const Profiler &) override {}
        };
        static NullSink sink;
        StudyPlan plan;
        plan.profile({&sink});
        expectWriteUnsupported(plan);
    }
    {
        CancelSource source;
        StudyPlan plan;
        plan.cancel(source.token());
        expectWriteUnsupported(plan);
    }
    {
        pipeline::PipelineConfig cfg;
        cfg.memory.l1d.sizeBytes *= 2; // non-default hierarchy
        StudyPlan plan;
        plan.cpi({Design::ByteSerial}, cfg);
        expectWriteUnsupported(plan);
    }
}

TEST(PlanJsonErrors, WidthPointsAreLibraryOnly)
{
    // The wire carries named designs only: a CPI study over width
    // points is refused by the serializer, and so by the fingerprint
    // the daemon keys on, with a reason that names them.
    StudyPlan plan;
    plan.cpi(std::vector<pipeline::StageWidths>{
                 pipeline::kSemiParallelWidths},
             pipeline::PipelineConfig{});
    std::string out = "sentinel";
    PlanError err;
    EXPECT_FALSE(writePlanJson(plan, &out, &err));
    EXPECT_EQ(static_cast<int>(err.kind),
              static_cast<int>(PlanErrorKind::Unsupported));
    EXPECT_NE(err.message.find("width points"), std::string::npos)
        << err.render();
    EXPECT_EQ(out, "sentinel");

    std::string hex = "sentinel";
    PlanError fp_err;
    EXPECT_FALSE(analysis::planFingerprint(plan, &hex, &fp_err));
    EXPECT_EQ(fp_err.message, err.message);
    EXPECT_EQ(hex, "sentinel");

    // planEquals compares the points.
    StudyPlan same;
    same.cpi(std::vector<pipeline::StageWidths>{
                 pipeline::kSemiParallelWidths},
             pipeline::PipelineConfig{});
    StudyPlan other;
    other.cpi(std::vector<pipeline::StageWidths>{pipeline::kSerialWidths},
              pipeline::PipelineConfig{});
    EXPECT_TRUE(analysis::planEquals(plan, same));
    EXPECT_FALSE(analysis::planEquals(plan, other));
}

TEST(PlanJsonErrors, OffsetsPointIntoTheInput)
{
    const std::string doc =
        "{\"schema\": \"sigcomp-study-plan-v2\", "
        "\"deadline_ms\": 9999999999}";
    const PlanError err =
        expectParseError(doc, PlanErrorKind::OutOfRange);
    EXPECT_EQ(err.offset, doc.find("9999999999"));
    EXPECT_EQ(err.render(),
              "out-of-range at byte " + std::to_string(err.offset) +
                  ": " + err.message);
}

TEST(PlanJsonErrors, EveryKindHasAName)
{
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::None),
              "none");
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::Syntax),
              "syntax");
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::UnknownField),
              "unknown-field");
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::BadType),
              "bad-type");
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::OutOfRange),
              "out-of-range");
    EXPECT_EQ(analysis::planErrorKindName(PlanErrorKind::Unsupported),
              "unsupported");
}

// ---- deterministic mutation storm ------------------------------------

TEST(PlanJsonFuzz, MutatedGoldenNeverCrashesAndRoundTripsWhenAccepted)
{
    // The committed fuzz floor: 4096 deterministic xorshift mutants
    // of the canonical document. Every one must either fail with a
    // classified error or parse into a plan whose serialization
    // round-trips — the same property the libFuzzer harness asserts,
    // runnable on any machine without clang.
    const std::string seed = mustWrite(fullPlan());
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int round = 0; round < 4096; ++round) {
        std::string doc = seed;
        const unsigned edits = 1 + next() % 4;
        for (unsigned e = 0; e < edits; ++e) {
            const std::size_t at = next() % doc.size();
            switch (next() % 3) {
            case 0: // flip a byte
                doc[at] = static_cast<char>(next() & 0xFF);
                break;
            case 1: // truncate
                doc.resize(at + 1);
                break;
            default: // duplicate a slice
                doc.insert(at, doc.substr(at / 2, 16));
                break;
            }
        }
        StudyPlan out;
        PlanError err;
        if (!parsePlanJson(doc, &out, &err)) {
            ASSERT_NE(static_cast<int>(err.kind),
                      static_cast<int>(PlanErrorKind::None));
            ASSERT_LE(err.offset, doc.size()) << "offset out of doc";
            continue;
        }
        // A parsed plan is USUALLY re-serializable; the exception is
        // escape sequences ("\t") decoding to control bytes the
        // serializer's ascii-clean check refuses. Either way the
        // failure is classified, and an accepted write round-trips.
        std::string rewire;
        if (!writePlanJson(out, &rewire, &err)) {
            ASSERT_NE(static_cast<int>(err.kind),
                      static_cast<int>(PlanErrorKind::None))
                << "round " << round;
            continue;
        }
        StudyPlan again;
        ASSERT_TRUE(parsePlanJson(rewire, &again, &err))
            << "round " << round << ": " << err.render();
        ASSERT_TRUE(analysis::planEquals(again, out))
            << "round " << round;
    }
}

} // namespace
} // namespace sigcomp
