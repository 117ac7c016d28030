/**
 * @file
 * SuiteReport JSON golden-file tests: the byte contract of schema
 * "sigcomp-suite-report-v4" (open item since PR 5, prerequisite for
 * the sigcompd service of ROADMAP item 1 — once a daemon answers
 * with this JSON, its bytes are a wire format, not an
 * implementation detail).
 *
 * Two pins:
 *  - a hand-constructed report covering every schema section with
 *    round, rounding-robust values, byte-compared against
 *    tests/golden/suite_report_synthetic.json;
 *  - a real single-threaded Session::run over two small captures,
 *    wall-clock zeroed (the one legitimately varying field),
 *    byte-compared against tests/golden/suite_report_run.json.
 *
 * Regenerate after an INTENTIONAL schema change (which must also
 * bump the schema string and README) with:
 *     SIGCOMP_UPDATE_GOLDEN=1 ./build/tests/test_report_golden
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/session.h"
#include "analysis/study_plan.h"
#include "common/telemetry.h"
#include "power/energy_model.h"

namespace sigcomp
{
namespace
{

using analysis::ActivityRow;
using analysis::ActivityStudyResult;
using analysis::CpiStudyResult;
using analysis::EnergyStudyResult;
using analysis::Session;
using analysis::SessionConfig;
using analysis::StudyPlan;
using analysis::SuiteReport;
using pipeline::Design;

std::string
goldenPath(const std::string &name)
{
    return std::string(SIGCOMP_TEST_DATA_DIR) + "/golden/" + name;
}

/**
 * Compare @p actual against the committed golden, or rewrite the
 * golden when SIGCOMP_UPDATE_GOLDEN is set (any value but "0").
 * On mismatch the failure message pinpoints the first differing
 * byte — a byte contract needs better than a 40 kB two-string dump.
 */
void
expectMatchesGolden(const std::string &actual, const std::string &file)
{
    const std::string path = goldenPath(file);
    const char *update = std::getenv("SIGCOMP_UPDATE_GOLDEN");
    if (update != nullptr && *update != '\0' &&
        std::string(update) != "0") {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot rewrite " << path;
        out << actual;
        GTEST_SKIP() << "golden " << file << " regenerated ("
                     << actual.size() << " bytes) — commit it";
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " (generate with SIGCOMP_UPDATE_GOLDEN=1 and commit)";
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();

    if (actual == expected)
        return;
    std::size_t i = 0;
    while (i < actual.size() && i < expected.size() &&
           actual[i] == expected[i])
        ++i;
    const std::size_t ctx = i < 60 ? i : 60;
    FAIL() << file << ": first difference at byte " << i
           << " (golden " << expected.size() << " bytes, actual "
           << actual.size() << ")\n  golden : ..."
           << expected.substr(i - ctx, ctx + 60) << "\n  actual : ..."
           << actual.substr(i - ctx, ctx + 60)
           << "\nIf the schema change is intentional, bump the schema "
              "string, update README, and regenerate with "
              "SIGCOMP_UPDATE_GOLDEN=1.";
}

pipeline::ActivityTotals
makeActivity(Count seed)
{
    pipeline::ActivityTotals a;
    pipeline::BitPair *stages[] = {&a.fetch,  &a.rfRead, &a.rfWrite,
                                   &a.alu,    &a.dcData, &a.dcTag,
                                   &a.pcInc,  &a.latch};
    Count c = seed;
    for (pipeline::BitPair *bp : stages) {
        bp->compressed = c;
        bp->baseline = 2 * c; // saving() = 50.00, rounding-proof
        c += 1000;
    }
    return a;
}

pipeline::PipelineResult
makeResult(DWord instructions, Cycle cycles, Count activity_seed)
{
    pipeline::PipelineResult r;
    r.instructions = instructions;
    r.cycles = cycles;
    r.stalls.controlCycles = 150;
    r.stalls.dataHazardCycles = 250;
    r.activity = makeActivity(activity_seed);
    return r;
}

/**
 * Every section of the schema populated with values whose printed
 * forms (%.6f, %.2f) sit far from rounding boundaries, so the bytes
 * are stable against 1-ulp libm wobble on any platform.
 */
SuiteReport
makeSyntheticReport()
{
    SuiteReport rep;
    rep.workloads = {"alpha", "beta"};
    rep.threads = 3;
    rep.instructions = 3000;
    rep.replayPasses = 2;
    rep.captures = 1;
    rep.storeLoads = 1;
    rep.wallMs = 1.5;
    rep.profileSinks = 1;
    // v2 health block, with an escaping-hostile degradation event so
    // the JSON string escaper's bytes are part of the pin.
    rep.storeLoadFailures = 2;
    rep.quarantinedSegments = 1;
    rep.retries = 3;
    rep.degradations = {"quarantined 'alpha': header CRC mismatch",
                        "load failed \"beta\": path\\with\\slashes"};
    // v4 request-lifecycle outcome: a deadline-expired, admission-
    // refused combination is synthetic (a real run sets one), but it
    // pins the bytes of every field incl. the escaped reason string.
    rep.deadlineExceeded = true;
    rep.rejected = true;
    rep.rejectReason = "estimate 96 bytes > budget \"64\"";

    // v3 telemetry block, hand-built so the writer's bytes — sparse
    // bucket pairs, unit names, and the elision of gauges, Nanos
    // metrics and zero-valued entries — are all part of the pin.
    auto metric = [&rep](const char *name, telemetry::Kind kind,
                         telemetry::Unit unit) -> telemetry::SnapshotMetric & {
        telemetry::SnapshotMetric m;
        m.name = name;
        m.kind = kind;
        m.unit = unit;
        rep.telemetry.metrics.push_back(std::move(m));
        return rep.telemetry.metrics.back();
    };
    metric("cache.captures", telemetry::Kind::Counter,
           telemetry::Unit::Count)
        .value = 1;
    {
        telemetry::SnapshotMetric &h =
            metric("cache.capture_instructions", telemetry::Kind::Histogram,
                   telemetry::Unit::Count);
        h.count = 2;
        h.sum = 3000;
        h.buckets = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1};
    }
    metric("cache.evictions", telemetry::Kind::Counter,
           telemetry::Unit::Count)
        .value = 0; // elided: zero-valued
    metric("executor.queue_depth", telemetry::Kind::Gauge,
           telemetry::Unit::Count)
        .gauge = 4; // elided: gauge
    {
        telemetry::SnapshotMetric &h =
            metric("executor.task_nanos", telemetry::Kind::Histogram,
                   telemetry::Unit::Nanos);
        h.count = 7; // elided: wall time
        h.sum = 123456;
        h.buckets = {0, 0, 0, 1, 6};
    }
    metric("store.retries", telemetry::Kind::Counter,
           telemetry::Unit::Count)
        .value = 3;

    ActivityStudyResult act;
    act.encoding = sig::Encoding::Ext3;
    act.rows = {{"alpha", makeActivity(10000)},
                {"beta", makeActivity(20000)}};
    rep.activity.push_back(act);

    CpiStudyResult cpi;
    cpi.designs = {Design::Baseline32, Design::ByteSerial};
    cpi.benchmarks = {"alpha", "beta"};
    cpi.results = {
        {makeResult(1000, 1250, 30000), makeResult(1000, 1750, 31000)},
        {makeResult(2000, 2500, 32000), makeResult(2000, 3500, 33000)},
    };
    rep.cpi.push_back(cpi);

    EnergyStudyResult en;
    en.design = Design::ByteSerial;
    en.encoding = sig::Encoding::Ext3;
    en.tech = power::TechParams{};
    pipeline::ActivityTotals sum;
    for (Count seed : {Count{40000}, Count{50000}}) {
        const pipeline::ActivityTotals a = makeActivity(seed);
        analysis::EnergyRow row;
        row.benchmark = seed == 40000 ? "alpha" : "beta";
        row.instructions = seed / 40;
        row.report = power::buildEnergyReport(a, en.tech);
        en.rows.push_back(row);
        sum += a;
    }
    en.total = power::buildEnergyReport(sum, en.tech);
    rep.energy.push_back(en);
    return rep;
}

TEST(SuiteReportGolden, SyntheticReportMatchesByteForByte)
{
    expectMatchesGolden(makeSyntheticReport().toJson(),
                        "suite_report_synthetic.json");
}

TEST(SuiteReportGolden, RealRunMatchesByteForByte)
{
    // Serial, capped, private cache: every field except wall-clock
    // is a deterministic function of the two traces.
    Session session(SessionConfig{.threads = 1, .captureLimit = 4000});
    // Named local: gcc-12 -O2 trips -Wmaybe-uninitialized on a
    // braced temporary passed through the builder chain.
    pipeline::PipelineConfig cfg;
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial}, cfg)
        .activity(sig::Encoding::Ext3)
        .energy(power::TechParams{}, Design::ByteSerial,
                sig::Encoding::Ext3);
    SuiteReport rep = session.run(plan);
    rep.wallMs = 0.0; // the only legitimately varying field
    expectMatchesGolden(rep.toJson(), "suite_report_run.json");
}

TEST(SuiteReportGolden, SchemaStringIsPinned)
{
    // The schema id itself is part of the contract: a renamed or
    // re-versioned schema must be a deliberate act (README, goldens
    // and sigcomp_lint's README cross-check all move together).
    const std::string json = makeSyntheticReport().toJson();
    EXPECT_NE(json.find("\"schema\": \"sigcomp-suite-report-v4\""),
              std::string::npos);
}

} // namespace
} // namespace sigcomp
