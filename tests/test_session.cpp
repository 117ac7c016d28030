/**
 * @file
 * Session + StudyPlan API tests: the fused plan executes exactly one
 * replay pass per workload trace while staying bit-identical to
 * running each study as its own plan at every thread count, isolated
 * Sessions don't cross-talk, ad-hoc workloads work, the SessionConfig
 * edge cases are well-defined, and the SuiteReport serializes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "common/telemetry.h"
#include "isa/assembler.h"
#include "store/trace_store.h"
#include "tests/scratch_dir.h"
#include "tests/live_oracle.h"
#include "workloads/workload.h"

namespace sigcomp
{
namespace
{

namespace fs = std::filesystem;

using analysis::Session;
using analysis::SessionConfig;
using analysis::StudyPlan;
using analysis::SuiteReport;
using pipeline::Design;

/** Fresh per-test directory under the gtest temp root. */
class SessionStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = test::scratchDir(std::string("sigcomp-session-") +
                                info->name());
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    dir(const char *suffix = "") const
    {
        std::string s = dir_.string();
        s.append(suffix);
        return s;
    }

    fs::path dir_;
};

// ---- the fused-pass acceptance property ------------------------------

TEST(SessionFused, OneReplayPassFeedsEveryStudy)
{
    // activity + CPI over the full design space + three profilers,
    // all registered on one plan: each workload must be captured
    // once and replayed exactly once.
    Session session;
    analysis::PatternProfiler pat;
    analysis::InstrMixProfiler mix;
    analysis::PcProfiler pc;
    StudyPlan plan;
    plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .profile({&pat, &mix, &pc});
    const SuiteReport rep = session.run(plan);

    const std::size_t n = workloads::Suite::names().size();
    EXPECT_EQ(rep.workloads.size(), n);
    EXPECT_EQ(rep.captures, n);
    EXPECT_EQ(rep.replayPasses, n) << "one fused pass per trace";
    for (const std::string &name : workloads::Suite::names()) {
        EXPECT_EQ(session.trace(name)->replayCount(), 1u) << name;
    }

    // Rows and totals must be bit-identical to the same three
    // studies run as one serial plan each on a separate session.
    Session ref({.threads = 1});
    const auto one_act =
        ref.run(StudyPlan().activity(sig::Encoding::Ext3)).activity;
    const auto one_cpi = ref.run(StudyPlan().cpi(pipeline::allDesigns(),
                                                 analysis::suiteConfig()))
                             .cpi;
    analysis::PatternProfiler lpat;
    analysis::InstrMixProfiler lmix;
    analysis::PcProfiler lpc;
    ref.run(StudyPlan().profile({&lpat, &lmix, &lpc}));

    ASSERT_EQ(rep.activity.size(), 1u);
    live::expectSameRows(rep.activity[0].rows, one_act.front().rows);
    ASSERT_EQ(rep.cpi.size(), 1u);
    live::expectSameRows(rep.cpi[0].rows(), one_cpi.front().rows());
    EXPECT_EQ(pat.patterns().raw(), lpat.patterns().raw());
    EXPECT_EQ(mix.functFreq().raw(), lmix.functFreq().raw());
    EXPECT_EQ(mix.meanFetchBytes(), lmix.meanFetchBytes());
    for (unsigned b = 1; b <= 8; ++b) {
        EXPECT_EQ(pc.forBlockBits(b).activityBits(),
                  lpc.forBlockBits(b).activityBits());
        EXPECT_EQ(pc.forBlockBits(b).cycles(),
                  lpc.forBlockBits(b).cycles());
    }
}

class SessionThreads : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionThreads, FusedPlanIsThreadCountInvariant)
{
    // A pipelines-only plan fans whole workloads across the
    // executor; a plan with profilers replays serially after a
    // parallel prewarm. Either way every row must be bit-identical
    // to the serial reference.
    const unsigned threads = GetParam();
    static const SuiteReport reference = [] {
        Session s(SessionConfig{.threads = 1});
        StudyPlan plan;
        plan.cpi({Design::Baseline32, Design::ByteSerial,
                  Design::SkewedBypass},
                 analysis::suiteConfig())
            .activity(sig::Encoding::Ext2);
        return s.run(plan);
    }();

    Session session(SessionConfig{.threads = threads});
    analysis::PatternProfiler pat;
    StudyPlan plan;
    plan.cpi({Design::Baseline32, Design::ByteSerial,
              Design::SkewedBypass},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext2)
        .profile({&pat});
    const SuiteReport rep = session.run(plan);

    EXPECT_EQ(rep.replayPasses, rep.workloads.size());
    SCOPED_TRACE(threads);
    live::expectSameRows(rep.cpi[0].rows(), reference.cpi[0].rows());
    live::expectSameRows(rep.activity[0].rows, reference.activity[0].rows);
    EXPECT_GT(pat.patterns().total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionThreads,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

// ---- section-5 width points ------------------------------------------

/** A CPI study's width-point list (the StageWidths cpi() overload). */
std::vector<pipeline::StageWidths>
points(std::initializer_list<pipeline::StageWidths> w)
{
    return w;
}

class SessionWidths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionWidths, NamedSerialDesignsAreWidthPoints)
{
    // Byte-serial is the 3/1/1/1 point and semi-parallel the 3/2/2/1
    // point of one model: in one plan, on every suite workload, the
    // width points reproduce the named designs' full results (only
    // the name differs), riding the same single fused pass.
    Session session(SessionConfig{.threads = GetParam()});
    StudyPlan plan;
    plan.cpi({Design::ByteSerial, Design::ByteSemiParallel},
             analysis::suiteConfig())
        .cpi(points({pipeline::kSerialWidths,
                     pipeline::kSemiParallelWidths}),
             analysis::suiteConfig());
    const SuiteReport rep = session.run(plan);

    EXPECT_EQ(rep.replayPasses, rep.workloads.size());
    ASSERT_EQ(rep.cpi.size(), 2u);
    const analysis::CpiStudyResult &named = rep.cpi[0];
    const analysis::CpiStudyResult &widths = rep.cpi[1];
    ASSERT_EQ(widths.benchmarks, workloads::Suite::names());
    ASSERT_EQ(widths.columns(), 2u);
    EXPECT_EQ(widths.columnName(0), "serial-3/1/1/1");
    EXPECT_EQ(widths.columnName(1), "serial-3/2/2/1");
    for (std::size_t w = 0; w < widths.benchmarks.size(); ++w) {
        SCOPED_TRACE(widths.benchmarks[w]);
        for (std::size_t c = 0; c < 2; ++c) {
            pipeline::PipelineResult r = widths.results[w][c];
            EXPECT_EQ(r.name, widths.columnName(c));
            r.name = named.results[w][c].name;
            live::expectSameResult(r, named.results[w][c]);
        }
    }
    EXPECT_EQ(widths.columnGeomeanCpi(0),
              named.geomeanCpi(Design::ByteSerial));
    EXPECT_EQ(widths.columnGeomeanCpi(1),
              named.geomeanCpi(Design::ByteSemiParallel));
}

TEST_P(SessionWidths, WidthPointsKeepTheirOwnResultMemos)
{
    // Two width points with one config share a quanta key but not a
    // `result:` memo key (their names differ): a later plan over the
    // second point must replay, not adopt the first point's result.
    const std::vector<std::string> one = {"rawcaudio"};
    const pipeline::PipelineConfig cfg = analysis::suiteConfig();
    Session session(SessionConfig{.threads = GetParam()});
    const SuiteReport serial = session.run(
        StudyPlan().cpi(points({pipeline::kSerialWidths}), cfg).workloads(one));
    const SuiteReport semi = session.run(
        StudyPlan()
            .cpi(points({pipeline::kSemiParallelWidths}), cfg)
            .workloads(one));
    EXPECT_EQ(semi.replayPasses, 1u) << "adopted another point's memo";
    EXPECT_NE(semi.cpi[0].results[0][0].cycles,
              serial.cpi[0].results[0][0].cycles);

    Session fresh(SessionConfig{.threads = 1});
    const SuiteReport reference = fresh.run(
        StudyPlan()
            .cpi(points({pipeline::kSemiParallelWidths}), cfg)
            .workloads(one));
    live::expectSameResult(semi.cpi[0].results[0][0],
                           reference.cpi[0].results[0][0]);

    // A repeat of a point is answered from its own memo.
    const SuiteReport again = session.run(
        StudyPlan().cpi(points({pipeline::kSerialWidths}), cfg).workloads(one));
    EXPECT_EQ(again.replayPasses, 0u);
    live::expectSameResult(again.cpi[0].results[0][0],
                           serial.cpi[0].results[0][0]);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionWidths,
                         ::testing::Values(1u, 4u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

// ---- isolation -------------------------------------------------------

TEST_F(SessionStoreTest, ConcurrentSessionsDontCrossTalk)
{
    // Two sessions with different stores, budgets and capture
    // limits, run concurrently: each sees only its own state.
    SessionConfig c1;
    c1.threads = 2;
    c1.storeDir = dir("/a");
    c1.captureLimit = 2000;
    SessionConfig c2;
    c2.threads = 2;
    c2.storeDir = dir("/b");
    c2.captureLimit = 3000;
    Session s1(c1), s2(c2);

    const std::vector<std::string> names = {"rawcaudio", "epic"};
    std::thread t1([&] {
        analysis::InstrMixProfiler mix;
        StudyPlan plan;
        plan.profile({&mix}).workloads(names);
        s1.run(plan);
    });
    std::thread t2([&] {
        analysis::InstrMixProfiler mix;
        StudyPlan plan;
        plan.profile({&mix}).workloads(names);
        s2.run(plan);
    });
    t1.join();
    t2.join();

    EXPECT_EQ(s1.cache().captures(), names.size());
    EXPECT_EQ(s2.cache().captures(), names.size());
    for (const std::string &name : names) {
        EXPECT_EQ(s1.trace(name)->size(), 2000u) << name;
        EXPECT_EQ(s2.trace(name)->size(), 3000u) << name;
    }
    // Each store holds its own segments, keyed by its own limit.
    const store::TraceStore ts1(dir("/a"), true);
    const store::TraceStore ts2(dir("/b"), true);
    for (const std::string &name : names) {
        store::SegmentInfo i1, i2;
        ASSERT_TRUE(ts1.info(name, i1)) << name;
        ASSERT_TRUE(ts2.info(name, i2)) << name;
        EXPECT_EQ(i1.captureLimit, 2000u);
        EXPECT_EQ(i2.captureLimit, 3000u);
    }
}

TEST_F(SessionStoreTest, WarmStoreSessionSkipsCaptureAndComputeQuanta)
{
    const std::string wl = "rawdaudio";
    // First session: capture, study, and (via the post-pass annex
    // write-back) persist the derived SharedQuanta.
    {
        Session s1(SessionConfig{.storeDir = dir()});
        StudyPlan plan;
        plan.workloads({wl}).cpi(
            {Design::Baseline32, Design::ByteSerial},
            analysis::suiteConfig());
        const SuiteReport rep = s1.run(plan);
        EXPECT_EQ(rep.captures, 1u);
    }
    // Second session, cold RAM: the segment must supply the trace
    // AND the quanta record.
    Session s2(SessionConfig{.storeDir = dir()});
    StudyPlan plan;
    plan.workloads({wl}).cpi({Design::Baseline32, Design::ByteSerial},
                             analysis::suiteConfig());
    const SuiteReport rep = s2.run(plan);
    EXPECT_EQ(rep.captures, 0u) << "trace must come from the store";
    EXPECT_EQ(rep.storeLoads, 1u);
    EXPECT_FALSE(s2.trace(wl)->annexKeys("quanta:").empty())
        << "warm load must restore the persisted quanta records";
}

// ---- edge cases (SessionConfig) --------------------------------------

using SessionDeathTest = SessionStoreTest;

TEST_F(SessionDeathTest, ReadOnlyWithoutStoreDirIsFatal)
{
    SessionConfig cfg;
    cfg.readOnly = true;
    EXPECT_DEATH({ Session session(cfg); },
                 "readOnly requires storeDir");
}

// ---- ad-hoc workloads, energy, report ---------------------------------

TEST(SessionAdHoc, RegisteredProgramRunsLikeASuiteWorkload)
{
    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::t0, 40);
    a.li(reg::t1, 2);
    a.addu(reg::a0, reg::t0, reg::t1);
    a.li(reg::a1, 42);
    a.assertEq();
    a.exitProgram();

    Session session;
    session.addWorkload("answer", a.finish("answer"));
    StudyPlan plan;
    plan.workloads({"answer"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig());
    const SuiteReport rep = session.run(plan);
    ASSERT_EQ(rep.cpi.size(), 1u);
    ASSERT_EQ(rep.cpi[0].results.size(), 1u);
    EXPECT_EQ(rep.workloads, std::vector<std::string>{"answer"});
    EXPECT_GT(rep.cpi[0].results[0][0].instructions, 0u);
    EXPECT_GE(rep.cpi[0].results[0][1].cycles,
              rep.cpi[0].results[0][0].cycles);
    EXPECT_EQ(session.trace("answer")->replayCount(), 1u);
}

TEST_F(SessionStoreTest, RegisteredProgramsNeverTouchTheStore)
{
    // An ad-hoc program shadowing a suite workload's name is
    // session-local: it must neither clobber that workload's shared
    // segment nor be satisfied by it.
    {
        Session suite_session(SessionConfig{.storeDir = dir()});
        suite_session.trace("rawcaudio"); // writes the real segment
    }
    const store::TraceStore ts(dir(), /*read_only=*/true);
    store::SegmentInfo before;
    ASSERT_TRUE(ts.info("rawcaudio", before));

    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::a0, 1);
    a.li(reg::a1, 1);
    a.assertEq();
    a.exitProgram();

    Session session(SessionConfig{.storeDir = dir()});
    session.addWorkload("rawcaudio", a.finish("shadow"));
    const auto trace = session.trace("rawcaudio");
    EXPECT_EQ(session.cache().captures(), 1u)
        << "must capture the registered program, not load the segment";
    EXPECT_EQ(session.cache().storeLoads(), 0u);
    EXPECT_LT(trace->size(), 100u);

    // A study (which write-backs annexes) must not persist it either.
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig());
    session.run(plan);
    store::SegmentInfo after;
    ASSERT_TRUE(ts.info("rawcaudio", after));
    EXPECT_EQ(after.instructions, before.instructions)
        << "shared segment clobbered by a session-local program";
    EXPECT_TRUE(ts.verify("rawcaudio", nullptr));
}

TEST(SessionEnergy, EnergyStudyMatchesDirectModel)
{
    Session session;
    const power::TechParams tech;
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .energy(tech, Design::ByteSerial, sig::Encoding::Ext3);
    const SuiteReport rep = session.run(plan);

    ASSERT_EQ(rep.energy.size(), 1u);
    const analysis::EnergyRow &row = rep.energy[0].rows.front();
    // The energy study rides the same pass: its report must equal
    // the model applied to the CPI study's activity for the same
    // design and configuration.
    const power::EnergyReport direct = power::buildEnergyReport(
        rep.cpi[0].results[0][0].activity, tech);
    EXPECT_EQ(row.report.totalCompressedPj, direct.totalCompressedPj);
    EXPECT_EQ(row.report.totalBaselinePj, direct.totalBaselinePj);
    EXPECT_EQ(rep.energy[0].total.totalCompressedPj,
              direct.totalCompressedPj);
    // Still one fused pass despite three registered studies.
    EXPECT_EQ(rep.replayPasses, 1u);
}

TEST(SessionReport, JsonSerializesEveryStudySection)
{
    Session session;
    analysis::PatternProfiler pat;
    StudyPlan plan;
    plan.workloads({"rawcaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .energy()
        .profile({&pat});
    const SuiteReport rep = session.run(plan);

    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"schema\": \"sigcomp-suite-report-v4\""),
              std::string::npos);
    // v4: the health line carries the request-lifecycle outcome.
    EXPECT_NE(json.find("\"cancelled\": false"), std::string::npos);
    EXPECT_NE(json.find("\"deadline_exceeded\": false"),
              std::string::npos);
    EXPECT_NE(json.find("\"rejected\": false"), std::string::npos);
    EXPECT_NE(json.find("\"workloads\": [\"rawcaudio\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"replay_passes\": 1"), std::string::npos);
    // v3: the run's metrics delta rides along as a telemetry block.
    EXPECT_NE(json.find("\"telemetry\": {\"counters\": {"),
              std::string::npos);
    EXPECT_NE(json.find("\"cache.captures\": "), std::string::npos);
    EXPECT_NE(json.find("\"byte-serial\""), std::string::npos);
    EXPECT_NE(json.find("\"encoding\": \"ext3\""), std::string::npos);
    EXPECT_NE(json.find("\"saving\""), std::string::npos);
    EXPECT_NE(json.find("\"compressed_pj\""), std::string::npos);
    EXPECT_NE(json.find("\"profile_sinks\": 1"), std::string::npos);
    // Balanced braces/brackets — cheap structural sanity.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(SessionEdge, EmptyPlanTouchesNothing)
{
    Session session;
    const SuiteReport rep = session.run(StudyPlan{});
    EXPECT_EQ(rep.captures, 0u);
    EXPECT_EQ(rep.replayPasses, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    EXPECT_EQ(rep.instructions, 0u);
}

// ---- request lifecycle: deadlines, cancellation, admission -----------

/**
 * Report bytes with the run-shape lines stripped: "threads" names the
 * executor width under test, and the engine/telemetry lines count
 * work the executor sees (queued-then-skipped tasks differ by thread
 * count on a stopped run). Everything else — every study row and the
 * health outcome — must be bit-identical.
 */
std::string
lifecycleBytes(const SuiteReport &rep)
{
    const std::string json = rep.toJson();
    std::string kept;
    std::size_t start = 0;
    while (start < json.size()) {
        std::size_t end = json.find('\n', start);
        if (end == std::string::npos)
            end = json.size();
        const std::string_view line(json.data() + start, end - start);
        if (line.find("\"threads\"") == std::string_view::npos &&
            line.find("\"engine\"") == std::string_view::npos &&
            line.find("\"telemetry\"") == std::string_view::npos) {
            kept.append(line);
            kept.push_back('\n');
        }
        start = end + 1;
    }
    return kept;
}

/** One representative plan for the stopped-run tests. */
StudyPlan
lifecyclePlan()
{
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .activity(sig::Encoding::Ext3);
    return plan;
}

class SessionDeadline : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionDeadline, PreExpiredDeadlineIsDeterministicAtAnyWidth)
{
    // deadlineMs(0) is "already expired": the run must cost no
    // engine work and assemble the SAME empty partial report at
    // every thread count — the deterministic floor of the
    // partial-result contract.
    static const std::string reference = [] {
        Session s(SessionConfig{.threads = 1});
        const SuiteReport rep = s.run(lifecyclePlan().deadlineMs(0));
        return lifecycleBytes(rep);
    }();

    Session session(SessionConfig{.threads = GetParam()});
    const SuiteReport rep = session.run(lifecyclePlan().deadlineMs(0));

    EXPECT_TRUE(rep.deadlineExceeded);
    EXPECT_FALSE(rep.cancelled);
    EXPECT_FALSE(rep.rejected);
    EXPECT_EQ(rep.captures, 0u) << "no engine work on an expired plan";
    EXPECT_EQ(rep.replayPasses, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    // The requested coverage is still reported; the rows are empty.
    EXPECT_EQ(rep.workloads.size(), 2u);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());
    ASSERT_EQ(rep.activity.size(), 1u);
    EXPECT_TRUE(rep.activity[0].rows.empty());
    EXPECT_EQ(lifecycleBytes(rep), reference)
        << "stopped-run bytes must not depend on the thread count";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionDeadline,
                         ::testing::Values(1u, 4u, 8u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(SessionLifecycle, PreFiredTokenYieldsCancelledEmptyPartial)
{
    CancelSource source;
    source.cancel();
    Session session(SessionConfig{.threads = 1});
    const SuiteReport rep =
        session.run(lifecyclePlan().cancel(source.token()));
    EXPECT_TRUE(rep.cancelled);
    EXPECT_FALSE(rep.deadlineExceeded)
        << "an explicit cancel wins over any deadline";
    EXPECT_EQ(rep.captures, 0u);
    EXPECT_EQ(session.cache().captures(), 0u);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());
}

/**
 * Fires its CancelSource during retireBlock() once it has seen
 * @p cancelAt blocks, then counts every block it is still shown:
 * the replay loop polls the token at block boundaries, so the count
 * after the trigger bounds the stop latency in blocks.
 */
class CancellingSink : public cpu::TraceSink
{
  public:
    CancellingSink(CancelSource *source, std::size_t cancelAt)
        : source_(source), cancelAt_(cancelAt)
    {}

    void
    retire(const cpu::DynInstr &) override
    {}

    void
    retireBlock(std::span<const cpu::DynInstr>) override
    {
        ++blocks_;
        if (blocks_ == cancelAt_)
            source_->cancel();
        else if (blocks_ > cancelAt_)
            ++blocksAfterCancel_;
    }

    std::size_t blocksAfterCancel() const { return blocksAfterCancel_; }

  private:
    CancelSource *source_;
    std::size_t cancelAt_;
    std::size_t blocks_ = 0;
    std::size_t blocksAfterCancel_ = 0;
};

TEST(SessionLifecycle, CancelMidRunStopsAtBlockBoundaryWithExactRows)
{
    // 3000-instruction captures are 3 replay blocks each. The sink
    // cancels on the FIRST block of the second workload: the first
    // workload's row must survive bit-identical, the second must
    // vanish entirely (no partial numbers), the third must never
    // start, and the replay must stop within one block.
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 3000;
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};

    Session reference_session(cfg);
    StudyPlan reference;
    reference.workloads(names).cpi({Design::Baseline32, Design::ByteSerial},
                                   analysis::suiteConfig());
    const SuiteReport full = reference_session.run(reference);
    ASSERT_EQ(full.cpi[0].benchmarks.size(), 3u);

    Session session(cfg);
    CancelSource source;
    CancellingSink sink(&source, /*cancelAt=*/4); // wl0: 3 blocks
    StudyPlan plan;
    plan.workloads(names)
        .cpi({Design::Baseline32, Design::ByteSerial},
             analysis::suiteConfig())
        .profile({&sink})
        .cancel(source.token());
    const SuiteReport rep = session.run(plan);

    EXPECT_TRUE(rep.cancelled);
    EXPECT_LE(sink.blocksAfterCancel(), 1u)
        << "replay must stop at the next block boundary";
    ASSERT_EQ(rep.cpi.size(), 1u);
    ASSERT_EQ(rep.cpi[0].benchmarks,
              std::vector<std::string>{"rawcaudio"});
    // The surviving row is the exact full-pass result.
    const auto got = rep.cpi[0].rows();
    const auto want = full.cpi[0].rows();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].benchmark, "rawcaudio");
    EXPECT_EQ(want[0].benchmark, "rawcaudio");
    EXPECT_TRUE(got[0].cpi == want[0].cpi);
    EXPECT_TRUE(got[0].stalls == want[0].stalls);
    // Only the second workload's capture was wasted; the third never
    // started.
    EXPECT_EQ(rep.captures, 2u);
    EXPECT_EQ(rep.replayPasses, 1u);
}

TEST_F(SessionStoreTest, CancelledRunLeavesStoreClean)
{
    // A cancellation arriving mid-plan must leave every written
    // segment bit-valid: the durable-save discipline means a cancel
    // can only stop saves from HAPPENING, never truncate one.
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.storeDir = dir();
    cfg.captureLimit = 3000;
    Session session(cfg);
    CancelSource source;
    CancellingSink sink(&source, /*cancelAt=*/4);
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio", "epic"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .profile({&sink})
        .cancel(source.token());
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.cancelled);

    // The doctor's checks, via the library: every segment verifies,
    // nothing was quarantined, no orphan temps were left behind.
    store::TraceStore ts(dir(), /*read_only=*/false);
    const std::vector<std::string> segments = ts.list();
    EXPECT_FALSE(segments.empty());
    for (const std::string &name : segments)
        EXPECT_TRUE(ts.verify(name, nullptr)) << name;
    EXPECT_TRUE(ts.quarantined().empty());
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u)
        << "a cancelled run must not leave temp files";

    // And a fresh session loads them without repair work.
    Session warm(cfg);
    StudyPlan replayed;
    replayed.workloads({"rawcaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig());
    const SuiteReport again = warm.run(replayed);
    EXPECT_EQ(again.captures, 0u);
    EXPECT_EQ(again.storeLoads, 1u);
    EXPECT_EQ(again.storeLoadFailures, 0u);
}

TEST_F(SessionStoreTest, MidRunDeadlineLeavesStoreClean)
{
    // Same invariant under a wall-clock deadline, which can land in
    // ANY phase (capture, save, replay): wherever it strikes, the
    // store must come out consistent.
    SessionConfig cfg;
    cfg.threads = 2;
    cfg.storeDir = dir();
    Session session(cfg);
    StudyPlan plan;
    plan.cpi({Design::ByteSerial}, analysis::suiteConfig())
        .deadlineMs(25);
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.deadlineExceeded || rep.cpi[0].benchmarks.size() ==
                                            rep.workloads.size());

    store::TraceStore ts(dir(), /*read_only=*/false);
    for (const std::string &name : ts.list())
        EXPECT_TRUE(ts.verify(name, nullptr)) << name;
    EXPECT_TRUE(ts.quarantined().empty());
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u);
}

/** Blocks inside its first retireBlock() until released. */
class BlockingSink : public cpu::TraceSink
{
  public:
    void
    retire(const cpu::DynInstr &) override
    {}

    void
    retireBlock(std::span<const cpu::DynInstr>) override
    {
        if (!entered_.exchange(true)) {
            started_.set_value();
            release_.get_future().wait();
        }
    }

    /** Resolves once the owning plan is replaying (slot held). */
    void waitUntilRunning() { started_.get_future().wait(); }

    void release() { release_.set_value(); }

  private:
    std::atomic<bool> entered_{false};
    std::promise<void> started_;
    std::promise<void> release_;
};

/** Records, at its first block, whether @p workload is cached. */
class ResidencyProbe : public cpu::TraceSink
{
  public:
    ResidencyProbe(const analysis::TraceCache &cache, std::string workload)
        : cache_(cache), workload_(std::move(workload))
    {}

    void
    retire(const cpu::DynInstr &) override
    {}

    void
    retireBlock(std::span<const cpu::DynInstr>) override
    {
        if (!probed_) {
            probed_ = true;
            cachedAtFirstBlock_ = cache_.contains(workload_);
        }
    }

    bool probed() const { return probed_; }
    bool cachedAtFirstBlock() const { return cachedAtFirstBlock_; }

  private:
    const analysis::TraceCache &cache_;
    std::string workload_;
    bool probed_ = false;
    bool cachedAtFirstBlock_ = false;
};

TEST(SessionEvict, EvictingPlanFetchesEachTraceOnlyWhenItReplays)
{
    // With a profiler sink the plan replays serially in workload
    // order, so while the first workload replays an evicting plan
    // must not have loaded the last one yet.
    Session session(SessionConfig{.threads = 2, .captureLimit = 3000});
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};
    ResidencyProbe probe(session.cache(), names.back());
    StudyPlan plan;
    plan.profile({&probe}).workloads(names).evictAfterReplay();
    session.run(plan);
    ASSERT_TRUE(probe.probed());
    EXPECT_FALSE(probe.cachedAtFirstBlock())
        << "an evicting plan must not prewarm every trace";
    EXPECT_EQ(session.cache().memoryBytes(), 0u);
}

TEST(SessionAdmission, AtCapacityRejectsWhenQueueIsFull)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 0;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker});
        const SuiteReport rep = session.run(plan);
        EXPECT_FALSE(rep.rejected);
    });
    blocker.waitUntilRunning(); // the slot is now provably held

    StudyPlan plan;
    plan.workloads({"rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig());
    const SuiteReport rep = session.run(plan);
    EXPECT_TRUE(rep.rejected);
    EXPECT_NE(rep.rejectReason.find("capacity"), std::string::npos)
        << rep.rejectReason;
    EXPECT_FALSE(rep.cancelled);
    EXPECT_FALSE(session.cache().contains("rawdaudio")) << "no engine work";
    EXPECT_EQ(rep.workloads.size(), 1u) << "coverage still reported";
    EXPECT_TRUE(rep.cpi.empty() || rep.cpi[0].benchmarks.empty());
    EXPECT_NE(rep.toJson().find("\"rejected\": true"), std::string::npos);
    EXPECT_EQ(session.cache()
                  .metrics()
                  .counter("session.plans_rejected")
                  .value(),
              1u);

    blocker.release();
    holder.join();
    EXPECT_EQ(session.cache()
                  .metrics()
                  .counter("session.plans_admitted")
                  .value(),
              1u)
        << "only the holder was ever admitted";
}

TEST(SessionAdmission, QueuedPlanDeadlineExpiresIntoEmptyPartial)
{
    // A deadline that runs out IN the queue is an outcome for the
    // caller, not a rejection: they asked for time, not for a place
    // in line.
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 4;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker});
        session.run(plan);
    });
    blocker.waitUntilRunning();

    StudyPlan plan;
    plan.workloads({"rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .deadlineMs(30);
    const SuiteReport rep = session.run(plan);
    EXPECT_FALSE(rep.rejected);
    EXPECT_TRUE(rep.deadlineExceeded);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty());

    blocker.release();
    holder.join();
}

TEST(SessionAdmission, QueuedPlanRunsWhenTheSlotFrees)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 4;
    Session session(cfg);

    BlockingSink blocker;
    std::thread holder([&] {
        StudyPlan plan;
        plan.workloads({"rawcaudio"}).profile({&blocker});
        session.run(plan);
    });
    blocker.waitUntilRunning();

    std::thread queued([&] {
        StudyPlan plan;
        plan.workloads({"rawdaudio"})
            .cpi({Design::ByteSerial}, analysis::suiteConfig());
        const SuiteReport rep = session.run(plan);
        EXPECT_FALSE(rep.rejected);
        ASSERT_EQ(rep.cpi.size(), 1u);
        EXPECT_EQ(rep.cpi[0].benchmarks.size(), 1u)
            << "a queued plan must run to completion once admitted";
    });
    // Let the queued plan reach the wait loop, then free the slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    blocker.release();
    holder.join();
    queued.join();
}

TEST(SessionAdmission, SessionsOnOneCacheSumTheirAdmissionTelemetry)
{
    // Admission limits stay per Session, but the telemetry lives in
    // the shared cache's namespace: the gauge counts the plans queued
    // in every Session on it, the counters every admission.
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 2000;
    cfg.maxConcurrentPlans = 1;
    cfg.maxQueuedPlans = 4;
    auto cache = std::make_shared<analysis::TraceCache>(
        analysis::traceCacheConfig(cfg));
    Session first(cfg, cache);
    Session second(cfg, cache);
    ASSERT_EQ(&first.cache(), &second.cache());
    telemetry::Gauge &depth =
        cache->metrics().gauge("session.admission_queue_depth");

    BlockingSink blockers[2];
    std::vector<std::thread> threads;
    Session *sessions[] = {&first, &second};
    for (int s = 0; s < 2; ++s) {
        threads.emplace_back([&, s] {
            StudyPlan plan;
            plan.workloads({"rawcaudio"}).profile({&blockers[s]});
            EXPECT_FALSE(sessions[s]->run(plan).rejected);
        });
        blockers[s].waitUntilRunning(); // s's slot is held
    }
    for (int s = 0; s < 2; ++s) {
        threads.emplace_back([&, s] {
            StudyPlan plan;
            plan.workloads({"rawdaudio"})
                .cpi({Design::ByteSerial}, analysis::suiteConfig());
            EXPECT_FALSE(sessions[s]->run(plan).rejected);
        });
    }
    for (int i = 0; i < 5000 && depth.value() != 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(depth.value(), 2) << "one plan queued in each session";

    for (BlockingSink &b : blockers)
        b.release();
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(depth.value(), 0);
    EXPECT_EQ(cache->metrics().counter("session.plans_admitted").value(),
              4u);
    EXPECT_EQ(cache->metrics().counter("session.plans_rejected").value(),
              0u);
}

// ---- memo-answered workloads run on the calling thread ---------------

/**
 * Report bytes with wall_ms and replay_passes zeroed: a plan's first
 * run replays, its repeat adopts every result memo instead, and
 * nothing else in the report may tell the two apart.
 */
std::string
memoBytes(SuiteReport rep)
{
    rep.wallMs = 0.0;
    rep.replayPasses = 0;
    return rep.toJson();
}

/** executor.task_nanos samples so far: one per executor task run. */
std::uint64_t
executorTasks()
{
    return telemetry::Registry::process().snapshot().value(
        "executor.task_nanos");
}

class SessionMemo : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SessionMemo, MemoAnsweredPlanMatchesTheReplayingRun)
{
    Session session(SessionConfig{.threads = GetParam()});
    session.prewarm({"rawcaudio", "rawdaudio"});

    const std::uint64_t tasks0 = executorTasks();
    const SuiteReport first = session.run(lifecyclePlan());
    const std::uint64_t tasks1 = executorTasks();
    const SuiteReport memo = session.run(lifecyclePlan());
    const std::uint64_t tasks2 = executorTasks();

    EXPECT_EQ(first.replayPasses, 2u);
    EXPECT_EQ(memo.replayPasses, 0u);
    EXPECT_EQ(memo.captures + memo.storeLoads, 0u);
    EXPECT_EQ(memoBytes(memo), memoBytes(first));
    EXPECT_EQ(tasks2, tasks1)
        << "a fully memo-answered plan must not wake the executor";
    if (telemetry::enabled() && GetParam() > 1) {
        EXPECT_GT(tasks1, tasks0) << "the probe missed a replay fan-out";
    }
}

/**
 * Every study row of @p got equals @p want's field for field (the
 * doubles of energy rows bit for bit), and so do their report bytes.
 */
void
expectSameStudies(const SuiteReport &got, const SuiteReport &want)
{
    ASSERT_EQ(got.cpi.size(), want.cpi.size());
    for (std::size_t s = 0; s < got.cpi.size(); ++s) {
        const analysis::CpiStudyResult &g = got.cpi[s];
        const analysis::CpiStudyResult &w = want.cpi[s];
        ASSERT_EQ(g.results.size(), w.results.size());
        for (std::size_t r = 0; r < g.results.size(); ++r) {
            ASSERT_EQ(g.results[r].size(), w.results[r].size());
            for (std::size_t c = 0; c < g.results[r].size(); ++c)
                live::expectSameResult(g.results[r][c], w.results[r][c]);
        }
    }
    ASSERT_EQ(got.activity.size(), want.activity.size());
    for (std::size_t s = 0; s < got.activity.size(); ++s)
        live::expectSameRows(got.activity[s].rows, want.activity[s].rows);
    ASSERT_EQ(got.energy.size(), want.energy.size());
    for (std::size_t s = 0; s < got.energy.size(); ++s) {
        const analysis::EnergyStudyResult &g = got.energy[s];
        const analysis::EnergyStudyResult &w = want.energy[s];
        ASSERT_EQ(g.rows.size(), w.rows.size());
        for (std::size_t r = 0; r < g.rows.size(); ++r) {
            EXPECT_EQ(g.rows[r].instructions, w.rows[r].instructions);
            EXPECT_EQ(g.rows[r].report.totalCompressedPj,
                      w.rows[r].report.totalCompressedPj);
            EXPECT_EQ(g.rows[r].report.totalBaselinePj,
                      w.rows[r].report.totalBaselinePj);
        }
    }
    EXPECT_EQ(lifecycleBytes(got), lifecycleBytes(want));
}

TEST_P(SessionMemo, MemoRowsEqualAReplayingSessionsRows)
{
    StudyPlan plan = lifecyclePlan();
    plan.energy(power::TechParams{}, Design::SkewedBypass,
                sig::Encoding::Ext2);
    Session session(SessionConfig{.threads = GetParam()});
    session.run(plan);
    const SuiteReport memo = session.run(plan);

    EXPECT_EQ(memo.replayPasses, 0u);
    EXPECT_EQ(memo.captures, 0u);
    EXPECT_EQ(memo.storeLoads, 0u);
    for (const char *name : {"rawcaudio", "rawdaudio"}) {
        EXPECT_EQ(session.trace(name)->replayCount(), 1u) << name;
    }
    Session replaying(SessionConfig{.threads = 1});
    const SuiteReport want = replaying.run(plan);
    EXPECT_EQ(want.replayPasses, 2u);
    expectSameStudies(memo, want);
}

TEST_P(SessionMemo, DuplicateColumnsAreAnsweredFromOneMemo)
{
    // The CPI column, the activity study and the energy study are all
    // byte-serial over the suite Ext3 configuration: one `result:`
    // key, listed three times.
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::ByteSerial}, analysis::suiteConfig())
        .activity(sig::Encoding::Ext3)
        .energy(power::TechParams{}, Design::ByteSerial,
                sig::Encoding::Ext3);
    Session session(SessionConfig{.threads = GetParam()});
    const SuiteReport first = session.run(plan);
    const SuiteReport memo = session.run(plan);

    EXPECT_EQ(first.replayPasses, 2u);
    EXPECT_EQ(memo.replayPasses, 0u);
    Session replaying(SessionConfig{.threads = 1});
    expectSameStudies(memo, replaying.run(plan));
    expectSameStudies(first, memo);
}

TEST_P(SessionMemo, ProfilerPlanReplaysDespiteResidentMemos)
{
    // A profiler sink must see the retirement stream, so its plan is
    // never memo-answered, even when every pipeline's memo is there.
    Session session(SessionConfig{.threads = GetParam()});
    session.run(lifecyclePlan());
    analysis::PatternProfiler pat;
    StudyPlan plan = lifecyclePlan();
    plan.profile({&pat});
    const SuiteReport rep = session.run(plan);

    EXPECT_EQ(rep.replayPasses, 2u);
    EXPECT_EQ(rep.captures, 0u);
    Session replaying(SessionConfig{.threads = 1});
    analysis::PatternProfiler want;
    StudyPlan wantPlan = lifecyclePlan();
    wantPlan.profile({&want});
    expectSameStudies(rep, replaying.run(wantPlan));
    EXPECT_EQ(pat.patterns().raw(), want.patterns().raw());
}

TEST_P(SessionMemo, MixedPlanReplaysOnlyTheUnmemoisedWorkload)
{
    Session session(SessionConfig{.threads = GetParam()});
    session.run(lifecyclePlan().workloads({"rawcaudio"}));
    const SuiteReport mixed = session.run(lifecyclePlan());

    EXPECT_EQ(mixed.replayPasses, 1u) << "rawcaudio is memo-answered";
    EXPECT_EQ(mixed.captures, 1u);
    Session reference(SessionConfig{.threads = 1});
    EXPECT_EQ(lifecycleBytes(mixed),
              lifecycleBytes(reference.run(lifecyclePlan())));
}

TEST_P(SessionMemo, EvictAfterReplayEvictsMemoAnsweredWorkloads)
{
    Session session(SessionConfig{.threads = GetParam()});
    const SuiteReport first = session.run(lifecyclePlan());
    const SuiteReport memo =
        session.run(lifecyclePlan().evictAfterReplay());

    EXPECT_EQ(memo.replayPasses, 0u);
    EXPECT_EQ(memo.captures, 0u);
    EXPECT_EQ(memo.telemetry.value("cache.evictions"), 2u);
    EXPECT_FALSE(session.cache().contains("rawcaudio"));
    EXPECT_FALSE(session.cache().contains("rawdaudio"));
    EXPECT_EQ(lifecycleBytes(memo), lifecycleBytes(first));
}

TEST_P(SessionMemo, PreExpiredDeadlineIgnoresResidentMemos)
{
    Session session(SessionConfig{.threads = GetParam()});
    session.run(lifecyclePlan());
    Session fresh(SessionConfig{.threads = 1});
    const SuiteReport reference = fresh.run(lifecyclePlan().deadlineMs(0));
    const SuiteReport rep = session.run(lifecyclePlan().deadlineMs(0));

    EXPECT_TRUE(rep.deadlineExceeded);
    EXPECT_EQ(rep.replayPasses, 0u);
    ASSERT_EQ(rep.cpi.size(), 1u);
    EXPECT_TRUE(rep.cpi[0].benchmarks.empty())
        << "an expired plan answers nothing, memoised or not";
    EXPECT_EQ(lifecycleBytes(rep), lifecycleBytes(reference));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionMemo,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

} // namespace
} // namespace sigcomp
