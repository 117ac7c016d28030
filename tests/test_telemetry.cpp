/**
 * @file
 * Telemetry layer tests (common/telemetry.h): registry/handle
 * semantics, deterministic snapshots and deltas, histogram bucket
 * placement, span nesting and cross-thread track integrity in the
 * emitted Chrome trace JSON, a traced Session::run end to end, the
 * side-channel guarantee (study bytes identical with tracing on,
 * off, and recording disabled), SIGCOMP_LOG level gating, and a
 * concurrent emit/drain hammer that the CI TSan job runs under
 * -fsanitize=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.h"
#include "analysis/study_plan.h"
#include "common/fault_env.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "tests/scratch_dir.h"

namespace sigcomp
{
namespace
{

namespace fs = std::filesystem;
namespace tele = telemetry;

using analysis::Session;
using analysis::SessionConfig;
using analysis::StudyPlan;
using analysis::SuiteReport;
using pipeline::Design;

/** Fresh per-test directory under the gtest temp root. */
class TelemetryFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = test::scratchDir(std::string("sigcomp-telemetry-") +
                                info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    path(const char *name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---- registry ---------------------------------------------------------

TEST(TelemetryRegistry, HandlesAreStableAndShared)
{
    tele::Registry reg;
    tele::Counter &a = reg.counter("x.count");
    tele::Counter &b = reg.counter("x.count");
    EXPECT_EQ(&a, &b); // same name -> same slot
    a.inc();
    a.inc(4);
    EXPECT_EQ(b.value(), 5u);

    tele::Gauge &g = reg.gauge("x.level");
    g.set(-3);
    EXPECT_EQ(g.value(), -3);

    tele::Histogram &h = reg.histogram("x.sizes", tele::Unit::Bytes);
    h.record(100);
    h.record(100);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum(), 200u);
}

TEST(TelemetryRegistry, HistogramBucketsArePowerOfTwoClasses)
{
    tele::Registry reg;
    tele::Histogram &h = reg.histogram("b.widths");
    h.record(0);    // bucket 0: exactly zero
    h.record(1);    // bucket 1: bit_width 1
    h.record(7);    // bucket 3
    h.record(8);    // bucket 4
    h.record(1024); // bucket 11

    const tele::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.metrics.size(), 1u);
    const tele::SnapshotMetric &m = snap.metrics[0];
    EXPECT_EQ(m.kind, tele::Kind::Histogram);
    EXPECT_EQ(m.count, 5u);
    EXPECT_EQ(m.sum, 1040u);
    ASSERT_EQ(m.buckets.size(), 12u); // trailing zeros trimmed
    EXPECT_EQ(m.buckets[0], 1u);
    EXPECT_EQ(m.buckets[1], 1u);
    EXPECT_EQ(m.buckets[3], 1u);
    EXPECT_EQ(m.buckets[4], 1u);
    EXPECT_EQ(m.buckets[11], 1u);
    EXPECT_EQ(m.buckets[2], 0u);
}

TEST(TelemetryRegistry, SnapshotIsNameSortedAndDeterministic)
{
    tele::Registry reg;
    reg.counter("z.last").inc(3);
    reg.counter("a.first").inc(1);
    reg.gauge("m.middle").set(7);

    const tele::Snapshot s1 = reg.snapshot();
    const tele::Snapshot s2 = reg.snapshot();
    ASSERT_EQ(s1.metrics.size(), 3u);
    EXPECT_EQ(s1.metrics[0].name, "a.first");
    EXPECT_EQ(s1.metrics[1].name, "m.middle");
    EXPECT_EQ(s1.metrics[2].name, "z.last");
    ASSERT_EQ(s2.metrics.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(s1.metrics[i].name, s2.metrics[i].name);
        EXPECT_EQ(s1.metrics[i].value, s2.metrics[i].value);
        EXPECT_EQ(s1.metrics[i].gauge, s2.metrics[i].gauge);
    }
}

TEST(TelemetryRegistry, DeltaHandlesLazyRegistration)
{
    tele::Registry reg;
    reg.counter("seen.before").inc(10);
    const tele::Snapshot before = reg.snapshot();

    reg.counter("seen.before").inc(5);
    reg.counter("born.inside").inc(2); // registered mid-window
    reg.gauge("level.now").set(9);
    const tele::Snapshot after = reg.snapshot();

    const tele::Snapshot d = tele::Snapshot::delta(before, after);
    EXPECT_EQ(d.value("seen.before"), 5u);
    EXPECT_EQ(d.value("born.inside"), 2u); // zero baseline
    EXPECT_EQ(d.value("absent.metric"), 0u);
    // Gauges are levels, not totals: the after-value rides through.
    bool found_gauge = false;
    for (const tele::SnapshotMetric &m : d.metrics) {
        if (m.name == "level.now") {
            found_gauge = true;
            EXPECT_EQ(m.gauge, 9);
        }
    }
    EXPECT_TRUE(found_gauge);
}

TEST(TelemetryRegistry, DisableGatesHistogramsButNeverCounters)
{
    tele::Registry reg;
    tele::setEnabled(false);
    reg.counter("c.always").inc(3);
    reg.histogram("h.gated").record(42);
    reg.gauge("g.gated").set(42);
    tele::setEnabled(true);

    const tele::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("c.always"), 3u); // accounting survives
    EXPECT_EQ(snap.value("h.gated"), 0u);
    for (const tele::SnapshotMetric &m : snap.metrics) {
        if (m.name == "g.gated") {
            EXPECT_EQ(m.gauge, 0);
        }
    }
}

// ---- span tracer ------------------------------------------------------

std::string
traceToString()
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    EXPECT_NE(f, nullptr);
    tele::writeTrace(f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TelemetrySpans, NestedAndCrossThreadSpansLandOnTheirTracks)
{
    tele::startTracing();
    {
        SIGCOMP_SPAN("outer.scope");
        SIGCOMP_SPAN("inner.scope");
    }
    std::thread other([] {
        tele::setThreadName("test-helper-thread");
        SIGCOMP_SPAN("other.thread");
    });
    other.join();
    tele::stopTracing();

    const std::string json = traceToString();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"outer.scope\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"inner.scope\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"other.thread\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test-helper-thread\""),
              std::string::npos); // thread_name metadata
    // Balanced braces/brackets — cheap structural sanity (full
    // validation is sigcomp_prof's job, wired into CI).
    EXPECT_EQ(countOccurrences(json, "{"), countOccurrences(json, "}"));
    EXPECT_EQ(countOccurrences(json, "["), countOccurrences(json, "]"));

    // The helper's span is on a different track than this thread's.
    const std::size_t other_at = json.find("\"name\": \"other.thread\"");
    const std::size_t outer_at = json.find("\"name\": \"outer.scope\"");
    ASSERT_NE(other_at, std::string::npos);
    ASSERT_NE(outer_at, std::string::npos);
    auto tid_of = [&](std::size_t name_at) {
        const std::size_t line_start =
            json.rfind('{', name_at); // events are one object per line
        const std::size_t tid_at = json.find("\"tid\": ", line_start);
        return json.substr(tid_at + 7,
                           json.find(',', tid_at) - tid_at - 7);
    };
    EXPECT_NE(tid_of(other_at), tid_of(outer_at));
}

TEST(TelemetrySpans, InactiveTracingRecordsNothingNew)
{
    // Tracing is off (stopTracing ran above / never started): a span
    // scope must not grow the recorded set.
    ASSERT_FALSE(tele::tracingActive());
    const std::string before = traceToString();
    {
        SIGCOMP_SPAN("never.recorded");
    }
    const std::string after = traceToString();
    EXPECT_EQ(before, after);
    EXPECT_EQ(after.find("never.recorded"), std::string::npos);
}

// ---- end to end through Session::run ---------------------------------

/** The plan every end-to-end test runs (store-less variant). */
StudyPlan
smallPlan()
{
    StudyPlan plan;
    pipeline::PipelineConfig cfg;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial}, cfg);
    return plan;
}

/**
 * Run @p plan on @p session inside a tracing window and write the
 * process trace to @p file: what SIGCOMP_TRACE does for a whole
 * process, scoped to one run.
 */
SuiteReport
runTraced(Session &session, const StudyPlan &plan, const std::string &file)
{
    tele::startTracing();
    SuiteReport rep = session.run(plan);
    tele::stopTracing();
    std::string why;
    EXPECT_TRUE(tele::writeTrace(file, &why)) << why;
    return rep;
}

std::string
reportBytes(SuiteReport rep, bool strip_telemetry = false)
{
    rep.wallMs = 0.0; // the one legitimately varying field
    if (!strip_telemetry)
        return rep.toJson();
    std::istringstream in(rep.toJson());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"telemetry\"") == std::string::npos)
            out << line << '\n';
    }
    return out.str();
}

TEST_F(TelemetryFileTest, StudyResultsAreBitIdenticalWithTracingOnOrOff)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 4000;

    Session plain(cfg);
    const std::string want = reportBytes(plain.run(smallPlan()));

    Session traced(cfg);
    const std::string got =
        reportBytes(runTraced(traced, smallPlan(), path("run.json")));

    // Tracing is a pure side channel: every byte of the report —
    // including the telemetry block — is identical.
    EXPECT_EQ(got, want);

    // And the trace file landed, with the hot-boundary spans.
    const std::string trace = readFile(path("run.json"));
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    for (const char *label :
         {"session.run", "session.replay", "cache.capture",
          "replay.pass", "replay.block", "quanta.compute"}) {
        EXPECT_NE(trace.find(std::string("\"name\": \"") + label + "\""),
                  std::string::npos)
            << label;
    }
}

TEST_F(TelemetryFileTest, RuntimeDisableChangesOnlyTheTelemetryBlock)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 4000;

    Session enabled_s(cfg);
    const std::string want =
        reportBytes(enabled_s.run(smallPlan()), /*strip_telemetry=*/true);

    tele::setEnabled(false);
    Session disabled_s(cfg);
    const std::string got =
        reportBytes(disabled_s.run(smallPlan()), /*strip_telemetry=*/true);
    tele::setEnabled(true);

    EXPECT_EQ(got, want);
}

/**
 * Real-filesystem Env (a FaultInjectingEnv with no faults scheduled)
 * whose first @p parties segment reads wait for each other: a capture
 * task reads the store before it captures, so a plan of two workloads
 * at threads=2 cannot finish until both tasks run at once, one of
 * them on the pool's worker. Without it the submitting thread can
 * drain both tasks before the worker wakes.
 */
class RendezvousEnv : public FaultInjectingEnv
{
  public:
    explicit RendezvousEnv(int parties)
        : FaultInjectingEnv(Env::posix()), parties_(parties)
    {}

    std::unique_ptr<FileView>
    loadFile(const std::string &path, EnvStatus *status) override
    {
        if (arrived_.fetch_add(1) < parties_) {
            // Bounded, so a scheduling bug fails the test's checks
            // instead of hanging it.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(30);
            while (arrived_.load() < parties_ &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        return FaultInjectingEnv::loadFile(path, status);
    }

  private:
    const int parties_;
    std::atomic<int> arrived_{0};
};

TEST_F(TelemetryFileTest, ParallelStoreRunEmitsWorkerAndStoreSpans)
{
    SessionConfig cfg;
    cfg.threads = 2;
    cfg.captureLimit = 4000;
    cfg.storeDir = path("store");

    // Cold run populates the store (save/encode spans), warm run in a
    // second session reads it back (load/decode spans). The cold
    // run's two capture tasks meet in the store read, so one of them
    // runs on the worker.
    RendezvousEnv rendezvous(2);
    {
        SessionConfig cold_cfg = cfg;
        cold_cfg.env = &rendezvous;
        Session cold(cold_cfg);
        runTraced(cold, smallPlan(), path("cold.json"));
    }
    {
        Session warm(cfg);
        runTraced(warm, smallPlan(), path("warm.json"));
    }

    const std::string cold = readFile(path("cold.json"));
    for (const char *label : {"store.save", "codec.encode_column",
                              "executor.task", "cache.capture"}) {
        EXPECT_NE(cold.find(std::string("\"name\": \"") + label + "\""),
                  std::string::npos)
            << label;
    }
    // Capture fans out across the pool: the worker's track is named.
    EXPECT_NE(cold.find("\"name\": \"executor-worker-1\""),
              std::string::npos);

    const std::string warm = readFile(path("warm.json"));
    for (const char *label : {"store.load", "codec.decode_column"}) {
        EXPECT_NE(warm.find(std::string("\"name\": \"") + label + "\""),
                  std::string::npos)
            << label;
    }
    // Warm bytes include the cold window (the tracer is non-draining
    // within one process) — so the warm file must be a superset.
    EXPECT_GT(warm.size(), cold.size());
}

TEST(TelemetryReport, SnapshotDeltaReachesTheSuiteReport)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.captureLimit = 4000;
    Session session(cfg);
    const SuiteReport rep = session.run(smallPlan());

    // Legacy scalar fields are views into the telemetry delta.
    EXPECT_EQ(rep.captures, 2u);
    EXPECT_EQ(rep.telemetry.value("cache.captures"), 2u);
    EXPECT_EQ(rep.telemetry.value("cache.capture_instructions"), 2u);
    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"telemetry\": {\"counters\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"cache.captures\": 2"), std::string::npos);
    // The block never wraps: the fault tests strip it line-wise.
    const std::size_t at = json.find("  \"telemetry\": ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = json.find('\n', at);
    EXPECT_NE(json.find("\"histograms\": ", at), std::string::npos);
    EXPECT_LT(json.find("\"histograms\": ", at), eol);
}

// ---- logging levels (SIGCOMP_LOG) ------------------------------------

TEST(TelemetryLogging, LogLevelGatesWarnAndInform)
{
    const LogLevel saved = logLevel();

    setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    SC_WARN("suppressed warning");
    SC_INFORM("suppressed info");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    SC_WARN("visible warning");
    SC_INFORM("suppressed info");
    {
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("visible warning"), std::string::npos);
        EXPECT_EQ(err.find("suppressed info"), std::string::npos);
    }

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    SC_INFORM("visible info");
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "visible info"),
              std::string::npos);

    setLogLevel(saved);
}

// ---- concurrency (runs under TSan in CI) ------------------------------

TEST(TelemetryConcurrency, ConcurrentEmitSnapshotAndDrainIsClean)
{
    tele::Registry reg;
    tele::startTracing();

    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, &go, t] {
            tele::setThreadName("hammer-" + std::to_string(t));
            while (!go.load(std::memory_order_acquire)) {
            }
            tele::Counter &c = reg.counter("hammer.ops");
            tele::Histogram &h = reg.histogram("hammer.sizes");
            for (int i = 0; i < kIters; ++i) {
                SIGCOMP_SPAN("hammer.iter");
                c.inc();
                h.record(static_cast<std::uint64_t>(i));
            }
        });
    }
    go.store(true, std::memory_order_release);
    // Drain and snapshot concurrently with the writers: the span
    // buffers publish with release/acquire, the registry with its
    // mutex — the TSan job proves it.
    for (int i = 0; i < 20; ++i) {
        (void)traceToString();
        (void)reg.snapshot();
    }
    for (std::thread &t : threads)
        t.join();
    tele::stopTracing();

    EXPECT_EQ(reg.counter("hammer.ops").value(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    const tele::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("hammer.sizes"),
              static_cast<std::uint64_t>(kThreads) * kIters);
    // Every span either landed or was counted as dropped.
    const std::string json = traceToString();
    EXPECT_GE(countOccurrences(json, "\"name\": \"hammer.iter\"") +
                  tele::droppedSpans(),
              static_cast<std::size_t>(kThreads) * kIters);
}

} // namespace
} // namespace sigcomp
