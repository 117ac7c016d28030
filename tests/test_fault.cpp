/**
 * @file
 * Fault-injection robustness tests (see README "Failure model"):
 * every guarantee the store/session fail-soft layer makes, pinned
 * over the deterministic FaultInjectingEnv.
 *
 *  - FaultInjectingEnv determinism: scripted faults fire at exact op
 *    indices, seeded random mode replays identically per seed, the
 *    script() dump is a complete reproduction recipe.
 *  - Durability ordering: a durable save syncs the temp file before
 *    the publishing rename and the directory after it; non-durable
 *    saves skip both syncs but keep atomic replace.
 *  - Crash-consistency matrix: a save is crashed at EVERY operation
 *    index in turn; after each crash the reopened store holds the
 *    old segment bit-identical, the new segment bit-identical, or
 *    cleanly ignores the leftovers — never a third state.
 *  - Quarantine + self-healing: silent corruption (torn writes,
 *    short reads, bit rot) is detected at load, the damaged segment
 *    is renamed aside, and recapture heals the store in place.
 *  - Graceful degradation: an unreadable store directory falls back
 *    to capture; a store that turns unwritable mid-run disables
 *    writes instead of aborting.
 *  - The acceptance property: a whole StudyPlan run over a hostile
 *    Env — every fault class, scripted and seeded — produces study
 *    results byte-identical to a fault-free run; only the health
 *    counters differ. Seed override: SIGCOMP_FAULT_SEED.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/session.h"
#include "analysis/study_plan.h"
#include "analysis/trace_cache.h"
#include "common/cancel.h"
#include "common/fault_env.h"
#include "common/telemetry.h"
#include "cpu/trace_buffer.h"
#include "pipeline/runner.h"
#include "store/trace_store.h"
#include "tests/scratch_dir.h"
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
using analysis::TraceCache;
using pipeline::Design;
using store::LoadFailure;
using store::TraceStore;

/** Fresh per-test directory under the gtest temp root. */
class FaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = test::scratchDir(std::string("sigcomp-fault-") +
                                info->name());
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string
    dir() const
    {
        return dir_.string();
    }

    fs::path dir_;
};

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

/** Script @p kind at every op index in [from, from+count). */
void
failOps(FaultInjectingEnv &env, std::uint64_t from, std::uint64_t count,
        FaultKind kind)
{
    for (std::uint64_t i = 0; i < count; ++i)
        env.addFault({from + i, kind, 0});
}

// ---- FaultInjectingEnv determinism -----------------------------------

TEST_F(FaultTest, ScriptedFaultFiresAtExactOpIndex)
{
    FaultInjectingEnv env(Env::posix());
    ASSERT_TRUE(env.createDirs(dir()).ok()); // op 0
    env.addFault({2, FaultKind::Enospc, 0});

    EnvStatus st;
    auto f = env.createFile(dir() + "/a", &st); // op 1: fine
    ASSERT_NE(f, nullptr) << st.message;
    EXPECT_FALSE(f->append("x", 1).ok()) << "op 2 must fault";
    EXPECT_EQ(env.faultsInjected(), 1u);
    EXPECT_TRUE(f->close().ok()); // op 3: fine again
    EXPECT_NE(env.script().find("enospc"), std::string::npos);
}

TEST_F(FaultTest, SeededRandomModeIsDeterministic)
{
    const auto run = [&](std::uint64_t seed) {
        FaultInjectingEnv env(Env::posix());
        env.enableRandomFaults(seed, 200);
        const std::string d = dir();
        (void)env.createDirs(d);
        for (int i = 0; i < 40; ++i) {
            EnvStatus st;
            auto f = env.createFile(d + "/f", &st);
            if (f != nullptr) {
                (void)f->append("abc", 3);
                (void)f->close();
            }
            (void)env.fileExists(d + "/f");
            (void)env.removeFile(d + "/f");
        }
        return env.script();
    };
    const std::string a = run(42);
    EXPECT_EQ(a, run(42)) << "same seed, same op sequence, same faults";
    EXPECT_NE(a, run(43)) << "different seed must differ";
    EXPECT_NE(a.find("seed 42"), std::string::npos);
}

TEST_F(FaultTest, CrashLatchesEveryLaterOp)
{
    FaultInjectingEnv env(Env::posix());
    (void)env.createDirs(dir());
    env.addFault({1, FaultKind::Crash, 0});
    EnvStatus st;
    EXPECT_EQ(env.createFile(dir() + "/a", &st), nullptr);
    EXPECT_EQ(st.fault, EnvFault::Crashed);
    EXPECT_TRUE(env.crashed());
    // Everything after the crash fails too, including probes.
    EXPECT_FALSE(env.createDirs(dir()).ok());
    EXPECT_FALSE(env.fileExists(dir() + "/a"));
    EXPECT_EQ(env.listDir(dir(), &st).size(), 0u);
}

// ---- durability ordering ---------------------------------------------

TEST_F(FaultTest, DurableSaveSyncsBeforeRenameAndDirAfter)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    FaultInjectingEnv env(Env::posix());
    const TraceStore ts(dir(), {.env = &env});
    ASSERT_TRUE(ts.save("rawcaudio", t, 2000));

    const std::vector<std::string> ops = env.opLog();
    // Log entries are "<op> <path>"; compare the op word.
    auto find = [&](const char *op) {
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (ops[i].substr(0, ops[i].find(' ')) == op)
                return static_cast<long>(i);
        return -1L;
    };
    const long create = find("create"), append = find("append"),
               sync = find("sync"), close = find("close"),
               rename = find("rename"), syncdir = find("syncdir");
    ASSERT_NE(create, -1);
    ASSERT_NE(append, -1);
    ASSERT_NE(sync, -1) << "durable saves must fsync the temp file";
    ASSERT_NE(rename, -1);
    ASSERT_NE(syncdir, -1) << "durable saves must fsync the directory";
    EXPECT_LT(create, append);
    EXPECT_LT(append, sync);
    EXPECT_LT(sync, close);
    EXPECT_LT(close, rename);
    EXPECT_LT(rename, syncdir)
        << "the publish is only durable once the directory entry is";
}

TEST_F(FaultTest, NonDurableSaveSkipsSyncsButKeepsAtomicReplace)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    FaultInjectingEnv env(Env::posix());
    const TraceStore ts(dir(), {.durableSaves = false, .env = &env});
    ASSERT_TRUE(ts.save("rawcaudio", t, 2000));

    bool saw_rename = false;
    for (const std::string &entry : env.opLog()) {
        const std::string op = entry.substr(0, entry.find(' '));
        EXPECT_NE(op, "sync") << entry;
        EXPECT_NE(op, "syncdir") << entry;
        saw_rename |= op == "rename";
    }
    EXPECT_TRUE(saw_rename) << "publish must still be rename-atomic";
    std::string why;
    EXPECT_NE(ts.load("rawcaudio", w.program, 2000, &why), nullptr)
        << why;
}

// ---- crash-consistency matrix ----------------------------------------

/**
 * Crash a save at every op index in turn. Before each crashed save
 * the store holds an OLD committed segment; afterwards the reopened
 * (plain-Env) store must hold bytes identical to the old segment or
 * to the new one — a torn temp never becomes visible, and doctor's
 * orphan sweep leaves the directory byte-clean.
 */
TEST_F(FaultTest, CrashMatrixEveryStepReopensConsistently)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer oldt =
        cpu::TraceBuffer::capture(w.program, 1000, true);
    const cpu::TraceBuffer newt =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    // Dry run: count the ops of one save over a committed store.
    std::uint64_t save_ops = 0;
    {
        const std::string d = dir() + "/dry";
        const TraceStore seed(d);
        ASSERT_TRUE(seed.save("rawcaudio", oldt, 1000));
        FaultInjectingEnv env(Env::posix());
        const TraceStore ts(d, {.env = &env});
        const std::uint64_t before = env.opCount();
        ASSERT_TRUE(ts.save("rawcaudio", newt, 2000));
        save_ops = env.opCount() - before;
    }
    ASSERT_GE(save_ops, 4u) << "create/append/rename at minimum";

    const std::string base = dir() + "/m";
    for (std::uint64_t k = 0; k < save_ops; ++k) {
        SCOPED_TRACE("crash at save op " + std::to_string(k));
        const std::string d = base + std::to_string(k);
        const TraceStore seed(d);
        ASSERT_TRUE(seed.save("rawcaudio", oldt, 1000));
        const std::vector<std::uint8_t> old_bytes =
            readAll(seed.segmentPath("rawcaudio"));
        ASSERT_FALSE(old_bytes.empty());

        FaultInjectingEnv env(Env::posix());
        const TraceStore ts(d, {.env = &env});
        const std::uint64_t before = env.opCount();
        env.addFault({before + k, FaultKind::Crash, 0});
        const bool saved = ts.save("rawcaudio", newt, 2000);
        EXPECT_TRUE(env.crashed());

        // Post-crash restart: plain Env over the same directory.
        const TraceStore re(d);
        const std::vector<std::uint8_t> bytes =
            readAll(re.segmentPath("rawcaudio"));
        ASSERT_FALSE(bytes.empty())
            << "replace-by-rename must never lose the old segment";
        std::string why;
        if (bytes == old_bytes) {
            EXPECT_NE(re.load("rawcaudio", w.program, 1000, &why),
                      nullptr)
                << why;
        } else {
            // The rename happened before the crash: the new segment
            // must be complete and bit-identical to a clean save.
            EXPECT_TRUE(saved)
                << "a published segment must be reported as saved";
            EXPECT_NE(re.load("rawcaudio", w.program, 2000, &why),
                      nullptr)
                << why;
        }
        // Whatever the crash left behind is cleanly ignored and
        // sweepable: after the sweep only committed segments remain.
        (void)re.cleanOrphanTemps();
        std::size_t files = 0;
        for (const auto &e : fs::directory_iterator(d)) {
            (void)e;
            ++files;
        }
        EXPECT_EQ(files, 1u) << "only the committed segment survives";
        EXPECT_EQ(re.list(), std::vector<std::string>{"rawcaudio"});
    }
}

// ---- transient retry -------------------------------------------------

TEST_F(FaultTest, TransientFaultsAreRetriedAndCounted)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    FaultInjectingEnv env(Env::posix());
    telemetry::Registry registry;
    const TraceStore ts(dir(), {.env = &env, .registry = &registry});
    // The first attempt faults EIO mid-write; the whole-save retry
    // succeeds.
    env.addFault({env.opCount() + 1, FaultKind::Eio, 0});
    std::string why;
    EnvFault fault = EnvFault::None;
    EXPECT_TRUE(ts.save("rawcaudio", t, 2000, &why, &fault)) << why;
    EXPECT_GE(registry.counter("store.retries").value(), 1u);

    // A transient fault on the read path retries inside load.
    env.addFault({env.opCount(), FaultKind::Eio, 0});
    EXPECT_NE(ts.load("rawcaudio", w.program, 2000, &why), nullptr)
        << why;
}

TEST_F(FaultTest, ExhaustedTransientRetriesFailSoftAsIo)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);
    {
        const TraceStore seed(dir());
        ASSERT_TRUE(seed.save("rawcaudio", t, 2000));
    }
    FaultInjectingEnv env(Env::posix());
    telemetry::Registry registry;
    const TraceStore ts(dir(), {.env = &env, .registry = &registry});
    failOps(env, env.opCount(), 8, FaultKind::Eio);
    std::string why;
    auto failure = LoadFailure::None;
    EXPECT_EQ(ts.load("rawcaudio", w.program, 2000, &why, &failure),
              nullptr);
    EXPECT_EQ(failure, LoadFailure::Io) << why;
    EXPECT_GE(registry.counter("store.retries").value(), 1u);
}

TEST_F(FaultTest, DirectoryCreationAndQuarantineRetryTransientFaults)
{
    // An EIO on the store's mkdirs (its first op) is retried: the
    // store opens writable and saves.
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);
    FaultInjectingEnv env(Env::posix());
    telemetry::Registry registry;
    env.addFault({0, FaultKind::Eio, 0});
    const TraceStore ts(dir(), {.env = &env, .registry = &registry});
    EXPECT_EQ(env.faultsInjected(), 1u);
    EXPECT_EQ(registry.counter("store.retries").value(), 1u);
    std::string why;
    ASSERT_TRUE(ts.save("rawcaudio", t, 2000, &why)) << why;

    // An EIO on quarantine's rename (its one counted op) is retried:
    // the segment still moves aside.
    env.addFault({env.opCount(), FaultKind::Eio, 0});
    std::string moved;
    EXPECT_TRUE(ts.quarantine("rawcaudio", &moved));
    EXPECT_EQ(env.faultsInjected(), 2u);
    EXPECT_EQ(registry.counter("store.retries").value(), 2u);
    EXPECT_TRUE(fs::exists(moved));
    EXPECT_TRUE(ts.list().empty());
}

// ---- quarantine + self-healing ---------------------------------------

TEST_F(FaultTest, TornWriteIsDetectedQuarantinedAndHealed)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    // A torn write silently publishes a half-written segment (the
    // fsync-less power-loss model: the save REPORTS success).
    {
        FaultInjectingEnv env(Env::posix());
        const TraceStore ts(dir(), {.env = &env});
        // Ops after the ctor's mkdirs: create, append, sync, ... —
        // tear the append, keeping only the first 200 bytes.
        env.addFault({env.opCount() + 1, FaultKind::TornWrite, 200});
        ASSERT_TRUE(ts.save("rawcaudio", t, 2000))
            << "a torn write is silent by definition";
        ASSERT_EQ(env.faultsInjected(), 1u);
        ASSERT_NE(env.script().find("torn-write"), std::string::npos)
            << env.script();
    }

    // The damage is caught at load, classified Corrupt, quarantined
    // by the cache, and healed by recapture + write-through.
    TraceCache cache({.storeDir = dir(), .captureLimit = 2000});
    const TraceCache::TracePtr trace = cache.get("rawcaudio");
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.storeLoadFailures(), 1u);
    EXPECT_EQ(cache.quarantinedSegments(), 1u);
    ASSERT_EQ(cache.degradations().size(), 1u);
    EXPECT_NE(cache.degradations()[0].find("quarantined"),
              std::string::npos);

    // Evidence preserved, store healed: the quarantine file exists
    // and the re-saved segment loads clean.
    const TraceStore ts(dir());
    EXPECT_EQ(ts.quarantined().size(), 1u);
    std::string why;
    EXPECT_NE(ts.load("rawcaudio", w.program, 2000, &why), nullptr)
        << why;

    // A second cold get() is a clean store hit — healed means healed.
    cache.clear();
    cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.storeLoads(), 1u);
    EXPECT_EQ(cache.storeLoadFailures(), 1u);
}

TEST_F(FaultTest, ShortReadFailsSoftAndRecaptures)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);
    {
        const TraceStore seed(dir());
        ASSERT_TRUE(seed.save("rawcaudio", t, 2000));
    }
    FaultInjectingEnv env(Env::posix());
    const TraceStore ts(dir(), {.env = &env});
    // The segment read comes back silently truncated (torn read).
    env.addFault({env.opCount(), FaultKind::ShortRead, 0});
    std::string why;
    auto failure = LoadFailure::None;
    EXPECT_EQ(ts.load("rawcaudio", w.program, 2000, &why, &failure),
              nullptr)
        << "a truncated view must never produce a trace";
    EXPECT_EQ(failure, LoadFailure::Corrupt) << why;
    // The file itself is fine: a plain reopen loads it.
    EXPECT_NE(TraceStore(dir()).load("rawcaudio", w.program, 2000, &why),
              nullptr)
        << why;
}

// ---- graceful degradation --------------------------------------------

TEST_F(FaultTest, UnreadableStoreDirectoryFallsBackToCapture)
{
    FaultInjectingEnv env(Env::posix());
    // The store directory cannot even be created (EROFS).
    failOps(env, 0, 4, FaultKind::Erofs);
    TraceCache cache(
        {.storeDir = dir(), .captureLimit = 2000, .env = &env});

    const TraceCache::TracePtr trace = cache.get("rawcaudio");
    ASSERT_NE(trace, nullptr) << "capture fallback must still work";
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.storeSaves(), 0u);
    EXPECT_TRUE(cache.storeWritesDegraded());
    EXPECT_FALSE(cache.degradations().empty());
}

TEST_F(FaultTest, MidRunEnospcDisablesWrites)
{
    FaultInjectingEnv env(Env::posix());
    TraceCache cache(
        {.storeDir = dir(), .captureLimit = 2000, .env = &env});

    // First workload saves fine.
    cache.get("rawcaudio");
    EXPECT_EQ(cache.storeSaves(), 1u);

    // Then the disk fills: every further write faults ENOSPC.
    failOps(env, env.opCount(), 500, FaultKind::Enospc);
    cache.get("rawdaudio");
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_EQ(cache.storeSaves(), 1u);
    EXPECT_TRUE(cache.storeWritesDegraded());

    cache.get("epic");
    EXPECT_EQ(cache.captures(), 3u);
    // saveThrough short-circuits once degraded: the third get must
    // not even have attempted a save (no new create op after the
    // degradation's failed one).
    std::size_t creates = 0;
    for (const std::string &entry : env.opLog())
        creates += entry.substr(0, entry.find(' ')) == "create";
    EXPECT_EQ(creates, 2u)
        << "one successful save + one failed attempt, then silence";
}

TEST_F(FaultTest, PersistAnnexesFailureLeavesSegmentBitIdentical)
{
    FaultInjectingEnv env(Env::posix());
    TraceCache cache(
        {.storeDir = dir(), .captureLimit = 20'000, .env = &env});

    // Warm path: capture + write-through.
    const TraceCache::TracePtr trace = cache.get("rawcaudio");
    ASSERT_EQ(cache.storeSaves(), 1u);
    const TraceStore plain(dir());
    const std::string path = plain.segmentPath("rawcaudio");
    const std::vector<std::uint8_t> before = readAll(path);
    ASSERT_FALSE(before.empty());

    // Derive quanta (what persistAnnexes would write back), then
    // make the store unwritable for the write-back.
    auto pipe = pipeline::makePipeline(
        Design::ByteSerial, pipeline::PipelineConfig{});
    pipeline::replayPipelines(*trace, {pipe.get()});
    ASSERT_FALSE(trace->annexKeys("quanta:").empty());
    failOps(env, env.opCount(), 500, FaultKind::Enospc);

    cache.persistAnnexes("rawcaudio", *trace);

    // The annex write-back failed; results and the on-disk segment
    // are untouched — only the health counters moved.
    EXPECT_EQ(cache.storeSaves(), 1u);
    EXPECT_TRUE(cache.storeWritesDegraded());
    EXPECT_FALSE(cache.degradations().empty());
    EXPECT_EQ(readAll(path), before)
        << "a failed annex write-back must not modify the segment";
    std::string why;
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    EXPECT_NE(plain.load("rawcaudio", w.program, 20'000, &why), nullptr)
        << why;

    // Same failure class via a read-only filesystem (EROFS) on a
    // fresh cache: identical contract.
    fs::remove_all(dir());
    FaultInjectingEnv env2(Env::posix());
    TraceCache cache2(
        {.storeDir = dir(), .captureLimit = 20'000, .env = &env2});
    const TraceCache::TracePtr trace2 = cache2.get("rawcaudio");
    ASSERT_EQ(cache2.storeSaves(), 1u);
    const std::vector<std::uint8_t> before2 = readAll(path);
    auto pipe2 = pipeline::makePipeline(
        Design::ByteSerial, pipeline::PipelineConfig{});
    pipeline::replayPipelines(*trace2, {pipe2.get()});
    failOps(env2, env2.opCount(), 500, FaultKind::Erofs);
    cache2.persistAnnexes("rawcaudio", *trace2);
    EXPECT_EQ(cache2.storeSaves(), 1u);
    EXPECT_TRUE(cache2.storeWritesDegraded());
    EXPECT_EQ(readAll(path), before2);
}

// ---- acceptance: StudyPlan bit identity under hostile I/O ------------

/**
 * The report's study payload with the run-variant accounting
 * stripped: drop the engine, health and telemetry lines (wall clock,
 * retry and degradation counts legitimately differ under faults),
 * keep every study byte. The telemetry block is emitted on one line
 * precisely so this filter can drop it whole.
 */
std::string
studyBytes(const SuiteReport &rep)
{
    std::istringstream in(rep.toJson());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"engine\"") != std::string::npos ||
            line.find("\"health\"") != std::string::npos ||
            line.find("\"telemetry\"") != std::string::npos)
            continue;
        out << line << '\n';
    }
    return out.str();
}

SuiteReport
runPlan(const std::string &store_dir, Env *env)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.storeDir = store_dir;
    cfg.captureLimit = 20'000;
    cfg.env = env;
    Session session(cfg);
    StudyPlan plan;
    // Plain PipelineConfig: the CPI study exercises capture, store
    // load/save and annex write-back without dragging in the
    // process-global suite-profiled compressor.
    pipeline::PipelineConfig pcfg;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cpi({Design::Baseline32, Design::ByteSerial}, pcfg);
    return session.run(plan);
}

TEST_F(FaultTest, StudyPlanIsBitIdenticalUnderEveryFaultClass)
{
    // Fault-free reference (no store at all).
    const std::string want = studyBytes(runPlan("", nullptr));

    // Cold-store runs: every save-path fault class.
    const FaultKind kinds[] = {FaultKind::Eio, FaultKind::Enospc,
                               FaultKind::Erofs, FaultKind::TornWrite,
                               FaultKind::Crash};
    int variant = 0;
    for (const FaultKind kind : kinds) {
        SCOPED_TRACE(std::string("cold store, ") + faultKindName(kind));
        const std::string d =
            dir() + "/cold" + std::to_string(variant++);
        FaultInjectingEnv env(Env::posix());
        // Hit several early ops so capture write-through, the retry
        // loop and the degradation path all see the fault class.
        for (std::uint64_t k : {2ull, 3ull, 7ull, 11ull, 19ull})
            env.addFault({k, kind, 0});
        EXPECT_EQ(studyBytes(runPlan(d, &env)), want);
    }

    // Warm-store runs: every load-path fault class over a
    // pre-populated store.
    const std::string warm = dir() + "/warm";
    (void)runPlan(warm, nullptr); // populate fault-free
    for (const FaultKind kind :
         {FaultKind::Eio, FaultKind::ShortRead, FaultKind::Crash}) {
        SCOPED_TRACE(std::string("warm store, ") + faultKindName(kind));
        // Work on a copy: quarantine/heal mutates the directory.
        const std::string d =
            dir() + "/warmcopy" + std::to_string(variant++);
        fs::create_directories(d);
        for (const auto &e : fs::directory_iterator(warm))
            fs::copy_file(e.path(),
                          fs::path(d) / e.path().filename());
        FaultInjectingEnv env(Env::posix());
        for (std::uint64_t k : {1ull, 4ull, 9ull})
            env.addFault({k, kind, 0});
        SuiteReport rep = runPlan(d, &env);
        EXPECT_EQ(studyBytes(rep), want);
    }
}

TEST_F(FaultTest, StudyPlanSurvivesSeededFaultStorm)
{
    const std::string want = studyBytes(runPlan("", nullptr));

    // Seed from CI (SIGCOMP_FAULT_SEED) or a fixed default; a failure
    // message carries the seed and the full fault script, which is
    // the complete reproduction recipe.
    std::uint64_t seed = 1;
    if (const char *s = std::getenv("SIGCOMP_FAULT_SEED"))
        seed = std::strtoull(s, nullptr, 10);

    for (std::uint64_t round = 0; round < 3; ++round) {
        const std::uint64_t round_seed = seed + round;
        SCOPED_TRACE("seed " + std::to_string(round_seed));
        const std::string d = dir() + "/s" + std::to_string(round);
        FaultInjectingEnv env(Env::posix());
        env.enableRandomFaults(round_seed, /*per_mille=*/150,
                               /*include_crash=*/round == 2);
        const SuiteReport rep = runPlan(d, &env);
        EXPECT_EQ(studyBytes(rep), want) << env.script();

        // And the stormed store is always doctorable back to clean:
        // reopen plain, quarantine what's damaged, sweep temps.
        const TraceStore ts(d);
        for (const std::string &name : ts.list()) {
            const workloads::Workload w = workloads::Suite::build(name);
            if (!ts.verify(name, &w.program)) {
                EXPECT_TRUE(ts.quarantine(name));
            }
        }
        (void)ts.cleanOrphanTemps();
        for (const std::string &name : ts.list()) {
            const workloads::Workload w = workloads::Suite::build(name);
            EXPECT_TRUE(ts.verify(name, &w.program)) << name;
        }
    }
}

TEST_F(FaultTest, HealthCountersFlowIntoSuiteReport)
{
    // Populate, then corrupt one segment on disk: the session run
    // must quarantine, recapture, heal — and say so in the report.
    (void)runPlan(dir(), nullptr);
    const TraceStore plain(dir());
    const std::string path = plain.segmentPath("rawcaudio");
    std::vector<std::uint8_t> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 100u);
    bytes[90] ^= 0x40;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }

    const SuiteReport rep = runPlan(dir(), nullptr);
    EXPECT_EQ(rep.storeLoadFailures, 1u);
    EXPECT_EQ(rep.quarantinedSegments, 1u);
    ASSERT_EQ(rep.degradations.size(), 1u);
    EXPECT_NE(rep.degradations[0].find("rawcaudio"), std::string::npos);
    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"health\""), std::string::npos);
    EXPECT_NE(json.find("\"quarantined_segments\": 1"),
              std::string::npos);

    // A clean follow-up run reports clean health (deltas, not totals).
    const SuiteReport clean = runPlan(dir(), nullptr);
    EXPECT_EQ(clean.storeLoadFailures, 0u);
    EXPECT_EQ(clean.quarantinedSegments, 0u);
    EXPECT_TRUE(clean.degradations.empty());
}

// ---- the fault taxonomy, end to end ----------------------------------

TEST_F(FaultTest, EnvFaultTaxonomyIsPinnedAndRouted)
{
    // The names are wire/log surface (scripts, degradation strings).
    EXPECT_STREQ(envFaultName(EnvFault::None), "none");
    EXPECT_STREQ(envFaultName(EnvFault::NotFound), "not-found");
    EXPECT_STREQ(envFaultName(EnvFault::Transient), "transient");
    EXPECT_STREQ(envFaultName(EnvFault::NoSpace), "no-space");
    EXPECT_STREQ(envFaultName(EnvFault::ReadOnly), "read-only");
    EXPECT_STREQ(envFaultName(EnvFault::Crashed), "crashed");
    EXPECT_STREQ(envFaultName(EnvFault::Other), "other");

    // Routing: each injected kind surfaces as its documented class,
    // and an ordinary miss stays NotFound (a miss, not damage).
    FaultInjectingEnv env(Env::posix());
    ASSERT_TRUE(env.createDirs(dir()).ok());
    EnvStatus st;
    EXPECT_EQ(env.loadFile(dir() + "/missing", &st), nullptr);
    EXPECT_EQ(st.fault, EnvFault::NotFound);
    env.addFault({env.opCount(), FaultKind::Eio, 0});
    EXPECT_EQ(env.loadFile(dir() + "/missing", &st), nullptr);
    EXPECT_EQ(st.fault, EnvFault::Transient);
    EXPECT_TRUE(st.transient());
    env.addFault({env.opCount(), FaultKind::Enospc, 0});
    EXPECT_EQ(env.syncDir(dir()).fault, EnvFault::NoSpace);
    env.addFault({env.opCount(), FaultKind::Erofs, 0});
    EXPECT_EQ(env.createDirs(dir()).fault, EnvFault::ReadOnly);
}

// ---- listDir / syncDir fault coverage --------------------------------

TEST_F(FaultTest, ListDirFaultFailsSoftAcrossStoreSurfaces)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);
    {
        const TraceStore seed(dir());
        ASSERT_TRUE(seed.save("rawcaudio", t, 2000));
    }
    FaultInjectingEnv env(Env::posix());
    const TraceStore ts(dir(), {.env = &env});

    // Every directory-scan surface fails soft — empty, not thrown —
    // and recovers on the next (unfaulted) call.
    env.addFault({env.opCount(), FaultKind::Eio, 0});
    EXPECT_TRUE(ts.list().empty()) << "a faulted scan must read empty";
    EXPECT_EQ(ts.list(), std::vector<std::string>{"rawcaudio"});

    env.addFault({env.opCount(), FaultKind::Erofs, 0});
    EXPECT_TRUE(ts.quarantined().empty());

    env.addFault({env.opCount(), FaultKind::Eio, 0});
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u)
        << "an unscannable directory has nothing sweepable";

    // The ops were really injected at the listDir seam.
    EXPECT_GE(env.faultsInjected(), 3u);
    EXPECT_NE(env.script().find(" list "), std::string::npos)
        << env.script();
}

TEST_F(FaultTest, SyncDirFaultWeakensDurabilityButNeverTheSave)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 2000, true);

    // Dry run: locate the directory-fsync op inside one durable save.
    std::uint64_t syncdir_at = 0;
    {
        FaultInjectingEnv env(Env::posix());
        const TraceStore ts(dir() + "/dry", {.env = &env});
        ASSERT_TRUE(ts.save("rawcaudio", t, 2000));
        const std::vector<std::string> ops = env.opLog();
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].substr(0, ops[i].find(' ')) == "syncdir")
                syncdir_at = i;
        }
        ASSERT_GT(syncdir_at, 0u) << "durable save must fsync the dir";
    }

    // The rename already published the segment; a failed directory
    // fsync (any class) only weakens crash durability — the save
    // still reports success and the segment loads bit-clean.
    for (const FaultKind kind : {FaultKind::Eio, FaultKind::Enospc}) {
        SCOPED_TRACE(faultKindName(kind));
        const std::string d =
            dir() + "/" + faultKindName(kind);
        FaultInjectingEnv env(Env::posix());
        env.addFault({syncdir_at, kind, 0});
        const TraceStore ts(d, {.env = &env});
        EXPECT_TRUE(ts.save("rawcaudio", t, 2000));
        EXPECT_EQ(env.faultsInjected(), 1u);
        EXPECT_NE(env.script().find("syncdir"), std::string::npos)
            << env.script();
        std::string why;
        EXPECT_NE(ts.load("rawcaudio", w.program, 2000, &why), nullptr)
            << why;
    }
}

// ---- cancellation under transient faults -----------------------------

/**
 * Fires a CancelSource the moment the wrapped FaultInjectingEnv's op
 * counter crosses @p at — "the cancel arrives while I/O op N is in
 * flight". WritableFile ops bump the same counter, so a threshold
 * crossed mid-write fires on the next directory-level call.
 */
class CancelAtOpEnv : public Env
{
  public:
    CancelAtOpEnv(FaultInjectingEnv &base, CancelSource &src,
                  std::uint64_t at)
        : base_(base), src_(src), at_(at)
    {}

    std::unique_ptr<FileView>
    loadFile(const std::string &path, EnvStatus *status) override
    {
        poll();
        auto v = base_.loadFile(path, status);
        poll();
        return v;
    }
    std::unique_ptr<WritableFile>
    createFile(const std::string &path, EnvStatus *status) override
    {
        poll();
        auto f = base_.createFile(path, status);
        poll();
        return f;
    }
    EnvStatus
    renameFile(const std::string &from, const std::string &to) override
    {
        poll();
        const EnvStatus st = base_.renameFile(from, to);
        poll();
        return st;
    }
    EnvStatus
    removeFile(const std::string &path) override
    {
        poll();
        const EnvStatus st = base_.removeFile(path);
        poll();
        return st;
    }
    bool
    fileExists(const std::string &path) override
    {
        poll();
        const bool b = base_.fileExists(path);
        poll();
        return b;
    }
    EnvStatus
    createDirs(const std::string &dir) override
    {
        poll();
        const EnvStatus st = base_.createDirs(dir);
        poll();
        return st;
    }
    std::vector<std::string>
    listDir(const std::string &dir, EnvStatus *status) override
    {
        poll();
        auto names = base_.listDir(dir, status);
        poll();
        return names;
    }
    EnvStatus
    syncDir(const std::string &dir) override
    {
        poll();
        const EnvStatus st = base_.syncDir(dir);
        poll();
        return st;
    }

  private:
    void
    poll()
    {
        if (!src_.cancelled() && base_.opCount() >= at_)
            src_.cancel();
    }

    FaultInjectingEnv &base_;
    CancelSource &src_;
    std::uint64_t at_;
};

SuiteReport
runCancellable(const std::string &store_dir, Env *env,
               CancelToken token)
{
    SessionConfig cfg;
    cfg.threads = 1;
    cfg.storeDir = store_dir;
    cfg.captureLimit = 20'000;
    cfg.env = env;
    Session session(cfg);
    pipeline::PipelineConfig pcfg;
    StudyPlan plan;
    plan.workloads({"rawcaudio", "rawdaudio"})
        .cancel(std::move(token))
        .cpi({Design::Baseline32, Design::ByteSerial}, pcfg);
    return session.run(plan);
}

TEST_F(FaultTest, CancelMidSaveUnderTransientFaultsLeavesSegmentsBitIdentical)
{
    // A committed segment has exactly two legitimate byte states,
    // both deterministic functions of the (deterministic) capture:
    // the write-through save alone, or that save plus the replay's
    // annex write-back (itself an atomic whole-segment rewrite).
    std::map<std::string, std::vector<std::uint8_t>> base_bytes;
    {
        const std::string d = dir() + "/base";
        TraceCache cache({.storeDir = d, .captureLimit = 20'000});
        for (const char *name : {"rawcaudio", "rawdaudio"}) {
            ASSERT_NE(cache.get(name), nullptr);
            base_bytes[name] =
                readAll(TraceStore(d).segmentPath(name));
            ASSERT_FALSE(base_bytes[name].empty());
        }
    }
    std::map<std::string, std::vector<std::uint8_t>> full_bytes;
    {
        const std::string d = dir() + "/full";
        (void)runPlan(d, nullptr);
        const TraceStore ref(d);
        for (const std::string &name : ref.list())
            full_bytes[name] = readAll(ref.segmentPath(name));
        ASSERT_EQ(full_bytes.size(), 2u);
    }

    // Count one full run's env ops to bound the cancel sweep.
    std::uint64_t total_ops = 0;
    {
        FaultInjectingEnv count(Env::posix());
        (void)runPlan(dir() + "/count", &count);
        total_ops = count.opCount();
    }
    ASSERT_GT(total_ops, 0u);

    // Sweep the cancel point across the run under a transient-fault
    // drizzle. Faults land 7 ops apart, so every whole-operation
    // retry (the very next op) succeeds — the storm is survivable by
    // design; what is under test is the state it leaves behind.
    int cancelled_runs = 0;
    const std::uint64_t step = total_ops / 6 + 1;
    for (std::uint64_t at = 0; at < total_ops; at += step) {
        SCOPED_TRACE("cancel at op " + std::to_string(at));
        const std::string d = dir() + "/c" + std::to_string(at);
        FaultInjectingEnv env(Env::posix());
        for (std::uint64_t op = 0; op < total_ops * 2; op += 7)
            env.addFault({op, FaultKind::Eio, 0});
        CancelSource source;
        CancelAtOpEnv cenv(env, source, at);
        const SuiteReport rep =
            runCancellable(d, &cenv, source.token());
        cancelled_runs += rep.cancelled ? 1 : 0;

        // Wherever the cancel landed: leftovers are sweepable,
        // nothing needs quarantine, and every committed segment is
        // bit-identical to one of the two legitimate states.
        const TraceStore ts(d);
        (void)ts.cleanOrphanTemps();
        EXPECT_TRUE(ts.quarantined().empty());
        for (const std::string &name : ts.list()) {
            ASSERT_EQ(base_bytes.count(name), 1u) << name;
            const std::vector<std::uint8_t> got =
                readAll(ts.segmentPath(name));
            EXPECT_TRUE(got == base_bytes[name] ||
                        got == full_bytes[name])
                << name << ": a committed segment diverged from "
                << "every clean-run byte state";
            const workloads::Workload w =
                workloads::Suite::build(name);
            EXPECT_TRUE(ts.verify(name, &w.program)) << name;
        }
    }
    EXPECT_GT(cancelled_runs, 0)
        << "the sweep must land at least one mid-run cancellation";
}

} // namespace
} // namespace sigcomp
