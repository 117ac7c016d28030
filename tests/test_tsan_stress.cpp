/**
 * @file
 * ThreadSanitizer stress tests for the concurrency-correctness layer
 * (PR 6). These run in every configuration — the interleavings they
 * force are correctness tests in their own right — but their real
 * job is under `-DSIGCOMP_SANITIZE=thread` in the tsan CI job, where
 * TSan turns any unsynchronized access they provoke into a failure:
 *
 *  - many concurrent Sessions replaying out of ONE shared read-only
 *    store directory while a writer session forces evict/reload
 *    churn over the same segments;
 *  - Sessions over ONE shared TraceCache (the sigcompd multi-tenant
 *    shape) running overlapping plans while one of them evicts, so
 *    loads, quanta and result-memo publication and eviction of the
 *    same resident traces interleave;
 *  - setSimdLevel() repinned concurrently with codec dispatch
 *    (regression for the lazy-resolution race fixed in
 *    common/simd.cpp: a pin racing the first dispatch must stick);
 *  - the TraceCache accounting counters read while gets and
 *    evictions run (they are documented lock-free atomics;
 *    trace_cache.h);
 *  - one resident trace replayed from several threads at once, at
 *    different block sizes (each replay decodes the encoded columns
 *    into its own scratch).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.h"
#include "analysis/study_plan.h"
#include "analysis/trace_cache.h"
#include "bench/bench_util.h"
#include "common/simd.h"
#include "cpu/trace_buffer.h"
#include "store/codec.h"
#include "tests/live_oracle.h"
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
using pipeline::Design;

/** Small but non-trivial traces: capture stays sub-second. */
constexpr DWord kLimit = 5000;

/** Entries the cache's evict() dropped so far. */
std::uint64_t
evictions(analysis::TraceCache &cache)
{
    return cache.metrics().counter("cache.evictions").value();
}

class TsanStressTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = test::scratchDir(std::string("sigcomp-tsan-") +
                                info->name())
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(TsanStressTest, ConcurrentSessionsOverSharedStoreWithEvictChurn)
{
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic", "unepic"};
    // Seed the shared store once (and derive + persist the quanta
    // annexes) so every reader below can run fully warm.
    {
        Session seeder(SessionConfig{.storeDir = dir_,
                                     .captureLimit = kLimit});
        StudyPlan plan;
        plan.workloads(names).cpi(
            {Design::Baseline32, Design::ByteSerial},
            pipeline::PipelineConfig{});
        const SuiteReport rep = seeder.run(plan);
        ASSERT_EQ(rep.captures, names.size());
    }

    // N tenant sessions replay out of the shared read-only store
    // while one writer session churns the RAM tier: it evicts every
    // trace it gets, so disk loads and eviction constantly
    // interleave with the readers' loads of the same segment files.
    constexpr int kReaders = 4;
    constexpr int kChurnRounds = 24;
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            Session tenant(SessionConfig{.threads = 2,
                                         .storeDir = dir_,
                                         .readOnly = true,
                                         .captureLimit = kLimit});
            StudyPlan plan;
            plan.workloads(names).cpi(
                {r % 2 == 0 ? Design::Baseline32 : Design::ByteSerial},
                pipeline::PipelineConfig{});
            const SuiteReport rep = tenant.run(plan);
            if (rep.captures != 0 || rep.storeLoads != names.size())
                failures.fetch_add(1);
        });
    }
    std::thread churn([&] {
        Session writer(SessionConfig{.storeDir = dir_,
                                     .captureLimit = kLimit});
        for (int round = 0; round < kChurnRounds; ++round) {
            const std::string &name = names[round % names.size()];
            if (writer.trace(name) == nullptr)
                failures.fetch_add(1);
            writer.cache().evict(name);
        }
        // A zero here means the churn never happened and the test
        // lost its point.
        if (evictions(writer.cache()) == 0)
            failures.fetch_add(1);
    });
    for (std::thread &t : readers)
        t.join();
    churn.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST_F(TsanStressTest, SessionsSharingOneCacheOverlapWhileOneEvicts)
{
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};
    {
        Session seeder(SessionConfig{.storeDir = dir_,
                                     .captureLimit = kLimit});
        seeder.prewarm(names);
    }
    const SessionConfig tenantConfig{.threads = 2,
                                     .storeDir = dir_,
                                     .readOnly = true,
                                     .captureLimit = kLimit};
    // Tenant t's plan covers workloads t and t+1, so every workload
    // is in two tenants' plans; tenant 0's plan evicts.
    constexpr int kTenants = 3;
    auto planFor = [&](int t) {
        StudyPlan plan;
        plan.workloads({names[t], names[(t + 1) % kTenants]})
            .cpi({Design::Baseline32, Design::ByteSerial},
                 pipeline::PipelineConfig{})
            .evictAfterReplay(t == 0);
        return plan;
    };
    std::vector<SuiteReport> reference;
    for (int t = 0; t < kTenants; ++t) {
        SessionConfig serial = tenantConfig;
        serial.threads = 1;
        reference.push_back(Session(serial).run(planFor(t)));
    }

    auto cache = std::make_shared<analysis::TraceCache>(tenantConfig);
    constexpr int kRounds = 4;
    std::vector<std::vector<SuiteReport>> served(kTenants);
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t) {
        tenants.emplace_back([&, t] {
            Session tenant(tenantConfig, cache);
            for (int round = 0; round < kRounds; ++round)
                served[t].push_back(tenant.run(planFor(t)));
        });
    }
    for (std::thread &t : tenants)
        t.join();

    for (int t = 0; t < kTenants; ++t) {
        for (const SuiteReport &rep : served[t]) {
            SCOPED_TRACE(t);
            EXPECT_EQ(rep.captures, 0u);
            ASSERT_EQ(rep.cpi.size(), 1u);
            live::expectSameResults(rep.cpi[0], reference[t].cpi[0]);
        }
    }
    EXPECT_GE(evictions(*cache), 2u * kRounds)
        << "the evicting tenant never evicted";
}

TEST_F(TsanStressTest, SetSimdLevelSticksAgainstConcurrentDispatch)
{
    // Deterministic half of the regression: an explicit pin is
    // never overridden by later dispatch resolution.
    const simd::SimdLevel before = simd::activeSimdLevel();
    simd::setSimdLevel(simd::SimdLevel::Scalar);
    EXPECT_EQ(simd::activeSimdLevel(), simd::SimdLevel::Scalar);

    // Probabilistic half, for TSan: hammer codec dispatch from
    // several threads while the main thread cycles the pin through
    // every available level. The bit-identity contract makes every
    // interleaving observable as a wrong result: whatever level an
    // encode lands on, its bytes must equal the scalar encoding.
    const std::vector<Word> input = bench::operandMix(1024);
    std::vector<std::uint8_t> reference;
    store::encodeColumn32(input.data(), input.size(), reference);
    // Only a SigPack block reaches the dispatched encoder.
    ASSERT_EQ(reference.front(),
              static_cast<std::uint8_t>(store::BlockMode::SigPack));

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> hammers;
    for (int t = 0; t < 4; ++t) {
        hammers.emplace_back([&] {
            std::vector<std::uint8_t> out;
            while (!stop.load(std::memory_order_relaxed)) {
                out.clear();
                store::encodeColumn32(input.data(), input.size(), out);
                if (out != reference)
                    mismatches.fetch_add(1);
            }
        });
    }
    const std::vector<simd::SimdLevel> levels =
        simd::availableSimdLevels();
    for (int round = 0; round < 400; ++round)
        simd::setSimdLevel(levels[round % levels.size()]);
    stop.store(true);
    for (std::thread &t : hammers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);

    simd::setSimdLevel(before); // leave dispatch as we found it
}

/** Folds every field of every replayed instruction into one digest. */
class DigestSink : public cpu::TraceSink
{
  public:
    void
    retire(const cpu::DynInstr &di) override
    {
        for (const std::uint64_t v :
             {std::uint64_t{di.pc}, std::uint64_t{di.srcRs},
              std::uint64_t{di.srcRt}, std::uint64_t{di.result},
              std::uint64_t{di.memAddr}, std::uint64_t{di.memData},
              std::uint64_t{di.taken}, std::uint64_t{di.nextPc},
              std::uint64_t{di.sigTags}})
            digest = (digest ^ v) * 0x100000001B3ull;
        ++count;
    }

    std::uint64_t digest = 0xCBF29CE484222325ull;
    std::size_t count = 0;
};

TEST_F(TsanStressTest, ReplaysOfOneSharedBufferShareNothing)
{
    // Resident traces hold encoded columns and every replay decodes
    // them into its own scratch: concurrent replays of one buffer, at
    // block sizes that cut the 4096-value codec blocks differently,
    // must each see the whole stream unchanged.
    const workloads::Workload w = workloads::Suite::build("cjpeg");
    const auto trace = std::make_shared<const cpu::TraceBuffer>(
        cpu::TraceBuffer::capture(w.program, 5 * store::codecBlockValues,
                                  true));
    DigestSink reference;
    cpu::TraceView(*trace).replay(reference);
    ASSERT_EQ(reference.count, trace->size());

    const std::size_t block_sizes[] = {1, 7, 1000, 4096, 5000, 1u << 20};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> replayers;
    for (const std::size_t block_size : block_sizes) {
        replayers.emplace_back([&, block_size] {
            for (int round = 0; round < 3; ++round) {
                DigestSink sink;
                cpu::TraceView(*trace).replay(sink, block_size);
                if (sink.digest != reference.digest ||
                    sink.count != reference.count)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : replayers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(trace->replayCount(), 1u + 3u * std::size(block_sizes));
}

TEST_F(TsanStressTest, AccountingCountersAreReadableDuringChurn)
{
    Session session(SessionConfig{.storeDir = dir_,
                                  .captureLimit = kLimit});
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};

    std::atomic<bool> stop{false};
    std::thread poller([&] {
        // The counters are documented lock-free: reading them while
        // gets and evictions run must be race-free and monotone.
        std::uint64_t last_captures = 0, last_evictions = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            analysis::TraceCache &c = session.cache();
            const std::uint64_t cap = c.captures();
            const std::uint64_t ev = evictions(c);
            EXPECT_GE(cap, last_captures);
            EXPECT_GE(ev, last_evictions);
            last_captures = cap;
            last_evictions = ev;
            c.memoryBytes(); // locked scan racing the mutators
            (void)c.storeLoads();
            (void)c.storeSaves();
        }
    });
    std::vector<std::thread> getters;
    for (int t = 0; t < 3; ++t) {
        getters.emplace_back([&, t] {
            for (int round = 0; round < 12; ++round) {
                const std::string &name =
                    names[(t + round) % names.size()];
                ASSERT_NE(session.trace(name), nullptr);
                if (round % 2 == 1)
                    session.cache().evict(name);
            }
        });
    }
    for (std::thread &t : getters)
        t.join();
    stop.store(true);
    poller.join();
    EXPECT_GT(evictions(session.cache()), 0u)
        << "the churn never happened";
}

} // namespace
} // namespace sigcomp
