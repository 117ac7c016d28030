/**
 * @file
 * Persistent trace store tests: codec round trips, segment
 * save/load field-exactness, fail-soft behaviour on every corruption
 * mode (truncation, bit flips, version and fingerprint mismatches),
 * the two-tier TraceCache (load-instead-of-capture, concurrent
 * read-while-evict), and the acceptance property that
 * store-replayed activity/CPI/profiler outputs are bit-identical to
 * live capture across all three encodings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "analysis/trace_cache.h"
#include "common/crc32.h"
#include "common/env.h"
#include "pipeline/runner.h"
#include "store/codec.h"
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
using analysis::StudyPlan;
using analysis::SuiteReport;
using analysis::TraceCache;
using pipeline::Design;
using store::TraceStore;

/** Fresh per-test directory under the gtest temp root. */
class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = test::scratchDir(std::string("sigcomp-store-") +
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

void
writeAll(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

// ---- column codecs ---------------------------------------------------

std::vector<std::uint32_t>
codecRoundTrip(const std::vector<std::uint32_t> &vals)
{
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(vals.data(), vals.size(), enc);
    std::vector<std::uint32_t> dec;
    EXPECT_TRUE(
        store::decodeColumn32(enc.data(), enc.size(), vals.size(), dec));
    return dec;
}

TEST(StoreCodec, RoundTripsRepresentativeStreams)
{
    // Empty.
    EXPECT_TRUE(codecRoundTrip({}).empty());

    // Small operand-like values (SigPack territory).
    std::vector<std::uint32_t> small;
    for (std::uint32_t i = 0; i < 10'000; ++i)
        small.push_back(i % 251);
    EXPECT_EQ(codecRoundTrip(small), small);

    // Sequential decode-index-like values (DeltaVarint territory).
    std::vector<std::uint32_t> seq;
    for (std::uint32_t i = 0; i < 10'000; ++i)
        seq.push_back(1000 + i + (i % 17 == 0 ? 40 : 0));
    EXPECT_EQ(codecRoundTrip(seq), seq);

    // Negatives / sign-extended values.
    std::vector<std::uint32_t> neg;
    for (std::uint32_t i = 0; i < 10'000; ++i)
        neg.push_back(static_cast<std::uint32_t>(-static_cast<int>(i)));
    EXPECT_EQ(codecRoundTrip(neg), neg);

    // Full-entropy words (raw fallback; must not explode).
    std::vector<std::uint32_t> wide;
    std::uint32_t x = 0x12345678;
    for (std::uint32_t i = 0; i < 10'000; ++i) {
        x = x * 1664525u + 1013904223u;
        wide.push_back(x);
    }
    EXPECT_EQ(codecRoundTrip(wide), wide);
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(wide.data(), wide.size(), enc);
    // Worst case bounded: raw + one 5-byte header per 4096-value block.
    EXPECT_LE(enc.size(),
              4 * wide.size() +
                  5 * (wide.size() / store::codecBlockValues + 1));
}

TEST(StoreCodec, SignificancePackingBeatsRawOnOperandMixes)
{
    std::vector<std::uint32_t> vals;
    for (std::uint32_t i = 0; i < 100'000; ++i) {
        if (i % 16 < 9)
            vals.push_back(i % 100); // small positive
        else if (i % 16 < 12)
            vals.push_back(
                static_cast<std::uint32_t>(-static_cast<int>(i % 256)));
        else if (i % 16 < 14)
            vals.push_back(0x1000 + i % 0x4000); // halfword-ish
        else
            vals.push_back(0x10000000u + i); // pointer-like
    }
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(vals.data(), vals.size(), enc);
    EXPECT_LT(enc.size(), 4 * vals.size() / 2)
        << "significance packing should at least halve a Table-1-like "
           "operand mix";
    EXPECT_EQ(codecRoundTrip(vals), vals);
}

TEST(StoreCodec, DecodeFailsSoftOnMalformedStreams)
{
    std::vector<std::uint32_t> vals(5000, 7);
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = static_cast<std::uint32_t>(3 * i);
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(vals.data(), vals.size(), enc);

    std::vector<std::uint32_t> dec;
    // Truncated at every interesting boundary.
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{3}, enc.size() / 2, enc.size() - 1})
        EXPECT_FALSE(
            store::decodeColumn32(enc.data(), len, vals.size(), dec))
            << "len=" << len;
    // Wrong expected count.
    EXPECT_FALSE(store::decodeColumn32(enc.data(), enc.size(),
                                       vals.size() - 1, dec));
    EXPECT_FALSE(store::decodeColumn32(enc.data(), enc.size(),
                                       vals.size() + 1, dec));
    // Unknown block mode.
    std::vector<std::uint8_t> bad = enc;
    bad[0] = 0x7F;
    EXPECT_FALSE(
        store::decodeColumn32(bad.data(), bad.size(), vals.size(), dec));
}

// ---- segment save/load ----------------------------------------------

TEST_F(StoreTest, SegmentRoundTripIsFieldExact)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const auto captured = std::make_shared<cpu::TraceBuffer>(
        cpu::TraceBuffer::capture(w.program));

    const TraceStore ts(dir());
    std::string why;
    ASSERT_TRUE(ts.save("rawcaudio", *captured,
                        cpu::TraceBuffer::defaultMaxInstrs, &why))
        << why;
    ASSERT_EQ(ts.list(), std::vector<std::string>{"rawcaudio"});

    const auto loaded = ts.load(
        "rawcaudio", w.program, cpu::TraceBuffer::defaultMaxInstrs, &why);
    ASSERT_NE(loaded, nullptr) << why;
    ASSERT_EQ(loaded->size(), captured->size());
    EXPECT_EQ(loaded->runResult().instructions,
              captured->runResult().instructions);
    EXPECT_EQ(loaded->runResult().exitCode,
              captured->runResult().exitCode);
    EXPECT_FALSE(loaded->truncated());

    // The replayed streams must match field for field.
    struct Collect : cpu::TraceSink
    {
        void
        retire(const cpu::DynInstr &di) override
        {
            instrs.push_back(di);
        }
        std::vector<cpu::DynInstr> instrs;
    };
    Collect a;
    cpu::TraceView(*captured).replay(a);
    Collect b;
    cpu::TraceView(*loaded).replay(b);
    ASSERT_EQ(a.instrs.size(), b.instrs.size());
    for (std::size_t i = 0; i < a.instrs.size(); ++i) {
        const cpu::DynInstr &x = a.instrs[i];
        const cpu::DynInstr &y = b.instrs[i];
        ASSERT_EQ(x.pc, y.pc) << i;
        ASSERT_EQ(x.dec->inst.raw(), y.dec->inst.raw()) << i;
        ASSERT_EQ(x.srcRs, y.srcRs) << i;
        ASSERT_EQ(x.srcRt, y.srcRt) << i;
        ASSERT_EQ(x.result, y.result) << i;
        ASSERT_EQ(x.memAddr, y.memAddr) << i;
        ASSERT_EQ(x.memData, y.memData) << i;
        ASSERT_EQ(x.taken, y.taken) << i;
        ASSERT_EQ(x.nextPc, y.nextPc) << i;
        ASSERT_EQ(x.sigTags, y.sigTags) << i;
    }

    // The on-disk codec must actually compress the columns.
    store::SegmentInfo info;
    ASSERT_TRUE(ts.info("rawcaudio", info, &why)) << why;
    EXPECT_EQ(info.instructions, captured->size());
    EXPECT_LT(info.encodedBytes(), info.rawBytes() / 2)
        << "significance compression should at least halve the trace";
    EXPECT_TRUE(ts.verify("rawcaudio", &w.program, &why)) << why;
}

TEST_F(StoreTest, TruncatedCapturesRoundTripWithTheirLimit)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, 1000, true);
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("rawcaudio", t, 1000));

    std::string why;
    const auto loaded = ts.load("rawcaudio", w.program, 1000, &why);
    ASSERT_NE(loaded, nullptr) << why;
    EXPECT_TRUE(loaded->truncated());
    EXPECT_EQ(loaded->size(), 1000u);

    // A different capture limit must not replay this segment.
    EXPECT_EQ(ts.load("rawcaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr);
    EXPECT_NE(why.find("capture-limit"), std::string::npos) << why;
}

TEST_F(StoreTest, SegmentViewSurvivesInPlaceTruncation)
{
    // A segment truncated in place by an outside writer while a load
    // holds its view must not fault the reader: the view is a private
    // copy taken at open, so every byte still reads as it was.
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("rawcaudio",
                        cpu::TraceBuffer::capture(w.program, 4000, true),
                        4000));
    const std::string path = ts.segmentPath("rawcaudio");
    const std::vector<std::uint8_t> before = readAll(path);
    ASSERT_GT(before.size(), 4096u);

    EnvStatus st;
    const auto view = Env::posix().loadFile(path, &st);
    ASSERT_NE(view, nullptr) << st.message;
    fs::resize_file(path, 0);
    ASSERT_EQ(view->size(), before.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < view->size(); ++i)
        differing += view->data()[i] != before[i];
    EXPECT_EQ(differing, 0u);

    // And a load after the truncation is an ordinary soft miss.
    std::string why;
    EXPECT_EQ(ts.load("rawcaudio", w.program, 4000, &why), nullptr);
    EXPECT_FALSE(why.empty());
}

TEST_F(StoreTest, LoadFailsSoftOnEveryCorruptionMode)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("rawdaudio", t, cpu::TraceBuffer::defaultMaxInstrs));
    const std::string path = ts.segmentPath("rawdaudio");
    const std::vector<std::uint8_t> good = readAll(path);
    ASSERT_GT(good.size(), 200u);

    const auto loads = [&](const char *what) {
        std::string why;
        const auto p = ts.load("rawdaudio", w.program,
                               cpu::TraceBuffer::defaultMaxInstrs, &why);
        EXPECT_EQ(p, nullptr) << what << " should fail soft";
        EXPECT_FALSE(ts.verify("rawdaudio", &w.program)) << what;
        return why;
    };

    // Truncated segment (mid-payload and mid-header).
    for (const std::size_t keep :
         {good.size() / 2, std::size_t{80}, std::size_t{10}}) {
        std::vector<std::uint8_t> cut(good.begin(),
                                      good.begin() +
                                          static_cast<long>(keep));
        writeAll(path, cut);
        loads("truncation");
    }

    // Flipped payload byte: the column CRC must catch it.
    {
        std::vector<std::uint8_t> bad = good;
        bad[bad.size() - 100] ^= 0x40;
        writeAll(path, bad);
        const std::string why = loads("payload bit flip");
        EXPECT_NE(why.find("CRC"), std::string::npos) << why;
    }

    // Flipped header byte: the header CRC must catch it.
    {
        std::vector<std::uint8_t> bad = good;
        bad[9] ^= 0x01; // instruction count
        writeAll(path, bad);
        loads("header bit flip");
    }

    // Foreign format version with a *valid* header CRC: the version
    // gate itself must reject it.
    {
        std::vector<std::uint8_t> bad = good;
        bad[4] = static_cast<std::uint8_t>(store::formatVersion + 1);
        const std::uint32_t crc = crc32(0, bad.data(), 60);
        bad[60] = static_cast<std::uint8_t>(crc);
        bad[61] = static_cast<std::uint8_t>(crc >> 8);
        bad[62] = static_cast<std::uint8_t>(crc >> 16);
        bad[63] = static_cast<std::uint8_t>(crc >> 24);
        writeAll(path, bad);
        const std::string why = loads("version bump");
        EXPECT_NE(why.find("version"), std::string::npos) << why;
    }

    // Wrong magic / empty file / no file.
    {
        std::vector<std::uint8_t> bad = good;
        bad[0] = 'X';
        writeAll(path, bad);
        loads("bad magic");
        writeAll(path, {});
        loads("empty file");
        fs::remove(path);
        std::string why;
        EXPECT_EQ(ts.load("rawdaudio", w.program,
                          cpu::TraceBuffer::defaultMaxInstrs, &why),
                  nullptr);
    }

    // Restore the pristine bytes: everything must work again.
    writeAll(path, good);
    std::string why;
    EXPECT_NE(ts.load("rawdaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr)
        << why;
}

TEST_F(StoreTest, FingerprintRejectsSegmentsFromOtherPrograms)
{
    const workloads::Workload a = workloads::Suite::build("rawcaudio");
    const workloads::Workload b = workloads::Suite::build("rawdaudio");
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("x", cpu::TraceBuffer::capture(a.program),
                        cpu::TraceBuffer::defaultMaxInstrs));

    // Same segment name, different program: the fingerprint must
    // refuse (this is the "workload kernel was edited" staleness
    // case).
    std::string why;
    EXPECT_EQ(ts.load("x", b.program, cpu::TraceBuffer::defaultMaxInstrs,
                      &why),
              nullptr);
    EXPECT_NE(why.find("fingerprint"), std::string::npos) << why;
    EXPECT_NE(ts.load("x", a.program, cpu::TraceBuffer::defaultMaxInstrs,
                      &why),
              nullptr)
        << why;
}

TEST_F(StoreTest, EscapedSegmentNamesDoNotCollide)
{
    // "a/b" and "a b" both escape to "a_b"; the hash suffix must
    // keep their segments distinct (aliased files would silently
    // clobber each other through the fingerprint check).
    const workloads::Workload a = workloads::Suite::build("rawcaudio");
    const workloads::Workload b = workloads::Suite::build("rawdaudio");
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("a/b", cpu::TraceBuffer::capture(a.program),
                        cpu::TraceBuffer::defaultMaxInstrs));
    ASSERT_TRUE(ts.save("a b", cpu::TraceBuffer::capture(b.program),
                        cpu::TraceBuffer::defaultMaxInstrs));
    EXPECT_NE(ts.segmentPath("a/b"), ts.segmentPath("a b"));
    std::string why;
    EXPECT_NE(ts.load("a/b", a.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr)
        << why;
    EXPECT_NE(ts.load("a b", b.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr)
        << why;
}

TEST_F(StoreTest, ListInfoRemoveManageSegments)
{
    const TraceStore ts(dir());
    EXPECT_TRUE(ts.list().empty());
    for (const char *name : {"rawcaudio", "rawdaudio"}) {
        const workloads::Workload w = workloads::Suite::build(name);
        ASSERT_TRUE(ts.save(name,
                            cpu::TraceBuffer::capture(w.program, 2000,
                                                      true),
                            2000));
    }
    EXPECT_EQ(ts.list(),
              (std::vector<std::string>{"rawcaudio", "rawdaudio"}));
    EXPECT_TRUE(ts.remove("rawcaudio"));
    EXPECT_FALSE(ts.remove("rawcaudio"));
    EXPECT_EQ(ts.list(), (std::vector<std::string>{"rawdaudio"}));
}

// ---- two-tier TraceCache --------------------------------------------

TEST_F(StoreTest, CacheLoadsFromStoreInsteadOfRecapturing)
{
    TraceCache cache({.storeDir = dir()});

    const TraceCache::TracePtr first = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.storeSaves(), 1u);
    EXPECT_EQ(cache.storeLoads(), 0u);

    // Simulate a cold process: drop the RAM tier. The next get()
    // must come from disk, not functional simulation.
    cache.clear();
    const TraceCache::TracePtr second = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u) << "store hit must skip capture";
    EXPECT_EQ(cache.storeLoads(), 1u);
    ASSERT_EQ(second->size(), first->size());
    EXPECT_EQ(second->runResult().instructions,
              first->runResult().instructions);

    // A genuinely cold cache object (new process) rides the same
    // segments.
    TraceCache fresh({.storeDir = dir(), .readOnly = true}); // enough
    const TraceCache::TracePtr third = fresh.get("rawcaudio");
    EXPECT_EQ(fresh.captures(), 0u);
    EXPECT_EQ(fresh.storeLoads(), 1u);
    EXPECT_EQ(third->size(), first->size());
}

TEST_F(StoreTest, CacheRecapturesOverCorruptOrStaleSegments)
{
    TraceCache cache({.storeDir = dir()});
    cache.get("rawcaudio");
    ASSERT_EQ(cache.storeSaves(), 1u);

    // Corrupt the segment on disk; a cold get() must fall back to
    // capture (fail soft) and overwrite with a good segment.
    const TraceStore ts(dir());
    const std::string path = ts.segmentPath("rawcaudio");
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes.resize(bytes.size() / 3);
    writeAll(path, bytes);

    cache.clear();
    const TraceCache::TracePtr t = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_EQ(cache.storeLoads(), 0u);
    EXPECT_EQ(cache.storeSaves(), 2u) << "good segment rewritten";
    EXPECT_GT(t->size(), 0u);

    // And the rewritten segment serves the next cold process.
    cache.clear();
    cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_EQ(cache.storeLoads(), 1u);
}

TEST_F(StoreTest, ReadOnlyStoreNeverWrites)
{
    TraceCache cache({.storeDir = dir(), .readOnly = true});
    cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.storeSaves(), 0u);
    EXPECT_TRUE(TraceStore(dir(), true).list().empty());
}

TEST_F(StoreTest, ConcurrentReadWhileEvictFailsSoft)
{
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic", "unepic"};
    // Reference sizes from a plain cache.
    std::map<std::string, std::size_t> want;
    {
        TraceCache ref({.captureLimit = 20'000});
        for (const std::string &n : names)
            want[n] = ref.get(n)->size();
    }

    // Every get() is followed by an evict() of the same workload:
    // the most hostile read-while-evict interleaving possible.
    TraceCache cache({.storeDir = dir(), .captureLimit = 20'000});

    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 25;
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned r = 0; r < kRounds; ++r) {
                const std::string &n =
                    names[(t + r) % names.size()];
                const TraceCache::TracePtr p = cache.get(n);
                if (p == nullptr || p->size() != want[n])
                    ok = false;
                cache.evict(n);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_TRUE(ok.load())
        << "an evicted-and-reloaded trace returned wrong data";
    // Disk served the reloads; capture ran at most once per workload
    // per miss burst (sanity: not once per get()).
    EXPECT_GT(cache.storeLoads(), 0u);
    EXPECT_LT(cache.captures(), kThreads * kRounds / 2);
}

// ---- acceptance: store-replay bit identity ---------------------------

class StoreBitIdentity : public ::testing::TestWithParam<sig::Encoding>
{
  protected:
    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    fs::path dir_ = test::scratchDir("sigcomp-store-bit-identity");
};

TEST_P(StoreBitIdentity, ActivityCpiAndProfilersMatchLiveCapture)
{
    const sig::Encoding enc = GetParam();
    const std::string sdir = dir_.string();

    // Live-simulation reference.
    const auto activity_live = live::activityStudy(enc);
    const auto cpi_live =
        live::cpiStudy(pipeline::allDesigns(), analysis::suiteConfig(enc));
    analysis::PatternProfiler pat_live;
    analysis::InstrMixProfiler mix_live;
    live::profileSuite({&pat_live, &mix_live});

    // Populate the store, then replay from a fresh session so every
    // trace comes back off disk (cold RAM tier).
    {
        Session writer({.storeDir = sdir});
        writer.run(StudyPlan().activity(enc));
    }
    Session reader({.storeDir = sdir});
    const SuiteReport rep =
        reader.run(StudyPlan()
                       .activity(enc)
                       .cpi(pipeline::allDesigns(),
                            analysis::suiteConfig(enc)));
    analysis::PatternProfiler pat_store;
    analysis::InstrMixProfiler mix_store;
    reader.run(StudyPlan().profile({&pat_store, &mix_store}));

    EXPECT_EQ(reader.cache().captures(), 0u)
        << "the replayed run must not have recaptured anything";
    EXPECT_GT(reader.cache().storeLoads(), 0u);

    live::expectSameRows(rep.activity.front().rows, activity_live);
    live::expectSameResults(rep.cpi.front().results, cpi_live);
    EXPECT_EQ(pat_store.patterns().raw(), pat_live.patterns().raw());
    EXPECT_EQ(mix_store.functFreq().raw(), mix_live.functFreq().raw());
    EXPECT_EQ(mix_store.meanFetchBytes(), mix_live.meanFetchBytes());
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, StoreBitIdentity,
                         ::testing::Values(sig::Encoding::Ext2,
                                           sig::Encoding::Ext3,
                                           sig::Encoding::Half1),
                         [](const auto &info) {
                             return sig::encodingName(info.param);
                         });

// ---- older format versions ------------------------------------------

TEST_F(StoreTest, OlderFormatVersionLoadsAsStaleAndIsRecaptured)
{
    TraceCache cache({.storeDir = dir()});
    cache.get("rawdaudio");
    const TraceStore ts(dir());
    const std::string path = ts.segmentPath("rawdaudio");

    // Re-stamp the segment as the previous version (format 9, whose
    // quanta annexes still stored per-block activity deltas), header
    // CRC intact.
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[4] = static_cast<std::uint8_t>(store::formatVersion - 1);
    const std::uint32_t crc = crc32(0, bytes.data(), 60);
    for (unsigned i = 0; i < 4; ++i)
        bytes[60 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeAll(path, bytes);

    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    std::string why;
    auto failure = store::LoadFailure::None;
    EXPECT_EQ(ts.load("rawdaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why, &failure),
              nullptr);
    EXPECT_EQ(failure, store::LoadFailure::Stale) << why;

    // A cold get() recaptures and overwrites it in the current
    // format; nothing is quarantined.
    cache.clear();
    cache.get("rawdaudio");
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_EQ(cache.storeSaves(), 2u);
    EXPECT_EQ(cache.storeLoadFailures(), 0u);
    EXPECT_EQ(store::getU32(readAll(path).data() + 4),
              store::formatVersion);
}

TEST_F(StoreTest, OlderFormatVersionIsStaleNotCorruptEverywhere)
{
    // info(), verify() and load() judge the format version in one
    // place, so a re-stamped older segment is stale for all three.
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("rawdaudio", cpu::TraceBuffer::capture(w.program),
                        cpu::TraceBuffer::defaultMaxInstrs));
    const std::string path = ts.segmentPath("rawdaudio");
    std::vector<std::uint8_t> bytes = readAll(path);
    bytes[4] = static_cast<std::uint8_t>(store::formatVersion - 1);
    const std::uint32_t crc = crc32(0, bytes.data(), 60);
    for (unsigned i = 0; i < 4; ++i)
        bytes[60 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeAll(path, bytes);

    std::string why;
    auto failure = store::LoadFailure::None;
    store::SegmentInfo info;
    EXPECT_FALSE(ts.info("rawdaudio", info, &why, &failure));
    EXPECT_EQ(failure, store::LoadFailure::Stale) << why;
    EXPECT_NE(why.find("older"), std::string::npos) << why;
    const isa::Program *programs[] = {&w.program, nullptr};
    for (const isa::Program *program : programs) {
        failure = store::LoadFailure::None;
        EXPECT_FALSE(ts.verify("rawdaudio", program, &why, &failure));
        EXPECT_EQ(failure, store::LoadFailure::Stale) << why;
    }

    // A damaged header of the same version is corrupt, not stale.
    bytes[60] ^= 0x01;
    writeAll(path, bytes);
    EXPECT_FALSE(ts.verify("rawdaudio", &w.program, &why, &failure));
    EXPECT_EQ(failure, store::LoadFailure::Corrupt) << why;
    EXPECT_FALSE(ts.info("rawdaudio", info, &why, &failure));
    EXPECT_EQ(failure, store::LoadFailure::Corrupt) << why;
}

TEST_F(StoreTest, LoadDataStreamOffByOneFailsSoft)
{
    // The loaded bytes are the only values a segment stores, and
    // replay's load cursor trusts their count. A load stream one value
    // short or one long, resealed past the CRCs, must fail the load
    // softly as Corrupt with the reason, and the cache must recapture.
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("rawdaudio", cpu::TraceBuffer::capture(w.program),
                        cpu::TraceBuffer::defaultMaxInstrs));
    const std::string path = ts.segmentPath("rawdaudio");
    const std::vector<std::uint8_t> good = readAll(path);

    // Layout: 64-byte header (load count at byte 16, CRC at 60), two
    // 32-byte directory entries (raw size at +8, encoded size at +16,
    // payload CRC at +24) and their CRC, the decIdx payload, the
    // loadData payload, then the annex section.
    constexpr std::size_t kDir = 64;
    constexpr std::size_t kEntry = 32;
    const std::uint64_t loads = store::getU64(good.data() + 16);
    ASSERT_GT(loads, 0u);
    const std::size_t load_at = kDir + 2 * kEntry + 4 +
                                store::getU64(good.data() + kDir + 16);
    const std::size_t load_len =
        store::getU64(good.data() + kDir + kEntry + 16);
    std::vector<std::uint32_t> values;
    ASSERT_TRUE(store::decodeColumn32(good.data() + load_at, load_len,
                                      loads, values));

    // The segment with @p stream as its load column, every CRC
    // resealed; the directory claims @p dir_loads values and the
    // header @p header_loads.
    const auto reseal = [&](const std::vector<std::uint32_t> &stream,
                            std::uint64_t dir_loads,
                            std::uint64_t header_loads) {
        std::vector<std::uint8_t> enc;
        store::encodeColumn32(stream.data(), stream.size(), enc);
        std::vector<std::uint8_t> bytes(good.begin(),
                                        good.begin() +
                                            static_cast<long>(load_at));
        bytes.insert(bytes.end(), enc.begin(), enc.end());
        bytes.insert(bytes.end(),
                     good.begin() + static_cast<long>(load_at + load_len),
                     good.end());
        const auto put = [&](std::size_t at, std::uint64_t v,
                             unsigned width) {
            for (unsigned i = 0; i < width; ++i)
                bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        };
        put(16, header_loads, 8);
        put(60, crc32(0, bytes.data(), 60), 4);
        put(kDir + kEntry + 8, 4 * dir_loads, 8);
        put(kDir + kEntry + 16, enc.size(), 8);
        put(kDir + kEntry + 24, crc32(0, enc.data(), enc.size()), 4);
        put(kDir + 2 * kEntry, crc32(0, bytes.data() + kDir, 2 * kEntry),
            4);
        return bytes;
    };

    std::vector<std::uint32_t> shorter = values;
    shorter.pop_back();
    std::vector<std::uint32_t> longer = values;
    longer.push_back(0x7f);
    for (const auto &[what, stream] :
         {std::pair{"one value short", shorter},
          std::pair{"one value long", longer}}) {
        SCOPED_TRACE(what);
        const struct
        {
            const char *form;
            std::uint64_t dirLoads, headerLoads;
            const char *reason;
            /** Also judged by info(), which reads no payload. */
            bool byInfo;
            /** Also judged by the program-less verify(). */
            bool withoutProgram;
        } forms[] = {
            // The directory disagrees with the header: every reader
            // sees it in the directory alone.
            {"directory resealed", stream.size(), loads,
             "loadData: raw size mismatch", true, true},
            // The directory agrees with the header but the stream
            // decodes to another count.
            {"stream resealed", loads, loads,
             "loadData: malformed codec stream", false, true},
            // Header, directory and stream agree with each other;
            // only the program's decode indexes can tell the count
            // is wrong.
            {"header resealed", stream.size(), stream.size(),
             "loadData: load count inconsistent with program", false,
             false},
        };
        for (const auto &f : forms) {
            SCOPED_TRACE(f.form);
            writeAll(path, reseal(stream, f.dirLoads, f.headerLoads));
            // why and failure by reference: read after the call fills
            // them, whatever the argument evaluation order.
            const auto expect_corrupt = [&](bool ok, const std::string &why,
                                            const store::LoadFailure &failure) {
                EXPECT_FALSE(ok);
                EXPECT_EQ(failure, store::LoadFailure::Corrupt);
                EXPECT_NE(why.find(f.reason), std::string::npos) << why;
            };
            std::string why;
            auto failure = store::LoadFailure::None;
            expect_corrupt(ts.load("rawdaudio", w.program,
                                   cpu::TraceBuffer::defaultMaxInstrs, &why,
                                   &failure) != nullptr,
                           why, failure);
            failure = store::LoadFailure::None;
            expect_corrupt(ts.verify("rawdaudio", &w.program, &why, &failure),
                           why, failure);
            if (f.withoutProgram) {
                failure = store::LoadFailure::None;
                expect_corrupt(ts.verify("rawdaudio", nullptr, &why, &failure),
                               why, failure);
            }
            if (f.byInfo) {
                store::SegmentInfo info;
                failure = store::LoadFailure::None;
                expect_corrupt(ts.info("rawdaudio", info, &why, &failure), why,
                               failure);
            }

            TraceCache cache({.storeDir = dir()});
            cache.get("rawdaudio");
            EXPECT_EQ(cache.captures(), 1u);
            EXPECT_EQ(cache.storeLoads(), 0u);
        }
    }
}

// ---- SharedQuanta annexes -------------------------------------------

/** Quanta front halves recorded in this process so far. */
std::uint64_t
quantaRecorders()
{
    return telemetry::Registry::process().snapshot().value(
        "pipeline.quanta_recorders");
}

/**
 * Replay a pipeline over @p trace so a "quanta:<key>" SharedQuanta
 * record is published on it; returns that key.
 */
std::string
publishQuanta(const cpu::TraceBuffer &trace)
{
    auto pipe = pipeline::makePipeline(Design::ByteSerial,
                                       analysis::suiteConfig());
    pipeline::replayPipelines(trace, {pipe.get()});
    return pipe->quantaKey();
}

TEST_F(StoreTest, QuantaAnnexRoundTripsAndSkipsTheFrontHalf)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    const std::string key = publishQuanta(t);
    ASSERT_FALSE(t.annexKeys("quanta:").empty());

    // Reference result: a fresh full replay on the captured trace.
    auto ref_pipe = pipeline::makePipeline(Design::ByteSerial,
                                           analysis::suiteConfig());
    pipeline::replayPipelines(t, {ref_pipe.get()});
    const pipeline::PipelineResult ref = ref_pipe->result();

    // A buffer with quanta records saves in the annex-bearing format.
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawdaudio", t, cpu::TraceBuffer::defaultMaxInstrs));
    const std::vector<std::uint8_t> bytes =
        readAll(ts.segmentPath("rawdaudio"));
    EXPECT_EQ(store::getU32(bytes.data() + 4), store::formatVersion);
    EXPECT_TRUE(ts.verify("rawdaudio", &w.program));
    store::SegmentInfo info;
    ASSERT_TRUE(ts.info("rawdaudio", info));
    ASSERT_EQ(info.annexes.size(), 1u);
    EXPECT_EQ(info.annexes[0].name, key);
    EXPECT_GT(info.annexes[0].encodedBytes, 0u);

    // A warm load restores the record, and a same-key pipeline then
    // replays as a pure consumer: no front half is recorded, yet
    // every result field — including the adopted cache stats — is
    // bit-identical.
    std::string why;
    const auto loaded = ts.load("rawdaudio", w.program,
                                cpu::TraceBuffer::defaultMaxInstrs,
                                &why);
    ASSERT_NE(loaded, nullptr) << why;
    EXPECT_EQ(loaded->annexKeys("quanta:"),
              std::vector<std::string>{key});

    // The decoded record is the saved one: hit bits, dictionary,
    // escapes, miss list, activity total and cache statistics.
    const auto saved =
        std::static_pointer_cast<const pipeline::SharedQuanta>(
            t.annexGet(key));
    const auto restored =
        std::static_pointer_cast<const pipeline::SharedQuanta>(
            loaded->annexGet(key));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->size(), saved->size());
    EXPECT_TRUE(restored->hits == saved->hits);
    EXPECT_TRUE(restored->dict == saved->dict);
    EXPECT_TRUE(restored->escapes == saved->escapes);
    EXPECT_FALSE(saved->misses.empty());
    EXPECT_TRUE(restored->misses == saved->misses);
    EXPECT_GT(saved->activity.fetch.compressed, 0u);
    live::expectSameActivity(restored->activity, saved->activity, key);
    EXPECT_TRUE(restored->l1i == saved->l1i);
    EXPECT_TRUE(restored->l1d == saved->l1d);
    EXPECT_TRUE(restored->l2 == saved->l2);

    auto warm_pipe = pipeline::makePipeline(Design::ByteSerial,
                                            analysis::suiteConfig());
    const std::uint64_t recorders0 = quantaRecorders();
    pipeline::replayPipelines(*loaded, {warm_pipe.get()});
    EXPECT_EQ(quantaRecorders(), recorders0)
        << "consumer replay must not recompute the quanta front half";
    const pipeline::PipelineResult warm = warm_pipe->result();
    EXPECT_EQ(warm.cycles, ref.cycles);
    EXPECT_EQ(warm.instructions, ref.instructions);
    EXPECT_TRUE(warm.stalls == ref.stalls);
    EXPECT_EQ(warm.activity.latch.compressed,
              ref.activity.latch.compressed);
    EXPECT_EQ(warm.activity.fetch.compressed,
              ref.activity.fetch.compressed);
    EXPECT_EQ(warm.l1i.misses(), ref.l1i.misses());
    EXPECT_EQ(warm.l1d.misses(), ref.l1d.misses());
    EXPECT_EQ(warm.l2.misses(), ref.l2.misses());
}

TEST_F(StoreTest, QuantaFrontHalfIsRecordedOncePerKey)
{
    // A fresh all-design CPI study over one trace records one front
    // half per quanta key: Ext3 for six designs, Half1 for the
    // halfword-serial one.
    const StudyPlan plan =
        StudyPlan()
            .cpi(pipeline::allDesigns(), analysis::suiteConfig())
            .workloads({"rawcaudio"});
    Session cold({.threads = 1, .storeDir = dir()});
    const std::uint64_t r0 = quantaRecorders();
    const SuiteReport first = cold.run(plan);
    EXPECT_EQ(first.replayPasses, 1u);
    EXPECT_EQ(quantaRecorders(), r0 + 2);

    // Rerunning on the same session adopts every memoised result.
    const SuiteReport memo = cold.run(plan);
    EXPECT_EQ(memo.replayPasses, 0u);
    EXPECT_EQ(quantaRecorders(), r0 + 2);

    // A new process over the store replays, consuming the persisted
    // quanta records instead of recording them again.
    Session warm({.threads = 1, .storeDir = dir(), .readOnly = true});
    const SuiteReport again = warm.run(plan);
    EXPECT_EQ(again.storeLoads, 1u);
    EXPECT_EQ(again.replayPasses, 1u);
    EXPECT_EQ(quantaRecorders(), r0 + 2);
    ASSERT_EQ(again.cpi.size(), 1u);
    const auto &got = again.cpi[0].results.at(0);
    const auto &want = first.cpi[0].results.at(0);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < got.size(); ++c)
        live::expectSameResult(got[c], want[c]);
}

TEST_F(StoreTest, CorruptQuantaAnnexFailsSoft)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    publishQuanta(t);
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawcaudio", t, cpu::TraceBuffer::defaultMaxInstrs));

    // Flip one byte in the annex payload region (the file tail).
    std::vector<std::uint8_t> bytes =
        readAll(ts.segmentPath("rawcaudio"));
    bytes[bytes.size() - 5] ^= 0x40;
    writeAll(ts.segmentPath("rawcaudio"), bytes);

    std::string why;
    EXPECT_FALSE(ts.verify("rawcaudio", &w.program, &why));
    EXPECT_EQ(ts.load("rawcaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr);
    // The two-tier cache treats it like any other damage: recapture.
    TraceCache cache({.storeDir = dir()});
    const auto trace = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(trace->size(), t.size());
}

/**
 * The one quanta annex of a saved segment's bytes: where its payload
 * and the payload's fields sit, so a test can damage it past the
 * CRCs and re-seal it.
 */
/**
 * Offset of a segment's annex directory: after the 64-byte header,
 * the column directory (32 bytes per column, as many as the header's
 * column count, plus its CRC) and the column payloads.
 */
std::size_t
annexDirStart(const std::vector<std::uint8_t> &bytes)
{
    const std::uint32_t columns = store::getU32(bytes.data() + 52);
    std::size_t off = 64 + 32 * std::size_t{columns} + 4;
    for (unsigned c = 0; c < columns; ++c)
        off += static_cast<std::size_t>(
            store::getU64(bytes.data() + 64 + 32 * c + 16));
    return off;
}

struct OneAnnex
{
    explicit OneAnnex(std::vector<std::uint8_t> &b) : bytes(b)
    {
        // The annex directory follows the column payloads, its
        // payload is the file tail.
        dirStart = annexDirStart(bytes);
        EXPECT_EQ(store::getU32(bytes.data() + dirStart), 1u);
        entry = dirStart + 8 + store::getU32(bytes.data() + dirStart + 4);
        len = static_cast<std::size_t>(
            store::getU64(bytes.data() + entry + 8));
        dirCrcAt = entry + 20;
        payload = dirCrcAt + 4;
        EXPECT_EQ(payload + len, bytes.size());
        // Payload: n, dictionary length G, escape count E,
        // dictionary, hit words, escape words, miss count, 12-byte
        // misses, the activity total, the cache statistics.
        n = static_cast<std::size_t>(field(0));
        dictLen = static_cast<std::size_t>(field(8));
        escapes = static_cast<std::size_t>(field(16));
        width = dictLen > 1 ? static_cast<unsigned>(
                                  std::bit_width(dictLen - 1))
                            : 0;
    }

    std::uint64_t field(std::size_t at) const
    {
        return store::getU64(bytes.data() + payload + at);
    }

    std::size_t dictAt(std::size_t k) const { return payload + 24 + 4 * k; }
    std::size_t hitsAt() const { return dictAt(dictLen); }
    std::size_t escapesAt() const { return hitsAt() + 8 * ((n + 63) / 64); }
    std::size_t
    missesAt() const
    {
        return escapesAt() + 8 * ((escapes * width + 63) / 64);
    }
    std::size_t
    activityAt() const
    {
        return missesAt() + 8 +
               12 * static_cast<std::size_t>(
                        store::getU64(bytes.data() + missesAt()));
    }

    /** Flip bit @p bit of the bytes from @p at on. */
    void flip(std::size_t at, std::size_t bit)
    {
        bytes[at + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }

    void
    put32(std::size_t at, std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    /** Cut the payload (the file tail) at file offset @p at. */
    void
    truncate(std::size_t at)
    {
        bytes.resize(at);
        len = at - payload;
        for (unsigned i = 0; i < 8; ++i)
            bytes[entry + 8 + i] =
                static_cast<std::uint8_t>(std::uint64_t{len} >> (8 * i));
    }

    /** Payload CRC, then the directory CRC that covers it. */
    void
    reseal()
    {
        put32(entry + 16, crc32(0, bytes.data() + payload, len));
        put32(dirCrcAt,
              crc32(0, bytes.data() + dirStart, dirCrcAt - dirStart));
    }

    std::vector<std::uint8_t> &bytes;
    std::size_t dirStart, entry, dirCrcAt, payload, len;
    std::size_t n, dictLen, escapes;
    unsigned width;
};

/** Field-for-field equality of two quanta records. */
void
expectSameRecord(const pipeline::SharedQuanta &a,
                 const pipeline::SharedQuanta &b)
{
    EXPECT_EQ(a.size(), b.size());
    EXPECT_TRUE(a.hits == b.hits);
    EXPECT_TRUE(a.dict == b.dict);
    EXPECT_TRUE(a.escapes == b.escapes);
    EXPECT_TRUE(a.misses == b.misses);
    live::expectSameActivity(a.activity, b.activity, "quanta record");
    EXPECT_TRUE(a.l1i == b.l1i);
    EXPECT_TRUE(a.l1d == b.l1d);
    EXPECT_TRUE(a.l2 == b.l2);
}

/** The "quanta:" record published on @p t under @p key. */
std::shared_ptr<const pipeline::SharedQuanta>
recordOf(const cpu::TraceBuffer &t, const std::string &key)
{
    return std::static_pointer_cast<const pipeline::SharedQuanta>(
        t.annexGet(key));
}

TEST_F(StoreTest, QuantaAnnexWithMissListOutOfOrderFailsSoft)
{
    // Damage that the CRCs cannot see: a well-framed annex whose miss
    // list repeats an index. The decoder's structural check must
    // reject it (a consumer cursor would otherwise skip a miss).
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    publishQuanta(t);
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawcaudio", t, cpu::TraceBuffer::defaultMaxInstrs));
    std::vector<std::uint8_t> bytes =
        readAll(ts.segmentPath("rawcaudio"));

    // Repeat the first miss's index.
    OneAnnex ax(bytes);
    const std::size_t misses_at = ax.missesAt();
    ASSERT_GE(store::getU64(bytes.data() + misses_at), 2u);
    std::memcpy(bytes.data() + misses_at + 8 + 12,
                bytes.data() + misses_at + 8, 4);
    ax.reseal();
    writeAll(ts.segmentPath("rawcaudio"), bytes);

    std::string why;
    EXPECT_FALSE(ts.verify("rawcaudio", &w.program, &why));
    EXPECT_NE(why.find("miss index out of order"), std::string::npos)
        << why;
    EXPECT_EQ(ts.load("rawcaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr);
    EXPECT_NE(why.find("miss index out of order"), std::string::npos)
        << why;
}

TEST_F(StoreTest, DamagedQuantaStreamFailsSoft)
{
    // Damage to the hit bits, escapes and dictionary that the CRCs
    // cannot see (each annex re-sealed): the load must reject the
    // segment with a reason and never index past the dictionary; the
    // cache then recaptures, so the loaded trace carries no damaged
    // record, and the next replay records it afresh, bit-identical to
    // the saved one.
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    const std::string key = publishQuanta(t);
    const auto saved = recordOf(t, key);
    ASSERT_NE(saved, nullptr);
    // An escape can name an index past the dictionary only when its
    // size is not a power of two, and a hit or escape bit can sit
    // past its count only in a partial last word.
    ASSERT_NE(std::popcount(saved->dict.size()), 1);
    ASSERT_NE(saved->size() % 64, 0u);
    const std::size_t escape_bits =
        (saved->size() - static_cast<std::size_t>(std::accumulate(
                             saved->hits.begin(), saved->hits.end(), 0,
                             [](int sum, std::uint64_t w) {
                                 return sum + std::popcount(w);
                             }))) *
        saved->escapeBits();
    ASSERT_NE(escape_bits % 64, 0u);
    ASSERT_GE(saved->escapes.size(), 2u);
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawdaudio", t, cpu::TraceBuffer::defaultMaxInstrs));
    const std::vector<std::uint8_t> good =
        readAll(ts.segmentPath("rawdaudio"));

    // Overwrite the first escape (instruction 0's, naming entry 0).
    const auto put_first_escape = [](OneAnnex &ax, std::uint32_t v) {
        for (unsigned k = 0; k < ax.width; ++k) {
            if (((ax.bytes[ax.escapesAt() + k / 8] >> (k % 8)) & 1u) !=
                ((v >> k) & 1u))
                ax.flip(ax.escapesAt(), k);
        }
    };
    const struct
    {
        const char *what;
        std::function<void(OneAnnex &)> damage;
        const char *reason;
    } cases[] = {
        {"escape index at the dictionary size",
         [&](OneAnnex &ax) {
             put_first_escape(ax, static_cast<std::uint32_t>(ax.dictLen));
         },
         "escape past the dictionary"},
        {"escape ahead of the first use",
         [&](OneAnnex &ax) { put_first_escape(ax, 1); },
         "dictionary out of first-use order"},
        {"hit bit cleared without an escape",
         [](OneAnnex &ax) {
             std::size_t i = 0;
             while (((ax.bytes[ax.hitsAt() + i / 8] >> (i % 8)) & 1u) == 0)
                 ++i;
             ax.flip(ax.hitsAt(), i);
         },
         "hit bits disagree with the escape count"},
        {"hit bit past the count",
         [](OneAnnex &ax) { ax.flip(ax.hitsAt(), ax.n); },
         "hit bit past the count"},
        {"escape bit past the count",
         [](OneAnnex &ax) {
             ax.flip(ax.escapesAt(), ax.escapes * ax.width);
         },
         "escape bit past the count"},
        {"dictionary larger than the escapes",
         [](OneAnnex &ax) {
             ax.put32(ax.payload + 8,
                      static_cast<std::uint32_t>(ax.escapes + 1));
         },
         "dictionary or escape count out of range"},
        {"stream truncated in the hit bits",
         [](OneAnnex &ax) { ax.truncate(ax.hitsAt() + 8); },
         "truncated hit bits"},
        {"stream truncated in the escapes",
         [](OneAnnex &ax) { ax.truncate(ax.escapesAt() + 8); },
         "truncated escapes"},
        {"stream truncated in the activity total",
         [](OneAnnex &ax) { ax.truncate(ax.activityAt() + 64); },
         "truncated activity total"},
        {"latch activity in the total",
         // The latch pair is the total's last: u64 14 of 16.
         [](OneAnnex &ax) { ax.put32(ax.activityAt() + 8 * 14, 1); },
         "latch activity in the total"},
        {"dictionary entry above entryBits",
         [](OneAnnex &ax) {
             ax.put32(ax.dictAt(0),
                      store::getU32(ax.bytes.data() + ax.dictAt(0)) |
                          (1u << pipeline::SharedQuanta::entryBits));
         },
         "dictionary entry garbage"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        std::vector<std::uint8_t> bytes = good;
        OneAnnex ax(bytes);
        c.damage(ax);
        ax.reseal();
        writeAll(ts.segmentPath("rawdaudio"), bytes);

        std::string why;
        EXPECT_FALSE(ts.verify("rawdaudio", &w.program, &why));
        EXPECT_NE(why.find(c.reason), std::string::npos) << why;
        auto failure = store::LoadFailure::None;
        EXPECT_EQ(ts.load("rawdaudio", w.program,
                          cpu::TraceBuffer::defaultMaxInstrs, &why,
                          &failure),
                  nullptr);
        EXPECT_EQ(failure, store::LoadFailure::Corrupt);
        EXPECT_NE(why.find(c.reason), std::string::npos) << why;

        TraceCache cache({.storeDir = dir()});
        const auto trace = cache.get("rawdaudio");
        EXPECT_EQ(cache.captures(), 1u);
        EXPECT_TRUE(trace->annexKeys("quanta:").empty());
        ASSERT_EQ(publishQuanta(*trace), key);
        const auto again = recordOf(*trace, key);
        ASSERT_NE(again, nullptr);
        expectSameRecord(*again, *saved);
    }
}

/** What a Decoder rebuilds from a record over its trace's replay. */
struct Decoded
{
    std::vector<pipeline::SharedQuanta::Entry> entries;
    std::vector<Count> latch;
};

Decoded
decodeOver(const cpu::TraceBuffer &trace,
           const pipeline::SharedQuanta &rec, sig::Encoding enc)
{
    struct DecodeSink : cpu::TraceSink
    {
        DecodeSink(const pipeline::SharedQuanta &rec,
                   const isa::Program &program, sig::Encoding enc)
            : decoder(rec, program, enc)
        {
        }
        void
        retire(const cpu::DynInstr &di) override
        {
            retireBlock(std::span<const cpu::DynInstr>(&di, 1));
        }
        void
        retireBlock(std::span<const cpu::DynInstr> block) override
        {
            decoder.expandBlock(block, entries, latch);
            out.entries.insert(out.entries.end(), entries.begin(),
                               entries.end());
            out.latch.insert(out.latch.end(), latch.begin(), latch.end());
        }
        pipeline::SharedQuanta::Decoder decoder;
        std::vector<pipeline::SharedQuanta::Entry> entries;
        std::vector<Count> latch;
        Decoded out;
    } sink(rec, trace.program(), enc);
    EXPECT_TRUE(cpu::TraceView(trace).replay(sink));
    return std::move(sink.out);
}

TEST_F(StoreTest, WorstCaseQuantaRecordsRoundTrip)
{
    // A capped trace whose length is a multiple of neither a hit word
    // (64) nor the replay block (1024): record, save, load and replay
    // as a consumer must give the recording's record and result.
    constexpr DWord cap = 5000;
    static_assert(cap % 64 != 0 &&
                  cap % cpu::TraceView::defaultBlockSize != 0);
    const workloads::Workload w = workloads::Suite::build("cjpeg");
    const cpu::TraceBuffer t =
        cpu::TraceBuffer::capture(w.program, cap, true);
    ASSERT_EQ(t.size(), cap);
    auto rec_pipe = pipeline::makePipeline(Design::ByteSerial,
                                           analysis::suiteConfig());
    pipeline::replayPipelines(t, {rec_pipe.get()});
    const pipeline::PipelineResult recorded = rec_pipe->result();
    const std::string key = rec_pipe->quantaKey();
    const auto saved = recordOf(t, key);
    ASSERT_NE(saved, nullptr);

    const TraceStore ts(dir());
    ASSERT_TRUE(ts.save("cjpeg", t, cap));
    std::string why;
    const auto loaded = ts.load("cjpeg", w.program, cap, &why);
    ASSERT_NE(loaded, nullptr) << why;
    const auto restored = recordOf(*loaded, key);
    ASSERT_NE(restored, nullptr);
    expectSameRecord(*restored, *saved);

    auto warm_pipe = pipeline::makePipeline(Design::ByteSerial,
                                            analysis::suiteConfig());
    const std::uint64_t recorders0 = quantaRecorders();
    pipeline::replayPipelines(*loaded, {warm_pipe.get()});
    EXPECT_EQ(quantaRecorders(), recorders0);
    live::expectSameResult(warm_pipe->result(), recorded);

    // Escapes wider than any recording needs (a suite record holds
    // at most a few dozen distinct entries): 300 distinct entries in
    // the second and fourth thousand instructions, one entry
    // elsewhere, so 9-bit escapes straddle words next to long runs of
    // hits. The Encoder writes the stream directly over the trace's
    // instructions, in replay blocks of 700 (a block boundary is no
    // stream boundary); the record must survive save and load, and
    // decode to the same entries.
    using pipeline::SharedQuanta;
    std::vector<SharedQuanta::Entry> stream(cap);
    for (std::size_t i = 0; i < cap; ++i) {
        const bool wide = (i / 1000) % 2 == 1;
        stream[i] = wide ? static_cast<SharedQuanta::Entry>(
                               (i * 97) % 300 + 1) << 8
                         : 5;
    }
    struct EncodeSink : cpu::TraceSink
    {
        EncodeSink(SharedQuanta &rec, const isa::Program &program,
                   std::span<const SharedQuanta::Entry> stream)
            : rec(rec), encoder(program), stream(stream)
        {
        }
        void
        retire(const cpu::DynInstr &di) override
        {
            retireBlock(std::span<const cpu::DynInstr>(&di, 1));
        }
        void
        retireBlock(std::span<const cpu::DynInstr> block) override
        {
            encoder.append(rec, block,
                           stream.subspan(rec.size(), block.size()));
        }
        SharedQuanta &rec;
        SharedQuanta::Encoder encoder;
        std::span<const SharedQuanta::Entry> stream;
    };
    // The recording's misses, activity total and statistics, this
    // stream's entries.
    auto wide = std::make_shared<SharedQuanta>(*saved);
    wide->instructions = 0;
    wide->hits.clear();
    wide->dict.clear();
    wide->escapes.clear();
    EncodeSink encode(*wide, t.program(), stream);
    std::vector<cpu::TraceSink *> encode_sinks = {&encode};
    ASSERT_TRUE(cpu::TraceView(t).replay(encode_sinks, 700));
    encode.encoder.finish(*wide);
    ASSERT_EQ(wide->size(), std::size_t{cap});
    ASSERT_EQ(wide->dict.size(), 301u);
    EXPECT_EQ(wide->escapeBits(), 9u);
    const std::string wide_key = key + ":wide";
    t.annexStoreIfAbsent(wide_key, wide, wide->bytes());
    ASSERT_TRUE(ts.save("cjpeg", t, cap));
    const auto loaded2 = ts.load("cjpeg", w.program, cap, &why);
    ASSERT_NE(loaded2, nullptr) << why;
    const auto restored2 = recordOf(*loaded2, wide_key);
    ASSERT_NE(restored2, nullptr);
    expectSameRecord(*restored2, *wide);

    // A Decoder over the replay's blocks returns the stream.
    EXPECT_TRUE(decodeOver(*loaded2, *restored2, sig::Encoding::Ext3)
                    .entries == stream);
}

TEST_F(StoreTest, StoreLoadedRecordsDecodeLikeTheRecordedOnes)
{
    // Every suite trace at the three suite encodings: the recorded
    // record, decoded over the captured trace, and its store-loaded
    // copy, decoded over the loaded trace, give the same entries and
    // latch bases block for block.
    const TraceStore ts(dir());
    constexpr sig::Encoding encodings[] = {
        sig::Encoding::Ext3, sig::Encoding::Ext2, sig::Encoding::Half1};
    for (const std::string &name : workloads::Suite::names()) {
        SCOPED_TRACE(name);
        const workloads::Workload w = workloads::Suite::build(name);
        const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
        std::vector<std::string> keys;
        for (const sig::Encoding enc : encodings) {
            auto pipe = pipeline::makePipeline(
                enc == sig::Encoding::Half1 ? Design::HalfwordSerial
                                            : Design::ByteSerial,
                analysis::suiteConfig(enc));
            pipeline::replayPipelines(t, {pipe.get()});
            keys.push_back(pipe->quantaKey());
        }
        ASSERT_TRUE(ts.save(name, t, cpu::TraceBuffer::defaultMaxInstrs));
        std::string why;
        const auto loaded = ts.load(name, w.program,
                                    cpu::TraceBuffer::defaultMaxInstrs, &why);
        ASSERT_NE(loaded, nullptr) << why;
        for (std::size_t e = 0; e < keys.size(); ++e) {
            SCOPED_TRACE(sig::encodingName(encodings[e]));
            const auto recorded = recordOf(t, keys[e]);
            const auto restored = recordOf(*loaded, keys[e]);
            ASSERT_NE(recorded, nullptr);
            ASSERT_NE(restored, nullptr);
            const Decoded want = decodeOver(t, *recorded, encodings[e]);
            const Decoded got =
                decodeOver(*loaded, *restored, encodings[e]);
            ASSERT_EQ(want.entries.size(), t.size());
            EXPECT_TRUE(got.entries == want.entries);
            EXPECT_TRUE(got.latch == want.latch);
        }
    }
}

TEST_F(StoreTest, SegmentTruncatedAtAnnexDirectoryCrcFailsSoft)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    publishQuanta(t);
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawdaudio", t, cpu::TraceBuffer::defaultMaxInstrs));

    // Compute the exact end of the annex directory entries (count +
    // one entry, before its CRC word) from the on-disk layout, and
    // truncate there: every per-entry bound still holds, so the
    // next read is the directory CRC — which must be detected as
    // truncation, not read past the end of the mapping.
    std::vector<std::uint8_t> bytes =
        readAll(ts.segmentPath("rawdaudio"));
    const std::size_t off = annexDirStart(bytes);
    const std::uint32_t key_len = store::getU32(bytes.data() + off + 4);
    const std::size_t dir_end = off + 4 + 4 + key_len + 20;
    ASSERT_LT(dir_end, bytes.size());
    bytes.resize(dir_end);
    writeAll(ts.segmentPath("rawdaudio"), bytes);

    std::string why;
    EXPECT_EQ(ts.load("rawdaudio", w.program,
                      cpu::TraceBuffer::defaultMaxInstrs, &why),
              nullptr);
    EXPECT_NE(why.find("annex directory truncated"), std::string::npos)
        << why;
    EXPECT_FALSE(ts.verify("rawdaudio", &w.program));
}

TEST_F(StoreTest, PersistAnnexesUpgradesSegmentOnce)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const TraceStore ts(dir());

    const auto diskAnnexes = [&] {
        store::SegmentInfo info;
        EXPECT_TRUE(ts.info("rawdaudio", info));
        std::vector<std::string> keys;
        for (const store::ColumnStat &ax : info.annexes)
            keys.push_back(ax.name);
        return keys;
    };

    TraceCache cache({.storeDir = dir()});
    const auto trace = cache.get("rawdaudio");
    // Write-through at capture has nothing derived yet.
    EXPECT_TRUE(diskAnnexes().empty());

    const std::string key = publishQuanta(*trace);
    const std::uint64_t saves = cache.storeSaves();
    cache.persistAnnexes("rawdaudio", *trace);
    EXPECT_EQ(cache.storeSaves(), saves + 1);
    EXPECT_EQ(diskAnnexes(), std::vector<std::string>{key});

    // Idempotent: nothing new to add, no rewrite.
    cache.persistAnnexes("rawdaudio", *trace);
    EXPECT_EQ(cache.storeSaves(), saves + 1);
}

} // namespace
} // namespace sigcomp
