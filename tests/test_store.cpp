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

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "analysis/trace_cache.h"
#include "common/crc32.h"
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
    ASSERT_TRUE(ts.contains("rawcaudio"));

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
    live::expectSameRows(rep.cpi.front().rows(), cpi_live);
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

    // Re-stamp the segment as the previous version, header CRC intact.
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

TEST_F(StoreTest, TakenColumnStoresControlBitsOnly)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer t = cpu::TraceBuffer::capture(w.program);
    const TraceStore ts(dir());
    ASSERT_TRUE(
        ts.save("rawdaudio", t, cpu::TraceBuffer::defaultMaxInstrs));

    store::SegmentInfo info;
    ASSERT_TRUE(ts.info("rawdaudio", info));
    ASSERT_EQ(info.columns.size(), 6u);
    EXPECT_EQ(info.columns[2].name, "taken");
    EXPECT_EQ(info.columns[5].name, "sigTags");
    // One bit per *control* instruction beats the already-packed
    // one-bit-per-instruction plane by the control-mix factor.
    EXPECT_LT(info.columns[2].encodedBytes,
              info.columns[2].rawBytes / 4);
    EXPECT_GT(info.columns[2].ratio(), 4.0);
    // Sidecar tags: two per byte against the one-per-byte raw count
    // (each of the two planes may round up by one byte).
    EXPECT_GE(2 * info.columns[5].encodedBytes,
              info.columns[5].rawBytes);
    EXPECT_LE(2 * info.columns[5].encodedBytes,
              info.columns[5].rawBytes + 2);
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
    EXPECT_EQ(ts.annexKeys("rawdaudio"),
              std::vector<std::string>{key});
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

    // The decoded record is the saved one: dense entries, miss list,
    // the per-block miss starts derived on load, block deltas and
    // cache statistics.
    const auto saved =
        std::static_pointer_cast<const pipeline::SharedQuanta>(
            t.annexGet(key));
    const auto restored =
        std::static_pointer_cast<const pipeline::SharedQuanta>(
            loaded->annexGet(key));
    ASSERT_NE(restored, nullptr);
    EXPECT_TRUE(restored->q == saved->q);
    EXPECT_FALSE(saved->misses.empty());
    EXPECT_TRUE(restored->misses == saved->misses);
    EXPECT_TRUE(restored->blockMissStart == saved->blockMissStart);
    ASSERT_EQ(restored->blockDelta.size(), saved->blockDelta.size());
    for (std::size_t b = 0; b < saved->blockDelta.size(); ++b) {
        EXPECT_EQ(restored->blockDelta[b].fetch.compressed,
                  saved->blockDelta[b].fetch.compressed);
        EXPECT_EQ(restored->blockDelta[b].dcData.baseline,
                  saved->blockDelta[b].dcData.baseline);
    }
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

    // One annex: its directory follows the column payloads, its
    // payload is the file tail.
    std::size_t dir_start = 64 + 6 * 32 + 4;
    for (unsigned c = 0; c < 6; ++c)
        dir_start += static_cast<std::size_t>(
            store::getU64(bytes.data() + 64 + 32 * c + 16));
    ASSERT_EQ(store::getU32(bytes.data() + dir_start), 1u);
    const std::uint32_t key_len =
        store::getU32(bytes.data() + dir_start + 4);
    const std::size_t entry = dir_start + 8 + key_len;
    const std::size_t payload_len =
        static_cast<std::size_t>(store::getU64(bytes.data() + entry + 8));
    const std::size_t dir_crc_at = entry + 20;
    const std::size_t payload = dir_crc_at + 4;
    ASSERT_EQ(payload + payload_len, bytes.size());

    // Payload: n, blocks, entry-plane length + stream, miss count,
    // then 12-byte misses. Repeat the first miss's index.
    const std::size_t plane_len = static_cast<std::size_t>(
        store::getU64(bytes.data() + payload + 16));
    const std::size_t misses_at = payload + 24 + plane_len;
    ASSERT_GE(store::getU64(bytes.data() + misses_at), 2u);
    std::memcpy(bytes.data() + misses_at + 8 + 12,
                bytes.data() + misses_at + 8, 4);

    // Re-seal: payload CRC, then the directory CRC that covers it.
    auto put32 = [&](std::size_t at, std::uint32_t v) {
        for (unsigned i = 0; i < 4; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    put32(entry + 16, crc32(0, bytes.data() + payload, payload_len));
    put32(dir_crc_at,
          crc32(0, bytes.data() + dir_start, dir_crc_at - dir_start));
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
    std::size_t off = 64 + 6 * 32 + 4;
    for (unsigned c = 0; c < 6; ++c)
        off += static_cast<std::size_t>(
            store::getU64(bytes.data() + 64 + 32 * c + 16));
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

    TraceCache cache({.storeDir = dir()});
    const auto trace = cache.get("rawdaudio");
    // Write-through at capture has nothing derived yet.
    EXPECT_TRUE(ts.annexKeys("rawdaudio").empty());

    const std::string key = publishQuanta(*trace);
    const std::uint64_t saves = cache.storeSaves();
    cache.persistAnnexes("rawdaudio", *trace);
    EXPECT_EQ(cache.storeSaves(), saves + 1);
    EXPECT_EQ(ts.annexKeys("rawdaudio"),
              std::vector<std::string>{key});

    // Idempotent: nothing new to add, no rewrite.
    cache.persistAnnexes("rawdaudio", *trace);
    EXPECT_EQ(cache.storeSaves(), saves + 1);
}

} // namespace
} // namespace sigcomp
