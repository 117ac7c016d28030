/**
 * @file
 * Trace capture/replay engine tests: the TraceBuffer SoA round-trip
 * is field-exact, the TraceCache captures each workload exactly once
 * under concurrency, and cached batched replay is bit-identical to
 * direct execution for every study type across all three encodings.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "analysis/trace_cache.h"
#include "cpu/functional_core.h"
#include "cpu/trace_buffer.h"
#include "isa/assembler.h"
#include "pipeline/runner.h"
#include "sigcomp/byte_pattern.h"
#include "store/trace_store.h"
#include "tests/live_oracle.h"
#include "tests/scratch_dir.h"
#include "workloads/workload.h"

namespace sigcomp
{
namespace
{

using analysis::Session;
using analysis::StudyPlan;
using analysis::TraceCache;
using pipeline::Design;

/** Collect every retired instruction by value (fields, not pointers). */
class CollectSink : public cpu::TraceSink
{
  public:
    void
    retire(const cpu::DynInstr &di) override
    {
        instrs.push_back(di);
    }

    std::vector<cpu::DynInstr> instrs;
};

void
expectSameDynInstr(const cpu::DynInstr &a, const cpu::DynInstr &b,
                   std::size_t i)
{
    ASSERT_NE(a.dec, nullptr);
    ASSERT_NE(b.dec, nullptr);
    EXPECT_EQ(a.pc, b.pc) << "instr " << i;
    // dec pointers differ (core's cache vs buffer's cache) but must
    // name the same static instruction.
    EXPECT_EQ(a.dec->inst.raw(), b.dec->inst.raw()) << "instr " << i;
    EXPECT_EQ(a.srcRs, b.srcRs) << "instr " << i;
    EXPECT_EQ(a.srcRt, b.srcRt) << "instr " << i;
    EXPECT_EQ(a.result, b.result) << "instr " << i;
    EXPECT_EQ(a.memAddr, b.memAddr) << "instr " << i;
    EXPECT_EQ(a.memData, b.memData) << "instr " << i;
    EXPECT_EQ(a.taken, b.taken) << "instr " << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << "instr " << i;
}

/**
 * Compares a replayed stream, as it arrives, with a live run's: every
 * field, plus the sidecar tags against classifyExt3 of the live
 * values. Keeps the first mismatch only, so a broken rule reports one
 * line per trace instead of one per instruction.
 */
class LiveComparingSink : public cpu::TraceSink
{
  public:
    explicit LiveComparingSink(const std::vector<cpu::DynInstr> &live)
        : live_(live)
    {}

    void
    retire(const cpu::DynInstr &di) override
    {
        const std::size_t i = seen_++;
        if (!firstMismatch_.empty())
            return;
        if (i >= live_.size()) {
            firstMismatch_ = "more instructions than the live run";
            return;
        }
        const cpu::DynInstr &l = live_[i];
        const auto tag = [](Word v) { return sig::classifyExt3(v); };
        const unsigned want_mem =
            l.dec->isLoad || l.dec->isStore ? tag(l.memData) : 0u;
        const char *field =
            di.pc != l.pc                           ? "pc"
            : di.dec->inst.raw() != l.dec->inst.raw() ? "dec"
            : di.srcRs != l.srcRs                   ? "srcRs"
            : di.srcRt != l.srcRt                   ? "srcRt"
            : di.result != l.result                 ? "result"
            : di.memAddr != l.memAddr               ? "memAddr"
            : di.memData != l.memData               ? "memData"
            : di.taken != l.taken                   ? "taken"
            : di.nextPc != l.nextPc                 ? "nextPc"
            : di.sigRs() != tag(l.srcRs)            ? "sigRs"
            : di.sigRt() != tag(l.srcRt)            ? "sigRt"
            : di.sigRes() != tag(l.result)          ? "sigRes"
            : di.sigMem() != want_mem               ? "sigMem"
                                                    : nullptr;
        if (field != nullptr) {
            firstMismatch_ = std::string(field) + " differs at instr " +
                             std::to_string(i) + " (" +
                             l.dec->name + ")";
        }
    }

    /** Empty when the whole live stream was matched exactly. */
    std::string
    verdict() const
    {
        if (!firstMismatch_.empty())
            return firstMismatch_;
        if (seen_ != live_.size())
            return "replayed " + std::to_string(seen_) + " of " +
                   std::to_string(live_.size()) + " instructions";
        return "";
    }

  private:
    const std::vector<cpu::DynInstr> &live_;
    std::size_t seen_ = 0;
    std::string firstMismatch_;
};

TEST(TraceBuffer, ReplayIsFieldExact)
{
    // The live-oracle check for replayed operands: traces hold no
    // operand values, so replay (and the sidecar tags built at capture
    // and at load) must rebuild every srcRs/srcRt exactly as the
    // functional core read them — for a full capture, a capped one,
    // and a store round trip of each suite workload.
    constexpr DWord kCap = 4000;
    const std::string dir = test::scratchDir("sigcomp-trace-field-exact");
    std::filesystem::remove_all(dir);
    const store::TraceStore ts(dir);
    for (const std::string &name : workloads::Suite::names()) {
        SCOPED_TRACE(name);
        const workloads::Workload w = workloads::Suite::build(name);

        // Keep the core alive while comparing: the collected DynInstrs
        // point into its decode cache.
        mem::MainMemory memory;
        cpu::FunctionalCore core(w.program, memory);
        CollectSink live;
        core.run(&live);
        ASSERT_GT(live.instrs.size(), kCap);
        const std::vector<cpu::DynInstr> capped(
            live.instrs.begin(), live.instrs.begin() + kCap);

        const auto check = [](const cpu::TraceBuffer &trace,
                              const std::vector<cpu::DynInstr> &want,
                              const char *what) {
            EXPECT_EQ(trace.size(), want.size()) << what;
            EXPECT_EQ(trace.runResult().instructions, want.size()) << what;
            LiveComparingSink cmp(want);
            cpu::TraceView(trace).replay(cmp);
            EXPECT_EQ(cmp.verdict(), "") << what;
        };

        const cpu::TraceBuffer full = cpu::TraceBuffer::capture(w.program);
        check(full, live.instrs, "capture");
        check(cpu::TraceBuffer::capture(w.program, kCap, true), capped,
              "capped capture");

        std::string why;
        ASSERT_TRUE(ts.save(name, full, cpu::TraceBuffer::defaultMaxInstrs,
                            &why))
            << why;
        const auto loaded = ts.load(
            name, w.program, cpu::TraceBuffer::defaultMaxInstrs, &why);
        ASSERT_NE(loaded, nullptr) << why;
        check(*loaded, live.instrs, "store round trip");
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceBuffer, ReplayDerivesEveryOperationLikeTheCore)
{
    // The suite need not reach every operation or corner that
    // execute() defines, so one program runs each of them (divide by
    // zero, INT32_MIN / -1, HI/LO moves, writes to $zero, every load
    // and store width, taken and untaken branches, links): its
    // capture and store round trip replay field for field like the
    // live run.
    isa::Assembler a;
    a.dataLabel("buf");
    a.dataSpace(16);
    a.label("main");
    a.li(isa::reg::t0, INT32_MIN);
    a.li(isa::reg::t1, -1);
    a.li(isa::reg::t2, 0);
    a.li(isa::reg::t3, 37);
    const auto hilo = [&] {
        a.mfhi(isa::reg::s0);
        a.mflo(isa::reg::s1);
    };
    a.div(isa::reg::t0, isa::reg::t1);
    hilo();
    a.div(isa::reg::t3, isa::reg::t2);
    hilo();
    a.divu(isa::reg::t3, isa::reg::t2);
    hilo();
    a.div(isa::reg::t1, isa::reg::t3);
    hilo();
    a.divu(isa::reg::t1, isa::reg::t3);
    hilo();
    a.mult(isa::reg::t0, isa::reg::t1);
    hilo();
    a.multu(isa::reg::t0, isa::reg::t1);
    hilo();
    a.mthi(isa::reg::t3);
    a.mtlo(isa::reg::t1);
    hilo();
    a.sll(isa::reg::s2, isa::reg::t1, 31);
    a.srl(isa::reg::s2, isa::reg::t0, 3);
    a.sra(isa::reg::s2, isa::reg::t0, 3);
    a.sllv(isa::reg::s2, isa::reg::t3, isa::reg::t3);
    a.srlv(isa::reg::s2, isa::reg::t1, isa::reg::t3);
    a.srav(isa::reg::s2, isa::reg::t0, isa::reg::t3);
    a.add(isa::reg::s3, isa::reg::t0, isa::reg::t1);
    a.addu(isa::reg::s3, isa::reg::t0, isa::reg::t3);
    a.sub(isa::reg::s3, isa::reg::t0, isa::reg::t3);
    a.subu(isa::reg::s3, isa::reg::t2, isa::reg::t3);
    a.and_(isa::reg::s3, isa::reg::t1, isa::reg::t3);
    a.or_(isa::reg::s3, isa::reg::t0, isa::reg::t3);
    a.xor_(isa::reg::s3, isa::reg::t1, isa::reg::t3);
    a.nor(isa::reg::s3, isa::reg::t2, isa::reg::t3);
    a.slt(isa::reg::s3, isa::reg::t0, isa::reg::t3);
    a.sltu(isa::reg::s3, isa::reg::t0, isa::reg::t3);
    a.addi(isa::reg::s4, isa::reg::t0, -5);
    a.addiu(isa::reg::s4, isa::reg::t3, 32767);
    a.slti(isa::reg::s4, isa::reg::t1, 0);
    a.sltiu(isa::reg::s4, isa::reg::t3, -1);
    a.andi(isa::reg::s4, isa::reg::t1, 0x8001);
    a.ori(isa::reg::s4, isa::reg::t0, 0xffff);
    a.xori(isa::reg::s4, isa::reg::t1, 0x00f0);
    a.lui(isa::reg::s4, 0x8000);
    a.la(isa::reg::s5, "buf");
    a.sw(isa::reg::t0, 0, isa::reg::s5);
    a.sh(isa::reg::t1, 4, isa::reg::s5);
    a.sb(isa::reg::t1, 8, isa::reg::s5);
    a.lw(isa::reg::s6, 0, isa::reg::s5);
    a.lh(isa::reg::s6, 4, isa::reg::s5);
    a.lhu(isa::reg::s6, 4, isa::reg::s5);
    a.lb(isa::reg::s6, 8, isa::reg::s5);
    a.lbu(isa::reg::s6, 8, isa::reg::s5);
    // Writes to $zero compute a value that must not land anywhere.
    a.addu(isa::reg::zero, isa::reg::t0, isa::reg::t3);
    a.lw(isa::reg::zero, 0, isa::reg::s5);
    a.addu(isa::reg::s7, isa::reg::zero, isa::reg::zero);
    a.beq(isa::reg::t0, isa::reg::t1, "main"); // not taken
    a.bne(isa::reg::t0, isa::reg::t1, "b1");
    a.label("b1");
    a.blez(isa::reg::t3, "main"); // not taken
    a.bgtz(isa::reg::t3, "b2");
    a.label("b2");
    a.bltz(isa::reg::t3, "main"); // not taken
    a.bgez(isa::reg::t2, "b3");
    a.label("b3");
    a.jal("leaf");
    a.la(isa::reg::t4, "leaf2");
    a.jalr(isa::reg::s7, isa::reg::t4);
    a.j("out");
    a.label("leaf");
    a.jr(isa::reg::ra);
    a.label("leaf2");
    a.jr(isa::reg::s7);
    a.label("out");
    a.exitProgram();
    const isa::Program program = a.finish("every-op");

    mem::MainMemory memory;
    cpu::FunctionalCore core(program, memory);
    CollectSink live;
    ASSERT_EQ(core.run(&live).reason, cpu::StopReason::Exited);
    ASSERT_EQ(core.reg(isa::reg::zero), 0u);

    const auto check = [&](const cpu::TraceBuffer &trace, const char *what) {
        LiveComparingSink cmp(live.instrs);
        cpu::TraceView(trace).replay(cmp);
        EXPECT_EQ(cmp.verdict(), "") << what;
    };
    const cpu::TraceBuffer captured = cpu::TraceBuffer::capture(program);
    check(captured, "capture");
    const std::string dir = test::scratchDir("sigcomp-trace-every-op");
    std::filesystem::remove_all(dir);
    const store::TraceStore ts(dir);
    std::string why;
    ASSERT_TRUE(ts.save("every-op", captured,
                        cpu::TraceBuffer::defaultMaxInstrs, &why))
        << why;
    const auto loaded = ts.load("every-op", program,
                                cpu::TraceBuffer::defaultMaxInstrs, &why);
    ASSERT_NE(loaded, nullptr) << why;
    check(*loaded, "store round trip");
    std::filesystem::remove_all(dir);
}

TEST(TraceBuffer, BlockSizeDoesNotChangeTheStream)
{
    const workloads::Workload w = workloads::Suite::build("rawdaudio");
    const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(w.program);

    CollectSink big;
    cpu::TraceView(trace).replay(big, 1u << 20);
    CollectSink tiny;
    cpu::TraceView(trace).replay(tiny, 7);

    ASSERT_EQ(big.instrs.size(), tiny.instrs.size());
    for (std::size_t i = 0; i < big.instrs.size(); ++i)
        expectSameDynInstr(tiny.instrs[i], big.instrs[i], i);
}

TEST(TraceBuffer, TruncatedCaptureReplaysThatManyInstructions)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer trace =
        cpu::TraceBuffer::capture(w.program, 1000, true);
    EXPECT_TRUE(trace.truncated());
    EXPECT_EQ(trace.size(), 1000u);

    CollectSink sink;
    cpu::TraceView(trace).replay(sink);
    EXPECT_EQ(sink.instrs.size(), 1000u);
}

TEST(TraceBuffer, HoldsNoOperandColumns)
{
    // A resident trace holds its columns only in their segment
    // encoding: with no annexes it costs exactly the column payloads
    // a save writes for it, plus the decode cache. A raw column, an
    // operand column or a tag sidecar would all break the equality.
    const std::string dir = test::scratchDir("sigcomp-trace-columns");
    std::filesystem::remove_all(dir);
    const store::TraceStore ts(dir);
    for (const char *name : {"rawcaudio", "cjpeg", "mpeg2"}) {
        SCOPED_TRACE(name);
        const workloads::Workload w = workloads::Suite::build(name);
        const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(w.program);
        std::string why;
        ASSERT_TRUE(ts.save(name, trace,
                            cpu::TraceBuffer::defaultMaxInstrs, &why))
            << why;
        store::SegmentInfo info;
        ASSERT_TRUE(ts.info(name, info, &why)) << why;
        const std::size_t decode_cache =
            w.program.text().size() *
            (sizeof(isa::DecodedInstr) + sizeof(cpu::InstrFacts));
        EXPECT_EQ(trace.memoryBytes(), info.encodedBytes() + decode_cache);
        // The same holds for the trace a load adopts.
        const auto loaded = ts.load(
            name, w.program, cpu::TraceBuffer::defaultMaxInstrs, &why);
        ASSERT_NE(loaded, nullptr) << why;
        EXPECT_EQ(loaded->memoryBytes(), trace.memoryBytes());
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceBuffer, SoAIsSmallerThanArrayOfStructs)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(w.program);
    // The packed arrays must undercut a plain vector<DynInstr> by a
    // wide margin (that is the point of the SoA layout).
    EXPECT_LT(trace.memoryBytes(),
              trace.size() * sizeof(cpu::DynInstr) * 3 / 4);
}

TEST(TraceBuffer, ReplayedPipelineMatchesLiveRun)
{
    // One pipeline fed live vs one fed from the trace with its own
    // replayed memory image: every result field must match bit for
    // bit, including the activity bits sampled from memory at cache
    // fill time (the evolving-memory reconstruction).
    const workloads::Workload w = workloads::Suite::build("cjpeg");
    const auto cfg = analysis::suiteConfig();

    auto direct = pipeline::makePipeline(Design::ByteSerial, cfg);
    live::runPipelines(w.program, {direct.get()});
    const pipeline::PipelineResult lr = direct->result();

    const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(w.program);
    auto replay = pipeline::makePipeline(Design::ByteSerial, cfg);
    pipeline::replayPipelines(trace, {replay.get()});
    const pipeline::PipelineResult rr = replay->result();

    EXPECT_EQ(rr.instructions, lr.instructions);
    EXPECT_EQ(rr.cycles, lr.cycles);
    EXPECT_EQ(rr.stalls, lr.stalls);
    EXPECT_EQ(rr.activity.dcData.compressed, lr.activity.dcData.compressed);
    EXPECT_EQ(rr.activity.dcData.baseline, lr.activity.dcData.baseline);
    EXPECT_EQ(rr.activity.fetch.compressed, lr.activity.fetch.compressed);
    EXPECT_EQ(rr.activity.latch.compressed, lr.activity.latch.compressed);
    EXPECT_EQ(rr.l1d.misses(), lr.l1d.misses());
    EXPECT_EQ(rr.l2.misses(), lr.l2.misses());
}

// ---- TraceCache ------------------------------------------------------

TEST(TraceCache, ConcurrentFirstTouchCapturesOnce)
{
    TraceCache cache;
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio",
                                            "epic"};
    constexpr unsigned kThreads = 8;

    std::vector<std::thread> threads;
    std::vector<TraceCache::TracePtr> seen(kThreads * names.size());
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t n = 0; n < names.size(); ++n)
                seen[t * names.size() + n] = cache.get(names[n]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Exactly one functional pass per workload, all callers sharing
    // the same buffer.
    EXPECT_EQ(cache.captures(), names.size());
    for (unsigned t = 1; t < kThreads; ++t) {
        for (std::size_t n = 0; n < names.size(); ++n)
            EXPECT_EQ(seen[t * names.size() + n], seen[n]);
    }
}

TEST(TraceCache, EvictForcesRecaptureButKeepsSharedBuffersAlive)
{
    TraceCache cache;
    const TraceCache::TracePtr first = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_TRUE(cache.contains("rawcaudio"));

    cache.evict("rawcaudio");
    EXPECT_FALSE(cache.contains("rawcaudio"));
    // The evicted buffer stays valid for holders.
    EXPECT_GT(first->size(), 0u);

    const TraceCache::TracePtr second = cache.get("rawcaudio");
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_NE(first, second);
    EXPECT_EQ(first->size(), second->size());
}

TEST(TraceCache, CaptureLimitProducesTruncatedTraces)
{
    TraceCache cache({.captureLimit = 500});
    const TraceCache::TracePtr t = cache.get("rawcaudio");
    EXPECT_TRUE(t->truncated());
    EXPECT_EQ(t->size(), 500u);
}

TEST(TraceCache, MemoryBytesTracksCachedTraces)
{
    TraceCache cache;
    EXPECT_EQ(cache.memoryBytes(), 0u);
    cache.get("rawcaudio");
    const std::size_t one = cache.memoryBytes();
    EXPECT_GT(one, 0u);
    cache.get("rawdaudio");
    EXPECT_GT(cache.memoryBytes(), one);
    cache.clear();
    EXPECT_EQ(cache.memoryBytes(), 0u);
}

// ---- simulate-once across whole studies ------------------------------

TEST(SimulateOnce, ThreeStudiesShareOneFunctionalPassPerWorkload)
{
    // The acceptance property: a session running an activity study,
    // a CPI study, and a profiling pass as three separate plans
    // performs exactly one functional simulation per workload.
    Session session;
    const auto activity =
        session.run(StudyPlan().activity(sig::Encoding::Ext3)).activity;
    const auto cpi = session
                         .run(StudyPlan().cpi(
                             {Design::Baseline32, Design::ByteSerial},
                             analysis::suiteConfig()))
                         .cpi;
    analysis::PatternProfiler pat;
    session.run(StudyPlan().profile({&pat}));

    EXPECT_EQ(session.cache().captures(), workloads::Suite::names().size());
    EXPECT_EQ(activity.front().rows.size(),
              workloads::Suite::names().size());
    EXPECT_EQ(cpi.front().benchmarks.size(),
              workloads::Suite::names().size());
    EXPECT_GT(pat.patterns().total(), 0u);
}

TEST(SimulateOnce, EvictAfterReplayRestoresTailOffBehaviour)
{
    Session session;
    TraceCache &cache = session.cache();

    analysis::InstrMixProfiler mix;
    session.run(StudyPlan().profile({&mix}).evictAfterReplay());
    // One capture each, nothing retained afterwards.
    EXPECT_EQ(cache.captures(), workloads::Suite::names().size());
    for (const std::string &name : workloads::Suite::names())
        EXPECT_FALSE(cache.contains(name)) << name;
    EXPECT_EQ(cache.memoryBytes(), 0u);

    // A later study recaptures from scratch.
    analysis::InstrMixProfiler mix2;
    session.run(StudyPlan().profile({&mix2}));
    EXPECT_EQ(cache.captures(), 2 * workloads::Suite::names().size());
    EXPECT_EQ(mix2.meanFetchBytes(), mix.meanFetchBytes());
}

// ---- bit-identity: cached replay vs the live oracle ------------------

class BitIdentityAcrossEncodings
    : public ::testing::TestWithParam<sig::Encoding>
{
};

TEST_P(BitIdentityAcrossEncodings, ActivityStudy)
{
    const sig::Encoding enc = GetParam();
    const auto direct = live::activityStudy(enc);
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        Session session(analysis::SessionConfig{.threads = threads});
        live::expectSameRows(
            session.run(StudyPlan().activity(enc)).activity.front().rows,
            direct);
    }
}

TEST_P(BitIdentityAcrossEncodings, CpiStudy)
{
    const sig::Encoding enc = GetParam();
    const auto designs = pipeline::allDesigns();
    const auto cfg = analysis::suiteConfig(enc);

    const auto direct = live::cpiStudy(designs, cfg);
    Session session(analysis::SessionConfig{.threads = 4});
    live::expectSameResults(
        session.run(StudyPlan().cpi(designs, cfg)).cpi.front().results,
        direct);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, BitIdentityAcrossEncodings,
                         ::testing::Values(sig::Encoding::Ext2,
                                           sig::Encoding::Ext3,
                                           sig::Encoding::Half1),
                         [](const auto &info) {
                             return sig::encodingName(info.param);
                         });

TEST(BitIdentity, ProfilersMatchDirectExecution)
{
    analysis::PatternProfiler d_pat;
    analysis::InstrMixProfiler d_mix;
    analysis::PcProfiler d_pc;
    live::profileSuite({&d_pat, &d_mix, &d_pc});

    analysis::PatternProfiler c_pat;
    analysis::InstrMixProfiler c_mix;
    analysis::PcProfiler c_pc;
    Session session;
    session.run(StudyPlan().profile({&c_pat, &c_mix, &c_pc}));
    EXPECT_EQ(c_pat.patterns().raw(), d_pat.patterns().raw());
    EXPECT_EQ(c_pat.meanSignificantBytes(), d_pat.meanSignificantBytes());
    EXPECT_EQ(c_mix.functFreq().raw(), d_mix.functFreq().raw());
    EXPECT_EQ(c_mix.total(), d_mix.total());
    EXPECT_EQ(c_mix.meanFetchBytes(), d_mix.meanFetchBytes());
    EXPECT_EQ(c_mix.shortImmediateFraction(),
              d_mix.shortImmediateFraction());
    EXPECT_EQ(c_mix.additionFraction(), d_mix.additionFraction());
    for (unsigned b = 1; b <= 8; ++b) {
        EXPECT_EQ(c_pc.forBlockBits(b).activityBits(),
                  d_pc.forBlockBits(b).activityBits());
        EXPECT_EQ(c_pc.forBlockBits(b).cycles(),
                  d_pc.forBlockBits(b).cycles());
        EXPECT_EQ(c_pc.forBlockBits(b).updates(),
                  d_pc.forBlockBits(b).updates());
    }
}

} // namespace
} // namespace sigcomp
