/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * significance classification, serial-ALU modelling, instruction
 * permutation, cache access, functional execution, and full pipeline
 * simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "cpu/functional_core.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "pipeline/runner.h"
#include "sigcomp/compressed_word.h"
#include "sigcomp/instr_compress.h"
#include "sigcomp/serial_alu.h"
#include "sigcomp/sig_kernels.h"
#include "store/codec.h"
#include "workloads/workload.h"

namespace
{

using namespace sigcomp;

void
BM_ClassifyExt3(benchmark::State &state)
{
    Rng rng(1);
    Word v = rng.next32();
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyExt3(v));
        v = v * 1664525u + 1013904223u;
    }
}
BENCHMARK(BM_ClassifyExt3);

/**
 * The shared Table-1 operand mix (bench/bench_util.h) at the classic
 * per-call benchmark length — the distribution the classifiers
 * actually see, and the one where the scalar reference's
 * data-dependent branches mispredict.
 */
std::vector<Word>
operandMix()
{
    return bench::operandMix(4096);
}

// Scalar reference classifiers vs the branchless production versions
// (same operand stream, so the ratio is the per-call saving).
void
BM_ClassifyExt3Mix(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyExt3(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyExt3Mix);

void
BM_ClassifyExt3MixReference(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyExt3Reference(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyExt3MixReference);

void
BM_ClassifyExt2Mix(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyExt2(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyExt2Mix);

void
BM_ClassifyExt2MixReference(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyExt2Reference(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyExt2MixReference);

void
BM_ClassifyHalfMix(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyHalf(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyHalfMix);

void
BM_ClassifyHalfMixReference(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sig::classifyHalfReference(vs[i]));
        i = (i + 1) & 4095;
    }
}
BENCHMARK(BM_ClassifyHalfMixReference);

// ---- batch significance kernels, per dispatch level ----------------
//
// Registered dynamically in main() for every level this CPU can run
// (benchmark names carry the level: BM_ClassifyExt3Block/avx2 ...),
// so one run shows the scalar reference next to each vector
// implementation on the same operand mix. The per-word loops above
// remain the per-call (non-batch) baseline.

using KernelFn = void (*)(benchmark::State &);

void
benchClassifyExt3Block(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<sig::ByteMask> masks(vs.size());
    for (auto _ : state) {
        sig::classifyExt3Block(vs.data(), vs.size(), masks.data());
        benchmark::DoNotOptimize(masks.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchClassifyExt2Block(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<sig::ByteMask> masks(vs.size());
    for (auto _ : state) {
        sig::classifyExt2Block(vs.data(), vs.size(), masks.data());
        benchmark::DoNotOptimize(masks.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchClassifyHalfBlock(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<sig::HalfMask> masks(vs.size());
    for (auto _ : state) {
        sig::classifyHalfBlock(vs.data(), vs.size(), masks.data());
        benchmark::DoNotOptimize(masks.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchSignificantBytesBlock(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<std::uint8_t> counts(vs.size());
    for (auto _ : state) {
        sig::significantBytesBlock(vs.data(), vs.size(), counts.data());
        benchmark::DoNotOptimize(counts.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchPatternTallyBlock(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    for (auto _ : state) {
        Count counts[16] = {};
        sig::patternTallyBlock(vs.data(), vs.size(), counts);
        benchmark::DoNotOptimize(counts);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchSigPackEncode(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<std::uint8_t> out;
    for (auto _ : state) {
        out.clear();
        store::encodeColumn32(vs.data(), vs.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchSigPackDecode(benchmark::State &state)
{
    const std::vector<Word> vs = operandMix();
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(vs.data(), vs.size(), enc);
    std::vector<Word> back;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            store::decodeColumn32(enc.data(), enc.size(), vs.size(),
                                  back));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(vs.size()));
}

void
benchCrc32(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::uint8_t> buf(1 << 20);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next32());
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(0, buf.data(), buf.size()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(buf.size()));
}

/** Register one kernel benchmark per available dispatch level. */
void
registerKernelBenchmarks()
{
    struct Entry
    {
        const char *name;
        KernelFn fn;
    };
    const Entry entries[] = {
        {"BM_ClassifyExt3Block", &benchClassifyExt3Block},
        {"BM_ClassifyExt2Block", &benchClassifyExt2Block},
        {"BM_ClassifyHalfBlock", &benchClassifyHalfBlock},
        {"BM_SignificantBytesBlock", &benchSignificantBytesBlock},
        {"BM_PatternTallyBlock", &benchPatternTallyBlock},
        {"BM_SigPackEncodeColumn", &benchSigPackEncode},
        {"BM_SigPackDecodeColumn", &benchSigPackDecode},
        {"BM_Crc32_1MiB", &benchCrc32},
    };
    for (const Entry &e : entries) {
        for (const simd::SimdLevel level : simd::availableSimdLevels()) {
            const std::string name = std::string(e.name) + "/" +
                                     simd::simdLevelName(level);
            KernelFn fn = e.fn;
            benchmark::RegisterBenchmark(
                name.c_str(), [fn, level](benchmark::State &st) {
                    const simd::SimdLevel prev = simd::activeSimdLevel();
                    simd::setSimdLevel(level);
                    fn(st);
                    simd::setSimdLevel(prev);
                });
        }
    }
}

void
BM_ChangedBlocks(benchmark::State &state)
{
    Rng rng(7);
    Word pc = 0x00400000;
    for (auto _ : state) {
        const Word next = pc + 4 * (1 + (rng.next32() & 7));
        benchmark::DoNotOptimize(sig::changedBlocks(pc, next, 8));
        pc = next;
    }
}
BENCHMARK(BM_ChangedBlocks);

void
BM_ChangedBlocksReference(benchmark::State &state)
{
    Rng rng(7);
    Word pc = 0x00400000;
    for (auto _ : state) {
        const Word next = pc + 4 * (1 + (rng.next32() & 7));
        benchmark::DoNotOptimize(
            sig::changedBlocksReference(pc, next, 8));
        pc = next;
    }
}
BENCHMARK(BM_ChangedBlocksReference);

void
BM_CompressRoundTrip(benchmark::State &state)
{
    Word v = 0x12345678;
    for (auto _ : state) {
        const auto cw =
            sig::CompressedWord::compress(v, sig::Encoding::Ext3);
        benchmark::DoNotOptimize(cw.decompress());
        v = v * 1664525u + 1013904223u;
    }
}
BENCHMARK(BM_CompressRoundTrip);

void
BM_SerialAluAdd(benchmark::State &state)
{
    const sig::SerialAlu alu(sig::Encoding::Ext3);
    Word a = 0x10000009, b = 0xfffff504;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alu.add(a, b));
        a = a * 1664525u + 1013904223u;
        b ^= a >> 7;
    }
}
BENCHMARK(BM_SerialAluAdd);

void
BM_InstrCompress(benchmark::State &state)
{
    const auto comp = sig::InstrCompressor::withDefaultRanking();
    const isa::Instruction inst = isa::Instruction::makeR(
        isa::Funct::Addu, isa::reg::t0, isa::reg::t1, isa::reg::t2);
    for (auto _ : state) {
        const auto st = comp.compress(inst);
        benchmark::DoNotOptimize(comp.decompress(st));
    }
}
BENCHMARK(BM_InstrCompress);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::CacheParams{"l1", 8 * 1024, 1, 32, 1});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a, false));
        a = (a + 68) & 0xffff;
    }
}
BENCHMARK(BM_CacheAccess);

/**
 * Sequential instruction fetch: 8 word fetches per 32-byte line, so
 * ~87% of calls take MemoryHierarchy's same-line fast path (memoized
 * line/TLB slots, no set scans). Contrast with the strided variant
 * below, which changes line every fetch and never takes it — the
 * per-call gap is the fast path's win on the fetch-dominated replay
 * loop.
 */
void
BM_InstrFetchSequential(benchmark::State &state)
{
    mem::MemoryHierarchy h;
    Addr pc = 0x00400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.instrFetch(pc));
        pc = 0x00400000 + ((pc + 4) & 0x1fff);
    }
}
BENCHMARK(BM_InstrFetchSequential);

/** Line-crossing fetch stream: defeats the same-line memo. */
void
BM_InstrFetchStrided(benchmark::State &state)
{
    mem::MemoryHierarchy h;
    Addr pc = 0x00400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.instrFetch(pc));
        pc = 0x00400000 + ((pc + 32) & 0x1fff);
    }
}
BENCHMARK(BM_InstrFetchStrided);

void
BM_FunctionalExecution(benchmark::State &state)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    for (auto _ : state) {
        const cpu::RunResult r = cpu::runToCompletion(w.program);
        benchmark::DoNotOptimize(r.instructions);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_FunctionalExecution)->Unit(benchmark::kMillisecond);

void
BM_TraceCapture(benchmark::State &state)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    for (auto _ : state) {
        const cpu::TraceBuffer trace =
            cpu::TraceBuffer::capture(w.program);
        benchmark::DoNotOptimize(trace.size());
    }
}
BENCHMARK(BM_TraceCapture)->Unit(benchmark::kMillisecond);

void
BM_TraceReplayPipeline(benchmark::State &state)
{
    const workloads::Workload w = workloads::Suite::build("rawcaudio");
    const cpu::TraceBuffer trace = cpu::TraceBuffer::capture(w.program);
    for (auto _ : state) {
        auto pipe = pipeline::makePipeline(
            pipeline::Design::ByteSerial, pipeline::PipelineConfig());
        pipeline::replayPipelines(trace, {pipe.get()});
        benchmark::DoNotOptimize(pipe->result().cycles);
    }
}
BENCHMARK(BM_TraceReplayPipeline)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    registerKernelBenchmarks();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
