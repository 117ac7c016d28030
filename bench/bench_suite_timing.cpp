/**
 * @file
 * Suite-level performance baseline for the trace capture/replay
 * engine and its persistent store tier: times capture vs cached
 * replay vs store replay and one fused multi-study StudyPlan against
 * the same studies run as one plan each, and writes
 * BENCH_suite.json so the perf trajectory is tracked across PRs
 * (schema documented in README "Benchmarking the engine").
 *
 * Usage:
 *   bench_suite_timing [--threads N[,N...]] [--max-instrs N]
 *                      [--out PATH] [--store DIR] [--no-store]
 *                      [--check]
 *
 *   --threads N[,N...] workload-level parallelism; a comma list
 *                   sweeps thread counts, emitting one record per
 *                   count (default 1: stable, comparable numbers;
 *                   0 = all cores; at most 1024)
 *   --max-instrs N  cap each workload's capture at N instructions
 *                   (CI smoke mode; truncated traces replay fine)
 *   --out PATH      where to write the JSON (default
 *                   BENCH_suite.json in the working directory)
 *   --store DIR     store directory for the cold-store vs warm-store
 *                   phases (default `bench-store`, a scratch dir —
 *                   its segments are WIPED each cold repetition, so
 *                   never point it at a prewarmed persistent store
 *                   you want to keep)
 *   --no-store      skip the store phases entirely
 *   --check         exit non-zero unless cached replay beats
 *                   recapture AND warm-store replay beats recapture
 *                   AND (single-threaded records) the fused
 *                   StudyPlan pass is no slower than the same
 *                   studies run sequentially, within a 5% noise
 *                   margin, AND default-mode telemetry costs no
 *                   more than 2% over runtime-disabled telemetry
 *                   (the CI regression gates), AND every warm-store
 *                   repetition captures nothing and loads each
 *                   workload once, AND every fused repetition replays
 *                   each workload once (engine counts, which cannot
 *                   flap). Prints a FAIL line for every failing gate,
 *                   then exits 1.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "analysis/trace_cache.h"
#include "bench/bench_util.h"
#include "common/crc32.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/simd.h"
#include "common/table.h"
#include "cpu/trace_buffer.h"
#include "sigcomp/sig_kernels.h"
#include "store/codec.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace
{

using namespace sigcomp;
using analysis::Session;
using analysis::SessionConfig;
using analysis::StudyPlan;
using analysis::TraceCache;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Phase
{
    std::string name;
    /** Minimum over the repetitions. */
    double wallMs = 1e300;
    DWord instructions = 0;
    /** Every repetition's wall time, in order. */
    std::vector<double> samples;

    void
    add(double ms)
    {
        samples.push_back(ms);
        wallMs = std::min(wallMs, ms);
    }

    /** Quantile @p q of the samples, interpolated between ranks. */
    double
    quantile(double q) const
    {
        std::vector<double> s = samples;
        std::sort(s.begin(), s.end());
        const double rank = q * static_cast<double>(s.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, s.size() - 1);
        return s[lo] + (s[hi] - s[lo]) * (rank - static_cast<double>(lo));
    }

    double medianMs() const { return quantile(0.5); }
    /** Interquartile range: the spread of the middle half. */
    double iqrMs() const { return quantile(0.75) - quantile(0.25); }

    double
    mips() const
    {
        return wallMs > 0.0
                   ? static_cast<double>(instructions) / (wallMs * 1e3)
                   : 0.0;
    }
};

/** One record of the sweep: all phases at one thread count. */
struct Run
{
    unsigned threads = 0;
    std::vector<Phase> phases;
    double fusedSpeedup = 0.0;
    double telemetryOverhead = 0.0;
    bool replayFaster = false;
    bool storeReplayFaster = false;
    bool fusedNotSlower = false;
    bool telemetryOverheadOk = true;
    bool hasStore = false;
    /**
     * Counter gates, over every repetition: a warm-store pass
     * captures 0 and loads each workload once; a fused pass replays
     * each workload once.
     */
    bool warmLoadCountsOk = true;
    bool fusedPassCountOk = true;

    const Phase *
    find(const std::string &name) const
    {
        for (const Phase &p : phases)
            if (p.name == name)
                return &p;
        return nullptr;
    }
};

/** Total instructions of one full suite pass under @p config. */
DWord
suiteInstructions(const SessionConfig &config)
{
    Session session(config);
    session.prewarm(workloads::Suite::names());
    DWord total = 0;
    for (const std::string &name : workloads::Suite::names())
        total += session.trace(name)->runResult().instructions;
    return total;
}

/** Print one phase's line of the console report. */
void
printPhase(const Phase &p)
{
    std::printf("  %-28s %8.1f ms  %8.1f Minstr/s  (min of %zu; "
                "median %.1f, IQR %.1f)\n",
                p.name.c_str(), p.wallMs, p.mips(), p.samples.size(),
                p.medianMs(), p.iqrMs());
}

/** A phase with no samples yet, over the whole suite. */
Phase
suitePhase(const std::string &name, DWord instructions)
{
    Phase p;
    p.name = name;
    p.instructions = instructions;
    return p;
}

/**
 * Wall-clock of @p fn over @p reps repetitions (the minimum rejects
 * noise on shared hosts; median and IQR are kept beside it), with
 * @p setup re-run untimed before each repetition so every repetition
 * measures the same cold/warm state.
 */
template <typename Setup, typename Fn>
Phase
timePhase(const std::string &name, DWord instructions, int reps,
          Setup &&setup, Fn &&fn)
{
    Phase p = suitePhase(name, instructions);
    for (int r = 0; r < reps; ++r) {
        setup();
        const double t0 = nowSeconds();
        fn();
        p.add((nowSeconds() - t0) * 1e3);
    }
    printPhase(p);
    return p;
}

/**
 * One kernel's throughput at the active level and pinned scalar, in
 * millions of 32-bit words per second (the crc32 probe also consumes
 * one word — 4 bytes — per "word", so multiply by 4 for bytes/s).
 */
struct KernelRate
{
    std::string name;
    double simdMwords = 0.0;
    double scalarMwords = 0.0;
};

/**
 * Throughput of each batch significance kernel (and the codec and
 * checksum built on them) over the Table-1-like operand mix, at the
 * active dispatch level vs pinned-scalar — the per-kernel block of
 * the schema-v3 JSON.
 */
std::vector<KernelRate>
measureKernels()
{
    const std::vector<Word> vs = bench::operandMix(1 << 16);

    std::vector<sig::ByteMask> masks(vs.size());
    std::vector<std::uint8_t> enc;
    store::encodeColumn32(vs.data(), vs.size(), enc);
    std::vector<Word> back;

    const auto rate = [&](auto &&fn) {
        // Best of 5: wall time per full pass over the buffer.
        double best = 1e300;
        for (int r = 0; r < 5; ++r) {
            const double t0 = nowSeconds();
            fn();
            best = std::min(best, nowSeconds() - t0);
        }
        return static_cast<double>(vs.size()) / best / 1e6;
    };

    struct Probe
    {
        const char *name;
        std::function<void()> fn;
    };
    const Probe probes[] = {
        {"classify_ext3_block",
         [&] { sig::classifyExt3Block(vs.data(), vs.size(),
                                      masks.data()); }},
        {"sigpack_encode_column",
         [&] {
             enc.clear();
             store::encodeColumn32(vs.data(), vs.size(), enc);
         }},
        {"sigpack_decode_column",
         [&] { (void)store::decodeColumn32(enc.data(), enc.size(),
                                           vs.size(), back); }},
        {"crc32",
         [&] { (void)crc32(0, vs.data(), 4 * vs.size()); }},
    };

    const simd::SimdLevel active = simd::activeSimdLevel();
    std::vector<KernelRate> out;
    for (const Probe &p : probes) {
        KernelRate k;
        k.name = p.name;
        simd::setSimdLevel(active);
        k.simdMwords = rate(p.fn);
        simd::setSimdLevel(simd::SimdLevel::Scalar);
        k.scalarMwords = rate(p.fn);
        out.push_back(k);
    }
    simd::setSimdLevel(active);
    return out;
}

/** Consumes nothing: replay into it costs materialisation alone. */
struct NoopSink : cpu::TraceSink
{
    void retire(const cpu::DynInstr &) override {}
    void retireBlock(std::span<const cpu::DynInstr>) override {}
};

/** Replay every resident suite trace into a no-op sink. */
void
runNoopReplay(Session &session)
{
    const std::vector<std::string> &names = workloads::Suite::names();
    session.executor().parallelFor(names.size(), [&](std::size_t i) {
        NoopSink sink;
        cpu::TraceView(*session.trace(names[i])).replay(sink);
    });
}

/** The three characterisation profilers over the whole suite. */
analysis::SuiteReport
runProfilers(Session &session)
{
    analysis::PatternProfiler pat;
    analysis::InstrMixProfiler mix;
    analysis::PcProfiler pc;
    return session.run(StudyPlan().profile({&pat, &mix, &pc}));
}

/**
 * The multi-study workload as one plan per study: CPI over the
 * paper's full design space, then activity, then the profiling pass,
 * each sweeping the suite's traces again. The CPI study runs first
 * so its shared-quanta record is already on the traces when the
 * activity study replays (later plans ride earlier plans' records).
 */
void
runSequential(Session &session)
{
    session.run(StudyPlan().cpi(pipeline::allDesigns(),
                                analysis::suiteConfig()));
    session.run(StudyPlan().activity(sig::Encoding::Ext3));
    runProfilers(session);
}

/**
 * One thread-count's worth of phases, on a Session built for
 * @p config (and, for the store phases, a second one that adds
 * @p store_dir).
 */
Run
runAtThreads(const SessionConfig &config, DWord suite_instrs,
             const std::string &store_dir)
{
    Session session(config);
    TraceCache &cache = session.cache();
    ParallelExecutor &exec = session.executor();
    const std::vector<std::string> &names = workloads::Suite::names();

    Run run;
    run.threads = exec.threadCount();
    std::printf("\nthreads=%u%s\n\n", exec.threadCount(),
                config.captureLimit != cpu::TraceBuffer::defaultMaxInstrs
                    ? " (capped capture)"
                    : "");

    constexpr int kReps = 3;

    // Phase 1: cold capture — one functional pass per workload,
    // fanned out across the executor.
    run.phases.push_back(timePhase(
        "capture", suite_instrs, kReps, [&] { cache.clear(); },
        [&] { session.prewarm(names); }));

    // Phase 2: no-op replay — materialising the suite's blocks
    // (column decode, operand and tag rebuild) with no consumer.
    run.phases.push_back(timePhase("replay_noop", suite_instrs, kReps,
                                   [] {}, [&] { runNoopReplay(session); }));

    // Phase 3: cached replay — the suite's whole retirement stream
    // through the three characterisation profilers, no simulation.
    run.phases.push_back(timePhase(
        "cached_replay_profilers", suite_instrs, kReps, [] {},
        [&] { runProfilers(session); }));

    // Phase 4: recapture — what the same profiling pass costs when
    // the trace has to be captured again (cache cold).
    run.phases.push_back(timePhase(
        "recapture_profilers", suite_instrs, kReps,
        [&] { cache.clear(); },
        [&] { runProfilers(session); }));

    // Phases 5-7: the persistent store tier. Cold store = capture
    // plus the write-through of its encoded columns; warm store = a
    // cold *process* riding the segments (RAM tier dropped, every
    // trace loaded back off disk, zero functional simulation), timed
    // bare and with the profiler replay.
    if (!store_dir.empty()) {
        run.hasStore = true;
        SessionConfig stored = config;
        stored.storeDir = store_dir;
        Session store_session(stored);

        run.phases.push_back(timePhase(
            "store_cold_capture_save", suite_instrs, kReps,
            [&] {
                store_session.cache().clear();
                const store::TraceStore ts(store_dir);
                for (const std::string &name : ts.list())
                    ts.remove(name);
            },
            [&] { runProfilers(store_session); }));

        // The bare load is the number to hold against `capture`
        // (ROADMAP item 10); more repetitions, since it is short.
        run.phases.push_back(timePhase(
            "store_warm_load", suite_instrs, 3 * kReps,
            [&] { store_session.cache().clear(); },
            [&] { store_session.prewarm(names); }));

        run.phases.push_back(timePhase(
            "store_warm_load_replay", suite_instrs, kReps,
            [&] { store_session.cache().clear(); },
            [&] {
                const analysis::SuiteReport r =
                    runProfilers(store_session);
                run.warmLoadCountsOk = run.warmLoadCountsOk &&
                                       r.captures == 0 &&
                                       r.storeLoads == names.size();
            }));
    }

    // Phases 8/9: the same three studies (full-design-space CPI +
    // activity + three-profiler pass) run as one plan each vs fused
    // through one Session::run(StudyPlan), both over a prewarmed
    // cache. The
    // fused plan touches each trace once; sequential sweeps it once
    // per study. Works on capped traces (both sides are cache-fed),
    // so CI smoke runs gate it too.
    {
        auto warm = [&] {
            cache.clear();
            session.prewarm(names);
        };
        auto run_fused = [&] {
            analysis::PatternProfiler pat;
            analysis::InstrMixProfiler mix;
            analysis::PcProfiler pc;
            analysis::StudyPlan plan;
            plan.cpi(pipeline::allDesigns(), analysis::suiteConfig())
                .activity(sig::Encoding::Ext3)
                .profile({&pat, &mix, &pc});
            run.fusedPassCountOk = run.fusedPassCountOk &&
                                   session.run(plan).replayPasses ==
                                       names.size();
        };
        // Interleaved repetitions (seq, fused, seq, fused, ...), min
        // of each: a host-noise burst then degrades both sides
        // instead of biasing whichever phase owned that window —
        // this pair is a CI gate, not just a report.
        Phase seq = suitePhase("multi_study_sequential", suite_instrs);
        Phase fused = suitePhase("multi_study_fused", suite_instrs);
        for (int r = 0; r < 5; ++r) {
            warm();
            double t0 = nowSeconds();
            runSequential(session);
            seq.add((nowSeconds() - t0) * 1e3);
            warm();
            t0 = nowSeconds();
            run_fused();
            fused.add((nowSeconds() - t0) * 1e3);
        }
        printPhase(seq);
        printPhase(fused);
        run.phases.push_back(seq);
        run.phases.push_back(fused);
        run.fusedSpeedup = seq.wallMs / fused.wallMs;
        // Evaluated (and emitted, and gated) at threads=1 only; at
        // higher thread counts both sides fan whole workloads across
        // the executor and the ratio is reported, not gated. The 5%
        // margin absorbs shared-host noise (the sequential plans
        // ride cross-study result memos, so the structural fused
        // win — one materialised pass — is only a few percent of
        // wall clock); a real regression, like a duplicate design
        // replaying as a full consumer, costs >10% and still trips.
        run.fusedNotSlower = fused.wallMs <= seq.wallMs * 1.05;
        std::printf("\n  fused vs sequential studies: %.1f ms vs "
                    "%.1f ms (%.2fx, one replay pass per trace)\n",
                    fused.wallMs, seq.wallMs, run.fusedSpeedup);
    }

    // Phase 10: telemetry overhead — the default mode (counter,
    // gauge and histogram recording all live; tracing inactive, as
    // every normal run is) vs runtime-disabled recording, over the
    // cached replay pass. Interleaved repetitions with min-of-each
    // for the same noise-rejection reason as the fused gate above;
    // the 2% ratio + 2 ms absolute floor absorbs timer granularity
    // on the short capped smoke runs CI gates with.
    {
        cache.clear();
        session.prewarm(names);
        const bool was_enabled = telemetry::enabled();
        Phase on = suitePhase("replay_telemetry_on", suite_instrs);
        Phase off = suitePhase("replay_telemetry_off", suite_instrs);
        for (int r = 0; r < 5; ++r) {
            telemetry::setEnabled(true);
            double t0 = nowSeconds();
            runProfilers(session);
            on.add((nowSeconds() - t0) * 1e3);
            telemetry::setEnabled(false);
            t0 = nowSeconds();
            runProfilers(session);
            off.add((nowSeconds() - t0) * 1e3);
        }
        telemetry::setEnabled(was_enabled);
        printPhase(on);
        printPhase(off);
        run.phases.push_back(on);
        run.phases.push_back(off);
        run.telemetryOverhead = on.wallMs / off.wallMs;
        run.telemetryOverheadOk = on.wallMs <= off.wallMs * 1.02 + 2.0;
        std::printf("\n  telemetry on vs off: %.1f ms vs %.1f ms "
                    "(%.3fx, %s)\n",
                    on.wallMs, off.wallMs, run.telemetryOverhead,
                    run.telemetryOverheadOk ? "within the 2% gate"
                                            : "OVER the 2% gate");
    }

    const Phase *replay = run.find("cached_replay_profilers");
    const Phase *recap = run.find("recapture_profilers");
    run.replayFaster = replay->wallMs < recap->wallMs;
    std::printf("  cached replay vs recapture: %.1f ms vs %.1f ms (%s)\n",
                replay->wallMs, recap->wallMs,
                run.replayFaster ? "faster" : "SLOWER");
    if (const Phase *warm = run.find("store_warm_load_replay")) {
        run.storeReplayFaster = warm->wallMs < recap->wallMs;
        std::printf("  warm-store replay vs recapture: %.1f ms vs "
                    "%.1f ms (%s)\n",
                    warm->wallMs, recap->wallMs,
                    run.storeReplayFaster ? "faster" : "SLOWER");
    }
    return run;
}

void
writeJson(const std::string &path, DWord max_instrs, DWord suite_instrs,
          const std::string &store_dir, const std::vector<Run> &runs,
          const std::vector<KernelRate> &kernels)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema\": \"sigcomp-suite-bench-v8\",\n");
    std::fprintf(f, "  \"simd_level\": \"%s\",\n",
                 simd::simdLevelName(simd::activeSimdLevel()));
    std::fprintf(f, "  \"max_instrs\": %llu,\n",
                 static_cast<unsigned long long>(max_instrs));
    std::fprintf(f, "  \"suite_instructions\": %llu,\n",
                 static_cast<unsigned long long>(suite_instrs));

    // Per-kernel throughput: active dispatch level vs pinned scalar,
    // in millions of 32-bit words per second over the operand mix.
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelRate &k = kernels[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"mwords_per_s\": %.0f, "
                     "\"scalar_mwords_per_s\": %.0f, "
                     "\"speedup\": %.2f}%s\n",
                     k.name.c_str(), k.simdMwords, k.scalarMwords,
                     k.scalarMwords > 0.0 ? k.simdMwords / k.scalarMwords
                                          : 0.0,
                     i + 1 < kernels.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    // Per-column compression ratios of the store the runs populated.
    if (!store_dir.empty()) {
        const store::StoreStats stats = store::aggregateStats(
            store::TraceStore(store_dir, /*read_only=*/true));
        std::fprintf(f, "  \"store\": {\n");
        std::fprintf(f, "    \"dir\": ");
        json::writeString(f, store_dir);
        std::fprintf(f, ",\n    \"segments\": %zu,\n", stats.segments);
        std::fprintf(f, "    \"file_bytes\": %llu,\n",
                     static_cast<unsigned long long>(stats.fileBytes));
        std::fprintf(f, "    \"total_ratio\": %.3f,\n",
                     stats.totalRatio());
        std::fprintf(f, "    \"columns\": [\n");
        store::writeColumnsJson(f, stats.columns, "      ");
        std::fprintf(f, "    ]\n  },\n");
    }

    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const Run &run = runs[r];
        std::fprintf(f, "    {\n      \"threads\": %u,\n", run.threads);
        std::fprintf(f, "      \"phases\": [\n");
        for (std::size_t i = 0; i < run.phases.size(); ++i) {
            const Phase &p = run.phases[i];
            std::fprintf(f,
                         "        {\"name\": \"%s\", \"wall_ms\": %.3f, "
                         "\"median_ms\": %.3f, \"iqr_ms\": %.3f, "
                         "\"reps\": %zu, \"instructions\": %llu, "
                         "\"instr_per_sec\": %.0f}%s\n",
                         p.name.c_str(), p.wallMs, p.medianMs(),
                         p.iqrMs(), p.samples.size(),
                         static_cast<unsigned long long>(p.instructions),
                         p.mips() * 1e6,
                         i + 1 < run.phases.size() ? "," : "");
        }
        std::fprintf(f, "      ],\n");
        if (run.fusedSpeedup > 0.0) {
            std::fprintf(f, "      \"fused_speedup\": %.2f,\n",
                         run.fusedSpeedup);
            // The not-slower property is only evaluated where it is
            // meaningful (serial records, see runAtThreads).
            if (run.threads == 1) {
                std::fprintf(f, "      \"fused_not_slower\": %s,\n",
                             run.fusedNotSlower ? "true" : "false");
            }
        }
        if (run.telemetryOverhead > 0.0) {
            std::fprintf(f, "      \"telemetry_overhead\": %.3f,\n",
                         run.telemetryOverhead);
            std::fprintf(f, "      \"telemetry_overhead_ok\": %s,\n",
                         run.telemetryOverheadOk ? "true" : "false");
        }
        if (run.hasStore) {
            std::fprintf(f, "      \"store_replay_faster\": %s,\n",
                         run.storeReplayFaster ? "true" : "false");
        }
        std::fprintf(f, "      \"cached_replay_faster\": %s\n    }%s\n",
                     run.replayFaster ? "true" : "false",
                     r + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

/** --threads N[,N...]; exits 2 on any count parseThreadCount refuses. */
std::vector<unsigned>
parseThreadList(std::string_view arg)
{
    std::vector<unsigned> out;
    for (std::size_t start = 0; start <= arg.size();) {
        std::size_t end = arg.find(',', start);
        if (end == std::string_view::npos)
            end = arg.size();
        unsigned threads = 0;
        if (!ParallelExecutor::parseThreadCount(
                arg.substr(start, end - start), &threads)) {
            std::fprintf(stderr,
                         "--threads wants counts in [0, %u], got '%.*s'\n",
                         ParallelExecutor::kMaxThreads,
                         static_cast<int>(arg.size()), arg.data());
            std::exit(2);
        }
        out.push_back(threads);
        start = end + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> thread_list = {1};
    DWord max_instrs = 0; // 0 = uncapped
    std::string out = "BENCH_suite.json";
    // Scratch directory by default: the cold-store phase deletes
    // every segment in it each repetition, which must never destroy
    // a prewarmed persistent store (point --store at one only to
    // deliberately rebenchmark it).
    std::string store_dir = "bench-store";
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--threads")
            thread_list = parseThreadList(next());
        else if (arg == "--max-instrs")
            max_instrs = static_cast<DWord>(std::atoll(next()));
        else if (arg == "--out")
            out = next();
        else if (arg == "--store")
            store_dir = next();
        else if (arg == "--no-store")
            store_dir.clear();
        else if (arg == "--check")
            check = true;
        else {
            std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
            return 2;
        }
    }

    std::printf("suite timing: capture vs cached replay vs trace store "
                "(engine baseline; simulate-once architecture + "
                "persistent store tier)\n");
    std::printf("simd dispatch: %s (detected %s)\n",
                simd::simdLevelName(simd::activeSimdLevel()),
                simd::simdLevelName(simd::detectedSimdLevel()));

    const std::vector<KernelRate> kernels = measureKernels();
    for (const KernelRate &k : kernels) {
        std::printf("  kernel %-24s %8.0f Mwords/s  (scalar %8.0f, "
                    "%.2fx)\n",
                    k.name.c_str(), k.simdMwords, k.scalarMwords,
                    k.scalarMwords > 0.0 ? k.simdMwords / k.scalarMwords
                                         : 0.0);
    }

    SessionConfig config;
    if (max_instrs != 0)
        config.captureLimit = max_instrs;

    // Count the suite's trace instructions: every phase's
    // `instructions` (and so its Minstr/s) is this one number.
    const DWord suite_instrs = suiteInstructions(config);

    std::vector<Run> runs;
    for (const unsigned threads : thread_list) {
        config.threads = threads;
        runs.push_back(runAtThreads(config, suite_instrs, store_dir));
    }

    writeJson(out, max_instrs, suite_instrs, store_dir, runs, kernels);

    // Every failing gate is reported, then the run fails once.
    bool failed = false;
    auto fail = [&failed](unsigned threads, const std::string &why) {
        std::fprintf(stderr, "FAIL (threads=%u): %s\n", threads,
                     why.c_str());
        failed = true;
    };
    if (check) {
        for (const Run &run : runs) {
            if (!run.replayFaster)
                fail(run.threads,
                     "cached replay is not faster than recapture");
            if (run.hasStore && !run.storeReplayFaster)
                fail(run.threads, "warm-store replay is not faster "
                                  "than recapture");
            if (run.threads == 1 && run.fusedSpeedup > 0.0 &&
                !run.fusedNotSlower)
                fail(run.threads, "fused StudyPlan pass is slower than "
                                  "sequential studies");
            if (run.hasStore && !run.warmLoadCountsOk)
                fail(run.threads, "warm-store replay captured, or did "
                                  "not load each workload once");
            if (!run.fusedPassCountOk)
                fail(run.threads, "fused StudyPlan pass did not replay "
                                  "each workload once");
            if (!run.telemetryOverheadOk) {
                fail(run.threads,
                     "telemetry recording costs more than 2% over "
                     "disabled mode (" +
                         formatFixed(run.telemetryOverhead, 3) + "x)");
            }
        }
    }
    return failed ? 1 : 0;
}
