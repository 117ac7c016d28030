/**
 * @file
 * libFuzzer harness for trace-store segment loading — the other
 * untrusted-bytes surface: a segment file on disk is whatever a
 * crash, bit rot, or a hostile tenant left there (built only under
 * -DSIGCOMP_FUZZ=ON, which requires Clang).
 *
 * Each input becomes the full byte contents of a published segment
 * file; the loader, the header/directory reader, and the full
 * verifier must classify it — load to a sound trace, or fail soft
 * with a reason — and never crash, leak, or trip ASan. A trace the
 * loader accepts is then replayed in full: resident traces keep the
 * segment's encoded columns and replay decodes them, so a stream the
 * loader let through but replay cannot decode aborts here, and replay
 * re-executes every instruction (cpu/execute.h) on whatever loaded
 * bytes the input carries, so the derivation runs on arbitrary
 * values too.
 *
 * Seed corpus: at start-up (LLVMFuzzerInitialize) the harness saves
 * a real capped rawcaudio segment, with one SharedQuanta annex, and
 * writes its bytes as `seed-rawcaudio.sctrace` into every corpus
 * directory named on the command line, so coverage starts from the
 * valid format and mutates inward past the CRCs. CI writes the seed
 * with a `-runs=0` call before the timed run. Run locally:
 *
 *   cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
 *         -DSIGCOMP_FUZZ=ON
 *   cmake --build build-fuzz -j --target fuzz_store_load
 *   mkdir -p corpus-store
 *   ./build-fuzz/tests/fuzz_store_load -max_total_time=300 corpus-store
 */

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>

#include "cpu/trace_buffer.h"
#include "pipeline/models.h"
#include "pipeline/runner.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace
{

/** Consumes nothing: the replay's own decode is what is exercised. */
struct NoopSink : sigcomp::cpu::TraceSink
{
    void retire(const sigcomp::cpu::DynInstr &) override {}
    void retireBlock(std::span<const sigcomp::cpu::DynInstr>) override {}
};

/** One store directory + reference program for the whole run. */
struct Harness
{
    Harness()
    {
        char tmpl[] = "/tmp/sigcomp-fuzz-store-XXXXXX";
        const char *d = mkdtemp(tmpl);
        dir = d != nullptr ? d : "/tmp/sigcomp-fuzz-store";
        workload = new sigcomp::workloads::Workload(
            sigcomp::workloads::Suite::build("rawcaudio"));
        store = new sigcomp::store::TraceStore(dir);
        // Save one real segment and keep its bytes as the corpus
        // seed (the file itself is overwritten by every fuzz input).
        // A replay first publishes a SharedQuanta record, so the seed
        // carries a "quanta:" annex and mutations reach the annex
        // codec too.
        const sigcomp::cpu::TraceBuffer t =
            sigcomp::cpu::TraceBuffer::capture(workload->program, 2000,
                                               true);
        auto pipe = sigcomp::pipeline::makePipeline(
            sigcomp::pipeline::Design::ByteSerial,
            sigcomp::pipeline::PipelineConfig{});
        sigcomp::pipeline::replayPipelines(t, {pipe.get()});
        (void)store->save("rawcaudio", t, 2000);
        std::ifstream in(store->segmentPath("rawcaudio"), std::ios::binary);
        seed.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }

    std::string dir;
    const sigcomp::workloads::Workload *workload = nullptr;
    const sigcomp::store::TraceStore *store = nullptr;
    /** The saved segment's bytes. */
    std::string seed;
};

Harness &
harness()
{
    static Harness h;
    return h;
}

} // namespace

/** Writes the seed segment into each corpus directory argument. */
extern "C" int
LLVMFuzzerInitialize(int *argc, char ***argv)
{
    const Harness &h = harness();
    for (int i = 1; i < *argc; ++i) {
        const std::filesystem::path arg = (*argv)[i];
        if (arg.string().starts_with("-") ||
            !std::filesystem::is_directory(arg))
            continue;
        std::ofstream out(arg / "seed-rawcaudio.sctrace",
                          std::ios::binary | std::ios::trunc);
        out.write(h.seed.data(), static_cast<std::streamsize>(h.seed.size()));
    }
    return 0;
}

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const Harness &h = harness();
    {
        std::ofstream out(h.store->segmentPath("rawcaudio"),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(data),
                  static_cast<std::streamsize>(size));
    }

    std::string why;
    auto failure = sigcomp::store::LoadFailure::None;
    const auto trace = h.store->load("rawcaudio", h.workload->program,
                                     2000, &why, &failure);
    if (trace == nullptr &&
        failure == sigcomp::store::LoadFailure::None)
        __builtin_trap(); // every refusal must be classified
    if (trace != nullptr) {
        NoopSink sink;
        sigcomp::cpu::TraceView(*trace).replay(sink);
    }

    sigcomp::store::SegmentInfo info;
    (void)h.store->info("rawcaudio", info, &why);
    (void)h.store->verify("rawcaudio", &h.workload->program, &why);
    return 0;
}
