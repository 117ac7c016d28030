/**
 * @file
 * Quickstart: the core significance-compression API in five minutes.
 *
 *  1. Compress values and inspect their byte patterns.
 *  2. Model a byte-serial addition with the paper's case semantics.
 *  3. Assemble a tiny program, run it through a Session on the
 *     32-bit baseline and the byte-serial pipeline, and compare CPI
 *     and activity.
 *  4. (with `quickstart --store DIR`) Ride the persistent trace
 *     store through a Session: the first run captures and saves a
 *     workload's trace, every later process loads it instead of
 *     re-simulating.
 */

#include <cstdio>
#include <cstring>

#include "analysis/session.h"
#include "isa/assembler.h"
#include "sigcomp/compressed_word.h"
#include "sigcomp/serial_alu.h"
#include "store/trace_store.h"

using namespace sigcomp;
namespace reg = isa::reg;

int
main(int argc, char **argv)
{
    std::string store_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc)
            store_dir = argv[++i];
    }
    // --- 1. significance compression of values -----------------------
    std::printf("== significance compression ==\n");
    for (Word v : {0x00000004u, 0xfffff504u, 0x10000009u, 0xffe70004u}) {
        const auto cw =
            sig::CompressedWord::compress(v, sig::Encoding::Ext3);
        std::printf("  0x%08x  pattern=%s  bytes=%u  stored bits=%u\n",
                    v, cw.pattern().c_str(), cw.bytes(),
                    cw.storageBits());
    }

    // --- 2. byte-serial ALU semantics ---------------------------------
    std::printf("\n== serial ALU ==\n");
    const sig::SerialAlu alu(sig::Encoding::Ext3);
    const sig::AluReport r = alu.add(0x00000001, 0x0000007f);
    std::printf("  0x01 + 0x7f = 0x%08x, work bytes = %u, "
                "table-4 exception = %s\n",
                r.result, r.workBytes, r.sawException ? "yes" : "no");

    // --- 3. a program on two pipelines --------------------------------
    std::printf("\n== pipelines ==\n");
    isa::Assembler a;
    a.dataLabel("values");
    for (int i = 0; i < 64; ++i)
        a.dataWord(static_cast<Word>(i * 3));
    a.label("main");
    a.la(reg::s0, "values");
    a.li(reg::t0, 64);
    a.li(reg::t1, 0);
    a.label("loop");
    a.lw(reg::t2, 0, reg::s0);
    a.addu(reg::t1, reg::t1, reg::t2);
    a.addiu(reg::s0, reg::s0, 4);
    a.addiu(reg::t0, reg::t0, -1);
    a.bgtz(reg::t0, "loop");
    a.move(reg::a0, reg::t1);
    a.li(reg::a1, 6048); // sum of 3*i for i<64
    a.assertEq();
    a.exitProgram();
    const isa::Program program = a.finish("quickstart");

    // A Session captures the program's trace once and replays it
    // through both designs in one pass.
    analysis::Session session;
    session.addWorkload("quickstart", program);
    const analysis::SuiteReport report = session.run(
        analysis::StudyPlan()
            .cpi({pipeline::Design::Baseline32,
                  pipeline::Design::ByteSerial},
                 pipeline::PipelineConfig())
            .workloads({"quickstart"}));
    const auto &rb = report.cpi[0].results[0][0];
    const auto &rs = report.cpi[0].results[0][1];
    std::printf("  %llu instructions\n",
                static_cast<unsigned long long>(rb.instructions));
    std::printf("  baseline32  CPI %.3f\n", rb.cpi());
    std::printf("  byte-serial CPI %.3f (+%.1f%%)\n", rs.cpi(),
                100.0 * (rs.cpi() / rb.cpi() - 1.0));
    std::printf("  byte-serial activity savings: RF read %.1f%%, "
                "ALU %.1f%%, PC %.1f%%, latches %.1f%%\n",
                rs.activity.rfRead.saving(), rs.activity.alu.saving(),
                rs.activity.pcInc.saving(), rs.activity.latch.saving());

    // --- 4. persistent trace store (opt-in) ---------------------------
    if (!store_dir.empty()) {
        std::printf("\n== trace store (%s) ==\n", store_dir.c_str());
        // A Session is an isolated engine instance: its own trace
        // cache, bound to the store directory for this walkthrough
        // only.
        analysis::Session stored({.storeDir = store_dir});
        const auto trace = stored.trace("rawcaudio");
        const bool from_disk = stored.cache().storeLoads() > 0;
        std::printf("  rawcaudio: %llu instructions, %s\n",
                    static_cast<unsigned long long>(trace->size()),
                    from_disk
                        ? "loaded from the store (no simulation!)"
                        : "captured and saved — rerun me to see the "
                          "cold-process load");
        store::SegmentInfo info;
        if (store::TraceStore(store_dir, true)
                .info("rawcaudio", info, nullptr)) {
            std::printf("  segment: %.2f MB on disk, stored columns "
                        "compressed %.2fx\n",
                        static_cast<double>(info.fileBytes) / 1048576.0,
                        static_cast<double>(info.rawBytes()) /
                            static_cast<double>(info.encodedBytes()));
        }
    }
    std::printf("\nok\n");
    return 0;
}
