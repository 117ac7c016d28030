/**
 * @file
 * Encoding ablation (section 2.1's 2-bit vs 3-bit discussion, plus
 * the halfword scheme): storage overhead, compression achieved, and
 * the resulting per-stage activity savings when the byte-serial
 * pipeline runs with each encoding.
 */

#include <array>

#include "analysis/profilers.h"
#include "bench/bench_util.h"

using namespace sigcomp;
using namespace sigcomp::pipeline;

namespace
{

struct EncStats
{
    Count operands = 0;
    Count dataBits = 0;
    Count storageBits = 0;
};

/** Mean stored bits per operand under an encoding. */
class StorageProfiler : public cpu::TraceSink
{
  public:
    explicit StorageProfiler(sig::Encoding enc) : enc_(enc) {}

    void
    retire(const cpu::DynInstr &di) override
    {
        if (di.dec->readsRs)
            record(di.srcRs);
        if (di.dec->readsRt)
            record(di.srcRt);
        if (di.dec->writesDest && di.dec->dest != isa::reg::zero)
            record(di.result);
    }

    const EncStats &stats() const { return stats_; }

  private:
    void
    record(Word v)
    {
        const auto cw = sig::CompressedWord::compress(v, enc_);
        ++stats_.operands;
        stats_.dataBits += cw.dataBits();
        stats_.storageBits += cw.storageBits();
    }

    sig::Encoding enc_;
    EncStats stats_;
};

} // namespace

int
main()
{
    bench::banner("Ablation: 2-bit vs 3-bit vs halfword significance "
                  "encodings",
                  "Canal/Gonzalez/Smith MICRO-33, section 2.1 (2-bit: "
                  "6% overhead, fewer patterns; 3-bit: 9% overhead, "
                  "+6% operands compressed)");

    // One plan: a storage profiler and an activity study per
    // encoding (the activity study runs the byte-serial pipeline, or
    // the halfword-serial one for the halfword scheme).
    const std::array<sig::Encoding, 3> encodings = {
        sig::Encoding::Ext2, sig::Encoding::Ext3, sig::Encoding::Half1};
    std::array<StorageProfiler, 3> profs = {
        StorageProfiler(encodings[0]), StorageProfiler(encodings[1]),
        StorageProfiler(encodings[2])};
    analysis::StudyPlan plan;
    plan.profile({&profs[0], &profs[1], &profs[2]});
    for (sig::Encoding enc : encodings)
        plan.activity(enc);
    const analysis::SuiteReport rep = bench::runPlan(plan);

    TextTable t({"encoding", "ext bits", "mean data bits/word",
                 "mean stored bits/word", "compression %"});
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        const sig::Encoding enc = encodings[i];
        const EncStats &s = profs[i].stats();
        const double data =
            static_cast<double>(s.dataBits) / s.operands;
        const double stored =
            static_cast<double>(s.storageBits) / s.operands;
        t.beginRow()
            .cell(sig::encodingName(enc))
            .cell(static_cast<std::uint64_t>(sig::extensionBits(enc)))
            .cell(data, 2)
            .cell(stored, 2)
            .cell(100.0 * (1.0 - stored / 32.0), 1)
            .endRow();
    }
    bench::printTable("storage cost per register operand (suite)", t);

    TextTable a({"encoding", "RFread save %", "RFwrite save %",
                 "ALU save %", "D$data save %", "latch save %"});
    for (const analysis::ActivityStudyResult &study : rep.activity) {
        const pipeline::ActivityTotals total = study.total();
        a.beginRow()
            .cell(sig::encodingName(study.encoding))
            .cell(total.rfRead.saving(), 1)
            .cell(total.rfWrite.saving(), 1)
            .cell(total.alu.saving(), 1)
            .cell(total.dcData.saving(), 1)
            .cell(total.latch.saving(), 1)
            .endRow();
    }
    bench::printTable("byte-serial activity savings per encoding", a);
    bench::note("expected shape: ext3 beats ext2 by a few percent "
                "(the paper estimated ~6% more compressible "
                "operands); both byte schemes beat the halfword "
                "scheme.");
    return 0;
}
