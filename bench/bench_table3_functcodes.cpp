/**
 * @file
 * Table 3 reproduction: dynamic frequency of R-format function
 * codes, the resulting funct recoding, and the section 2.3 fetch
 * statistics (format mix, immediate sizes, mean fetched bytes).
 */

#include "analysis/profilers.h"
#include "bench/bench_util.h"
#include "isa/opcodes.h"

using namespace sigcomp;
using namespace sigcomp::analysis;

int
main()
{
    bench::banner("Table 3: dynamic frequency of function codes",
                  "Canal/Gonzalez/Smith MICRO-33, Table 3 + section "
                  "2.3 statistics (top-8 ~87%, 3.17 B/instr)");

    InstrMixProfiler mix{suiteCompressor()};
    bench::runPlan(StudyPlan().profile({&mix}));

    TextTable t({"rank", "funct", "freq %", "cumulative %", "recoded",
                 "f1==000"});
    double cum = 0.0;
    unsigned rank = 0;
    for (const auto &[funct, count] : mix.functFreq().ranked()) {
        (void)count;
        ++rank;
        const double f = 100.0 * mix.functFreq().fraction(funct);
        cum += f;
        const std::uint8_t code = suiteCompressor().recodeFunct(funct);
        t.beginRow()
            .cell(static_cast<std::uint64_t>(rank))
            .cell(isa::functName(static_cast<isa::Funct>(funct)))
            .cell(f, 1)
            .cell(cum, 1)
            .cell(static_cast<std::uint64_t>(code))
            .cell((code & 7) == 0 ? "yes" : "no")
            .endRow();
        if (rank >= 12)
            break;
    }
    bench::printTable("R-format funct dynamic frequency (suite)", t);

    TextTable s({"statistic", "measured", "paper"});
    s.addRow({"R-format fraction",
              formatFixed(100.0 * mix.rFormatFraction(), 1) + "%",
              "41.0%"});
    s.addRow({"I-format fraction",
              formatFixed(100.0 * mix.iFormatFraction(), 1) + "%",
              "56.9%"});
    s.addRow({"J-format fraction",
              formatFixed(100.0 * mix.jFormatFraction(), 1) + "%",
              "2.2%"});
    s.addRow({"instructions with immediates",
              formatFixed(100.0 * mix.immediateFraction(), 1) + "%",
              "59.1%"});
    s.addRow({"immediates that fit 8 bits",
              formatFixed(100.0 * mix.shortImmediateFraction(), 1) + "%",
              "80%"});
    s.addRow({"instructions performing an addition",
              formatFixed(100.0 * mix.additionFraction(), 1) + "%",
              "70.7%"});
    s.addRow({"mean fetched bytes/instruction",
              formatFixed(mix.meanFetchBytes(), 2), "3.17"});
    bench::printTable("section 2.3 instruction statistics", s);
    return 0;
}
