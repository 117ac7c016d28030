/**
 * @file
 * The paper reproduction: every table, figure and ablation of
 * Canal/Gonzalez/Smith MICRO-33 plus the energy and ablation
 * extensions, printed in paper order (Tables 1-4, Figs 4/6/8,
 * Tables 5/6, Fig 10, energy, then the balance, encoding, clock,
 * branch-prediction and robustness ablations).
 *
 * The paper gets every result from one execution of each benchmark,
 * and so does this program: all suite studies, the section-5 width
 * sweep and the profiler sinks ride one StudyPlan, so each suite
 * trace gets one fused replay. The only other engine work is the
 * held-out plan (robustness). Takes no arguments; SIGCOMP_THREADS
 * sets the thread count and never changes the output.
 */

#include <array>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/profilers.h"
#include "analysis/session.h"
#include "common/table.h"
#include "isa/opcodes.h"
#include "power/energy_model.h"
#include "sigcomp/pc_increment.h"
#include "sigcomp/serial_alu.h"

using namespace sigcomp;
using namespace sigcomp::analysis;
using namespace sigcomp::pipeline;

namespace
{

// ------------------------------------------------------------ output --

/** Print a banner naming the experiment and its paper reference. */
void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================="
                "=============================\n");
}

/** Print one table with a caption. */
void
printTable(const std::string &caption, const TextTable &t)
{
    std::printf("\n-- %s --\n", caption.c_str());
    std::cout << t.toString();
}

/** Print a paper-vs-measured note line. */
void
note(const std::string &text)
{
    std::printf("note: %s\n", text.c_str());
}

// ------------------------------------------------------------- sinks --

/** Dynamic frequency of Table-4 exceptions in additive operations. */
class ExceptionProfiler : public cpu::TraceSink
{
  public:
    void
    retire(const cpu::DynInstr &di) override
    {
        const isa::DecodedInstr &dec = *di.dec;
        const sig::SerialAlu alu(sig::Encoding::Ext3);
        sig::AluReport r;
        switch (dec.aluOp) {
          case isa::AluOp::MemAdd:
          case isa::AluOp::AddImm:
            r = alu.add(di.srcRs, static_cast<Word>(di.inst().simm16()));
            break;
          case isa::AluOp::AddRR:
            r = alu.add(di.srcRs, di.srcRt);
            break;
          case isa::AluOp::SubRR:
            r = alu.sub(di.srcRs, di.srcRt);
            break;
          default:
            return;
        }
        ++adds;
        if (r.sawException)
            ++exceptions;
    }

    Count adds = 0;
    Count exceptions = 0;
};

/**
 * The encodings the encoding ablation compares, in print order. The
 * suite plan registers one activity study per entry in this order,
 * so SuiteReport::activity[i] is kEncodings[i].
 */
constexpr std::array<sig::Encoding, 3> kEncodings = {
    sig::Encoding::Ext2, sig::Encoding::Ext3, sig::Encoding::Half1};

/** Predictors of the branch-prediction ablation; cpi[k] is kind k. */
constexpr std::array<PredictorKind, 3> kPredictors = {
    PredictorKind::None, PredictorKind::NotTaken, PredictorKind::Bimodal};

/**
 * Every profiler sink of the suite plan. Each section reads its own
 * sink after the one fused pass.
 */
struct SuiteSinks
{
    PatternProfiler patterns;
    PcProfiler pc;
    InstrMixProfiler mix{suiteCompressor()};
    ExceptionProfiler exceptions;
};

/**
 * The suite plan: one all-design CPI study per predictor (cpi[0] is
 * the paper's no-prediction machine, which every CPI, energy and
 * clock section reads), the width sweep (cpi[kPredictors.size()]),
 * one activity study per encoding, and every sink in @p sinks.
 */
StudyPlan
suitePlan(SuiteSinks &sinks)
{
    StudyPlan plan;
    for (PredictorKind k : kPredictors) {
        PipelineConfig cfg = suiteConfig();
        cfg.predictor = k;
        plan.cpi(allDesigns(), cfg);
    }
    // Section 5's bandwidth sweep around the balanced 3/2/2/1. The
    // first two points show why even the "byte-serial" design fetches
    // 3 bytes: a 1- or 2-byte I-fetch stalls every instruction.
    plan.cpi(std::vector<StageWidths>{{1, 1, 1, 1}, {2, 1, 1, 1},
                                      {3, 1, 1, 1}, {3, 1, 2, 1},
                                      {3, 2, 1, 1}, {3, 2, 2, 1},
                                      {3, 2, 2, 2}, {3, 4, 2, 1},
                                      {3, 2, 4, 1}, {3, 4, 4, 2},
                                      {3, 4, 4, 4}},
             suiteConfig());
    for (sig::Encoding enc : kEncodings)
        plan.activity(enc);
    plan.profile(
        {&sinks.patterns, &sinks.pc, &sinks.mix, &sinks.exceptions});
    return plan;
}

/** Suite-total activity of column @p column of a CPI study. */
ActivityTotals
suiteActivity(const CpiStudyResult &study, std::size_t column)
{
    ActivityTotals total;
    for (const auto &per_design : study.results)
        total += per_design[column].activity;
    return total;
}

// ------------------------------------------------------ Tables 1-4 --

void
table1(const PatternProfiler &pat)
{
    banner("Table 1: frequency of significant byte patterns",
           "Canal/Gonzalez/Smith MICRO-33, Table 1 "
           "(paper: eees~61%, top-4 ~94%)");

    TextTable t({"pattern", "freq %", "cumulative %", "ext2-encodable"});
    double cum = 0.0;
    for (const auto &[mask, count] : pat.patterns().ranked()) {
        (void)count;
        const double f = 100.0 * pat.patterns().fraction(mask);
        cum += f;
        t.beginRow()
            .cell(sig::patternName(mask))
            .cell(f, 1)
            .cell(cum, 1)
            .cell(sig::isExt2Representable(mask) ? "yes" : "no")
            .endRow();
    }
    printTable("significant-byte pattern frequencies (suite)", t);

    std::printf("\n2-bit-encodable coverage: %.1f%% (paper: ~94%%)\n",
                100.0 * pat.ext2Coverage());
    std::printf("mean significant bytes/operand: %.2f\n",
                pat.meanSignificantBytes());
    note("our suite keeps more upper-memory pointers live in "
         "registers than compiled Mediabench, so split "
         "patterns (sees/eses) are somewhat more frequent; "
         "the dominant-pattern ordering matches the paper.");
}

void
table2(const PcProfiler &pc)
{
    banner("Table 2: activity and latency estimates for PC updating",
           "Canal/Gonzalez/Smith MICRO-33, Table 2 (closed form "
           "b/(1-2^-b), 1/(1-2^-b))");

    TextTable t({"block bits", "analytic bits", "analytic cycles",
                 "measured bits", "measured cycles"});
    for (unsigned b = 1; b <= 8; ++b) {
        const auto &acc = pc.forBlockBits(b);
        t.beginRow()
            .cell(static_cast<std::uint64_t>(b))
            .cell(sig::pcAnalyticActivityBits(b), 4)
            .cell(sig::pcAnalyticLatency(b), 4)
            .cell(acc.meanActivityBits(), 4)
            .cell(acc.meanCycles(), 4)
            .endRow();
    }
    printTable("PC update cost vs block size", t);

    const auto &byte_acc = pc.forBlockBits(8);
    std::printf("\nbyte-block PC activity saving vs 32-bit "
                "incrementer: %.1f%% (paper Table 5: 73.3%%)\n",
                100.0 * (1.0 - byte_acc.meanActivityBits() / 32.0));
    note("analytic column is the paper's pure +1 counter; the "
         "measured column includes branch/jump redirects from "
         "the real PC stream, which add a little activity.");
}

void
table3(const InstrMixProfiler &mix)
{
    banner("Table 3: dynamic frequency of function codes",
           "Canal/Gonzalez/Smith MICRO-33, Table 3 + section "
           "2.3 statistics (top-8 ~87%, 3.17 B/instr)");

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
    printTable("R-format funct dynamic frequency (suite)", t);

    auto pct = [](double f) { return formatFixed(100.0 * f, 1) + "%"; };
    TextTable s({"statistic", "measured", "paper"});
    s.addRow({"R-format fraction", pct(mix.rFormatFraction()), "41.0%"});
    s.addRow({"I-format fraction", pct(mix.iFormatFraction()), "56.9%"});
    s.addRow({"J-format fraction", pct(mix.jFormatFraction()), "2.2%"});
    s.addRow({"instructions with immediates",
              pct(mix.immediateFraction()), "59.1%"});
    s.addRow({"immediates that fit 8 bits",
              pct(mix.shortImmediateFraction()), "80%"});
    s.addRow({"instructions performing an addition",
              pct(mix.additionFraction()), "70.7%"});
    s.addRow({"mean fetched bytes/instruction",
              formatFixed(mix.meanFetchBytes(), 2), "3.17"});
    printTable("section 2.3 instruction statistics", s);
}

const char *
bitsName(unsigned t)
{
    static const char *names[4] = {"00xxxxxx", "01xxxxxx", "10xxxxxx",
                                   "11xxxxxx"};
    return names[t];
}

/**
 * Table 4: the paper derives the exception rows analytically from the
 * top two bits of the preceding significant bytes (plus a
 * carry-out-of-bit-5 condition); here they are derived by exhaustive
 * enumeration of the model, then the dynamic rate is measured.
 */
void
table4(const ExceptionProfiler &prof)
{
    banner("Table 4: cases in which byte Ci must be generated",
           "Canal/Gonzalez/Smith MICRO-33, Table 4 (derived "
           "here by exhaustive enumeration of the model)");

    // For every unordered pair of top-2-bit classes of the preceding
    // significant bytes, determine whether the exception occurs
    // never, always, or only when bit 5 carries out.
    TextTable t({"A[i-1] top bits", "B[i-1] top bits", "exception",
                 "extra condition"});
    const sig::SerialAlu alu(sig::Encoding::Ext3);
    for (unsigned ta = 0; ta < 4; ++ta) {
        for (unsigned tb = ta; tb < 4; ++tb) {
            // Four-way census: (exception?, bit-5 carry?).
            unsigned exc_carry = 0, exc_plain = 0;
            unsigned ok_carry = 0, ok_plain = 0;
            for (unsigned a0 = ta << 6; a0 < ((ta + 1u) << 6); ++a0) {
                for (unsigned b0 = tb << 6; b0 < ((tb + 1u) << 6);
                     ++b0) {
                    const Word a = signExtend(a0, 8);
                    const Word b = signExtend(b0, 8);
                    const bool exc =
                        alu.add(a, b).cases[1] ==
                        sig::ByteCase::ExtException;
                    const bool carry5 =
                        (((a0 & 0x3f) + (b0 & 0x3f)) >> 6) & 1;
                    if (exc)
                        ++(carry5 ? exc_carry : exc_plain);
                    else
                        ++(carry5 ? ok_carry : ok_plain);
                }
            }
            if (exc_carry + exc_plain == 0)
                continue; // the paper lists only exception rows
            std::string verdict = "sometimes", cond = "-";
            if (ok_carry + ok_plain == 0)
                verdict = "always";
            else if (exc_plain == 0 && ok_carry == 0)
                cond = "5th bit produces carry";
            else if (exc_carry == 0 && ok_plain == 0)
                cond = "no carry out of 5th bit";
            else
                cond = "mixed";
            t.beginRow()
                .cell(bitsName(ta))
                .cell(bitsName(tb))
                .cell(verdict)
                .cell(cond)
                .endRow();
        }
    }
    printTable("derived exception rows (paper lists: 00+01, "
               "01+01, 11+10, 10+10 always; 00+11, 01+10 with "
               "bit-5 carry)", t);

    std::printf("\ndynamic Table-4 exception rate: %.2f%% of additive "
                "operations (%llu / %llu)\n",
                100.0 * static_cast<double>(prof.exceptions) /
                    static_cast<double>(prof.adds),
                static_cast<unsigned long long>(prof.exceptions),
                static_cast<unsigned long long>(prof.adds));
    note("rarity of the exception path is what makes the "
         "case-3 'extension bits only' shortcut profitable.");
}

// ----------------------------------------- Figs 4/6/8/10, Tables 5/6 --

/**
 * A CPI figure: per-benchmark CPI bars for @p designs (columns of
 * the suite's all-design study) plus mean uplift vs the baseline.
 */
void
cpiFigure(const std::vector<CpiRow> &rows, const std::string &title,
          const std::string &paper_ref, const std::vector<Design> &designs,
          const std::string &closing_note)
{
    banner(title, paper_ref);

    std::vector<std::string> headers = {"benchmark"};
    for (Design d : designs)
        headers.push_back(designName(d));
    TextTable t(headers);
    for (const CpiRow &row : rows) {
        t.beginRow().cell(row.benchmark);
        for (Design d : designs)
            t.cell(row.cpi.at(d), 3);
        t.endRow();
    }
    t.beginRow().cell("GEOMEAN");
    for (Design d : designs)
        t.cell(meanCpi(rows, d), 3);
    t.endRow();
    printTable("CPI per benchmark", t);

    const double base = meanCpi(rows, Design::Baseline32);
    std::printf("\nmean CPI uplift vs 32-bit baseline:\n");
    for (Design d : designs) {
        if (d == Design::Baseline32)
            continue;
        const double up = meanCpi(rows, d) / base - 1.0;
        std::printf("  %-26s %+5.1f%%\n", designName(d).c_str(),
                    100.0 * up);
    }
    note(closing_note);
}

/** A paper-style Table 5/6 over one activity study. */
void
activityTable(const ActivityStudyResult &study, const std::string &title,
              const std::string &paper_ref, const std::string &caption,
              const std::string &closing_note)
{
    banner(title, paper_ref);
    TextTable t({"benchmark", "Fetch", "RFread", "RFwrite", "ALU",
                 "D$data", "D$tag", "PCinc", "Latches"});
    auto add_row = [&](const std::string &name, const ActivityTotals &a) {
        t.beginRow()
            .cell(name)
            .cell(a.fetch.saving(), 1)
            .cell(a.rfRead.saving(), 1)
            .cell(a.rfWrite.saving(), 1)
            .cell(a.alu.saving(), 1)
            .cell(a.dcData.saving(), 1)
            .cell(a.dcTag.saving(), 1)
            .cell(a.pcInc.saving(), 1)
            .cell(a.latch.saving(), 1)
            .endRow();
    };
    for (const ActivityRow &r : study.rows)
        add_row(r.benchmark, r.activity);
    add_row("AVG", study.total());
    printTable(caption, t);
    note(closing_note);
}

// ------------------------------------------------------------ energy --

/**
 * Energy extension (the analysis the paper's conclusion calls for):
 * per-stage activity converted into dynamic energy with the
 * Wattch-style model, per significance design (columns 1.. of the
 * all-design study), plus the section-2.4 bank-split check.
 */
void
energy(const CpiStudyResult &study)
{
    banner("Energy estimate per pipeline design",
           "extension of Canal/Gonzalez/Smith MICRO-33 section "
           "7 (paper reports activity; energy model is "
           "Wattch-style)");

    const power::TechParams tech;
    std::printf("bank-split check (section 2.4): 4 byte-banks vs one "
                "32-bit array energy ratio = %.3f (paper argues "
                "~1.0)\n",
                power::bankSplitEnergyRatio(tech, 32, 32, 4));

    TextTable t({"design", "pipeline pJ/1k-instr (sig.)",
                 "pJ/1k-instr (32-bit baseline)", "energy saving %"});
    for (std::size_t i = 1; i < study.designs.size(); ++i) {
        DWord instructions = 0;
        for (const auto &per_design : study.results)
            instructions += per_design[i].instructions;
        const power::EnergyReport rep =
            power::buildEnergyReport(suiteActivity(study, i), tech);
        const double per_k = 1000.0 / static_cast<double>(instructions);
        t.beginRow()
            .cell(designName(study.designs[i]))
            .cell(rep.totalCompressedPj * per_k, 1)
            .cell(rep.totalBaselinePj * per_k, 1)
            .cell(rep.savingPercent(), 1)
            .endRow();
    }
    printTable("pipeline dynamic energy (suite total)", t);

    // Per-structure breakdown for the byte-serial design (column 1).
    const power::EnergyReport rep =
        power::buildEnergyReport(suiteActivity(study, 1), tech);
    TextTable b({"structure", "compressed pJ", "baseline pJ",
                 "saving %"});
    for (const power::StructureEnergy &se : rep.structures) {
        b.beginRow()
            .cell(se.structure)
            .cell(se.compressedPj, 0)
            .cell(se.baselinePj, 0)
            .cell(se.savingPercent(), 1)
            .endRow();
    }
    printTable("byte-serial per-structure energy", b);
    note("skewed designs show smaller latch savings (longer "
         "pipe), the skewed+bypass variant recovers them — "
         "matching the paper's qualitative discussion.");
}

// ------------------------------------------------- balance ablation --

/**
 * Section 5: the bottleneck study behind the semi-parallel design.
 * First the stall attribution of the byte-serial pipeline (the paper
 * found 72% of stalls were EX structural hazards), then the
 * bandwidth @p sweep over RF/ALU/D$ widths showing why 3-byte fetch /
 * 2-byte RF+ALU / 1-byte D$ is the balanced point.
 */
void
balance(const std::vector<CpiRow> &rows, const CpiStudyResult &sweep)
{
    banner("Section 5 ablation: byte-serial bottlenecks and "
           "bandwidth balance",
           "Canal/Gonzalez/Smith MICRO-33, section 5 (paper: "
           "72% of byte-serial stalls are EX structural; "
           "balanced widths 3/2/2/1)");

    // Part 1: stall attribution of the byte-serial design.
    Count control = 0, hazard = 0, structural = 0, imiss = 0, dmiss = 0;
    for (const auto &row : rows) {
        const StallBreakdown &st = row.stalls.at(Design::ByteSerial);
        control += st.controlCycles;
        hazard += st.dataHazardCycles;
        structural += st.structuralCycles;
        imiss += st.icacheMissCycles;
        dmiss += st.dcacheMissCycles;
    }
    const double total = static_cast<double>(
        control + hazard + structural + imiss + dmiss);
    TextTable t({"stall source", "cycles", "share %"});
    auto add = [&](const char *n, Count c) {
        t.beginRow()
            .cell(n)
            .cell(static_cast<std::uint64_t>(c))
            .cell(100.0 * static_cast<double>(c) / total, 1)
            .endRow();
    };
    add("structural (stage busy)", structural);
    add("control (branch resolve)", control);
    add("data hazard (operands)", hazard);
    add("I-cache misses", imiss);
    add("D-cache misses", dmiss);
    printTable("byte-serial stall attribution (suite)", t);
    note("paper: 'the ALU is the most important bottleneck, "
         "72% of the stalls were caused by structural hazards "
         "in the EX stage'. Our structural share counts all "
         "stages, with EX dominating it.");

    // Part 2: width sweep around the balanced point.
    TextTable bandwidth({"if width", "rf width", "alu width", "d$ width",
                  "geomean CPI", "vs baseline %"});
    const double base = meanCpi(rows, Design::Baseline32);
    for (std::size_t i = 0; i < sweep.widths.size(); ++i) {
        const StageWidths &w = sweep.widths[i];
        const double cpi = sweep.columnGeomeanCpi(i);
        bandwidth.beginRow()
            .cell(static_cast<std::uint64_t>(w.fetch))
            .cell(static_cast<std::uint64_t>(w.rf))
            .cell(static_cast<std::uint64_t>(w.alu))
            .cell(static_cast<std::uint64_t>(w.dcache))
            .cell(cpi, 3)
            .cell(100.0 * (cpi / base - 1.0), 1)
            .endRow();
    }
    printTable("bandwidth sweep (baseline32 geomean " +
                   formatFixed(base, 3) + ")",
               bandwidth);
    note("expected shape: a sub-3-byte I-fetch cripples every "
         "design (the paper's section-4 rationale); widening "
         "the ALU path buys the most (it is the bottleneck); "
         "3/2/2/1 sits near the knee, matching the paper's "
         "balance; widening the D-cache beyond 1 byte buys "
         "little.");
}

// ------------------------------------------------ encoding ablation --

/**
 * Section 2.1's 2-bit vs 3-bit discussion, plus the halfword scheme:
 * storage overhead, compression achieved, and the per-stage activity
 * savings of the serial pipeline under each encoding. The storage
 * table reads the activity studies' register-file counters: each
 * register operand adds 32 baseline bits and its significant data
 * bits plus the extension bits as compressed bits.
 */
void
encoding(const std::vector<ActivityStudyResult> &activity)
{
    banner("Ablation: 2-bit vs 3-bit vs halfword significance "
           "encodings",
           "Canal/Gonzalez/Smith MICRO-33, section 2.1 (2-bit: "
           "6% overhead, fewer patterns; 3-bit: 9% overhead, "
           "+6% operands compressed)");

    TextTable t({"encoding", "ext bits", "mean data bits/word",
                 "mean stored bits/word", "compression %"});
    for (const ActivityStudyResult &study : activity) {
        const ActivityTotals total = study.total();
        const Count eb = sig::extensionBits(study.encoding);
        const Count operands =
            (total.rfRead.baseline + total.rfWrite.baseline) / 32;
        const Count storage_bits =
            total.rfRead.compressed + total.rfWrite.compressed;
        const double stored =
            static_cast<double>(storage_bits) / operands;
        const double data =
            static_cast<double>(storage_bits - eb * operands) / operands;
        t.beginRow()
            .cell(sig::encodingName(study.encoding))
            .cell(static_cast<std::uint64_t>(eb))
            .cell(data, 2)
            .cell(stored, 2)
            .cell(100.0 * (1.0 - stored / 32.0), 1)
            .endRow();
    }
    printTable("storage cost per register operand (suite)", t);

    TextTable a({"encoding", "RFread save %", "RFwrite save %",
                 "ALU save %", "D$data save %", "latch save %"});
    for (const ActivityStudyResult &study : activity) {
        const ActivityTotals total = study.total();
        a.beginRow()
            .cell(sig::encodingName(study.encoding))
            .cell(total.rfRead.saving(), 1)
            .cell(total.rfWrite.saving(), 1)
            .cell(total.alu.saving(), 1)
            .cell(total.dcData.saving(), 1)
            .cell(total.latch.saving(), 1)
            .endRow();
    }
    printTable("byte-serial activity savings per encoding", a);
    note("expected shape: ext3 beats ext2 by a few percent "
         "(the paper estimated ~6% more compressible "
         "operands); both byte schemes beat the halfword "
         "scheme.");
}

// --------------------------------------------------- clock ablation --

/**
 * Relative clock period per design. 1.0 = the 32-bit baseline.
 * Byte-wide stages shorten the adder carry chain but the register
 * and cache arrays are unchanged, so the gain saturates well short
 * of 4x; the skewed/compressed designs keep full-width (gated)
 * logic and the baseline period.
 */
double
clockPeriod(Design d)
{
    switch (d) {
      case Design::Baseline32:             return 1.00;
      case Design::ByteSerial:             return 0.70;
      case Design::HalfwordSerial:         return 0.80;
      case Design::ByteSemiParallel:       return 0.80;
      case Design::ByteParallelSkewed:     return 1.00;
      case Design::ByteParallelCompressed: return 1.00;
      case Design::SkewedBypass:           return 1.00;
    }
    return 1.0;
}

/**
 * The paper's section 7 remark: "the narrower data path may result
 * in a faster clock, which will reduce performance loss, but this
 * was not considered in this paper." Execution time = CPI x period;
 * with the energy model this gives an energy-delay view of the
 * design space. Period factors are assumptions, printed alongside.
 */
void
clockScaling(const CpiStudyResult &study)
{
    banner("Ablation: clock scaling and energy-delay",
           "Canal/Gonzalez/Smith MICRO-33 section 7 remark "
           "(faster clock for narrow datapaths)");

    const power::TechParams tech;
    TextTable t({"design", "geomean CPI", "rel. period",
                 "rel. exec time", "rel. energy", "rel. EDP"});
    double base_time = 0.0;
    double base_energy = 0.0;
    for (std::size_t i = 0; i < study.designs.size(); ++i) {
        const Design d = study.designs[i];
        const double cpi = study.geomeanCpi(d);
        const double period = clockPeriod(d);
        const double time = cpi * period;
        const power::EnergyReport rep =
            power::buildEnergyReport(suiteActivity(study, i), tech);
        // The baseline design's energy is the uncompressed column;
        // significance designs use the compressed column.
        const double energy = (d == Design::Baseline32)
                                  ? rep.totalBaselinePj
                                  : rep.totalCompressedPj;
        if (d == Design::Baseline32) {
            base_time = time;
            base_energy = energy;
        }
        t.beginRow()
            .cell(designName(d))
            .cell(cpi, 3)
            .cell(period, 2)
            .cell(time / base_time, 3)
            .cell(energy / base_energy, 3)
            .cell((time / base_time) * (energy / base_energy), 3)
            .endRow();
    }
    printTable("performance-energy design space (suite, "
               "relative to baseline32)", t);
    note("with the §7 clock-scaling assumption, the serial "
         "designs' wall-clock penalty shrinks (byte-serial "
         "execution time ~1.25x rather than 1.78x) and every "
         "significance design has an energy-delay product "
         "well below the 32-bit baseline.");
}

// -------------------------------------------- branchpred ablation --

/**
 * The study the paper defers ("the implications of branch prediction
 * will be the subject of future study", section 3): each design's
 * CPI without prediction, with static not-taken, and with a bimodal
 * predictor + BTB. The three CPI studies share each trace's
 * design-independent front half: the predictor is not part of the
 * quanta key.
 */
void
branchpred(const std::vector<CpiStudyResult> &cpi)
{
    banner("Ablation: branch prediction across the design space",
           "future work deferred by Canal/Gonzalez/Smith "
           "MICRO-33 section 3");

    auto geomeanCpi = [&](Design d, PredictorKind k) {
        return cpi[static_cast<std::size_t>(k)].geomeanCpi(d);
    };

    TextTable t({"design", "no prediction", "not-taken", "bimodal",
                 "bimodal gain %"});
    double base_bimodal = 0.0;
    for (Design d : allDesigns()) {
        const double none = geomeanCpi(d, PredictorKind::None);
        const double nt = geomeanCpi(d, PredictorKind::NotTaken);
        const double bim = geomeanCpi(d, PredictorKind::Bimodal);
        if (d == Design::Baseline32)
            base_bimodal = bim;
        t.beginRow()
            .cell(designName(d))
            .cell(none, 3)
            .cell(nt, 3)
            .cell(bim, 3)
            .cell(100.0 * (1.0 - bim / none), 1)
            .endRow();
    }
    printTable("geomean CPI by predictor (suite)", t);

    std::printf("\nwith bimodal prediction the significance designs "
                "sit at these uplifts over the predicted baseline "
                "(%.3f):\n", base_bimodal);
    for (Design d : allDesigns()) {
        if (d == Design::Baseline32)
            continue;
        const double bim = geomeanCpi(d, PredictorKind::Bimodal);
        std::printf("  %-26s %+5.1f%%\n", designName(d).c_str(),
                    100.0 * (bim / base_bimodal - 1.0));
    }
    note("expected shape: every design gains; the deeper "
         "skewed pipes and the serial designs (whose branch "
         "resolution is occupancy-delayed) gain the most, so "
         "prediction *narrows* the cost of significance "
         "compression.");
}

// -------------------------------------------- robustness ablation --

/**
 * The headline experiments on two held-out kernels (`mesa`, a
 * fixed-point 3D transform, and `huff`, a Huffman-style bit packer)
 * that are not in the paper's table and were not used to tune
 * anything — including the funct recoding, which stays profiled on
 * the original suite. The paper's conclusions should transfer.
 */
void
robustness(Session &session)
{
    banner("Ablation: held-out workloads (mesa, huff)",
           "robustness check of all headline results on "
           "kernels outside the paper's suite");

    TextTable t({"benchmark", "design", "CPI", "uplift %",
                 "RFread save %", "ALU save %", "latch save %"});
    // One capture per held-out kernel, all seven designs replayed
    // from it, evicted right after (each is replayed exactly once,
    // so peak memory stays at one held-out trace).
    const SuiteReport rep = session.run(
        StudyPlan()
            .cpi(allDesigns(), suiteConfig())
            .workloads(workloads::Suite::extraNames())
            .evictAfterReplay());
    const CpiStudyResult &study = rep.cpi.front();
    for (std::size_t w = 0; w < study.benchmarks.size(); ++w) {
        const std::string &name = study.benchmarks[w];
        const auto &results = study.results[w];
        const double base = results[0].cpi();
        for (const auto &r : results) {
            t.beginRow()
                .cell(name)
                .cell(r.name)
                .cell(r.cpi(), 3)
                .cell(100.0 * (r.cpi() / base - 1.0), 1)
                .cell(r.activity.rfRead.saving(), 1)
                .cell(r.activity.alu.saving(), 1)
                .cell(r.activity.latch.saving(), 1)
                .endRow();
        }
    }
    printTable("held-out kernels across the design space", t);
    note("expected: same ordering as the main suite — "
         "byte-serial slowest, skewed-bypass cheapest of the "
         "significance designs, activity savings in the same "
         "bands. mesa's wide Q12 products lower the ALU "
         "saving; huff's narrow symbols raise it.");
}

} // namespace

int
main()
{
    Session session;
    SuiteSinks sinks;
    const SuiteReport suite = session.run(suitePlan(sinks));
    const CpiStudyResult &designs = suite.cpi.front();
    const std::vector<CpiRow> rows = designs.rows();

    table1(sinks.patterns);
    table2(sinks.pc);
    table3(sinks.mix);
    table4(sinks.exceptions);
    cpiFigure(rows,
              "Fig 4: performance of the byte-serial implementation",
              "Canal/Gonzalez/Smith MICRO-33, Fig 4 (paper: "
              "byte-serial CPI +79% avg; halfword-serial avg 1.96)",
              {Design::Baseline32, Design::ByteSerial,
               Design::HalfwordSerial},
              "expected shape: byte-serial is the slowest design "
              "everywhere; widening to 16 bits recovers most of "
              "the loss (paper: CPI 1.96).");
    cpiFigure(rows,
              "Fig 6: performance of the byte semi-parallel "
              "implementation",
              "Canal/Gonzalez/Smith MICRO-33, Fig 6 (paper: CPI "
              "+24% vs baseline)",
              {Design::Baseline32, Design::ByteSerial,
               Design::ByteSemiParallel},
              "expected shape: semi-parallel sits well below "
              "byte-serial and ~quarter above the baseline, "
              "validating the 3/2/2/1 bandwidth balance.");
    cpiFigure(rows,
              "Fig 8: performance of the byte-parallel skewed "
              "microarchitecture",
              "Canal/Gonzalez/Smith MICRO-33, Fig 8 (paper: CPI "
              "very close to the 32-bit baseline)",
              {Design::Baseline32, Design::ByteParallelSkewed},
              "the gap comes from the longer pipeline's branch "
              "penalty and deeper load-use distance; operand "
              "widths no longer throttle throughput.");
    // suite.activity[i] is kEncodings[i]: [1] Ext3, [2] Half1.
    activityTable(suite.activity[1],
                  "Table 5: activity reduction (%) for datapath "
                  "operations, 8-bit granularity",
                  "Canal/Gonzalez/Smith MICRO-33, Table 5 (paper AVG: "
                  "fetch 18.2, RFread 46.5, RFwrite 42.1, ALU 33.2, "
                  "D$data ~30, D$tag ~1, PCinc 73.3, latches 42.2)",
                  "activity savings vs 32-bit baseline (byte "
                  "granularity)",
                  "D$data savings run above the paper's 31% average "
                  "because the synthetic media arrays hold narrower "
                  "values than Mediabench heap data; every other "
                  "column should sit in the paper's per-benchmark "
                  "range.");
    activityTable(suite.activity[2],
                  "Table 6: activity reduction (%) for datapath "
                  "operations, 16-bit granularity",
                  "Canal/Gonzalez/Smith MICRO-33, Table 6 (paper AVG: "
                  "fetch 18.2, RFread 35.9, RFwrite 30.3, ALU 22.1, "
                  "D$data 23.4, D$tag 0, PCinc 46.7, latches 34.9)",
                  "activity savings vs 32-bit baseline (halfword "
                  "granularity)",
                  "savings are uniformly smaller than Table 5, as in "
                  "the paper: halfword granularity trades compression "
                  "for implementation simplicity and speed.");
    cpiFigure(rows,
              "Fig 10: performance of the byte-parallel compressed "
              "and skewed+bypasses microarchitectures",
              "Canal/Gonzalez/Smith MICRO-33, Fig 10 (paper: "
              "compressed +6%, skewed+bypasses +2%)",
              {Design::Baseline32, Design::ByteParallelSkewed,
               Design::ByteParallelCompressed, Design::SkewedBypass},
              "expected shape: skewed+bypasses is the fastest "
              "compressed design; the compressed 5-stage pipe "
              "trades a small throughput loss for minimal length.");
    energy(designs);
    balance(rows, suite.cpi[kPredictors.size()]);
    encoding(suite.activity);
    clockScaling(designs);
    branchpred(suite.cpi);
    robustness(session);
    return 0;
}
