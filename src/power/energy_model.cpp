#include "power/energy_model.h"

#include "common/json.h"

namespace sigcomp::power
{

namespace
{

/** pJ of switching @p ff femtofarads at @p vdd volts. */
double
capEnergyPj(double ff, double vdd)
{
    // E = 1/2 C V^2; fF * V^2 -> fJ, /1000 -> pJ.
    return 0.5 * ff * vdd * vdd / 1000.0;
}

} // namespace

double
arrayEnergyPj(const TechParams &tech, double bits)
{
    // Each accessed bit swings one bit line and one sense amp; the
    // word-line share is folded in per bit attached to the row.
    const double ff =
        bits * (tech.bitLineFf + tech.senseAmpFf + tech.wordLineFfPerBit);
    return capEnergyPj(ff, tech.vdd);
}

double
logicEnergyPj(const TechParams &tech, double bits)
{
    return capEnergyPj(bits * tech.logicFfPerBit, tech.vdd);
}

double
latchEnergyPj(const TechParams &tech, double bits)
{
    return capEnergyPj(bits * (tech.latchFfPerBit + tech.clockFfPerBit),
                       tech.vdd);
}

EnergyReport
buildEnergyReport(const pipeline::ActivityTotals &activity,
                  const TechParams &tech)
{
    EnergyReport rep;
    rep.structures.reserve(8);
    auto add = [&](const std::string &name,
                   const pipeline::BitPair &bits, auto model) {
        StructureEnergy se;
        se.structure = name;
        se.compressedPj =
            model(tech, static_cast<double>(bits.compressed));
        se.baselinePj = model(tech, static_cast<double>(bits.baseline));
        rep.totalCompressedPj += se.compressedPj;
        rep.totalBaselinePj += se.baselinePj;
        rep.structures.push_back(se);
    };

    add("icache", activity.fetch, arrayEnergyPj);
    add("rf-read", activity.rfRead, arrayEnergyPj);
    add("rf-write", activity.rfWrite, arrayEnergyPj);
    add("alu", activity.alu, logicEnergyPj);
    add("dcache-data", activity.dcData, arrayEnergyPj);
    add("dcache-tag", activity.dcTag, arrayEnergyPj);
    add("pc-inc", activity.pcInc, logicEnergyPj);
    add("latches", activity.latch, latchEnergyPj);
    return rep;
}

void
appendEnergyReportJson(std::string &out, const EnergyReport &rep)
{
    using json::Fixed;
    json::append(out, "\"compressed_pj\": ", Fixed{rep.totalCompressedPj, 2},
                 ", \"baseline_pj\": ", Fixed{rep.totalBaselinePj, 2},
                 ", \"saving_percent\": ", Fixed{rep.savingPercent(), 2},
                 ", \"structures\": [");
    for (std::size_t s = 0; s < rep.structures.size(); ++s) {
        const StructureEnergy &se = rep.structures[s];
        json::append(out, s ? ", " : "", "{\"structure\": \"",
                     se.structure, "\", \"compressed_pj\": ",
                     Fixed{se.compressedPj, 2}, ", \"baseline_pj\": ",
                     Fixed{se.baselinePj, 2}, ", \"saving_percent\": ",
                     Fixed{se.savingPercent(), 2}, "}");
    }
    out += ']';
}

double
bankSplitEnergyRatio(const TechParams &tech, unsigned rows,
                     unsigned bits_per_row, unsigned banks)
{
    // Unsplit: one access drives a word line of bits_per_row bits
    // and bits_per_row bit-line/sense-amp pairs.
    const double full_ff =
        bits_per_row * (tech.wordLineFfPerBit + tech.bitLineFf +
                        tech.senseAmpFf);

    // Split: each bank is 1/banks as wide; reading the full word
    // takes `banks` accesses, each switching 1/banks of the columns.
    // Bit-line length (hence capacitance per column) is set by the
    // row count, which is unchanged by vertical splitting.
    const unsigned bank_bits = bits_per_row / banks;
    const double bank_ff =
        bank_bits * (tech.wordLineFfPerBit + tech.bitLineFf +
                     tech.senseAmpFf);
    (void)rows;
    return (banks * bank_ff) / full_ff;
}

} // namespace sigcomp::power
