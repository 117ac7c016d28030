/**
 * @file
 * Wattch-style analytic dynamic-energy model.
 *
 * The paper stops at activity ("The final quantification of energy
 * requires a further detailed circuit-level analysis"); this module
 * takes the step its conclusion points to with a simple
 * capacitance-based model: each structure access switches word
 * lines, bit lines and sense amps whose capacitance scales with the
 * array geometry, and dynamic energy is E = 0.5 * C * Vdd^2 * A
 * with A the bit activity measured by the pipeline models.
 *
 * It also encodes the paper's section-2.4 bank-splitting argument:
 * a byte-wide bank has ~1/4 the word-line, bit-line, and sense-amp
 * capacitance of a word-wide array, so four byte accesses cost about
 * one word access.
 */

#ifndef SIGCOMP_POWER_ENERGY_MODEL_H_
#define SIGCOMP_POWER_ENERGY_MODEL_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "pipeline/pipeline.h"

namespace sigcomp::power
{

/** Technology parameters (0.25um-class defaults, embedded core). */
struct TechParams
{
    double vdd = 1.8;            ///< volts
    double bitLineFf = 35.0;     ///< fF switched per bit-line per row hit
    double wordLineFfPerBit = 1.8; ///< fF of word line per attached bit
    double senseAmpFf = 12.0;    ///< fF equivalent per sense amp firing
    double latchFfPerBit = 9.0;  ///< fF per latch bit toggled
    double logicFfPerBit = 14.0; ///< fF per datapath bit operated
    double clockFfPerBit = 4.0;  ///< fF of clock load per gated bit

    bool operator==(const TechParams &) const = default;
};

/**
 * Energy of switching @p bits bits of a storage array (word line +
 * bit line + sense amp components), in picojoules.
 */
double arrayEnergyPj(const TechParams &tech, double bits);

/** Energy of @p bits bits of random logic switching, in pJ. */
double logicEnergyPj(const TechParams &tech, double bits);

/** Energy of @p bits latch bits (data + local clock), in pJ. */
double latchEnergyPj(const TechParams &tech, double bits);

/** One row of the per-structure energy report. */
struct StructureEnergy
{
    std::string structure;
    double compressedPj = 0.0;
    double baselinePj = 0.0;

    double
    savingPercent() const
    {
        return baselinePj > 0.0
                   ? 100.0 * (1.0 - compressedPj / baselinePj)
                   : 0.0;
    }
};

/** Whole-pipeline energy summary derived from activity totals. */
struct EnergyReport
{
    std::vector<StructureEnergy> structures;
    double totalCompressedPj = 0.0;
    double totalBaselinePj = 0.0;

    double
    savingPercent() const
    {
        return totalBaselinePj > 0.0
                   ? 100.0 * (1.0 - totalCompressedPj / totalBaselinePj)
                   : 0.0;
    }
};

/**
 * Convert a pipeline run's activity totals into energy.
 * Storage structures (caches, RF) use the array model; the ALU uses
 * the logic model; latches use the latch model.
 */
EnergyReport buildEnergyReport(const pipeline::ActivityTotals &activity,
                               const TechParams &tech = TechParams());

/**
 * Append @p rep's fields as JSON — `"compressed_pj"`, `"baseline_pj"`,
 * `"saving_percent"`, and a `"structures"` array — WITHOUT the
 * enclosing braces, so callers can splice them into their own
 * objects (the SuiteReport energy rows do).
 */
void appendEnergyReportJson(std::string &out, const EnergyReport &rep);

/**
 * Section 2.4 check: per-access energy of a register file split
 * into @p banks equal banks, relative to the unsplit array, when a
 * full-width value is read one bank at a time. Close to 1.0 — the
 * multiple narrow accesses are not an energy penalty.
 */
double bankSplitEnergyRatio(const TechParams &tech, unsigned rows,
                            unsigned bits_per_row, unsigned banks);

} // namespace sigcomp::power

#endif // SIGCOMP_POWER_ENERGY_MODEL_H_
