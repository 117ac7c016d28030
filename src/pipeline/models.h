/**
 * @file
 * The paper's pipeline implementations (sections 3-6):
 *
 *  - Baseline32            conventional 32-bit 5-stage pipeline
 *  - StreamedSerial        the serial pipelines of Figs 3-5 as one
 *                          model over per-stage widths: byte-serial
 *                          (3/1/1/1), halfword-serial (3/1/1/1 at
 *                          Half1) and byte-semi-parallel (3/2/2/1)
 *                          are its named points, and section 5's
 *                          bandwidth sweep is any other point
 *  - ByteParallelSkewed    full-width skewed 7-stage (Fig 7)
 *  - ByteParallelCompressed full-width 5-stage, variable occupancy
 *                          (Fig 9)
 *  - SkewedBypass          skewed + short-operand stage skipping
 *                          (Fig 10)
 */

#ifndef SIGCOMP_PIPELINE_MODELS_H_
#define SIGCOMP_PIPELINE_MODELS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/pipeline.h"

namespace sigcomp::pipeline
{

/** Enumeration of all modelled designs. */
enum class Design
{
    Baseline32,
    ByteSerial,
    HalfwordSerial,
    ByteSemiParallel,
    ByteParallelSkewed,
    ByteParallelCompressed,
    SkewedBypass,
};

/** Number of modelled designs (dense index domain of designIndex()). */
constexpr std::size_t numDesigns = 7;

/** Dense array index of a design. */
constexpr std::size_t
designIndex(Design d)
{
    return static_cast<std::size_t>(d);
}

/**
 * Canonical short name ("baseline32", "byte-serial", ...), from a
 * static table: naming a design never allocates.
 */
const std::string &designName(Design d);

/** All designs in presentation order. */
std::vector<Design> allDesigns();

/**
 * Per-stage datapath widths of the streamed serial pipeline, in
 * chunks per cycle (bytes, or halfwords under Half1): I-fetch,
 * register file (read and write-back), ALU, data cache. Section 5
 * writes them as "3/2/2/1".
 */
struct StageWidths
{
    unsigned fetch = 3;
    unsigned rf = 1;
    unsigned alu = 1;
    unsigned dcache = 1;

    friend bool operator==(const StageWidths &,
                           const StageWidths &) = default;
};

/** Byte-serial and halfword-serial widths (Figs 3/4). */
inline constexpr StageWidths kSerialWidths{3, 1, 1, 1};
/** Byte-semi-parallel widths: the section-5 balance (Fig 5). */
inline constexpr StageWidths kSemiParallelWidths{3, 2, 2, 1};

/** Pipeline name of a width point: "serial-3/2/2/1". */
std::string widthsName(const StageWidths &w);

/**
 * Construct a pipeline model. HalfwordSerial overrides the
 * configured encoding with Half1; all other designs use
 * config.encoding (Ext3 unless an ablation asks otherwise).
 */
std::unique_ptr<InOrderPipeline> makePipeline(Design d,
                                              PipelineConfig config);

/**
 * Construct the streamed serial pipeline at width point @p w, named
 * widthsName(w), with @p config as given.
 */
std::unique_ptr<InOrderPipeline> makePipeline(const StageWidths &w,
                                              PipelineConfig config);

/** The conventional 32-bit in-order 5-stage pipeline. */
class Baseline32 : public SharedReplayModel<Baseline32>
{
    friend SharedReplayModel<Baseline32>;

  public:
    explicit Baseline32(PipelineConfig config);

    bool planIsPure() const override { return true; }

  protected:
    TimingPlan plan(const cpu::DynInstr &di,
                    const InstrQuanta &q) override;
};

/**
 * Figs 3-5: the five-stage pipeline whose stages stream operands
 * chunk by chunk at per-stage widths. One rule set serves every
 * width point: a stage moving n chunks at width w is busy
 * divCeil(n, w) cycles and hands its first group on after one (the
 * D$ after as many cycles as the ALU's first group takes it). Width
 * points and named designs that share a config share one quanta
 * group; the name (part of the `result:` memo key) keeps their
 * memoised results apart.
 */
class StreamedSerial : public SharedReplayModel<StreamedSerial>
{
    friend SharedReplayModel<StreamedSerial>;

  public:
    StreamedSerial(std::string name, StageWidths widths,
                   PipelineConfig config);

    bool planIsPure() const override { return true; }

  protected:
    TimingPlan plan(const cpu::DynInstr &di,
                    const InstrQuanta &q) override;

  private:
    /** Chunks in a 32-bit word: the longest stream any port moves. */
    static constexpr unsigned kMaxChunks = 4;
    /** Cycles indexed by chunk (fetch: byte) count, 0..kMaxChunks. */
    using CycleTable = std::array<std::uint8_t, kMaxChunks + 1>;

    /** Every count is at most kMaxChunks; the clamp bounds the read. */
    static unsigned
    cycles(const CycleTable &t, unsigned n)
    {
        return t[std::min(n, kMaxChunks)];
    }

    // The widths' rules, tabulated at construction so plan() stays
    // small enough to inline into the replay loops.
    CycleTable fetch_{};
    CycleTable rf_{};
    CycleTable alu_{};
    CycleTable dcache_{};
    CycleTable dcacheLead_{};
};

/** Fig 7: full-width skewed pipeline (7 stages). */
class ByteParallelSkewed : public SharedReplayModel<ByteParallelSkewed>
{
    friend SharedReplayModel<ByteParallelSkewed>;

  public:
    explicit ByteParallelSkewed(PipelineConfig config);

    bool planIsPure() const override { return true; }

  protected:
    TimingPlan plan(const cpu::DynInstr &di,
                    const InstrQuanta &q) override;
};

/** Fig 9: full-width five-stage pipeline, compressed occupancy. */
class ByteParallelCompressed : public SharedReplayModel<ByteParallelCompressed>
{
    friend SharedReplayModel<ByteParallelCompressed>;

  public:
    explicit ByteParallelCompressed(PipelineConfig config);

    bool planIsPure() const override { return true; }

  protected:
    TimingPlan plan(const cpu::DynInstr &di,
                    const InstrQuanta &q) override;
};

/** Fig 10: skewed pipeline with short-operand bypasses. */
class SkewedBypass : public SharedReplayModel<SkewedBypass>
{
    friend SharedReplayModel<SkewedBypass>;

  public:
    explicit SkewedBypass(PipelineConfig config);

    bool planIsPure() const override { return true; }

  protected:
    TimingPlan plan(const cpu::DynInstr &di,
                    const InstrQuanta &q) override;
};

} // namespace sigcomp::pipeline

#endif // SIGCOMP_PIPELINE_MODELS_H_
