/**
 * @file
 * Branch prediction (the paper's explicitly deferred future work,
 * section 3: "the trend is toward implementing branch prediction.
 * The implications of branch prediction will be the subject of
 * future study").
 *
 * A classic front-end: a direction predictor (static not-taken or a
 * bimodal table of 2-bit counters) plus a tagged branch target
 * buffer. The pipeline models consult it at fetch; a correct
 * prediction removes the resolve-wait bubble, a misprediction pays
 * the design's full resolve latency — which is exactly what makes
 * prediction matter *more* for the longer skewed pipelines.
 */

#ifndef SIGCOMP_PIPELINE_PREDICTOR_H_
#define SIGCOMP_PIPELINE_PREDICTOR_H_

#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/types.h"

namespace sigcomp::pipeline
{

/** Direction predictor flavours. */
enum class PredictorKind
{
    None,     ///< the paper's machine: stall on every control transfer
    NotTaken, ///< static: fall through, redirect on taken
    Bimodal,  ///< per-PC 2-bit saturating counters + BTB
};

/** Human-readable predictor name, from a static table. */
const std::string &predictorName(PredictorKind k);

/** Predictor accuracy statistics. */
struct PredictorStats
{
    Count lookups = 0;
    Count mispredicts = 0;
    Count btbMisses = 0; ///< predicted/actual taken but target unknown

    double
    accuracy() const
    {
        return lookups ? 1.0 - static_cast<double>(mispredicts) /
                                   static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * Combined direction predictor + BTB.
 *
 * Usage per control transfer: call predict() at fetch, then
 * update() with the architectural outcome. correctlyPredicted() is
 * folded into predict()'s return so the timing model needs one call.
 */
class BranchPredictor
{
  public:
    /**
     * @param kind flavour
     * @param pht_entries bimodal counter table size (power of two)
     * @param btb_entries target buffer size (power of two)
     */
    explicit BranchPredictor(PredictorKind kind,
                             unsigned pht_entries = 512,
                             unsigned btb_entries = 128);

    /**
     * Predict the control transfer at @p pc and learn from the
     * outcome in one step (trace-driven: the outcome is known).
     *
     * @param pc the branch/jump address
     * @param taken architectural direction (jumps: true)
     * @param target architectural target
     * @param is_conditional conditional branch (direction predicted)
     * @return true when fetch would have continued on the correct
     *         path with no redirect bubble
     */
    bool predictAndUpdate(Addr pc, bool taken, Addr target,
                          bool is_conditional);

    PredictorKind kind() const { return kind_; }
    const PredictorStats &stats() const { return stats_; }

  private:
    struct BtbEntry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
    };

    unsigned phtIndex(Addr pc) const;
    unsigned btbIndex(Addr pc) const;

    PredictorKind kind_;
    std::vector<std::uint8_t> pht_; ///< 2-bit counters (bimodal only)
    std::vector<BtbEntry> btb_;     ///< empty for PredictorKind::None
    PredictorStats stats_;
};

} // namespace sigcomp::pipeline

#endif // SIGCOMP_PIPELINE_PREDICTOR_H_
