#include "pipeline/predictor.h"

#include <algorithm>
#include <bit>

namespace sigcomp::pipeline
{

const std::string &
predictorName(PredictorKind k)
{
    static const std::string names[] = {"none", "not-taken", "bimodal",
                                        "?"};
    return names[std::min(static_cast<std::size_t>(k), std::size_t{3})];
}

BranchPredictor::BranchPredictor(PredictorKind kind, unsigned pht_entries,
                                 unsigned btb_entries)
    : kind_(kind)
{
    SC_ASSERT(std::has_single_bit(pht_entries) &&
                  std::has_single_bit(btb_entries),
              "predictor tables must be powers of two");
    // Only the tables the kind reads: None predicts nothing, and
    // not-taken needs targets but no direction counters.
    if (kind == PredictorKind::Bimodal)
        pht_.assign(pht_entries, 1); // weakly not-taken
    if (kind != PredictorKind::None)
        btb_.assign(btb_entries, BtbEntry{});
}

unsigned
BranchPredictor::phtIndex(Addr pc) const
{
    return (pc >> 2) & (static_cast<unsigned>(pht_.size()) - 1);
}

unsigned
BranchPredictor::btbIndex(Addr pc) const
{
    return (pc >> 2) & (static_cast<unsigned>(btb_.size()) - 1);
}

bool
BranchPredictor::predictAndUpdate(Addr pc, bool taken, Addr target,
                                  bool is_conditional)
{
    ++stats_.lookups;

    if (kind_ == PredictorKind::None) {
        ++stats_.mispredicts;
        return false;
    }

    // Direction.
    bool predict_taken = false;
    if (kind_ == PredictorKind::Bimodal) {
        std::uint8_t &ctr = pht_[phtIndex(pc)];
        predict_taken = is_conditional ? (ctr >= 2) : true;
        if (is_conditional) {
            if (taken && ctr < 3)
                ++ctr;
            else if (!taken && ctr > 0)
                --ctr;
        }
    } else {
        // Static not-taken (unconditional jumps still need the BTB).
        predict_taken = false;
    }

    // Target (only needed on the taken path).
    BtbEntry &be = btb_[btbIndex(pc)];
    const bool btb_hit = be.valid && be.tag == pc;
    const Addr btb_target = btb_hit ? be.target : 0;
    if (taken) {
        be.valid = true;
        be.tag = pc;
        be.target = target;
    }

    bool correct;
    if (!taken) {
        correct = !predict_taken;
    } else if (kind_ == PredictorKind::NotTaken) {
        correct = false;
    } else {
        correct = predict_taken && btb_hit && btb_target == target;
        if (predict_taken && (!btb_hit || btb_target != target))
            ++stats_.btbMisses;
    }

    if (!correct)
        ++stats_.mispredicts;
    return correct;
}

} // namespace sigcomp::pipeline
