/**
 * @file
 * The paper's two-level memory hierarchy (section 3) bundled behind
 * one interface used by all pipeline models.
 */

#ifndef SIGCOMP_MEM_HIERARCHY_H_
#define SIGCOMP_MEM_HIERARCHY_H_

#include "mem/cache.h"
#include "mem/tlb.h"

namespace sigcomp::mem
{

/**
 * Configuration of the full hierarchy. Defaults reproduce the
 * paper's experimental framework:
 *  - split 8 KB direct-mapped L1 I/D, 32 B lines, 1-cycle hit;
 *  - unified 64 KB 4-way L2, 32 B lines, 6-cycle hit, 30-cycle miss;
 *  - 16-entry 4-way I-TLB and 32-entry 4-way D-TLB, 30-cycle miss.
 */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 8 * 1024, 1, 32, 1};
    CacheParams l1d{"l1d", 8 * 1024, 1, 32, 1};
    CacheParams l2{"l2", 64 * 1024, 4, 32, 6};
    Cycle memoryPenalty = 30;
    TlbParams itlb{"itlb", 16, 4, 12, 30};
    TlbParams dtlb{"dtlb", 32, 4, 12, 30};

    bool operator==(const HierarchyParams &) const = default;
};

/** Result of one hierarchy access. */
struct MemOutcome
{
    /** Cycles beyond the 1-cycle L1 pipe occupancy. */
    Cycle extraLatency = 0;
    bool l1Hit = true;
    bool l2Hit = true;  ///< meaningful only when !l1Hit
    bool tlbHit = true;
    bool l1Fill = false;
    Addr fillLine = 0;  ///< line-aligned, when l1Fill
    bool writeback = false;
    Addr victimLine = 0;
};

/**
 * Two-level hierarchy with split L1 and TLBs. Stateless with respect
 * to data values (values come from MainMemory in the functional
 * core); this class provides timing and fill/writeback events.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(HierarchyParams params = HierarchyParams());

    /** Instruction-side access for the word at @p pc. */
    MemOutcome instrFetch(Addr pc);  // inline below

    /** Data-side access touching @p addr. */
    MemOutcome dataAccess(Addr addr, bool is_write);

    /** Invalidate all caches and TLBs and clear statistics. */
    void reset();

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    Tlb &itlb() { return itlb_; }
    Tlb &dtlb() { return dtlb_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

    const HierarchyParams &params() const { return params_; }

  private:
    MemOutcome accessThrough(Cache &l1, Tlb &tlb, Addr addr, bool is_write);

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Tlb itlb_;
    Tlb dtlb_;

    // Same-line fetch memo: sequential fetch hits the 32-byte line
    // of the previous fetch ~85% of the time, and only instrFetch()
    // mutates the I-side structures, so the line and its page are
    // guaranteed still resident — instrFetch() short-circuits the
    // set scans with bookkeeping identical to the full hit path.
    // Never a real line address (line addresses are aligned).
    static constexpr Addr noLine = ~Addr{0};
    Addr lastFetchLine_ = noLine;
    std::size_t lastFetchWay_ = 0;   ///< index into l1i_.lines_
    std::size_t lastFetchPage_ = 0;  ///< index into itlb_.entries_
};

inline MemOutcome
MemoryHierarchy::instrFetch(Addr pc)
{
    const Addr line = l1i_.lineAddr(pc);
    if (line == lastFetchLine_) {
        // Guaranteed L1-I and I-TLB hit (a 32-byte line never spans
        // pages). Replicate the full path's hit bookkeeping exactly
        // — tick, stats, LRU stamp — so every statistic and every
        // future replacement decision is bit-identical to the
        // unmemoized walk.
        ++itlb_.tick_;
        ++itlb_.stats_.accesses;
        itlb_.entries_[lastFetchPage_].lruStamp = itlb_.tick_;
        ++l1i_.tick_;
        ++l1i_.stats_.reads;
        l1i_.lines_[lastFetchWay_].lruStamp = l1i_.tick_;
        return MemOutcome();
    }

    const MemOutcome out = accessThrough(l1i_, itlb_, pc, false);
    // After the access the line and page are resident regardless of
    // hit/miss; memoize their slots for the sequential-fetch run.
    lastFetchLine_ = line;
    lastFetchWay_ = l1i_.wayIndexOf(pc);
    lastFetchPage_ = itlb_.entryIndexOf(pc);
    return out;
}

} // namespace sigcomp::mem

#endif // SIGCOMP_MEM_HIERARCHY_H_
