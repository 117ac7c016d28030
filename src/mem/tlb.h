/**
 * @file
 * Small set-associative TLB model (hit/miss timing only; the
 * simulated machine is flat-mapped so translation is identity).
 */

#ifndef SIGCOMP_MEM_TLB_H_
#define SIGCOMP_MEM_TLB_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace sigcomp::mem
{

class MemoryHierarchy;

/** TLB geometry and timing. */
struct TlbParams
{
    std::string name = "tlb";
    unsigned entries = 16;
    unsigned assoc = 4;
    unsigned pageBits = 12;
    Cycle missPenalty = 30;

    bool operator==(const TlbParams &) const = default;
};

/** TLB statistics. */
struct TlbStats
{
    Count accesses = 0;
    Count misses = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * LRU set-associative TLB.
 */
class Tlb
{
  public:
    explicit Tlb(TlbParams params);

    /** Look up the page of @p addr. @return true on hit. */
    bool access(Addr addr);

    void flush();

    const TlbParams &params() const { return params_; }
    const TlbStats &stats() const { return stats_; }
    void clearStats() { stats_ = TlbStats(); }

  private:
    /** Same-line fetch fast path replicates hit bookkeeping inline. */
    friend class MemoryHierarchy;

    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        Count lruStamp = 0;
    };

    /**
     * Index into entries_ of the entry mapping @p addr.
     * Precondition: the page is resident (just accessed).
     */
    std::size_t entryIndexOf(Addr addr) const;

    TlbParams params_;
    unsigned numSets_;
    std::vector<Entry> entries_;
    TlbStats stats_;
    Count tick_ = 0;
};

} // namespace sigcomp::mem

#endif // SIGCOMP_MEM_TLB_H_
