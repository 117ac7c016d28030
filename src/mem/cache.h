/**
 * @file
 * Set-associative cache timing/occupancy model with LRU replacement
 * and write-back write-allocate policy.
 *
 * The cache models tags, valid/dirty state and replacement only; data
 * values live in MainMemory (trace-driven simulation, as in the
 * paper's SimpleScalar-based framework). Event counters let the
 * activity layer convert hits/misses/fills into bit activity.
 */

#ifndef SIGCOMP_MEM_CACHE_H_
#define SIGCOMP_MEM_CACHE_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace sigcomp::mem
{

class MemoryHierarchy;

/** Static geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    Word sizeBytes = 8 * 1024;
    unsigned assoc = 1;
    unsigned lineBytes = 32;
    Cycle hitLatency = 1;

    bool operator==(const CacheParams &) const = default;
};

/** Outcome of a single cache access. */
struct CacheAccess
{
    bool hit = false;
    /** Line-aligned address of the line filled on a miss. */
    Addr fillLine = 0;
    /** A dirty victim was evicted (write-back traffic). */
    bool writeback = false;
    /** Line-aligned address of the evicted victim (when writeback). */
    Addr victimLine = 0;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    Count reads = 0;
    Count writes = 0;
    Count readMisses = 0;
    Count writeMisses = 0;
    Count fills = 0;
    Count writebacks = 0;

    Count accesses() const { return reads + writes; }
    Count misses() const { return readMisses + writeMisses; }

    double
    missRate() const
    {
        return accesses() ? static_cast<double>(misses()) /
                                static_cast<double>(accesses())
                          : 0.0;
    }

    bool operator==(const CacheStats &) const = default;
};

/**
 * One level of cache. Thread-compatible, not thread-safe.
 */
class Cache
{
  public:
    explicit Cache(CacheParams params);

    /**
     * Access the line containing @p addr.
     *
     * @param addr byte address (any alignment within the line)
     * @param is_write true for stores (marks the line dirty)
     * @return hit/miss/fill/writeback outcome
     */
    CacheAccess access(Addr addr, bool is_write);

    /** Probe without modifying state (for tests/visualisation). */
    bool contains(Addr addr) const;

    /** Invalidate everything (between benchmark runs). */
    void flush();

    const CacheParams &params() const { return params_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats(); }

    unsigned numSets() const { return numSets_; }

    /** Width of one stored tag in bits (address tag + valid bit). */
    unsigned tagBits() const { return tagBits_; }

    /** Line-aligned address of @p addr. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(params_.lineBytes - 1);
    }

  private:
    /** Same-line fetch fast path replicates hit bookkeeping inline. */
    friend class MemoryHierarchy;

    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        Count lruStamp = 0;
    };

    unsigned setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /**
     * Index into lines_ of the way holding @p addr. Precondition:
     * the line is resident (the caller just accessed it).
     */
    std::size_t wayIndexOf(Addr addr) const;

    CacheParams params_;
    unsigned numSets_;
    unsigned lineShift_;
    unsigned tagBits_;
    std::vector<Line> lines_; ///< numSets_ * assoc, set-major
    CacheStats stats_;
    Count tick_ = 0; ///< LRU timestamp source
};

} // namespace sigcomp::mem

#endif // SIGCOMP_MEM_CACHE_H_
