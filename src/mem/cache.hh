/**
 * @file
 * Set-associative tag-only cache timing model.
 *
 * Caches here are "dataless": they track tags, LRU order and dirty
 * bits to produce hit/miss/writeback timing and statistics, while the
 * functional data always lives in PhysMemory. This is the classic
 * trace-style cache model and keeps functional correctness decoupled
 * from the timing model.
 *
 * Thread-safety: instance-scoped, like all of mem/ (PhysMemory,
 * Cache, DramCtrl, hierarchies). Every object belongs to exactly one
 * System; nothing in this layer is global, so concurrent experiment
 * workers (core/parallel.hh) need no locks here.
 */

#ifndef SVB_MEM_CACHE_HH
#define SVB_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/serialize.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace svb
{

/** Interface of anything a cache can miss to. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Timed access used on miss fill / writeback.
     *
     * @param line_addr line-aligned physical address
     * @param is_write  true for writebacks
     * @param now       cycle at which the access starts
     * @return total latency in cycles
     */
    virtual Cycles access(Addr line_addr, bool is_write, Cycles now) = 0;

    /** Untimed tag update for functional warming. */
    virtual void warm(Addr line_addr, bool is_write) = 0;
};

/** Cache geometry and latency parameters. */
struct CacheParams
{
    std::string name = "cache";
    uint32_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineSize = 64;
    Cycles hitLatency = 2;
    /**
     * Next-line prefetch on miss (a design-space axis from the
     * thesis' future work). The prefetch fill happens off the demand
     * path: it occupies downstream bandwidth but adds no latency to
     * the triggering access.
     */
    bool nextLinePrefetch = false;
};

/**
 * One level of tag-only set-associative cache with true-LRU
 * replacement and writeback policy.
 */
class Cache : public MemLevel
{
  public:
    /**
     * @param params geometry/latency
     * @param next   the level this cache misses to (not owned)
     * @param stats  parent stat group; a child named params.name is added
     */
    Cache(const CacheParams &params, MemLevel &next, StatGroup &stats);

    /** Timed lookup; fills on miss, writes back dirty victims. */
    Cycles access(Addr addr, bool is_write, Cycles now) override;

    /** Untimed functional-warming lookup (updates tags and stats). */
    void warm(Addr addr, bool is_write) override;

    /**
     * Invalidate a line if present (coherence snoop).
     * @return true when the line was present
     */
    bool invalidate(Addr line_addr);

    /** Drop every line (cold-start modelling). */
    void flushAll();

    /** @return true when the line is currently resident. */
    bool contains(Addr line_addr) const;

    uint64_t hits() const { return statHits.value(); }
    uint64_t misses() const { return statMisses.value(); }
    const CacheParams &params() const { return p; }

    /** A resident line's slot, tag and LRU stamp. */
    struct LineUse
    {
        uint32_t slot;
        Addr tag;
        uint64_t lastUse;
    };

    /** Accesses so far: every hit or fill takes the next LRU stamp. */
    uint64_t useCount() const { return useCounter; }

    /** Resident lines whose LRU stamp is above @p stamp, by slot. */
    std::vector<LineUse> usedSince(uint64_t stamp) const;

    /**
     * Account @p rounds repetitions of a hit-only access pattern of
     * @p accesses accesses per round that last used exactly @p used:
     * the hit count, each line's LRU stamp and the use counter advance
     * by rounds × accesses, as that many hits in the same order would
     * leave them.
     */
    void creditHitRounds(const std::vector<LineUse> &used,
                         uint64_t accesses, uint64_t rounds);

    /** Serialize tag/LRU/dirty warm state (checkpoint-once pipeline). */
    void serializeState(const std::string &prefix, Checkpoint &cp) const;

    /** Restore warm state saved on a cache of identical geometry. */
    void unserializeState(const std::string &prefix, const Checkpoint &cp);

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0; ///< LRU timestamp
    };

    /** Look up a line; returns nullptr on miss. */
    Line *findLine(Addr line_addr);

    /** Choose a victim way in the set containing @p line_addr. */
    Line &victimLine(Addr line_addr);

    Addr lineAddr(Addr addr) const { return addr & ~Addr(p.lineSize - 1); }
    size_t setIndex(Addr line_addr) const;

    CacheParams p;
    MemLevel &next;
    std::vector<Line> lines;
    size_t numSets;
    uint64_t useCounter = 0;

    Scalar &statHits;
    Scalar &statMisses;
    Scalar &statEvictions;
    Scalar &statWritebacks;
    Scalar &statInvalidations;
    Scalar &statPrefetches;
};

/** Terminal MemLevel backed by a DRAM controller (see dram.hh). */
class DramCtrl;

} // namespace svb

#endif // SVB_MEM_CACHE_HH
