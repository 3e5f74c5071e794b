/**
 * @file
 * Atomic (functional) CPU model.
 *
 * One macro instruction per cycle, instantaneous memory. Used for
 * system boot, functional cache warming between the measured requests
 * (vSwarm-u "setup mode"), and QEMU-style emulation studies.
 *
 * Two execution engines share the architectural semantics:
 *  - tick(): the per-instruction oracle (fetch, translate, decode
 *    cache lookup, uop interpretation) — one cycle per call.
 *  - runFast()/tickFast(): the superblock fast path, a
 *    threaded-dispatch interpreter over pre-lowered uop arrays
 *    (cpu/superblock.hh) that caches the instruction-page translation
 *    and batches statistic updates. Architectural state, warming
 *    traffic, TLB/trap behavior and every StatGroup value stay
 *    byte-identical to tick(); only host speed differs.
 */

#ifndef SVB_CPU_ATOMIC_CPU_HH
#define SVB_CPU_ATOMIC_CPU_HH

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "base_cpu.hh"

namespace svb
{

class SuperblockCache;
struct Superblock;

/**
 * The AtomicSimpleCPU-equivalent model.
 */
class AtomicCpu final : public BaseCpu
{
  public:
    AtomicCpu(int core_id, IsaId isa, PhysMemory &phys, CoreMemSystem &mem,
              DecodeCache &decoder, TrapHandler &trap, StatGroup &stats,
              SuperblockCache *sblocks = nullptr);

    void tick() override;

    /**
     * One cycle through the superblock engine. Byte-identical to
     * tick(); statistics are flushed before returning, so callers may
     * interleave it freely with tick() and with other cores.
     */
    void tickFast();

    /**
     * Invoked inside a chained batch just before the core does
     * something another core could observe, with the number of cycles
     * consumed so far (including the current one): before a trap
     * handler runs (@p watched false), or before an access to a
     * watched range reaches the memory system (@p watched true). The
     * system uses it to bring the global cycle and the other cores up
     * to date, because trap handlers observe both (m5 stat dumps, work
     * marks, sysNow) and a spinning core must not see the access for
     * earlier cycles.
     */
    using Sync = std::function<void(uint64_t batch_cycles, bool watched)>;

    /** Physical byte ranges [first, second). */
    using WatchList = std::vector<std::pair<Addr, Addr>>;

    /** What a chained batch must not touch unnoticed while other
     *  cores' spins are fast-forwarded (see markIdleYield()). */
    struct Watch
    {
        WatchList reads;  ///< lines they read: a store syncs first
        WatchList writes; ///< lines they store to: any access syncs
    };

    /**
     * Chained superblock execution: run up to @p budget cycles without
     * returning to the event loop, ending early at any trap (syscall /
     * halt, after whose handler the caller must re-evaluate scheduling
     * and events), after the instruction whose access @p watch names,
     * or when the core is halted. Nothing executed here schedules
     * events, so the caller bounds @p budget by the next pending event
     * tick. A non-null @p watch needs a non-null @p sync.
     *
     * @return cycles consumed (>= 1 when budget >= 1)
     */
    uint64_t runFast(uint64_t budget, const Sync *sync,
                     const Watch *watch = nullptr);

    /** When false, skip cache/TLB warming entirely (fast boot). */
    void setWarmingEnabled(bool enabled) { warming = enabled; }

    uint64_t instCount() const { return statInsts.value(); }
    uint64_t cycleCount() const { return statCycles.value(); }

    /** Dump the recent pc history (fault diagnostics). */
    void dumpHistory() const;

    /** Trap-cost cycles still to burn — checkpointed so a restored run
     *  resumes mid-stall exactly like the uninterrupted one. */
    Cycles stallCycles() const { return pendingStall; }
    void setStallCycles(Cycles c) { pendingStall = c; }

    /** Import state and drop the superblock cursor (the cached
     *  instruction-page translation is no longer valid). */
    void
    setContext(const HwContext &new_ctx) override
    {
        BaseCpu::setContext(new_ctx);
        resetFastPath();
    }

    /**
     * Invalidate the superblock cursor. Must be called whenever the
     * iTLB is flushed behind the engine's back (microarch flush): the
     * fast path credits guaranteed same-page hits mid-block, which is
     * only equivalent to per-instruction translation while the
     * block-entry fill is still resident.
     */
    void
    resetFastPath()
    {
        curBlock = nullptr;
        curInst = 0;
        curFrame = 0;
        curVpage = 0;
    }

    /** Credit @p n halted cycles (batched idle accounting while
     *  another core runs a chained batch). */
    void addIdleCycles(uint64_t n) { statIdleCycles += n; }

    // --- spin fast-forward (fast tier) ------------------------------------
    /**
     * Period boundary of a possible spin: the core's sysYield just
     * returned on an empty run queue, and the kernel's busyTraps()
     * reads @p busy_traps. Two consecutive periods with the same
     * context, the same counter deltas, no miss, no busy trap, the
     * same LRU-stamp pattern and, when they store, the same bytes in
     * their data lines at both ends put the core on an orbit; a failed
     * attempt skips the next few boundaries, doubling up to 32, so a
     * core that yields while it works pays little. Needs cache warming
     * on: the orbit's lines, which other cores must not touch
     * unnoticed, are the lines it warms.
     *
     * @return true when the core entered an orbit
     */
    bool markIdleYield(uint64_t busy_traps);

    /** True while the core's spin is fast-forwarded. */
    bool orbiting() const { return orbit.period != 0; }

    /** Cycles per iteration of the current orbit. */
    uint64_t orbitPeriod() const { return orbit.period; }

    /**
     * Advance an orbiting core @p cycles cycles: tick to the next
     * period boundary, credit whole periods in bulk, tick the rest.
     * Ticked cycles run through tickFast(), so everything comes out
     * as per-cycle execution would leave it.
     *
     * @return periods credited in bulk (the kernel owes as many
     *         empty-queue yields)
     */
    uint64_t creditOrbit(uint64_t cycles);

    /** Stop fast-forwarding and forget detection progress. */
    void endOrbit();

    /** The orbit's lines: every L1I and L1D line it uses is read, and
     *  when it stores, every L1D line counts as written. */
    const Watch &orbitWatch() const { return orbit.watch; }

  private:
    void recordPc(Addr pc);

    /** Counters a spin period moves, read at each boundary. */
    enum SpinCount
    {
        scCycles, scInsts, scUops, scBranches, scLoads, scStores, scIdle,
        scItlbHits, scItlbMisses, scDtlbHits, scDtlbMisses, scL1iUses,
        scL1iMisses, scL1dUses, scL1dMisses, numSpinCounts
    };
    using SpinCounts = std::array<uint64_t, numSpinCounts>;

    /** Core state at one spin period boundary. */
    struct SpinMark
    {
        HwContext ctx;
        Cycles stall = 0;
        uint64_t busyTraps = 0;
        SpinCounts count{};
        /// L1I/L1D lines used since the previous boundary
        std::vector<Cache::LineUse> fetched, loaded;
        std::vector<uint8_t> bytes; ///< the L1D lines' data, if stored
    };

    SpinMark spinMark(uint64_t busy_traps, const SpinMark *prev) const;

    // Detection progress: the last boundary, and the first period's
    // deltas once two boundaries agreed.
    SpinMark lastMark;
    SpinCounts lastDelta{};
    unsigned marks = 0;      ///< boundaries in the current attempt (0-2)
    unsigned skipMarks = 0;  ///< boundaries to skip after a failure
    unsigned backoff = 0;

    struct Orbit
    {
        uint64_t period = 0; ///< cycles per iteration; 0 when off
        uint64_t phase = 0;  ///< cycles since the last boundary
        SpinCounts delta{};
        std::vector<Cache::LineUse> fetched, loaded;
        Watch watch;
    } orbit;

    SuperblockCache *sblocks;

    bool warming = true;
    Cycles pendingStall = 0; ///< trap-cost cycles still to burn
    std::array<Addr, 64> pcHistory{};
    size_t pcHistoryPos = 0;  ///< next slot to write (oldest entry)
    bool pcHistoryFull = false;

    // Superblock cursor: position of the next instruction inside the
    // current block, valid across calls until a control transfer, a
    // trap, a block end, or a context import.
    const Superblock *curBlock = nullptr;
    uint32_t curInst = 0;
    Addr curFrame = 0; ///< physical page base of the block's code page
    Addr curVpage = 0; ///< virtual page base backing the cursor

    Scalar &statCycles;
    Scalar &statInsts;
    Scalar &statUops;
    Scalar &statBranches;
    Scalar &statLoads;
    Scalar &statStores;
    Scalar &statIdleCycles;
};

} // namespace svb

#endif // SVB_CPU_ATOMIC_CPU_HH
