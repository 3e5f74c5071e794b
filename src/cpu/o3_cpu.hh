/**
 * @file
 * Detailed out-of-order CPU model (the DerivO3CPU equivalent).
 *
 * Pipeline: fetch (with branch prediction and timed I-cache/ITLB) ->
 * decode/rename (explicit register renaming onto a physical register
 * file with a free list) -> issue (issue queue, FU pool, LSQ with
 * store-to-load forwarding) -> commit (in-order, trains the branch
 * predictor, retires stores to memory, delivers traps).
 *
 * Configuration defaults mirror Table 4.1 of the paper: 192-entry
 * ROB, 32+32 LSQ, 256 physical integer registers.
 *
 * The core is event-driven without changing a simulated cycle: a load
 * blocked on an older store's unknown address parks until some store
 * issues, and a tick in which no stage acts records the first cycle at
 * which one can; the ticks before it only book their stall cycle
 * (see DESIGN.md, "The event-driven O3 core").
 */

#ifndef SVB_CPU_O3_CPU_HH
#define SVB_CPU_O3_CPU_HH

#include <vector>

#include "base_cpu.hh"
#include "branch_pred.hh"
#include "sim/logging.hh"
#include "stall_cause.hh"

namespace svb
{

/** O3 pipeline geometry. */
struct O3Params
{
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 192;
    unsigned iqEntries = 64;
    unsigned lqEntries = 32;
    unsigned sqEntries = 32;
    unsigned numPhysIntRegs = 256;
    unsigned fetchBufferEntries = 16;
    Cycles frontendDelay = 4;   ///< fetch-to-rename depth
    unsigned intAluUnits = 3;
    unsigned intMultUnits = 1;
    unsigned intDivUnits = 1;
    unsigned memPorts = 2;
    Cycles intAluLat = 1;
    Cycles intMultLat = 3;
    Cycles intDivLat = 20;
    Cycles forwardLat = 2;      ///< store-to-load forwarding latency
    BranchPredParams bp;
};

/**
 * The out-of-order core.
 */
class O3Cpu final : public BaseCpu
{
  public:
    O3Cpu(const O3Params &params, int core_id, IsaId isa, PhysMemory &phys,
          CoreMemSystem &mem, DecodeCache &decoder, TrapHandler &trap,
          StatGroup &stats);

    void tick() override;

    void setContext(const HwContext &new_ctx) override;
    HwContext getContext() const override;

    /** How many of the next ticks are known to be quiet: no stage can
     *  act before then, so each only books its stall cycle. */
    uint64_t
    quietTicksAhead() const
    {
        return wakeCycle > cycle + 1 ? wakeCycle - cycle - 1 : 0;
    }

    /** Run @p n ticks at once, each quiet (n <= quietTicksAhead()) or
     *  halted; identical to calling tick() @p n times. */
    void skipTicks(uint64_t n);

    uint64_t cycleCount() const { return statCycles.value(); }
    uint64_t instCount() const { return statInsts.value(); }
    BranchPredictor &branchPredictor() { return bp; }

  private:
    /**
     * Fixed-capacity FIFO over one allocation, for the O3 windows. Slots
     * never move, so a pointer to an element stays valid until it is
     * popped; callers check the capacity before pushing.
     */
    template <typename T>
    class FixedRing
    {
      public:
        explicit FixedRing(size_t capacity)
        {
            size_t cap = 1;
            while (cap < capacity)
                cap <<= 1;
            slots.resize(cap);
            mask = cap - 1;
        }

        bool empty() const { return count == 0; }
        size_t size() const { return count; }
        size_t capacity() const { return mask + 1; }

        /** Slot-index view: slots run in age order from headSlot(),
         *  wrapping at capacity(). */
        size_t headSlot() const { return head; }
        size_t
        slotOf(const T &elem) const
        {
            return size_t(&elem - slots.data());
        }
        T &atSlot(size_t slot) { return slots[slot]; }
        T &front() { return slots[head]; }
        const T &front() const { return slots[head]; }
        T &back() { return slots[(head + count - 1) & mask]; }
        const T &
        operator[](size_t i) const
        {
            return slots[(head + i) & mask];
        }

        /** Append @p value (a value-initialised element by default) and
         *  @return its slot. */
        T &
        push_back(const T &value = T{})
        {
            svb_assert(count <= mask, "FixedRing overflow");
            T &slot = slots[(head + count++) & mask];
            slot = value;
            return slot;
        }

        void pop_front() { head = (head + 1) & mask; --count; }
        void pop_back() { --count; }
        void clear() { head = 0; count = 0; }

      private:
        std::vector<T> slots;
        size_t mask = 0;
        size_t head = 0;
        size_t count = 0;
    };

    /** One in-flight micro-op. */
    struct DynInst
    {
        uint64_t seq = 0;
        MicroOp uop;
        const StaticInst *sinst = nullptr;
        Addr pc = 0;
        uint8_t instLen = 0;
        bool lastUop = false;

        // Rename.
        int pdst = -1;
        int psrc1 = -1;
        int psrc2 = -1;
        int oldPdst = -1;
        int archDst = -1;

        // Status.
        bool executed = false;
        Cycles completeAt = 0;

        // Issue queue.
        bool inIq = false;
        /** Source operands whose producer has not issued yet. */
        uint8_t waitingSrcs = 0;
        /** Cycle the issued producers' results are ready. */
        Cycles srcReady = 0;
        /** storeEpoch at which this load found an older store's address
         *  unknown; it cannot issue until the epoch moves (0: never). */
        uint64_t parkedEpoch = 0;

        // Memory.
        bool faulted = false;
        bool addrReady = false;
        Addr effPaddr = 0;
        uint64_t storeData = 0;

        // Control.
        bool hasPred = false;
        Addr predNext = 0;
        bool actualTaken = false;
        Addr actualNext = 0;
    };

    struct FetchEntry
    {
        Addr pc = 0;
        const StaticInst *inst = nullptr;
        bool hasPred = false;
        Addr predNext = 0;
        Cycles readyAt = 0;
    };

    // --- pipeline stages (called youngest-last each tick) ---------------
    void commitStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    /** Book the finished cycle onto exactly one stall-cause counter;
     *  when no stage acted, go quiet until the next possible action. */
    void accountCycle();

    // --- helpers ---------------------------------------------------------
    bool tryIssue(DynInst &d, unsigned &alu_used, unsigned &mult_used,
                  unsigned &mem_used);
    void executeUop(DynInst &d, Cycles lat);
    bool issueLoad(DynInst &d);
    void enterIq(DynInst &d);
    void leaveIq(DynInst &d);
    /** Set @p preg's ready cycle at its producer's issue and wake the
     *  IQ entries waiting for it. */
    void setRegReady(int preg, Cycles at);
    void squashAfter(uint64_t seq);
    void redirectFetch(Addr new_pc, Cycles delay);
    void deliverTrap(DynInst &d);
    uint64_t readPhys(int preg) const { return physRegs[size_t(preg)]; }
    uint64_t *
    waitersOf(int preg)
    {
        return &regWaiters[size_t(preg) * iqWords];
    }

    O3Params p;
    BranchPredictor bp;

    // Rename state.
    std::vector<int> renameMap;
    std::vector<int> committedMap;
    std::vector<int> freeList;
    std::vector<uint64_t> physRegs;
    std::vector<Cycles> regReadyAt;

    // Windows.
    FixedRing<DynInst> rob;
    // Issue queue: the ROB entries waiting to issue, kept as bitmasks
    // over ROB slots so select walks them in age (ring) order and
    // visits only entries whose operands' ready cycle is known.
    unsigned iqCount = 0;
    size_t iqWords = 0; ///< 64-bit words per ROB-slot mask
    std::vector<uint64_t> iqKnown;
    /** Per physical register, the IQ entries waiting on its producer. */
    std::vector<uint64_t> regWaiters;
    FixedRing<DynInst *> loadQueue;
    FixedRing<DynInst *> storeQueue;
    FixedRing<FetchEntry> fetchQueue;

    // Fetch state.
    Addr fetchPc = 0;
    bool fetchEnabled = false;
    Cycles fetchStallUntil = 0;
    Addr lastFetchLine = ~Addr(0);

    Cycles cycle = 0;
    uint64_t nextSeq = 1;
    Cycles divBusyUntil = 0;
    Cycles commitStallUntil = 0;
    /** Bumped whenever a store issues: parked loads retry then. */
    uint64_t storeEpoch = 1;

    // Quiet ticks: ticks before wakeCycle cannot act and only book
    // numCycles, quietStall and quietRenameStall (when set).
    Cycles wakeCycle = 0;
    Scalar *quietStall = nullptr;
    Scalar *quietRenameStall = nullptr;

    // Per-cycle stall attribution scratch state (reset every tick).
    /** Why commit made no progress this cycle, observed at its head. */
    enum class CommitBlock { None, Trap, RobEmpty, HeadMem, HeadExec };
    /** Which resource blocked rename this cycle, if any. */
    enum class RenameStall { None, Rob, Iq, Lsq, Regs };
    unsigned commitsThisCycle = 0;
    CommitBlock commitBlock = CommitBlock::None;
    RenameStall renameStall = RenameStall::None;
    /** At the (empty-ROB) commit attempt, was the frontend in flight? */
    bool frontendInFlight = false;
    /** Did issue, rename or fetch change any state this cycle? */
    bool acted = false;
    /** Earliest cycle an unparked, waiting IQ entry can issue. */
    Cycles issueWake = maxTick;

    // Statistics.
    Scalar &statCycles;
    Scalar &statIdleCycles;
    Scalar &statInsts;
    Scalar &statUops;
    Scalar &statLoads;
    Scalar &statStores;
    Scalar &statBranches;
    Scalar &statCondBranches;
    Scalar &statMispredicts;
    Scalar &statSquashedUops;
    Scalar &statRobFullStalls;
    Scalar &statIqFullStalls;
    Scalar &statLsqFullStalls;
    Scalar &statFwdLoads;
    /** Per-cycle attribution vector; sums to statCycles by design. */
    Scalar *statStallCycles[numStallCauses];
};

} // namespace svb

#endif // SVB_CPU_O3_CPU_HH
