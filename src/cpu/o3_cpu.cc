#include "o3_cpu.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace svb
{

namespace
{

void
setBit(uint64_t *words, size_t bit)
{
    words[bit / 64] |= uint64_t(1) << (bit % 64);
}

void
clearBit(uint64_t *words, size_t bit)
{
    words[bit / 64] &= ~(uint64_t(1) << (bit % 64));
}

/** @return the first set bit of @p words in [from, end), else end. */
size_t
nextSetBit(const std::vector<uint64_t> &words, size_t from, size_t end)
{
    while (from < end) {
        const uint64_t bits = words[from / 64] & (~uint64_t(0) << (from % 64));
        if (bits != 0)
            return std::min(end, from / 64 * 64 +
                                     size_t(std::countr_zero(bits)));
        from = (from / 64 + 1) * 64;
    }
    return end;
}

} // namespace

O3Cpu::O3Cpu(const O3Params &params, int core_id, IsaId isa_id,
             PhysMemory &phys_mem, CoreMemSystem &mem_sys,
             DecodeCache &decode, TrapHandler &trap_handler,
             StatGroup &stats)
    : BaseCpu(core_id, isa_id, phys_mem, mem_sys, decode, trap_handler,
              stats, "o3"),
      p(params), bp(params.bp, group), rob(params.robEntries),
      loadQueue(params.lqEntries), storeQueue(params.sqEntries),
      fetchQueue(params.fetchBufferEntries),
      statCycles(group.addScalar("numCycles", "active cycles simulated")),
      statIdleCycles(group.addScalar("idleCycles", "cycles halted")),
      statInsts(group.addScalar("numInsts",
                                "macro instructions committed")),
      statUops(group.addScalar("numUops", "micro-ops committed")),
      statLoads(group.addScalar("numLoads", "loads committed")),
      statStores(group.addScalar("numStores", "stores committed")),
      statBranches(group.addScalar("numBranches",
                                   "control instructions committed")),
      statCondBranches(group.addScalar("numCondBranches",
                                       "conditional branches committed")),
      statMispredicts(group.addScalar("branchMispredicts",
                                      "mispredicted control instructions")),
      statSquashedUops(group.addScalar("squashedUops",
                                       "micro-ops squashed")),
      statRobFullStalls(group.addScalar("robFullStalls",
                                        "rename stalls: ROB full")),
      statIqFullStalls(group.addScalar("iqFullStalls",
                                       "rename stalls: IQ full")),
      statLsqFullStalls(group.addScalar("lsqFullStalls",
                                        "rename stalls: LQ/SQ full")),
      statFwdLoads(group.addScalar("forwardedLoads",
                                   "loads served by store forwarding"))
{
    svb_assert(p.numPhysIntRegs > isaDesc.numIntRegs + 8,
               "too few physical registers");
    // The per-cycle attribution vector (see cpu/stall_cause.hh): one
    // counter per cause in its own child group, so the flattened stat
    // names read system.cpuN.o3.stall.<cause>.
    StatGroup &stall_group = group.childGroup("stall");
    for (unsigned c = 0; c < numStallCauses; ++c) {
        statStallCycles[c] = &stall_group.addScalar(
            stallCauseName(c), "cycles attributed to this stall cause");
    }
    group.addFormula("cpi", "cycles per committed instruction", [this]() {
        return statInsts.value()
                   ? double(statCycles.value()) / double(statInsts.value())
                   : 0.0;
    });
    group.addFormula("branchMispredictRate", "mispredicts per branch",
                     [this]() {
                         return statBranches.value()
                                    ? double(statMispredicts.value()) /
                                          double(statBranches.value())
                                    : 0.0;
                     });
    iqWords = (rob.capacity() + 63) / 64;
    setContext(HwContext{});
}

void
O3Cpu::setContext(const HwContext &new_ctx)
{
    BaseCpu::setContext(new_ctx);

    rob.clear();
    iqCount = 0;
    iqKnown.assign(iqWords, 0);
    regWaiters.assign(size_t(p.numPhysIntRegs) * iqWords, 0);
    loadQueue.clear();
    storeQueue.clear();
    fetchQueue.clear();

    const unsigned nArch = maxArchRegs;
    renameMap.assign(nArch, 0);
    committedMap.assign(nArch, 0);
    physRegs.assign(p.numPhysIntRegs, 0);
    regReadyAt.assign(p.numPhysIntRegs, 0);
    freeList.clear();
    for (unsigned i = 0; i < nArch; ++i) {
        renameMap[i] = int(i);
        committedMap[i] = int(i);
        physRegs[i] = ctx.regs[i];
    }
    for (unsigned i = nArch; i < p.numPhysIntRegs; ++i)
        freeList.push_back(int(i));

    fetchPc = ctx.pc;
    fetchEnabled = !ctx.halted;
    fetchStallUntil = 0;
    lastFetchLine = ~Addr(0);
    divBusyUntil = 0;
    commitStallUntil = 0;
    wakeCycle = 0;
}

HwContext
O3Cpu::getContext() const
{
    HwContext out = ctx;
    for (unsigned i = 0; i < maxArchRegs; ++i)
        out.regs[i] = physRegs[size_t(committedMap[i])];
    // The committed pc is the oldest unretired instruction: in-flight
    // work has not touched committed state, so resuming there is exact.
    if (!rob.empty())
        out.pc = rob.front().pc;
    else if (!fetchQueue.empty())
        out.pc = fetchQueue.front().pc;
    else
        out.pc = fetchPc;
    return out;
}

void
O3Cpu::tick()
{
    if (ctx.halted) {
        ++statIdleCycles;
        return;
    }
    ++cycle;
    ++statCycles;
    if (cycle < wakeCycle) {
        ++*quietStall;
        if (quietRenameStall)
            ++*quietRenameStall;
        return;
    }

    commitsThisCycle = 0;
    commitBlock = CommitBlock::None;
    renameStall = RenameStall::None;
    frontendInFlight = false;
    acted = false;
    issueWake = maxTick;

    commitStage();
    if (ctx.halted) {
        accountCycle();
        return;
    }
    issueStage();
    renameStage();
    fetchStage();
    accountCycle();
}

void
O3Cpu::skipTicks(uint64_t n)
{
    if (ctx.halted) {
        statIdleCycles += n;
        return;
    }
    svb_assert(n <= quietTicksAhead(), "skipping ticks that may act");
    cycle += n;
    statCycles += n;
    *quietStall += n;
    if (quietRenameStall)
        *quietRenameStall += n;
}

void
O3Cpu::accountCycle()
{
    // Exactly one cause per counted cycle; cpu/stall_cause.hh
    // documents the priority order. Backend structure pressure
    // (observed at rename) outranks the head's own block so that
    // window-full cycles stay distinguishable from plain miss
    // latency.
    StallCause cause;
    if (commitsThisCycle > 0)
        cause = StallCause::Retiring;
    else if (commitBlock == CommitBlock::Trap)
        cause = StallCause::Trap;
    else if (commitBlock == CommitBlock::RobEmpty)
        cause = frontendInFlight ? StallCause::Decode
                                 : StallCause::FetchStarved;
    else if (renameStall == RenameStall::Rob)
        cause = StallCause::RobFull;
    else if (renameStall == RenameStall::Iq)
        cause = StallCause::IqFull;
    else if (renameStall == RenameStall::Lsq)
        cause = StallCause::LsqFull;
    else if (renameStall == RenameStall::Regs)
        cause = StallCause::RenameBlocked;
    else if (commitBlock == CommitBlock::HeadMem)
        cause = StallCause::Memory;
    else
        cause = StallCause::IssueWait;
    ++*statStallCycles[unsigned(cause)];

    if (acted || commitsThisCycle > 0)
        return;
    // Nothing changed this cycle, so every later tick repeats it (same
    // cause, same rename stall) until the first cycle at which a stage
    // can act: a timed commit block, an IQ entry's operands or the
    // divider, the frontend pipe, or a fetch stall. Everything else
    // waits on an action of this core. A value at or before this cycle
    // names a stage that is blocked by something else, so it is no
    // bound.
    Cycles wake = issueWake;
    auto bound = [&](Cycles at) {
        if (at > cycle && at < wake)
            wake = at;
    };
    bound(commitStallUntil);
    if (!rob.empty() && rob.front().executed)
        bound(rob.front().completeAt);
    if (!fetchQueue.empty())
        bound(fetchQueue.front().readyAt);
    if (fetchEnabled && fetchQueue.size() < p.fetchBufferEntries)
        bound(fetchStallUntil);
    wakeCycle = wake;
    quietStall = statStallCycles[unsigned(cause)];
    quietRenameStall = renameStall == RenameStall::Rob   ? &statRobFullStalls
                       : renameStall == RenameStall::Iq  ? &statIqFullStalls
                       : renameStall == RenameStall::Lsq ? &statLsqFullStalls
                                                         : nullptr;
}

// --------------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------------

void
O3Cpu::fetchStage()
{
    if (!fetchEnabled || cycle < fetchStallUntil)
        return;

    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (fetchQueue.size() >= p.fetchBufferEntries)
            return;

        acted = true;
        TranslateResult tr =
            itlbUnit.translate(fetchPc, ctx.ptRoot, phys, &mem, cycle);
        if (tr.fault) {
            // Only reachable on a mispredicted (wrong) path: stall and
            // wait for the squash that must be coming. A fault with an
            // empty pipeline is a real bug.
            svb_assert(!rob.empty() || !fetchQueue.empty(),
                       "instruction page fault on the correct path pc=",
                       fetchPc);
            fetchStallUntil = cycle + 1;
            return;
        }
        if (tr.latency > 0) {
            // ITLB miss: stall for the walk; the entry is now cached.
            fetchStallUntil = cycle + tr.latency;
            return;
        }

        const StaticInst &inst = decoder.decodeAt(tr.paddr);
        if (!inst.valid) {
            svb_assert(!rob.empty() || !fetchQueue.empty(),
                       "illegal instruction on the correct path pc=",
                       fetchPc);
            fetchStallUntil = cycle + 1;
            return;
        }

        const Addr line = (tr.paddr + inst.length - 1) & ~Addr(63);
        if ((tr.paddr & ~Addr(63)) != lastFetchLine || line != lastFetchLine) {
            const Cycles lat = mem.fetchAccess(tr.paddr, inst.length, cycle);
            lastFetchLine = line;
            if (lat > 2) { // beyond L1I hit: stall, retry after fill
                fetchStallUntil = cycle + lat;
                return;
            }
        }

        FetchEntry fe;
        fe.pc = fetchPc;
        fe.inst = &inst;
        fe.readyAt = cycle + p.frontendDelay;

        const Addr fall_through = fetchPc + inst.length;
        if (inst.isControl) {
            BranchPrediction pred = bp.predict(fetchPc, inst, fall_through);
            fe.hasPred = true;
            fe.predNext = pred.nextPc;
            fetchQueue.push_back(fe);
            fetchPc = pred.nextPc;
            if (pred.taken) {
                lastFetchLine = ~Addr(0);
                return; // taken branch ends the fetch group
            }
            continue;
        }

        fetchQueue.push_back(fe);
        fetchPc = fall_through;

        if (inst.isSyscall || inst.isHalt) {
            // Stop fetching until the trap commits and redirects.
            fetchEnabled = false;
            return;
        }
    }
}

// --------------------------------------------------------------------------
// Rename / dispatch
// --------------------------------------------------------------------------

void
O3Cpu::renameStage()
{
    for (unsigned n = 0; n < p.renameWidth; ++n) {
        if (fetchQueue.empty() || fetchQueue.front().readyAt > cycle)
            return;

        const FetchEntry &fe = fetchQueue.front();
        const StaticInst &inst = *fe.inst;

        // Resource check across the whole macro instruction.
        if (rob.size() + inst.numUops > p.robEntries) {
            ++statRobFullStalls;
            renameStall = RenameStall::Rob;
            return;
        }
        if (iqCount + inst.iqUops > p.iqEntries) {
            ++statIqFullStalls;
            renameStall = RenameStall::Iq;
            return;
        }
        if (loadQueue.size() + inst.loadUops > p.lqEntries ||
            storeQueue.size() + inst.storeUops > p.sqEntries) {
            ++statLsqFullStalls;
            renameStall = RenameStall::Lsq;
            return;
        }
        if (freeList.size() < inst.dstUops) {
            renameStall = RenameStall::Regs;
            return;
        }

        acted = true;
        for (unsigned i = 0; i < inst.numUops; ++i) {
            const MicroOp &u = inst.uops[i];
            DynInst &d = rob.push_back();
            d.seq = nextSeq++;
            d.uop = u;
            d.sinst = &inst;
            d.pc = fe.pc;
            d.instLen = inst.length;
            d.lastUop = (i + 1 == inst.numUops);
            if (d.lastUop && fe.hasPred) {
                d.hasPred = true;
                d.predNext = fe.predNext;
            }

            d.psrc1 = (u.rs1 == invalidReg) ? -1 : renameMap[u.rs1];
            d.psrc2 = (u.rs2 == invalidReg || u.useImm)
                          ? -1
                          : renameMap[u.rs2];
            if (u.rd != invalidReg) {
                d.archDst = u.rd;
                d.oldPdst = renameMap[u.rd];
                d.pdst = freeList.back();
                freeList.pop_back();
                renameMap[u.rd] = d.pdst;
                regReadyAt[size_t(d.pdst)] = maxTick;
            }

            if (u.skipsIssue()) {
                d.executed = (u.op == UopOp::Nop);
                d.completeAt = cycle;
            } else {
                enterIq(d);
            }
            if (u.isLoad())
                loadQueue.push_back(&d);
            if (u.isStore())
                storeQueue.push_back(&d);
        }
        fetchQueue.pop_front();
    }
}

// --------------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------------

void
O3Cpu::issueStage()
{
    unsigned issued = 0, alu_used = 0, mult_used = 0, mem_used = 0;
    uint64_t squash_seq = 0;
    Addr redirect_to = 0;
    bool mispredict = false;

    // Age-ordered select over the entries whose operands' ready cycle
    // is known: the ROB slots from the head to the end of the ring,
    // then from slot 0 up to the head. An entry still waiting on a
    // producer cannot issue before that producer does. The walk re-reads
    // the mask, so an entry a producer wakes further on is still seen.
    // It also finds the earliest cycle a waiting entry can issue
    // (accountCycle's wake bound); a parked load is skipped outright
    // until a store issues.
    const size_t head = rob.headSlot();
    size_t pos = head, end = rob.capacity();
    while (issued < p.issueWidth) {
        const size_t slot = nextSetBit(iqKnown, pos, end);
        if (slot == end) {
            if (end == head || head == 0)
                break;
            pos = 0;
            end = head;
            continue;
        }
        pos = slot + 1;
        DynInst &d = rob.atSlot(slot);
        if (d.parkedEpoch == storeEpoch)
            continue;
        if (d.srcReady > cycle) {
            issueWake = std::min(issueWake, d.srcReady);
            continue;
        }
        if (!tryIssue(d, alu_used, mult_used, mem_used)) {
            // Only the divider blocks an entry on a known cycle; the
            // other failures need an issue this cycle or park a load.
            if (d.uop.cls == OpClass::IntDiv)
                issueWake = std::min(issueWake, divBusyUntil);
            continue;
        }

        acted = true;
        ++issued;
        leaveIq(d);

        if (d.uop.isControl() && d.executed) {
            const Addr expected =
                d.hasPred ? d.predNext : (d.pc + d.instLen);
            if (d.actualNext != expected) {
                mispredict = true;
                squash_seq = d.seq;
                redirect_to = d.actualNext;
                ++statMispredicts;
                break;
            }
        }
    }

    if (mispredict) {
        squashAfter(squash_seq);
        redirectFetch(redirect_to, p.frontendDelay);
    }
}

void
O3Cpu::enterIq(DynInst &d)
{
    const size_t slot = rob.slotOf(d);
    d.inIq = true;
    for (const int src : {d.psrc1, d.psrc2}) {
        if (src < 0)
            continue;
        const Cycles at = regReadyAt[size_t(src)];
        if (at == maxTick) {
            ++d.waitingSrcs;
            setBit(waitersOf(src), slot);
        } else {
            d.srcReady = std::max(d.srcReady, at);
        }
    }
    if (d.waitingSrcs == 0)
        setBit(iqKnown.data(), slot);
    ++iqCount;
}

void
O3Cpu::leaveIq(DynInst &d)
{
    const size_t slot = rob.slotOf(d);
    d.inIq = false;
    clearBit(iqKnown.data(), slot);
    if (d.waitingSrcs > 0) {
        for (const int src : {d.psrc1, d.psrc2}) {
            if (src >= 0)
                clearBit(waitersOf(src), slot);
        }
    }
    --iqCount;
}

void
O3Cpu::setRegReady(int preg, Cycles at)
{
    regReadyAt[size_t(preg)] = at;
    uint64_t *waiters = waitersOf(preg);
    for (size_t k = 0; k < iqWords; ++k) {
        for (uint64_t bits = waiters[k]; bits != 0; bits &= bits - 1) {
            const size_t slot = k * 64 + size_t(std::countr_zero(bits));
            DynInst &c = rob.atSlot(slot);
            c.waitingSrcs -= uint8_t((c.psrc1 == preg) + (c.psrc2 == preg));
            c.srcReady = std::max(c.srcReady, at);
            if (c.waitingSrcs == 0)
                setBit(iqKnown.data(), slot);
        }
        waiters[k] = 0;
    }
}

bool
O3Cpu::tryIssue(DynInst &d, unsigned &alu_used, unsigned &mult_used,
                unsigned &mem_used)
{
    const MicroOp &u = d.uop;

    switch (u.cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        if (alu_used >= p.intAluUnits)
            return false;
        ++alu_used;
        executeUop(d, p.intAluLat);
        return true;
      case OpClass::IntMult:
        if (mult_used >= p.intMultUnits)
            return false;
        ++mult_used;
        executeUop(d, p.intMultLat);
        return true;
      case OpClass::IntDiv:
        if (cycle < divBusyUntil)
            return false;
        divBusyUntil = cycle + p.intDivLat; // unpipelined
        executeUop(d, p.intDivLat);
        return true;
      case OpClass::MemRead: {
        if (mem_used >= p.memPorts)
            return false;
        if (!issueLoad(d))
            return false;
        ++mem_used;
        return true;
      }
      case OpClass::MemWrite: {
        if (mem_used >= p.memPorts)
            return false;
        ++mem_used;
        ++storeEpoch;
        // Address generation + data capture; the write happens at commit.
        const Addr vaddr = memEffAddr(u, readPhys(d.psrc1));
        TranslateResult tr =
            dtlbUnit.translate(vaddr, ctx.ptRoot, phys, &mem, cycle);
        if (tr.fault) {
            // Wrong-path store with a garbage address: park it as
            // executed-but-faulted; commit panics if it survives.
            d.faulted = true;
            d.addrReady = true;
            d.executed = true;
            d.completeAt = cycle + 1;
            return true;
        }
        d.effPaddr = tr.paddr;
        d.storeData = d.psrc2 >= 0 ? readPhys(d.psrc2) : 0;
        d.addrReady = true;
        d.executed = true;
        d.completeAt = cycle + 1 + tr.latency;
        return true;
      }
      default:
        // Should not reach the IQ.
        d.executed = true;
        d.completeAt = cycle;
        return true;
    }
}

void
O3Cpu::executeUop(DynInst &d, Cycles lat)
{
    const MicroOp &u = d.uop;
    const uint64_t a = d.psrc1 >= 0 ? readPhys(d.psrc1) : 0;
    const uint64_t b = d.psrc2 >= 0 ? readPhys(d.psrc2) : 0;

    if (u.isControl()) {
        const Addr next_pc = d.pc + d.instLen;
        BranchEval ev = branchEval(u, a, b, d.pc);
        d.actualTaken = ev.taken;
        d.actualNext = ev.taken ? ev.target : next_pc;
        if (d.pdst >= 0) {
            physRegs[size_t(d.pdst)] = next_pc; // link value
            setRegReady(d.pdst, cycle + lat);
        }
    } else {
        const uint64_t value = aluCompute(u, a, b, d.pc);
        if (d.pdst >= 0) {
            physRegs[size_t(d.pdst)] = value;
            setRegReady(d.pdst, cycle + lat);
        }
    }
    d.executed = true;
    d.completeAt = cycle + lat;
}

bool
O3Cpu::issueLoad(DynInst &d)
{
    const MicroOp &u = d.uop;
    const Addr vaddr = memEffAddr(u, readPhys(d.psrc1));

    // Conservative memory ordering: wait until every older store knows
    // its address; forward when fully covered; stall on partial overlap.
    // The first wait has no side effect, so the load parks until a
    // store issues. A partial overlap retries every cycle instead: its
    // dTLB lookup counts a hit (or walks) on each attempt.
    for (size_t k = 0; k < storeQueue.size(); ++k) {
        const DynInst *st = storeQueue[k];
        if (st->seq >= d.seq)
            break;
        if (!st->addrReady) {
            d.parkedEpoch = storeEpoch;
            return false;
        }
    }

    acted = true;

    TranslateResult tr =
        dtlbUnit.translate(vaddr, ctx.ptRoot, phys, &mem, cycle);
    if (tr.fault) {
        // Wrong-path load: complete with a dummy value.
        d.faulted = true;
        d.executed = true;
        d.completeAt = cycle + 1;
        if (d.pdst >= 0) {
            physRegs[size_t(d.pdst)] = 0;
            setRegReady(d.pdst, cycle + 1);
        }
        return true;
    }
    d.effPaddr = tr.paddr;

    const Addr lo = tr.paddr;
    const Addr hi = tr.paddr + u.memSize;
    const DynInst *fwd = nullptr;
    for (size_t k = 0; k < storeQueue.size(); ++k) {
        const DynInst *st = storeQueue[k];
        if (st->seq >= d.seq)
            break;
        const Addr slo = st->effPaddr;
        const Addr shi = st->effPaddr + st->uop.memSize;
        if (hi <= slo || lo >= shi)
            continue; // disjoint
        if (slo <= lo && hi <= shi) {
            fwd = st; // fully covered; youngest older wins (keep scanning)
        } else {
            return false; // partial overlap: wait for the store to retire
        }
    }

    uint64_t raw;
    Cycles lat;
    if (fwd) {
        ++statFwdLoads;
        const unsigned shift =
            unsigned(lo - fwd->effPaddr) * 8;
        raw = fwd->storeData >> shift;
        lat = p.forwardLat + tr.latency;
    } else {
        raw = phys.read(tr.paddr, u.memSize);
        lat = mem.dataAccess(tr.paddr, u.memSize, false, cycle) +
              tr.latency;
    }

    if (d.pdst >= 0) {
        physRegs[size_t(d.pdst)] =
            loadExtend(raw, u.memSize, u.memSigned);
        setRegReady(d.pdst, cycle + lat);
    }
    d.executed = true;
    d.completeAt = cycle + lat;
    return true;
}

// --------------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------------

void
O3Cpu::commitStage()
{
    if (cycle < commitStallUntil) {
        commitBlock = CommitBlock::Trap;
        return;
    }

    for (unsigned n = 0; n < p.commitWidth; ++n) {
        if (rob.empty()) {
            commitBlock = CommitBlock::RobEmpty;
            // Sampled before this cycle's rename/fetch run: entries
            // still in the frontend-delay pipe mean decode transit,
            // a drained frontend means fetch starvation.
            frontendInFlight = !fetchQueue.empty();
            return;
        }
        DynInst &d = rob.front();

        if (d.uop.isSyscall() || d.uop.isHalt()) {
            deliverTrap(d);
            return;
        }

        if (!d.executed || cycle < d.completeAt) {
            commitBlock = d.uop.isLoad() || d.uop.isStore()
                              ? CommitBlock::HeadMem
                              : CommitBlock::HeadExec;
            return;
        }
        svb_assert(!d.faulted, "faulted memory access reached commit, pc=",
                   d.pc, " core=", coreId, " isLoad=", d.uop.isLoad(),
                   " base reg r", int(d.uop.rs1), " seq=", d.seq);

        if (d.uop.isStore()) {
            svb_assert(!storeQueue.empty() &&
                       storeQueue.front() == &d, "SQ out of order");
            phys.write(d.effPaddr, d.storeData, d.uop.memSize);
            mem.dataAccess(d.effPaddr, d.uop.memSize, true, cycle);
            storeQueue.pop_front();
            ++statStores;
        }
        if (d.uop.isLoad()) {
            svb_assert(!loadQueue.empty() && loadQueue.front() == &d,
                       "LQ out of order");
            loadQueue.pop_front();
            ++statLoads;
        }

        if (d.archDst >= 0) {
            // The previous committed mapping is dead once this commits:
            // all of its readers are older and have already executed.
            const int prev = committedMap[d.archDst];
            committedMap[d.archDst] = d.pdst;
            freeList.push_back(prev);
        }

        ++statUops;
        ++commitsThisCycle;
        if (d.lastUop) {
            ++statInsts;
            if (traceSink)
                traceSink(d.pc, *d.sinst);
            if (d.uop.isControl()) {
                ++statBranches;
                if (d.uop.isCondCtrl())
                    ++statCondBranches;
                bp.update(d.pc, *d.sinst, d.actualTaken, d.actualNext);
            }
        }
        rob.pop_front();
    }
}

void
O3Cpu::deliverTrap(DynInst &d)
{
    // The trap must be the oldest instruction; squash everything younger
    // and hand the committed architectural state to the kernel.
    squashAfter(d.seq);
    // The IQ is empty now, so resetting ready cycles below cannot
    // invalidate a waiting entry's cached operand-ready cycle.
    svb_assert(iqCount == 0, "IQ entries survived a trap squash");

    HwContext trap_ctx = ctx;
    trap_ctx.pc = d.pc + d.instLen;
    for (unsigned i = 0; i < maxArchRegs; ++i)
        trap_ctx.regs[i] = physRegs[size_t(committedMap[i])];

    const Addr old_root = trap_ctx.ptRoot;
    const Cycles cost = d.uop.isSyscall()
                            ? trap.handleSyscall(coreId, trap_ctx)
                            : trap.handleHalt(coreId, trap_ctx);

    ++statUops;
    ++statInsts;
    ++commitsThisCycle;
    svb_assert(!rob.empty() && &rob.front() == &d, "trap not at ROB head");
    rob.pop_front();

    // Apply the (possibly switched) context back onto the committed
    // register state.
    ctx.processId = trap_ctx.processId;
    ctx.ptRoot = trap_ctx.ptRoot;
    ctx.halted = trap_ctx.halted;
    for (unsigned i = 0; i < maxArchRegs; ++i) {
        const size_t preg = size_t(committedMap[i]);
        physRegs[preg] = trap_ctx.regs[i];
        regReadyAt[preg] = 0;
    }
    if (trap_ctx.ptRoot != old_root) {
        itlbUnit.flush();
        dtlbUnit.flush();
    }

    commitStallUntil = cycle + cost;
    if (!ctx.halted)
        redirectFetch(trap_ctx.pc, cost);
}

// --------------------------------------------------------------------------
// Squash / redirect
// --------------------------------------------------------------------------

void
O3Cpu::squashAfter(uint64_t seq)
{
    while (!rob.empty() && rob.back().seq > seq) {
        DynInst &d = rob.back();
        ++statSquashedUops;
        if (d.inIq)
            leaveIq(d);
        if (d.archDst >= 0) {
            renameMap[d.archDst] = d.oldPdst;
            freeList.push_back(d.pdst);
        }
        if (d.uop.isLoad()) {
            svb_assert(!loadQueue.empty() && loadQueue.back() == &d,
                       "LQ squash mismatch");
            loadQueue.pop_back();
        }
        if (d.uop.isStore()) {
            svb_assert(!storeQueue.empty() && storeQueue.back() == &d,
                       "SQ squash mismatch");
            storeQueue.pop_back();
        }
        rob.pop_back();
    }
    fetchQueue.clear();
}

void
O3Cpu::redirectFetch(Addr new_pc, Cycles delay)
{
    fetchPc = new_pc;
    fetchEnabled = true;
    fetchStallUntil = cycle + delay;
    lastFetchLine = ~Addr(0);
}

} // namespace svb
