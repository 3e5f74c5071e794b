#include "o3_cpu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace svb
{

O3Cpu::O3Cpu(const O3Params &params, int core_id, IsaId isa_id,
             PhysMemory &phys_mem, CoreMemSystem &mem_sys,
             DecodeCache &decode, TrapHandler &trap_handler,
             StatGroup &stats)
    : BaseCpu(core_id, isa_id, phys_mem, mem_sys, decode, trap_handler,
              stats, "o3"),
      p(params), bp(params.bp, group),
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
    setContext(HwContext{});
}

void
O3Cpu::setContext(const HwContext &new_ctx)
{
    BaseCpu::setContext(new_ctx);

    rob.clear();
    iq.clear();
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

    commitsThisCycle = 0;
    commitBlock = CommitBlock::None;
    renameStall = RenameStall::None;
    frontendInFlight = false;

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
        unsigned need_iq = 0, need_regs = 0, need_lq = 0, need_sq = 0;
        for (unsigned i = 0; i < inst.numUops; ++i) {
            const MicroOp &u = inst.uops[i];
            const bool trap_or_nop =
                u.isSyscall() || u.isHalt() || u.op == UopOp::Nop;
            if (!trap_or_nop)
                ++need_iq;
            if (u.rd != invalidReg)
                ++need_regs;
            if (u.isLoad())
                ++need_lq;
            if (u.isStore())
                ++need_sq;
        }
        if (iq.size() + need_iq > p.iqEntries) {
            ++statIqFullStalls;
            renameStall = RenameStall::Iq;
            return;
        }
        if (loadQueue.size() + need_lq > p.lqEntries ||
            storeQueue.size() + need_sq > p.sqEntries) {
            ++statLsqFullStalls;
            renameStall = RenameStall::Lsq;
            return;
        }
        if (freeList.size() < need_regs) {
            renameStall = RenameStall::Regs;
            return;
        }

        for (unsigned i = 0; i < inst.numUops; ++i) {
            const MicroOp &u = inst.uops[i];
            rob.emplace_back();
            DynInst &d = rob.back();
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

            if (u.isSyscall() || u.isHalt() || u.op == UopOp::Nop) {
                d.executed = (u.op == UopOp::Nop);
                d.completeAt = cycle;
            } else {
                d.inIq = true;
                iq.push_back(&d);
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

    for (auto it = iq.begin(); it != iq.end() && issued < p.issueWidth;) {
        DynInst &d = **it;
        if (!srcReady(d.psrc1) || !srcReady(d.psrc2)) {
            ++it;
            continue;
        }
        if (!tryIssue(d, alu_used, mult_used, mem_used)) {
            ++it;
            continue;
        }

        ++issued;
        d.inIq = false;
        it = iq.erase(it);

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
            regReadyAt[size_t(d.pdst)] = cycle + lat;
        }
    } else {
        const uint64_t value = aluCompute(u, a, b, d.pc);
        if (d.pdst >= 0) {
            physRegs[size_t(d.pdst)] = value;
            regReadyAt[size_t(d.pdst)] = cycle + lat;
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
    const DynInst *fwd = nullptr;
    for (const DynInst *st : storeQueue) {
        if (st->seq >= d.seq)
            break;
        if (!st->addrReady)
            return false;
    }

    TranslateResult tr =
        dtlbUnit.translate(vaddr, ctx.ptRoot, phys, &mem, cycle);
    if (tr.fault) {
        // Wrong-path load: complete with a dummy value.
        d.faulted = true;
        d.executed = true;
        d.completeAt = cycle + 1;
        if (d.pdst >= 0) {
            physRegs[size_t(d.pdst)] = 0;
            regReadyAt[size_t(d.pdst)] = cycle + 1;
        }
        return true;
    }
    d.effPaddr = tr.paddr;

    const Addr lo = tr.paddr;
    const Addr hi = tr.paddr + u.memSize;
    for (const DynInst *st : storeQueue) {
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
        regReadyAt[size_t(d.pdst)] = cycle + lat;
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
    // Filter the issue queue down to surviving entries first: its
    // pointers reach into the ROB, whose squashed entries the loop
    // below destroys.
    iq.erase(std::remove_if(iq.begin(), iq.end(),
                            [seq](DynInst *d) { return d->seq > seq; }),
             iq.end());
    while (!rob.empty() && rob.back().seq > seq) {
        DynInst &d = rob.back();
        ++statSquashedUops;
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
