#include "system.hh"

#include "guest/syscall_abi.hh"
#include "sim/logging.hh"

namespace svb
{

System::System(const SystemConfig &config)
    : cfg(config), rngState(config.seed)
{
    physMem = std::make_unique<PhysMemory>(cfg.memBytes);
    // Reserve the first 64 KiB as a null-guard region.
    frameAlloc = std::make_unique<FrameAllocator>(0x10000, cfg.memBytes);
    dram = std::make_unique<DramCtrl>(cfg.dram, rootStats);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        coreMems.push_back(std::make_unique<CoreMemSystem>(
            int(c), cfg.caches, *dram, bus, rootStats));
    }
    decoder = std::make_unique<DecodeCache>(cfg.isa, *physMem);
    // Host-observability groups: they count simulator work, which
    // legitimately differs across emulation tiers and checkpoint
    // restores, so they stay outside the snapshot identity surface.
    StatGroup &decode_grp = rootStats.childGroup("decode");
    decode_grp.markHostOnly();
    decoder->attachStats(decode_grp);
    sblocks = std::make_unique<SuperblockCache>(*decoder);
    StatGroup &sblock_grp = rootStats.childGroup("superblock");
    sblock_grp.markHostOnly();
    sblocks->attachStats(sblock_grp);
    fastWarm = cfg.fastWarm && SuperblockCache::envEnabled();
    reapRestore = cfg.reapRestore && reapEnvEnabled();
    // Page/restore accounting is simulator work (restore mode changes
    // it, guest-visible behavior doesn't), so it stays host-only like
    // the decode and superblock groups.
    StatGroup &mempage_grp = rootStats.childGroup("mempage");
    mempage_grp.markHostOnly();
    physMem->attachStats(mempage_grp);
    StatGroup &run_grp = rootStats.childGroup("run");
    run_grp.markHostOnly();
    pathStats = std::make_unique<PathStats>(run_grp);
    seenIdleYields.assign(cfg.numCores, 0);
    guestKernel = std::make_unique<GuestKernel>(
        *physMem, *frameAlloc, cfg.isa, int(cfg.numCores), rootStats);
    guestKernel->setM5Listener(this);

    for (unsigned c = 0; c < cfg.numCores; ++c) {
        StatGroup &core_group =
            rootStats.childGroup("cpu" + std::to_string(c));
        atomics.push_back(std::make_unique<AtomicCpu>(
            int(c), cfg.isa, *physMem, *coreMems[c], *decoder,
            *guestKernel, core_group, sblocks.get()));
        o3s.push_back(std::make_unique<O3Cpu>(
            cfg.o3, int(c), cfg.isa, *physMem, *coreMems[c], *decoder,
            *guestKernel, core_group));
        models.push_back(CpuModel::Atomic);
    }
}

System::PathStats::PathStats(StatGroup &g)
    : perCycle(g.addScalar("perCycleCycles", "cycles ticked core by core")),
      jumped(g.addScalar("jumpedCycles",
                         "cycles skipped while no core could act")),
      chained(g.addScalar("chainedCycles",
                          "cycles one core ran in chained batches")),
      orbitCycles(g.addScalar(
          "orbitCycles", "core cycles credited in bulk to spinning cores")),
      orbitEntries(g.addScalar("orbitEntries", "spin orbits detected")),
      orbitExits(g.addScalar("orbitExits", "spin orbits ended"))
{
}

BaseCpu &
System::cpu(unsigned core)
{
    return models.at(core) == CpuModel::Atomic
               ? static_cast<BaseCpu &>(*atomics.at(core))
               : static_cast<BaseCpu &>(*o3s.at(core));
}

void
System::switchCpu(unsigned core, CpuModel model)
{
    if (models.at(core) == model)
        return;
    const HwContext ctx = cpu(core).getContext();
    models[core] = model;
    cpu(core).setContext(ctx);
}

void
System::scheduleIdleCores()
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!cpu(c).halted())
            continue;
        HwContext ctx;
        if (guestKernel->scheduleCore(int(c), ctx))
            cpu(c).setContext(ctx);
    }
}

void
System::flushMicroarchState()
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        coreMems[c]->flushAll();
        cpu(c).itlb().flush();
        cpu(c).dtlb().flush();
        // The superblock cursor caches an instruction-page translation
        // made before this flush; drop it so the fast path re-walks.
        atomics[c]->resetFastPath();
        o3s[c]->branchPredictor().reset();
    }
}

void
System::tickCore(unsigned c)
{
    if (models[c] == CpuModel::O3) {
        o3s[c]->tick();
        return;
    }
    // Atomic-model cores step through the superblock engine when the
    // fast tier is enabled and no trace sink needs per-retirement
    // callbacks; tickFast() is cycle-for-cycle identical to tick().
    AtomicCpu &core = *atomics[c];
    if (fastWarm && !core.tracing())
        core.tickFast();
    else
        core.tick();
}

void
System::noteIdleYields(bool detect)
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        // An orbiting core's own ticks yield too; its boundaries are
        // known, and endOrbits() resynchronises the count.
        const uint64_t yields = guestKernel->idleYields(int(c));
        if (yields == seenIdleYields[c] || atomics[c]->orbiting())
            continue;
        seenIdleYields[c] = yields;
        if (!detect || !atomics[c]->markIdleYield(guestKernel->busyTraps()))
            continue;
        // Bulk credit skips the spin's stores and their snoops, which
        // only find nothing if no other core holds a line the spin
        // writes; the chained batch then keeps it that way
        // (Watch::writes).
        bool shared = false;
        for (const auto &range : atomics[c]->orbitWatch().writes) {
            const Addr line = range.first;
            for (unsigned o = 0; o < cfg.numCores && !shared; ++o) {
                CoreMemSystem &m = *coreMems[o];
                shared = o != c && (m.l1i().contains(line) ||
                                    m.l1d().contains(line) ||
                                    m.l2().contains(line));
            }
        }
        if (shared) {
            atomics[c]->endOrbit();
            continue;
        }
        ++numOrbiting;
        ++pathStats->orbitEntries;
    }
}

void
System::creditPassive(unsigned c, uint64_t cycles)
{
    AtomicCpu &core = *atomics[c];
    if (core.halted()) {
        core.addIdleCycles(cycles);
    } else if (core.orbiting()) {
        const uint64_t periods = core.creditOrbit(cycles);
        guestKernel->creditIdleYields(int(c), periods);
        pathStats->orbitCycles += periods * core.orbitPeriod();
    } else {
        // An orbit that this batch's sync just ended: the owed cycle is
        // an ordinary one.
        for (; cycles > 0; --cycles)
            tickCore(c);
    }
}

void
System::endOrbits()
{
    for (unsigned c = 0; numOrbiting > 0 && c < cfg.numCores; ++c) {
        if (!atomics[c]->orbiting())
            continue;
        atomics[c]->endOrbit();
        seenIdleYields[c] = guestKernel->idleYields(int(c));
        --numOrbiting;
        ++pathStats->orbitExits;
    }
}

uint64_t
System::run(uint64_t max_cycles)
{
    stopRequested = false;
    // Spin detection starts afresh: between calls the harness may
    // write guest memory or switch models, which no mark would see.
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        atomics[c]->endOrbit();
        seenIdleYields[c] = guestKernel->idleYields(int(c));
    }
    uint64_t ran = 0;
    while (ran < max_cycles && !stopRequested) {
        // Fast-path eligibility, re-evaluated every iteration: model
        // switches, halts and trace sinks only change inside trap
        // handlers or between run() calls, both of which end the
        // chained batch below. A spinning core whose orbit is
        // fast-forwarded counts as passive, like a halted one.
        bool all_atomic_fast = fastWarm;
        unsigned n_active = 0;
        unsigned active_core = 0;
        for (unsigned c = 0; c < cfg.numCores && all_atomic_fast; ++c) {
            if (models[c] != CpuModel::Atomic || atomics[c]->tracing()) {
                all_atomic_fast = false;
            } else if (!passive(c)) {
                ++n_active;
                active_core = c;
            }
        }

        if (all_atomic_fast && n_active == 1) {
            // Chained superblock execution on the single active core:
            // stay inside the dispatch loop until the budget, a trap,
            // a store into a line an orbiting core reads, or the next
            // pending event — nothing inside a batch schedules events,
            // so the clamp below keeps event delivery on its exact
            // per-cycle tick. Passive cores are credited in bulk; the
            // mid-cycle interleaving a trap handler or a watched store
            // could observe is reconstructed by sync first.
            uint64_t budget = max_cycles - ran;
            if (eventq.pending() > 0) {
                const Tick next_ev = eventq.nextEventTick();
                svb_assert(next_ev > globalCycle, "overdue event");
                budget =
                    std::min<uint64_t>(budget, next_ev - globalCycle);
            }
            const unsigned k = active_core;
            const uint64_t g0 = globalCycle;
            bool synced = false;
            const AtomicCpu::Sync sync = [&](uint64_t batch, bool watched) {
                // On the per-cycle path, cycle g0+batch would have
                // ticked cores 0..k-1 before core k acts, and cores
                // k+1.. only on the batch's earlier cycles.
                if (synced)
                    return;
                synced = true;
                globalCycle = g0 + batch;
                for (unsigned c = 0; c < cfg.numCores; ++c) {
                    if (c != k)
                        creditPassive(c, c < k ? batch : batch - 1);
                }
                if (watched)
                    endOrbits();
            };
            const AtomicCpu::Watch *watch = nullptr;
            if (numOrbiting > 0) {
                watchScratch.reads.clear();
                watchScratch.writes.clear();
                for (unsigned c = 0; c < cfg.numCores; ++c) {
                    if (!atomics[c]->orbiting())
                        continue;
                    const AtomicCpu::Watch &w = atomics[c]->orbitWatch();
                    watchScratch.reads.insert(watchScratch.reads.end(),
                                              w.reads.begin(), w.reads.end());
                    watchScratch.writes.insert(watchScratch.writes.end(),
                                               w.writes.begin(),
                                               w.writes.end());
                }
                watch = &watchScratch;
            }
            const uint64_t consumed = atomics[k]->runFast(budget, &sync,
                                                          watch);
            globalCycle = g0 + consumed;
            ran += consumed;
            pathStats->chained += consumed;
            // A trap handler may change what a spinning core reads
            // (guest memory, run queues), unless it was an empty-queue
            // yield, which only counts. Before the top-up below, so
            // the owed cycle after a handler is an ordinary tick.
            if (synced &&
                guestKernel->idleYields(int(k)) == seenIdleYields[k])
                endOrbits();
            // Top-up to exactly `consumed` per passive core: after a
            // sync, cores above k still owe the syncing cycle; with
            // none, everyone owes the batch.
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (c != k)
                    creditPassive(c, synced ? (c > k ? 1 : 0) : consumed);
            }
            // Detection sees the whole cycle, as on the per-cycle path.
            noteIdleYields(true);
        } else if (const uint64_t skip =
                       !all_atomic_fast || n_active == 0
                           ? quietSpan(max_cycles - ran)
                           : 0;
                   skip > 0) {
            // Every core is passive or a quiet O3 core: no core can
            // act for `skip` cycles, so credit them in one step — the
            // same stats as ticking each core through them — and
            // deliver the event (if any) that ends the span.
            globalCycle += skip;
            ran += skip;
            pathStats->jumped += skip;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                if (models[c] == CpuModel::O3)
                    o3s[c]->skipTicks(skip);
                else
                    creditPassive(c, skip);
            }
        } else {
            // Per-cycle path: a core that can act now with detailed
            // cores present, several Atomic cores runnable at once
            // (shared-ring polling needs cycle-accurate interleaving;
            // their yields feed spin detection), or the final all-idle
            // drain.
            endOrbits();
            ++globalCycle;
            ++ran;
            ++pathStats->perCycle;
            for (unsigned c = 0; c < cfg.numCores; ++c)
                tickCore(c);
            // Spin detection once every core has ticked the cycle: a
            // higher core's store into a line a spin reads then shows
            // as a missing line, and its copy of a line the spin
            // writes vetoes the orbit.
            noteIdleYields(all_atomic_fast);
        }

        // An event handler may change what a spinning core reads.
        if (eventq.serviceUpTo(globalCycle) > 0)
            endOrbits();
        bool any_active = false;
        for (unsigned c = 0; c < cfg.numCores; ++c)
            any_active |= !cpu(c).halted();
        if (!any_active && eventq.pending() == 0)
            break;
    }
    // No orbit outlives run(): every core's state is exact already.
    endOrbits();
    return ran;
}

uint64_t
System::quietSpan(uint64_t budget) const
{
    uint64_t span = budget;
    bool any_running = false;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (models[c] == CpuModel::O3) {
            if (o3s[c]->halted())
                continue;
            span = std::min(span, o3s[c]->quietTicksAhead());
            if (span == 0)
                return 0;
            any_running = true;
        } else if (!atomics[c]->halted()) {
            if (!atomics[c]->orbiting())
                return 0;
            any_running = true; // a spin: no horizon of its own
        }
    }
    if (eventq.pending() > 0) {
        const Tick next_ev = eventq.nextEventTick();
        svb_assert(next_ev > globalCycle, "overdue event");
        span = std::min<uint64_t>(span, next_ev - globalCycle);
    } else if (!any_running) {
        return 0; // all halted, nothing due: the per-cycle path stops
    }
    return span;
}

void
System::m5Op(int core_id, uint64_t op, uint64_t arg)
{
    switch (op) {
      case sys::m5ResetStats:
        rootStats.resetAll();
        break;
      case sys::m5DumpStats:
        if (statsDumpStream != nullptr) {
            *statsDumpStream << "---------- Begin Simulation Statistics"
                             << " (cycle " << globalCycle
                             << ") ----------\n";
            rootStats.printAll(*statsDumpStream);
            *statsDumpStream << "---------- End Simulation Statistics"
                             << " ----------\n";
        }
        break;
      case sys::m5ExitSim:
        requestStop();
        break;
      default:
        break;
    }
    if (chainedListener != nullptr)
        chainedListener->m5Op(core_id, op, arg);
}

Checkpoint
System::saveCheckpoint(bool include_uarch) const
{
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        svb_assert(models[c] == CpuModel::Atomic,
                   "checkpoints require the Atomic CPU (core ", c, ")");
    }
    Checkpoint cp;
    cp.setString("system.isa", isaName(cfg.isa));
    cp.setScalar("system.cycle", globalCycle);
    physMem->serializeState("mem.", cp);
    frameAlloc->serializeState("frames.", cp);
    guestKernel->serializeState("kernel.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const HwContext ctx = atomics[c]->getContext();
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        cp.setScalar(prefix + "pc", ctx.pc);
        cp.setScalar(prefix + "ptRoot", ctx.ptRoot);
        cp.setScalar(prefix + "processId",
                     uint64_t(int64_t(ctx.processId)));
        cp.setScalar(prefix + "halted", ctx.halted ? 1 : 0);
        for (unsigned r = 0; r < maxArchRegs; ++r)
            cp.setScalar(prefix + "reg" + std::to_string(r), ctx.regs[r]);
    }
    if (include_uarch) {
        cp.setScalar("uarch.present", 1);
        decoder->serializeState("decode.", cp);
        sblocks->serializeState("superblock.", cp);
        dram->serializeState("dram.", cp);
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            const std::string prefix = "cpu" + std::to_string(c) + ".";
            coreMems[c]->serializeState(prefix + "mem.", cp);
            atomics[c]->itlb().serializeState(prefix + "itlb.", cp);
            atomics[c]->dtlb().serializeState(prefix + "dtlb.", cp);
            cp.setScalar(prefix + "stall", atomics[c]->stallCycles());
            // Setup mode runs the Atomic CPU, which never trains the
            // predictor; a cold predictor is recorded as a flag, not
            // tables, so the snapshot stays valid (and shareable)
            // across branch-predictor-geometry ablation points.
            const BranchPredictor &bp = o3s[c]->branchPredictor();
            const bool warm = !bp.isReset();
            cp.setScalar(prefix + "bpWarm", warm ? 1 : 0);
            if (warm)
                bp.serializeState(prefix + "bp.", cp);
        }
    }
    return cp;
}

void
System::restoreCheckpoint(const Checkpoint &cp,
                          std::shared_ptr<const PageImage> image)
{
    svb_assert(cp.getString("system.isa") == isaName(cfg.isa),
               "checkpoint ISA mismatch");
    globalCycle = cp.getScalar("system.cycle");
    eventq.clear();
    // Superblocks lower code from the pre-restore physical memory;
    // drop them all. setContext() below resets every core's cursor.
    sblocks->clear();
    if (image != nullptr && reapRestore)
        physMem->restoreLazy(std::move(image));
    else
        physMem->unserializeState("mem.", cp);
    frameAlloc->unserializeState("frames.", cp);
    guestKernel->unserializeState("kernel.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        HwContext ctx;
        ctx.pc = cp.getScalar(prefix + "pc");
        ctx.ptRoot = cp.getScalar(prefix + "ptRoot");
        ctx.processId = int(int64_t(cp.getScalar(prefix + "processId")));
        ctx.halted = cp.getScalar(prefix + "halted") != 0;
        for (unsigned r = 0; r < maxArchRegs; ++r)
            ctx.regs[r] = cp.getScalar(prefix + "reg" + std::to_string(r));
        models[c] = CpuModel::Atomic;
        atomics[c]->setContext(ctx);
    }
    if (!cp.hasScalar("uarch.present")) {
        flushMicroarchState();
        return;
    }
    // Warm-state restore. Order matters: setContext() above flushed
    // the Atomic TLBs, so they are repopulated here; physical memory
    // is already restored, so the decode cache can re-decode.
    decoder->unserializeState("decode.", cp);
    // Older (or published, see CheckpointStore) snapshots carry no
    // superblock anchors; the cache then re-forms lazily, which is
    // functionally identical — blocks hold no guest state.
    if (cp.hasBlob("superblock.paddrs"))
        sblocks->unserializeState("superblock.", cp);
    dram->unserializeState("dram.", cp);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        const std::string prefix = "cpu" + std::to_string(c) + ".";
        coreMems[c]->unserializeState(prefix + "mem.", cp);
        atomics[c]->itlb().unserializeState(prefix + "itlb.", cp);
        atomics[c]->dtlb().unserializeState(prefix + "dtlb.", cp);
        atomics[c]->setStallCycles(cp.getScalar(prefix + "stall"));
        if (cp.getScalar(prefix + "bpWarm") != 0)
            o3s[c]->branchPredictor().unserializeState(prefix + "bp.", cp);
        else
            o3s[c]->branchPredictor().reset();
    }
}

} // namespace svb
