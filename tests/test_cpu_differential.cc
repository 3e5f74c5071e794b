/**
 * @file
 * Differential CPU testing: randomly generated structured IR programs
 * must produce identical architectural results on the Atomic model
 * and the detailed out-of-order model, on both ISAs. This is the
 * strongest correctness check of the O3 pipeline (renaming, LSQ
 * forwarding, squash/recovery) against the simple reference model.
 *
 * The same harness also pins down the Atomic CPU's superblock fast
 * path (cpu/superblock.hh) against its per-instruction oracle: a
 * fast-tier system and a slow-tier system execute the same program in
 * cycle lockstep, and the full architectural context plus the entire
 * guest-visible stats tree must match at every chunk boundary — not
 * just at the end. A checkpoint taken mid-run must likewise restore
 * and resume through the fast tier byte-identically to the
 * uninterrupted machine.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"
#include "guest/syscall_abi.hh"
#include "sim/rng.hh"

using namespace svb;

namespace
{

/**
 * Generate a random but well-formed program: straight-line arithmetic,
 * bounded loops, loads/stores into a scratch array, calls into a
 * helper, and data-dependent branches. Writes a final FNV digest of
 * its scratch state to a result cell.
 */
gen::Program
randomProgram(uint64_t seed, Addr &result_addr)
{
    Rng rng(seed);
    gen::ProgramBuilder pb;
    result_addr = pb.addZeroData(8);
    const Addr scratch = pb.addZeroData(512);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);

    // A helper the main function calls (exercises the call path).
    {
        auto f = pb.beginFunction("helper", 2);
        const int a = f.arg(0), b = f.arg(1);
        const int r = f.newVreg();
        f.bin(gen::BinOp::Mul, r, a, b);
        f.bini(gen::BinOp::Xor, r, r, int64_t(rng.nextBounded(1 << 20)));
        f.ret(r);
    }
    const int helper = pb.functionIndex("helper");

    auto f = pb.beginFunction("main", 0);
    const int base = f.newVreg();
    f.lea(base, scratch);

    // Registers to juggle — more than the CX86 pool, to force spills.
    std::vector<int> regs;
    for (int i = 0; i < 12; ++i) {
        const int v = f.newVreg();
        f.movi(v, int64_t(rng.nextBounded(1000)) + 1);
        regs.push_back(v);
    }
    auto pick = [&] { return regs[rng.nextBounded(regs.size())]; };

    // A bounded loop with a random body.
    const int i = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, int64_t(8 + rng.nextBounded(24)), done);

    const int body_ops = 6 + int(rng.nextBounded(14));
    for (int op = 0; op < body_ops; ++op) {
        switch (rng.nextBounded(8)) {
          case 0:
            f.bin(gen::BinOp::Add, pick(), pick(), pick());
            break;
          case 1:
            f.bin(gen::BinOp::Mul, pick(), pick(), pick());
            break;
          case 2:
            f.bini(gen::BinOp::Xor, pick(), pick(),
                   int64_t(rng.nextBounded(1 << 16)));
            break;
          case 3: { // store to a random slot
            const int addr = f.newVreg();
            f.bini(gen::BinOp::And, addr, pick(), 63);
            f.bini(gen::BinOp::Shl, addr, addr, 3);
            f.bin(gen::BinOp::Add, addr, base, addr);
            f.store(addr, 0, pick(), 8);
            break;
          }
          case 4: { // load from a random slot (forwarding chances)
            const int addr = f.newVreg();
            f.bini(gen::BinOp::And, addr, pick(), 63);
            f.bini(gen::BinOp::Shl, addr, addr, 3);
            f.bin(gen::BinOp::Add, addr, base, addr);
            f.load(pick(), addr, 0, 8, false);
            break;
          }
          case 5: { // data-dependent branch
            const int skip = f.newLabel();
            f.brcondi(gen::CondOp::Lt, pick(),
                      int64_t(rng.nextBounded(1 << 12)), skip);
            f.bini(gen::BinOp::Add, pick(), pick(), 17);
            f.label(skip);
            break;
          }
          case 6: { // call
            const int r = f.call(helper, {pick(), pick()});
            f.mov(pick(), r);
            break;
          }
          default: // a trap mid-flight (pipeline drain + kernel)
            f.syscall(sys::sysYield, {});
            break;
        }
    }
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);

    // Digest: hash the scratch region plus the register values.
    const int len = f.imm(512);
    const int h = f.call(lib.fnvHash, {base, len});
    for (int v : regs)
        f.bin(gen::BinOp::Xor, h, h, v);
    const int out = f.newVreg();
    f.lea(out, result_addr);
    f.store(out, 0, h, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

uint64_t
runOn(const gen::Program &prog, IsaId isa, CpuModel model, Addr result)
{
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 1;
    System sys(cfg);
    LoadableImage image = gen::compileProgram(prog, isa);
    LoadedProgram lp = loadProcess(sys.kernel(), image, "rand", 0);
    sys.scheduleIdleCores();
    sys.switchCpu(0, model);
    const uint64_t ran = sys.run(80'000'000);
    EXPECT_LT(ran, 80'000'000u) << "program hung";
    EXPECT_TRUE(sys.cpu(0).halted());
    return sys.kernel().process(lp.pid).space->read(result, 8);
}

/**
 * A mostly-straight-line program whose hot function is large enough
 * (well over 4 KiB of code on either ISA) that execution repeatedly
 * streams across instruction-page boundaries — the case where the
 * superblock engine must re-translate instead of chaining in-page.
 */
gen::Program
pageCrossProgram(Addr &result_addr)
{
    gen::ProgramBuilder pb;
    result_addr = pb.addZeroData(8);
    {
        auto f = pb.beginFunction("blob", 1);
        const int a = f.arg(0);
        for (int k = 0; k < 1500; ++k) {
            f.bini(k % 2 ? gen::BinOp::Add : gen::BinOp::Xor, a, a,
                   int64_t((uint64_t(k) * 2654435761u) & 0xffff));
        }
        f.ret(a);
    }
    const int blob = pb.functionIndex("blob");

    auto f = pb.beginFunction("main", 0);
    const int acc = f.newVreg();
    f.movi(acc, 0x9e3779b9);
    const int i = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 4, done);
    const int r = f.call(blob, {acc});
    f.mov(acc, r);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    const int out = f.newVreg();
    f.lea(out, result_addr);
    f.store(out, 0, acc, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/** A loaded, scheduled, not-yet-run system the tests step manually. */
struct LiveRun
{
    std::unique_ptr<System> sys;
    int pid = -1;
    Addr result = 0;

    uint64_t
    readResult() const
    {
        return sys->kernel().process(pid).space->read(result, 8);
    }
};

LiveRun
startRun(const gen::Program &prog, IsaId isa, bool fast_warm, Addr result)
{
    LiveRun r;
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 1;
    cfg.fastWarm = fast_warm;
    r.sys = std::make_unique<System>(cfg);
    LoadableImage image = gen::compileProgram(prog, isa);
    LoadedProgram lp = loadProcess(r.sys->kernel(), image, "rand", 0);
    r.pid = lp.pid;
    r.result = result;
    r.sys->scheduleIdleCores();
    return r;
}

void
expectSameContext(const HwContext &a, const HwContext &b,
                  const std::string &label)
{
    EXPECT_EQ(a.pc, b.pc) << label;
    EXPECT_EQ(a.regs, b.regs) << label;
    EXPECT_EQ(a.ptRoot, b.ptRoot) << label;
    EXPECT_EQ(a.processId, b.processId) << label;
    EXPECT_EQ(a.halted, b.halted) << label;
}

/** Compare two stats snapshots key by key, naming every divergence. */
void
expectSameSnapshots(const std::map<std::string, double> &a,
                    const std::map<std::string, double> &b,
                    const std::string &label)
{
    for (const auto &[key, value] : a) {
        const auto it = b.find(key);
        if (it == b.end())
            ADD_FAILURE() << label << ": stat " << key << " missing";
        else
            EXPECT_EQ(value, it->second) << label << ": stat " << key;
    }
    for (const auto &[key, value] : b) {
        if (!a.count(key))
            ADD_FAILURE() << label << ": unexpected stat " << key;
    }
}

/**
 * Run the fast-tier and slow-tier systems in cycle lockstep: after
 * every chunk the architectural context, the global cycle, and the
 * whole guest-visible stats tree (host-only groups are excluded by
 * snapshotAll()) must agree exactly. Chunk boundaries deliberately
 * fall mid-block, mid-stall, and between a syscall and its resumption,
 * so the fast path's cursor save/restore is exercised too.
 */
void
lockstepFastSlow(const gen::Program &prog, Addr result, IsaId isa,
                 const std::string &what)
{
    LiveRun fast = startRun(prog, isa, true, result);
    LiveRun slow = startRun(prog, isa, false, result);

    const uint64_t chunk = 2048;
    const uint64_t maxChunks = 80'000'000 / chunk;
    for (uint64_t n = 0; n < maxChunks && !slow.sys->cpu(0).halted();
         ++n) {
        const uint64_t rf = fast.sys->run(chunk);
        const uint64_t rs = slow.sys->run(chunk);
        const std::string label =
            what + " " + isaInfo(isa).name + " cycle " +
            std::to_string(slow.sys->cycle());
        ASSERT_EQ(rf, rs) << label << ": tiers ran different cycle counts";
        ASSERT_EQ(fast.sys->cycle(), slow.sys->cycle()) << label;
        expectSameContext(fast.sys->cpu(0).getContext(),
                          slow.sys->cpu(0).getContext(), label);
        expectSameSnapshots(fast.sys->stats().snapshotAll(),
                            slow.sys->stats().snapshotAll(), label);
        if (::testing::Test::HasFailure())
            return; // first divergence located; the rest is noise
    }
    ASSERT_TRUE(slow.sys->cpu(0).halted()) << what << ": program hung";
    ASSERT_TRUE(fast.sys->cpu(0).halted()) << what << ": fast tier hung";
    EXPECT_EQ(fast.readResult(), slow.readResult()) << what;
}

} // namespace

class DifferentialTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DifferentialTest, AtomicAndO3AgreeOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr result = 0;
    gen::Program prog = randomProgram(seed, result);

    const uint64_t rv_atomic =
        runOn(prog, IsaId::Riscv, CpuModel::Atomic, result);
    const uint64_t rv_o3 = runOn(prog, IsaId::Riscv, CpuModel::O3, result);
    EXPECT_EQ(rv_atomic, rv_o3) << "riscv atomic/o3 divergence, seed "
                                << seed;

    const uint64_t cx_atomic =
        runOn(prog, IsaId::Cx86, CpuModel::Atomic, result);
    const uint64_t cx_o3 = runOn(prog, IsaId::Cx86, CpuModel::O3, result);
    EXPECT_EQ(cx_atomic, cx_o3) << "cx86 atomic/o3 divergence, seed "
                                << seed;

    // The program is ISA-independent IR: both ISAs must agree too.
    EXPECT_EQ(rv_atomic, cx_atomic) << "cross-ISA divergence, seed "
                                    << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t(1), uint64_t(25)));

class FastSlowLockstepTest : public ::testing::TestWithParam<uint64_t>
{
};

// The random programs mix syscalls (sysYield traps mid-block), calls,
// data-dependent branches and loads/stores — the trap and side-exit
// cases of the superblock engine.
TEST_P(FastSlowLockstepTest, ArchStateAndStatsMatchOnBothIsas)
{
    const uint64_t seed = GetParam();
    Addr result = 0;
    const gen::Program prog = randomProgram(seed, result);
    lockstepFastSlow(prog, result, IsaId::Riscv,
                     "seed " + std::to_string(seed));
    lockstepFastSlow(prog, result, IsaId::Cx86,
                     "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastSlowLockstepTest,
                         ::testing::Range(uint64_t(1), uint64_t(9)));

// Instruction streams crossing 4 KiB code-page boundaries: the fast
// path must re-translate at every page edge exactly like the oracle.
TEST(FastSlowLockstepTest, PageCrossingCodeMatches)
{
    Addr result = 0;
    const gen::Program prog = pageCrossProgram(result);
    lockstepFastSlow(prog, result, IsaId::Riscv, "pagecross");
    lockstepFastSlow(prog, result, IsaId::Cx86, "pagecross");
}

namespace
{

/**
 * Save a warm (uarch-carrying) checkpoint mid-run, restore it into
 * fresh systems — one resuming through the fast tier, one through the
 * per-instruction path — and require the remainder of the run to be
 * byte-identical to the uninterrupted machine: same cycle count, same
 * final context, same guest result, same stats tree. Statistics are
 * rebased at the checkpoint moment on every system because checkpoints
 * carry no stats (same contract as the experiment harness).
 */
void
checkpointFastResume(IsaId isa)
{
    Addr result = 0;
    const gen::Program prog = randomProgram(7, result);
    LiveRun ref = startRun(prog, isa, true, result);

    const uint64_t lead = 4'000;
    ASSERT_EQ(ref.sys->run(lead), lead)
        << "program finished before the checkpoint";
    ASSERT_FALSE(ref.sys->cpu(0).halted());
    const Checkpoint cp = ref.sys->saveCheckpoint(true);

    ref.sys->stats().resetAll();
    const uint64_t ranRef = ref.sys->run(80'000'000);
    ASSERT_LT(ranRef, 80'000'000u) << "program hung";
    ASSERT_TRUE(ref.sys->cpu(0).halted());
    const HwContext ctxRef = ref.sys->cpu(0).getContext();
    const auto snapRef = ref.sys->stats().snapshotAll();
    const uint64_t resultRef = ref.readResult();

    for (const bool fast : {true, false}) {
        // Restore requires an identically built machine: same config,
        // same loaded processes (the cluster's restore path rebuilds
        // the workload first, then restores over it).
        LiveRun resumed = startRun(prog, isa, fast, result);
        System &sys = *resumed.sys;
        sys.restoreCheckpoint(cp);
        const std::string label = std::string("resume tier ") +
                                  (fast ? "fast " : "slow ") +
                                  isaInfo(isa).name;
        // The checkpointed superblock anchors must have re-formed
        // (only observable when the env leaves the fast tier on).
        if (sys.fastPathEnabled()) {
            EXPECT_GT(sys.superblocks().size(), 0u) << label;
        }
        sys.stats().resetAll();
        const uint64_t ran = sys.run(80'000'000);
        EXPECT_EQ(ran, ranRef) << label;
        EXPECT_TRUE(sys.cpu(0).halted()) << label;
        expectSameContext(sys.cpu(0).getContext(), ctxRef, label);
        expectSameSnapshots(sys.stats().snapshotAll(), snapRef, label);
        EXPECT_EQ(sys.kernel().process(ref.pid).space->read(result, 8),
                  resultRef)
            << label;
    }
}

} // namespace

TEST(FastResumeTest, CheckpointRestoreResumesByteIdenticalRiscv)
{
    checkpointFastResume(IsaId::Riscv);
}

TEST(FastResumeTest, CheckpointRestoreResumesByteIdenticalCx86)
{
    checkpointFastResume(IsaId::Cx86);
}

namespace
{

constexpr Addr reqRingVa = layout::sharedBase;
constexpr Addr respRingVa = layout::sharedBase + 0x1000;

/**
 * Client (core 0) of a two-core ring ping-pong: per round, a short
 * compute gap (the server spins meanwhile), then a request and a wait
 * for the reply (the client spins while the server computes).
 */
gen::Program
pingClient(unsigned rounds, Addr &result)
{
    gen::ProgramBuilder pb;
    result = pb.addZeroData(8);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    auto f = pb.beginFunction("main", 0);
    const int64_t buf_off = f.localBytes(256);
    const int buf = f.newVreg(), req = f.newVreg(), resp = f.newVreg();
    const int i = f.newVreg(), acc = f.newVreg(), v = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.leaLocal(buf, buf_off);
    f.movi(req, int64_t(reqRingVa));
    f.movi(resp, int64_t(respRingVa));
    f.movi(acc, 0);
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, int64_t(rounds), done);
    const int gap = f.imm(150);
    const int x = f.call(lib.burnAlu, {gap});
    f.bin(gen::BinOp::Xor, x, x, i);
    f.store(buf, 0, x, 8);
    const int len = f.imm(8);
    f.callVoid(lib.ringSend, {req, buf, len});
    f.call(lib.ringRecv, {resp, buf});
    f.load(v, buf, 0, 8, false);
    f.bin(gen::BinOp::Add, acc, acc, v);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    const int out = f.newVreg();
    f.lea(out, result);
    f.store(out, 0, acc, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/**
 * Server (core 1): per round, wait for a request, compute @p work
 * burnAlu iterations plus @p pad single ALU instructions, reply. With
 * @p observe, it also reads sysNow and issues an m5 work mark halfway
 * through the compute, while the client is mid-spin; the trap counter
 * it reads folds into the reply.
 */
gen::Program
pingServer(unsigned rounds, bool observe, int64_t work_iters,
           unsigned pad)
{
    gen::ProgramBuilder pb;
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    auto f = pb.beginFunction("main", 0);
    const int64_t buf_off = f.localBytes(256);
    const int buf = f.newVreg(), req = f.newVreg(), resp = f.newVreg();
    const int i = f.newVreg(), v = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.leaLocal(buf, buf_off);
    f.movi(req, int64_t(reqRingVa));
    f.movi(resp, int64_t(respRingVa));
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, int64_t(rounds), done);
    f.call(lib.ringRecv, {req, buf});
    f.load(v, buf, 0, 8, false);
    const int work = f.imm(work_iters);
    const int x = f.call(lib.burnAlu, {work});
    f.bin(gen::BinOp::Add, v, v, x);
    for (unsigned p = 0; p < pad; ++p)
        f.addi(v, v, 1);
    if (observe) {
        const int now = f.syscall(sys::sysNow, {});
        f.bin(gen::BinOp::Xor, v, v, now);
        const int op = f.imm(int64_t(sys::m5WorkBegin));
        f.syscall(sys::sysM5, {op, i});
        const int y = f.call(lib.burnAlu, {work});
        f.bin(gen::BinOp::Add, v, v, y);
    }
    f.store(buf, 0, v, 8);
    const int len = f.imm(8);
    f.callVoid(lib.ringSend, {resp, buf, len});
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/**
 * Client (core 0) that spins on a flag word with sysYield until the
 * server sets it, then computes a little and stores what it read.
 */
gen::Program
flagClient(Addr &result)
{
    gen::ProgramBuilder pb;
    result = pb.addZeroData(8);
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    auto f = pb.beginFunction("main", 0);
    const int flag = f.newVreg(), v = f.newVreg(), out = f.newVreg();
    const int wait = f.newLabel(), set = f.newLabel();
    f.movi(flag, int64_t(reqRingVa));
    f.label(wait);
    f.load(v, flag, 0, 8, false);
    f.brcondi(gen::CondOp::Ne, v, 0, set);
    f.syscall(sys::sysYield, {});
    f.br(wait);
    f.label(set);
    const int gap = f.imm(50);
    const int x = f.call(lib.burnAlu, {gap});
    f.bin(gen::BinOp::Add, v, v, x);
    f.lea(out, result);
    f.store(out, 0, v, 8);
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/**
 * Server (core 1) that computes @p work burnAlu iterations plus @p pad
 * single ALU instructions, sets the client's flag with one store and
 * computes on long enough for the client's spin to be credited in bulk.
 */
gen::Program
flagServer(int64_t work, unsigned pad)
{
    gen::ProgramBuilder pb;
    const gen::GuestLib lib = gen::GuestLib::addTo(pb);
    auto f = pb.beginFunction("main", 0);
    const int flag = f.newVreg();
    f.movi(flag, int64_t(reqRingVa));
    const int n = f.imm(work);
    const int x = f.call(lib.burnAlu, {n});
    for (unsigned p = 0; p < pad; ++p)
        f.addi(x, x, 1);
    f.bini(gen::BinOp::Or, x, x, 1);
    f.store(flag, 0, x, 8);
    const int tail = f.imm(400);
    f.call(lib.burnAlu, {tail});
    f.ret();
    pb.setEntry("main");
    return pb.take();
}

/** Records the whole stat tree at every guest m5 operation. */
struct SnapshotListener : M5Listener
{
    System *sys = nullptr;
    std::vector<std::pair<uint64_t, std::map<std::string, double>>> marks;

    void
    m5Op(int, uint64_t, uint64_t) override
    {
        marks.emplace_back(sys->cycle(), sys->stats().snapshotAll());
    }
};

struct PingPong
{
    std::unique_ptr<System> sys;
    SnapshotListener listener;
    int clientPid = -1;
    Addr result = 0;
};

/** What the two guests run. */
struct Shape
{
    bool flag = false;    ///< spin on a flag word instead of a ring
    bool observe = false; ///< the ring server reads sysNow and marks
    unsigned rounds = 5;  ///< ring rounds
    int64_t work = 700;   ///< server burnAlu iterations before replying
    unsigned pad = 0;     ///< and single ALU instructions after them
};

std::unique_ptr<PingPong>
startPingPong(IsaId isa, bool fast_warm, const Shape &shape)
{
    auto p = std::make_unique<PingPong>();
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 2;
    cfg.fastWarm = fast_warm;
    p->sys = std::make_unique<System>(cfg);
    System &sys = *p->sys;
    p->listener.sys = &sys;
    sys.setM5Listener(&p->listener);
    const Addr rings = sys.frames().allocFrames(2);
    sys.phys().clearRange(rings, 2 * 0x1000);
    const gen::Program client_prog =
        shape.flag ? flagClient(p->result)
                   : pingClient(shape.rounds, p->result);
    const gen::Program server_prog =
        shape.flag ? flagServer(shape.work, shape.pad)
                   : pingServer(shape.rounds, shape.observe, shape.work,
                                shape.pad);
    const LoadedProgram client = loadProcess(
        sys.kernel(), gen::compileProgram(client_prog, isa), "client", 0);
    const LoadedProgram server = loadProcess(
        sys.kernel(), gen::compileProgram(server_prog, isa), "server", 1);
    for (const int pid : {client.pid, server.pid})
        mapSharedInto(sys.kernel(), pid, reqRingVa, rings, 2 * 0x1000);
    p->clientPid = client.pid;
    sys.scheduleIdleCores();
    return p;
}

/** A host-only system.run counter (outside snapshotAll(), so read
 *  from the printed tree): orbitCycles, the cycles the fast tier
 *  credited to spinning cores in bulk, or orbitEntries. */
uint64_t
runCounter(System &sys, const std::string &counter)
{
    std::ostringstream os;
    sys.stats().printAll(os);
    std::istringstream in(os.str());
    const std::string key = "system.run." + counter;
    std::string name;
    uint64_t value = 0;
    while (in >> name) {
        if (name == key && in >> value)
            return value;
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    ADD_FAILURE() << key << " not printed";
    return 0;
}

/** The uarch checkpoint without its host-only decode state. */
Checkpoint
guestCheckpoint(const System &sys)
{
    Checkpoint cp = sys.saveCheckpoint(true);
    cp.erasePrefix("decode.");
    cp.erasePrefix("superblock.");
    return cp;
}

/** Both systems' contexts, stat trees and uarch checkpoints agree. */
void
expectSameMachine(System &fast, System &slow, const std::string &label)
{
    for (unsigned c = 0; c < 2; ++c) {
        expectSameContext(fast.cpu(c).getContext(), slow.cpu(c).getContext(),
                          label + " core " + std::to_string(c));
    }
    expectSameSnapshots(fast.stats().snapshotAll(),
                        slow.stats().snapshotAll(), label);
    EXPECT_EQ(guestCheckpoint(fast).firstDifference(guestCheckpoint(slow)),
              "")
        << label << ": checkpoints differ at this key";
}

/** Same client result and the same stat trees at every m5 operation. */
void
expectSameOutcome(const PingPong &fast, const PingPong &slow,
                  const std::string &what)
{
    EXPECT_EQ(fast.sys->kernel().process(fast.clientPid).space->read(
                  fast.result, 8),
              slow.sys->kernel().process(slow.clientPid).space->read(
                  slow.result, 8))
        << what;
    ASSERT_EQ(fast.listener.marks.size(), slow.listener.marks.size())
        << what;
    for (size_t i = 0; i < fast.listener.marks.size(); ++i) {
        EXPECT_EQ(fast.listener.marks[i].first, slow.listener.marks[i].first)
            << what << " m5 mark " << i;
        expectSameSnapshots(fast.listener.marks[i].second,
                            slow.listener.marks[i].second,
                            what + " m5 mark " + std::to_string(i));
    }
}

/**
 * Two cores in ring ping-pong, fast tier against the slow oracle, in
 * chunks that are no multiple of the spin period: after each, both
 * contexts, the stat tree and the whole uarch checkpoint (caches with
 * their LRU stamps, TLBs, DRAM rows, kernel counters, memory) must
 * agree, and so must the stat trees taken at every m5 operation.
 */
void
lockstepPingPong(IsaId isa, bool observe)
{
    const std::string what = std::string(isaInfo(isa).name) +
                             (observe ? " observing server" : " server");
    Shape shape;
    shape.observe = observe;
    auto fast = startPingPong(isa, true, shape);
    auto slow = startPingPong(isa, false, shape);
    const uint64_t chunks[] = {1009, 4999, 313};
    for (uint64_t n = 0; n < 4000; ++n) {
        if (slow->sys->cpu(0).halted() && slow->sys->cpu(1).halted())
            break;
        const uint64_t chunk = chunks[n % 3];
        const uint64_t rf = fast->sys->run(chunk);
        const uint64_t rs = slow->sys->run(chunk);
        const std::string label =
            what + " cycle " + std::to_string(slow->sys->cycle());
        ASSERT_EQ(rf, rs) << label;
        ASSERT_EQ(fast->sys->cycle(), slow->sys->cycle()) << label;
        expectSameMachine(*fast->sys, *slow->sys, label);
        if (::testing::Test::HasFailure())
            return;
    }
    ASSERT_TRUE(slow->sys->cpu(0).halted() && slow->sys->cpu(1).halted())
        << what << ": ping-pong hung";
    expectSameOutcome(*fast, *slow, what);
    EXPECT_EQ(fast->listener.marks.size(), observe ? shape.rounds : 0u)
        << what;
    // The oracle never fast-forwards; the fast tier must have, or this
    // test checks nothing (only when the env leaves the tier on).
    EXPECT_EQ(runCounter(*slow->sys, "orbitCycles"), 0u) << what;
    if (fast->sys->fastPathEnabled()) {
        EXPECT_GT(runCounter(*fast->sys, "orbitCycles"), 0u) << what;
    }
}

/**
 * The server's store into the line the client spins on lands on each
 * of @p pads consecutive cycles in turn, a range that starts near the
 * cycle the client's orbit would begin and runs more than a spin
 * period past it. The server is the higher core, so on that cycle it ticks after
 * the client's boundary: its store must keep the client off the orbit,
 * and a later one must end the orbit exactly where per-cycle execution
 * leaves the client. Each shape runs to the end in one run() call, so
 * no return in between ends the orbit.
 */
void
storeOnEveryCycle(IsaId isa, Shape shape, unsigned pads)
{
    uint64_t entries = 0, credited = 0;
    bool fast_tier = false;
    for (shape.pad = 0; shape.pad < pads; ++shape.pad) {
        const std::string what =
            std::string(isaInfo(isa).name) +
            (shape.flag ? " flag" : " ring") + " pad " +
            std::to_string(shape.pad);
        auto fast = startPingPong(isa, true, shape);
        auto slow = startPingPong(isa, false, shape);
        const uint64_t rf = fast->sys->run(10'000'000);
        const uint64_t rs = slow->sys->run(10'000'000);
        ASSERT_EQ(rf, rs) << what;
        ASSERT_TRUE(slow->sys->cpu(0).halted() && slow->sys->cpu(1).halted())
            << what << ": hung";
        expectSameMachine(*fast->sys, *slow->sys, what);
        expectSameOutcome(*fast, *slow, what);
        if (::testing::Test::HasFailure())
            return;
        fast_tier = fast->sys->fastPathEnabled();
        entries += runCounter(*fast->sys, "orbitEntries");
        credited += runCounter(*fast->sys, "orbitCycles");
    }
    // Only when the env leaves the fast tier on.
    if (fast_tier) {
        EXPECT_GT(entries, 0u);
        EXPECT_GT(credited, 0u);
    }
}

/** A client that spins on a flag the server sets with one store; the
 *  server's work puts the first pads just before the client's orbit
 *  would start on each ISA. */
Shape
flagStore(IsaId isa)
{
    Shape shape;
    shape.flag = true;
    shape.work = isa == IsaId::Riscv ? 9 : 15;
    return shape;
}

} // namespace

TEST(SpinLockstepTest, ClientSpinsWhileServerComputesRiscv)
{
    lockstepPingPong(IsaId::Riscv, false);
}

TEST(SpinLockstepTest, ClientSpinsWhileServerComputesCx86)
{
    lockstepPingPong(IsaId::Cx86, false);
}

TEST(SpinLockstepTest, ServerReadsSysNowAndMarksMidOrbitRiscv)
{
    lockstepPingPong(IsaId::Riscv, true);
}

TEST(SpinLockstepTest, ServerReadsSysNowAndMarksMidOrbitCx86)
{
    lockstepPingPong(IsaId::Cx86, true);
}

TEST(SpinLockstepTest, RingReplyOnEveryCycleOfTheSpinPeriodRiscv)
{
    // Four short rounds: the replies sweep the client's second spin.
    Shape shape;
    shape.rounds = 4;
    shape.work = 20;
    storeOnEveryCycle(IsaId::Riscv, shape, 72);
}

TEST(SpinLockstepTest, FlagStoreOnEveryCycleOfTheSpinPeriodRiscv)
{
    storeOnEveryCycle(IsaId::Riscv, flagStore(IsaId::Riscv), 84);
}

TEST(SpinLockstepTest, FlagStoreOnEveryCycleOfTheSpinPeriodCx86)
{
    storeOnEveryCycle(IsaId::Cx86, flagStore(IsaId::Cx86), 84);
}
