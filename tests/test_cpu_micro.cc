/**
 * @file
 * Targeted microarchitecture tests: branch predictor learning,
 * store-to-load forwarding, O3 stat plausibility, TLB behaviour
 * under context switches, and golden O3 stat trees (O3Golden) that
 * pin every simulated cycle and counter of the detailed CPU.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hh"
#include "core/system.hh"
#include "cpu/branch_pred.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"
#include "obs/stat_export.hh"
#include "stack/topology.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

struct RunOutcome
{
    std::map<std::string, double> stats;
    uint64_t cycles = 0;
};

RunOutcome
runO3(gen::Program prog, IsaId isa = IsaId::Riscv)
{
    SystemConfig cfg = SystemConfig::paperConfig(isa);
    cfg.numCores = 1;
    System sys(cfg);
    LoadableImage image = gen::compileProgram(std::move(prog), isa);
    loadProcess(sys.kernel(), image, "t", 0);
    sys.scheduleIdleCores();
    sys.switchCpu(0, CpuModel::O3);
    RunOutcome out;
    out.cycles = sys.run(50'000'000);
    EXPECT_LT(out.cycles, 50'000'000u);
    out.stats = sys.stats().snapshotAll();
    return out;
}

} // namespace

TEST(BranchPredictorUnit, LearnsABiasedBranch)
{
    StatGroup stats("t");
    BranchPredictor bp(BranchPredParams{}, stats);
    StaticInst inst;
    inst.valid = true;
    inst.length = 4;
    inst.isControl = true;
    inst.isCondCtrl = true;
    inst.isDirectCtrl = true;
    inst.directOffset = -40;

    const Addr pc = 0x1000;
    int wrong = 0;
    for (int i = 0; i < 200; ++i) {
        const auto pred = bp.predict(pc, inst, pc + 4);
        wrong += pred.taken != true;
        bp.update(pc, inst, true, pc - 40);
    }
    // gshare indexes with branch history, so the counter table needs
    // ~historyBits updates before every reached index saturates.
    EXPECT_LT(wrong, 20);
}

TEST(BranchPredictorUnit, RasPredictsReturns)
{
    StatGroup stats("t");
    BranchPredictor bp(BranchPredParams{}, stats);

    StaticInst call;
    call.valid = true;
    call.length = 4;
    call.isControl = true;
    call.isCall = true;
    call.isDirectCtrl = true;
    call.directOffset = 0x100;

    StaticInst ret;
    ret.valid = true;
    ret.length = 4;
    ret.isControl = true;
    ret.isReturn = true;

    bp.predict(0x2000, call, 0x2004); // pushes 0x2004
    const auto pred = bp.predict(0x2100, ret, 0x2104);
    EXPECT_TRUE(pred.taken);
    EXPECT_EQ(pred.nextPc, 0x2004u);
}

TEST(BranchPredictorUnit, BtbLearnsIndirectTargets)
{
    StatGroup stats("t");
    BranchPredictor bp(BranchPredParams{}, stats);
    StaticInst ind;
    ind.valid = true;
    ind.length = 4;
    ind.isControl = true; // indirect, unconditional, not a return

    const Addr pc = 0x3000;
    auto first = bp.predict(pc, ind, pc + 4);
    EXPECT_EQ(first.nextPc, pc + 4); // BTB cold: falls through
    bp.update(pc, ind, true, 0x7777000);
    auto second = bp.predict(pc, ind, pc + 4);
    EXPECT_EQ(second.nextPc, 0x7777000u);
}

TEST(O3Micro, PredictableLoopHasFewMispredicts)
{
    gen::ProgramBuilder pb;
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), acc = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.movi(acc, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 10000, done);
    f.bin(gen::BinOp::Add, acc, acc, i);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret();
    pb.setEntry("main");

    const RunOutcome out = runO3(pb.take());
    const double branches = out.stats.at("system.cpu0.o3.numBranches");
    const double mispredicts =
        out.stats.at("system.cpu0.o3.branchMispredicts");
    EXPECT_GT(branches, 10000);
    EXPECT_LT(mispredicts / branches, 0.02);
}

TEST(O3Micro, DataDependentBranchesMispredictMore)
{
    // Branch on a pseudo-random bit: ~50% mispredict territory.
    gen::ProgramBuilder pb;
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), x = f.newVreg(), t = f.newVreg(),
              acc = f.newVreg();
    const int loop = f.newLabel(), skip = f.newLabel(),
              done = f.newLabel();
    f.movi(i, 0);
    f.movi(acc, 0);
    f.movi(x, 0x9e3779b9);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 4000, done);
    f.bini(gen::BinOp::Mul, x, x, 6364136223846793005LL & 0x7fffffff);
    f.bini(gen::BinOp::Add, x, x, 12345);
    f.bini(gen::BinOp::Shr, t, x, 17);
    f.bini(gen::BinOp::And, t, t, 1);
    f.brcondi(gen::CondOp::Eq, t, 0, skip);
    f.bini(gen::BinOp::Add, acc, acc, 3);
    f.label(skip);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret();
    pb.setEntry("main");

    const RunOutcome out = runO3(pb.take());
    const double mispredicts =
        out.stats.at("system.cpu0.o3.branchMispredicts");
    EXPECT_GT(mispredicts, 500); // a hard branch stream really costs
}

TEST(O3Micro, MispredictSquashDropsUnissuedYoungerIqEntries)
{
    // A hard-to-predict branch resolves while the uops behind it still
    // wait in the issue queue on a divide chain, so every mispredict
    // squashes not-yet-issued IQ entries. The squash has to drop them
    // from the IQ before the ROB destroys their DynInsts; the reverse
    // order reads freed ROB nodes (a heap-use-after-free under ASan).
    auto mk = [] {
        gen::ProgramBuilder pb;
        auto f = pb.beginFunction("main", 0);
        const int i = f.newVreg(), x = f.newVreg(), t = f.newVreg(),
                  acc = f.newVreg();
        const int loop = f.newLabel(), skip = f.newLabel(),
                  done = f.newLabel();
        f.movi(i, 0);
        f.movi(acc, 1);
        f.movi(x, 0x9e3779b9);
        f.label(loop);
        f.brcondi(gen::CondOp::Ge, i, 1500, done);
        f.bini(gen::BinOp::Mul, x, x, 1103515245);
        f.bini(gen::BinOp::Add, x, x, 12345);
        // The branch waits on a divide, long enough for the front end
        // to rename the younger uops behind it.
        f.bini(gen::BinOp::Udiv, t, x, 3);
        f.bini(gen::BinOp::Shr, t, t, 17);
        f.bini(gen::BinOp::And, t, t, 1);
        f.brcondi(gen::CondOp::Eq, t, 0, skip);
        f.bini(gen::BinOp::Add, acc, acc, 3);
        f.label(skip);
        // Younger work that cannot issue until the chain resolves.
        for (int k = 0; k < 4; ++k) {
            f.bini(gen::BinOp::Or, acc, acc, 1);
            f.bin(gen::BinOp::Div, acc, x, acc);
        }
        f.addi(i, i, 1);
        f.br(loop);
        f.label(done);
        f.ret();
        pb.setEntry("main");
        return pb.take();
    };

    const RunOutcome out = runO3(mk());
    const double mispredicts =
        out.stats.at("system.cpu0.o3.branchMispredicts");
    EXPECT_GT(mispredicts, 200);
    EXPECT_GT(out.stats.at("system.cpu0.o3.squashedUops"), mispredicts);

    // Squashing never disturbs the committed stream: the Atomic CPU
    // retires exactly the same instructions.
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);
    loadProcess(sys.kernel(), gen::compileProgram(mk(), IsaId::Riscv), "t",
                0);
    sys.scheduleIdleCores();
    EXPECT_LT(sys.run(50'000'000), 50'000'000u);
    EXPECT_EQ(out.stats.at("system.cpu0.o3.numInsts"),
              sys.stats().snapshotAll().at("system.cpu0.atomic.numInsts"));
}

TEST(O3Micro, StoreToLoadForwardingHappens)
{
    // A tight store-then-load-same-address loop must forward.
    gen::ProgramBuilder pb;
    pb.addZeroData(64);
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), v = f.newVreg(), ptr = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.lea(ptr, layout::dataBase);
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 2000, done);
    f.store(ptr, 0, i, 8);
    f.load(v, ptr, 0, 8, false);
    f.bin(gen::BinOp::Add, i, i, v); // i += i (doubling via memory)
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret();
    pb.setEntry("main");

    const RunOutcome out = runO3(pb.take());
    EXPECT_GT(out.stats.at("system.cpu0.o3.forwardedLoads"), 5.0);
}

TEST(O3Micro, UopsExceedInstsOnCx86Only)
{
    // Call-heavy code: CX86 call/ret/push/pop crack to multiple uops,
    // RV64 calls stay one-instruction-one-uop.
    auto mk = [] {
        gen::ProgramBuilder pb;
        {
            auto f = pb.beginFunction("leaf", 1);
            const int r = f.newVreg();
            f.bini(gen::BinOp::Add, r, f.arg(0), 1);
            f.ret(r);
        }
        auto f = pb.beginFunction("main", 0);
        const int i = f.newVreg(), x = f.newVreg();
        const int loop = f.newLabel(), done = f.newLabel();
        f.movi(i, 0);
        f.movi(x, 0);
        f.label(loop);
        f.brcondi(gen::CondOp::Ge, i, 2000, done);
        const int r = f.call(pb.functionIndex("leaf"), {x});
        f.mov(x, r);
        f.addi(i, i, 1);
        f.br(loop);
        f.label(done);
        f.ret();
        pb.setEntry("main");
        return pb.take();
    };

    const RunOutcome rv = runO3(mk(), IsaId::Riscv);
    const RunOutcome cx = runO3(mk(), IsaId::Cx86);
    const double rv_ratio = rv.stats.at("system.cpu0.o3.numUops") /
                            rv.stats.at("system.cpu0.o3.numInsts");
    const double cx_ratio = cx.stats.at("system.cpu0.o3.numUops") /
                            cx.stats.at("system.cpu0.o3.numInsts");
    EXPECT_NEAR(rv_ratio, 1.0, 0.01); // RV64: 1 uop per inst
    EXPECT_GT(cx_ratio, 1.05);        // CISC cracking shows up
}

TEST(O3Micro, IpcIsPlausible)
{
    // Independent ALU work should sustain well over 1 IPC on the
    // 4-wide core but below the width bound.
    gen::ProgramBuilder pb;
    auto f = pb.beginFunction("main", 0);
    const int a = f.imm(1), b = f.imm(2), c = f.imm(3), d = f.imm(5);
    const int i = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 3000, done);
    for (int k = 0; k < 8; ++k) {
        f.bini(gen::BinOp::Add, a, a, 1);
        f.bini(gen::BinOp::Add, b, b, 1);
        f.bini(gen::BinOp::Add, c, c, 1);
        f.bini(gen::BinOp::Add, d, d, 1);
    }
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret();
    pb.setEntry("main");

    const RunOutcome out = runO3(pb.take());
    const double ipc = out.stats.at("system.cpu0.o3.numInsts") /
                       out.stats.at("system.cpu0.o3.numCycles");
    EXPECT_GT(ipc, 1.5);
    EXPECT_LT(ipc, 4.0);
}

TEST(O3Micro, TlbMissesAfterContextSwitchStorm)
{
    // Two processes ping-ponging on one core flush TLBs constantly.
    SystemConfig cfg = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.numCores = 1;
    System sys(cfg);

    auto mkYielder = [&] {
        gen::ProgramBuilder pb;
        auto f = pb.beginFunction("main", 0);
        const int i = f.newVreg();
        const int loop = f.newLabel(), done = f.newLabel();
        f.movi(i, 0);
        f.label(loop);
        f.brcondi(gen::CondOp::Ge, i, 200, done);
        f.syscall(sys::sysYield, {});
        f.addi(i, i, 1);
        f.br(loop);
        f.label(done);
        f.ret();
        pb.setEntry("main");
        return gen::compileProgram(pb.take(), IsaId::Riscv);
    };
    loadProcess(sys.kernel(), mkYielder(), "a", 0);
    loadProcess(sys.kernel(), mkYielder(), "b", 0);
    sys.scheduleIdleCores();
    sys.run(5'000'000);

    const auto snap = sys.stats().snapshotAll();
    EXPECT_GT(snap.at("system.cpu0.atomic.itlb.flushes"), 300.0);
    EXPECT_GT(snap.at("system.cpu0.atomic.itlb.misses"), 300.0);
    EXPECT_GT(snap.at("system.kernel.contextSwitches"), 300.0);
}

// --------------------------------------------------------------------------
// O3 golden stats. Each test pins the full O3 stat tree of the measured
// core (every stall cause, the iTLB/dTLB and branch-predictor counters)
// plus its L1I/L1D/L2 stats, as a digest of the sorted "name=value"
// lines and a plain cycle count. Any change to a simulated cycle or
// counter of the detailed CPU shows up here; a failure prints the
// lines so they can be diffed against the last known-good tree.
// --------------------------------------------------------------------------

namespace
{

/** Every stat of @p snap under one of @p prefixes, one per line. */
std::string
pinnedLines(const std::map<std::string, double> &snap,
            std::initializer_list<std::string> prefixes)
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &[name, value] : snap) {
        for (const std::string &p : prefixes) {
            if (name.compare(0, p.size(), p) == 0) {
                os << name << '=' << value << '\n';
                break;
            }
        }
    }
    return os.str();
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The pinned view of one measured request or microprogram run. */
struct Pinned
{
    uint64_t cycles = 0;
    uint64_t digest = 0;
    std::string lines;
};

Pinned
pin(const std::map<std::string, double> &snap, int core)
{
    const std::string cpu = "system.cpu" + std::to_string(core) + ".o3.";
    const std::string mem = "system.core" + std::to_string(core) + ".";
    Pinned p;
    p.lines = pinnedLines(snap, {cpu, mem + "l1i.", mem + "l1d.",
                                 mem + "l2."});
    p.digest = fnv1a(p.lines);
    p.cycles = uint64_t(obs::statValue(snap, cpu + "numCycles"));
    return p;
}

#define EXPECT_PINNED(pinned, want_cycles, want_digest)                     \
    do {                                                                    \
        const Pinned &p_ = (pinned);                                        \
        EXPECT_EQ(p_.cycles, uint64_t(want_cycles));                        \
        EXPECT_EQ(p_.digest, uint64_t(want_digest)) << p_.lines;            \
    } while (0)

FunctionSpec
functionNamed(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    ADD_FAILURE() << "unknown function " << name;
    return {};
}

/**
 * The Figure 4.1 protocol on a fresh cluster, checkpoint store
 * bypassed: boot, deploy, settle, measure request 1 on O3 with cold
 * microarchitectural state, warm through requests 2..9 on the Atomic
 * CPU, measure request 10 on O3. @return the server core's pinned
 * cold and warm stat deltas.
 */
std::pair<Pinned, Pinned>
coldWarmOnO3(IsaId isa, const std::string &name)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    ServerlessCluster cl(cfg);
    cl.boot();
    cl.resetToBaseline();
    const FunctionSpec spec = functionNamed(name);
    const auto dep = cl.deploy(spec, workloads::workloadImpl(spec.workload));
    EXPECT_TRUE(cl.runUntilReady(1));
    System &m = cl.system();
    m.run(5'000);

    auto measure = [&] {
        return pin(obs::delta(cl.workBeginSnapshot(),
                              obs::snapshot(m.stats())),
                   topo::serverCore);
    };
    m.switchCpu(topo::clientCore, CpuModel::O3);
    m.switchCpu(topo::serverCore, CpuModel::O3);
    m.flushMicroarchState();
    cl.armStatResetOnWorkBegin();
    cl.openClientGate(dep);
    EXPECT_TRUE(cl.runUntilWorkEnds(1));
    const Pinned cold = measure();

    m.switchCpu(topo::clientCore, CpuModel::Atomic);
    m.switchCpu(topo::serverCore, CpuModel::Atomic);
    EXPECT_TRUE(cl.runUntilWorkEnds(9));
    m.switchCpu(topo::clientCore, CpuModel::O3);
    m.switchCpu(topo::serverCore, CpuModel::O3);
    cl.armStatResetOnWorkBegin();
    EXPECT_TRUE(cl.runUntilWorkEnds(10));
    return {cold, measure()};
}

} // namespace

TEST(O3Golden, FibonacciGoRiscvColdAndWarm)
{
    const auto [cold, warm] = coldWarmOnO3(IsaId::Riscv, "fibonacci-go");
    EXPECT_PINNED(cold, 1511103,
                  0x2181934b39bbfdbcULL);
    EXPECT_PINNED(warm, 742501,
                  0xf6dbe540d8e061e3ULL);
}

TEST(O3Golden, FibonacciGoCx86ColdAndWarm)
{
    const auto [cold, warm] = coldWarmOnO3(IsaId::Cx86, "fibonacci-go");
    EXPECT_PINNED(cold, 3160763,
                  0x93102a59680e876cULL);
    EXPECT_PINNED(warm, 1636500,
                  0x8d05785e9bd3d6e1ULL);
}

TEST(O3Golden, AesGoRiscvColdAndWarm)
{
    const auto [cold, warm] = coldWarmOnO3(IsaId::Riscv, "aes-go");
    EXPECT_PINNED(cold, 1524128,
                  0xb24911787eb34979ULL);
    EXPECT_PINNED(warm, 767039,
                  0x99d9d67ca85ca9c8ULL);
}

TEST(O3Golden, AesGoCx86ColdAndWarm)
{
    const auto [cold, warm] = coldWarmOnO3(IsaId::Cx86, "aes-go");
    EXPECT_PINNED(cold, 3171476,
                  0x1da520f49b056911ULL);
    EXPECT_PINNED(warm, 1650355,
                  0x0d9fec0aa7c33203ULL);
}

TEST(O3Golden, LoadsWaitBehindAStoreWhoseAddressNeedsADivide)
{
    // Each iteration stores through an address computed by a divide,
    // then loads four other slots: the loads have their operands long
    // before the store knows its address, so they wait in the IQ for
    // the whole divide.
    gen::ProgramBuilder pb;
    pb.addZeroData(256);
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), x = f.newVreg(), t = f.newVreg(),
              ptr = f.newVreg(), addr = f.newVreg(), v = f.newVreg(),
              acc = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.lea(ptr, layout::dataBase);
    f.movi(i, 0);
    f.movi(acc, 0);
    f.movi(x, 12345);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 600, done);
    f.bini(gen::BinOp::Add, x, x, 7919);
    f.bini(gen::BinOp::Udiv, t, x, 7);
    f.bini(gen::BinOp::And, t, t, 7);
    f.bini(gen::BinOp::Shl, t, t, 3);
    f.bin(gen::BinOp::Add, addr, ptr, t);
    f.store(addr, 0, i, 8);
    for (int k = 0; k < 4; ++k) {
        f.load(v, ptr, 64 + 8 * k, 8, false);
        f.bin(gen::BinOp::Add, acc, acc, v);
    }
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret(acc);
    pb.setEntry("main");

    EXPECT_PINNED(pin(runO3(pb.take()).stats, 0), 12880,
                  0x2a0e011874c0fe32ULL);
}

TEST(O3Golden, PartialOverlapLoadRetriesUntilTheStoreRetires)
{
    // A 4-byte store under an 8-byte load of the same slot: the store
    // cannot forward, so the load retries (and re-translates) every
    // cycle until the store commits.
    gen::ProgramBuilder pb;
    pb.addZeroData(64);
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), v = f.newVreg(), ptr = f.newVreg(),
              acc = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.lea(ptr, layout::dataBase);
    f.movi(i, 0);
    f.movi(acc, 0);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 800, done);
    f.store(ptr, 0, i, 4);
    f.load(v, ptr, 0, 8, false);
    f.bin(gen::BinOp::Add, acc, acc, v);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret(acc);
    pb.setEntry("main");

    EXPECT_PINNED(pin(runO3(pb.take()).stats, 0), 4147,
                  0x98a0c3a0959ffc43ULL);
}

TEST(O3Golden, IndependentDividesCollideOnTheDivideUnit)
{
    // Two independent divides per iteration: the second is ready at
    // once but waits for the unpipelined divide unit.
    gen::ProgramBuilder pb;
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), x = f.newVreg(), y = f.newVreg(),
              a = f.newVreg(), b = f.newVreg(), acc = f.newVreg();
    const int loop = f.newLabel(), done = f.newLabel();
    f.movi(i, 0);
    f.movi(acc, 0);
    f.movi(x, 1'000'003);
    f.movi(y, 2'000'029);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 400, done);
    f.bini(gen::BinOp::Div, a, x, 3);
    f.bini(gen::BinOp::Div, b, y, 5);
    f.bin(gen::BinOp::Add, acc, acc, a);
    f.bin(gen::BinOp::Add, acc, acc, b);
    f.addi(x, x, 11);
    f.addi(y, y, 13);
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret(acc);
    pb.setEntry("main");

    EXPECT_PINNED(pin(runO3(pb.take()).stats, 0), 16565,
                  0x690c1639f3e7557fULL);
}

TEST(O3Golden, MispredictSquashesLoadsWaitingOnAStoreAddress)
{
    // A hard-to-predict branch sits between a store whose address
    // needs a divide and the loads behind it: when the branch
    // mispredicts, the loads still waiting on the store address are
    // squashed out of the IQ.
    gen::ProgramBuilder pb;
    pb.addZeroData(256);
    auto f = pb.beginFunction("main", 0);
    const int i = f.newVreg(), x = f.newVreg(), t = f.newVreg(),
              ptr = f.newVreg(), addr = f.newVreg(), v = f.newVreg(),
              acc = f.newVreg(), bit = f.newVreg();
    const int loop = f.newLabel(), skip = f.newLabel(),
              done = f.newLabel();
    f.lea(ptr, layout::dataBase);
    f.movi(i, 0);
    f.movi(acc, 0);
    f.movi(x, 0x9e3779b9);
    f.label(loop);
    f.brcondi(gen::CondOp::Ge, i, 800, done);
    f.bini(gen::BinOp::Mul, x, x, 1103515245);
    f.bini(gen::BinOp::Add, x, x, 12345);
    f.bini(gen::BinOp::Udiv, t, x, 3);
    f.bini(gen::BinOp::And, t, t, 7);
    f.bini(gen::BinOp::Shl, t, t, 3);
    f.bin(gen::BinOp::Add, addr, ptr, t);
    f.store(addr, 0, i, 8);
    f.bini(gen::BinOp::Shr, bit, x, 17);
    f.bini(gen::BinOp::And, bit, bit, 1);
    f.brcondi(gen::CondOp::Eq, bit, 0, skip);
    f.load(v, ptr, 72, 8, false);
    f.bin(gen::BinOp::Add, acc, acc, v);
    f.label(skip);
    for (int k = 0; k < 3; ++k) {
        f.load(v, ptr, 96 + 8 * k, 8, false);
        f.bin(gen::BinOp::Add, acc, acc, v);
    }
    f.addi(i, i, 1);
    f.br(loop);
    f.label(done);
    f.ret(acc);
    pb.setEntry("main");

    EXPECT_PINNED(pin(runO3(pb.take()).stats, 0), 16891,
                  0xa7aabb39bedf7584ULL);
}
