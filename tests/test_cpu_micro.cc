/**
 * @file
 * Targeted microarchitecture tests: branch predictor learning,
 * store-to-load forwarding, O3 stat plausibility, and TLB behaviour
 * under context switches.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "cpu/branch_pred.hh"
#include "gen/guestlib.hh"
#include "gen/ir.hh"
#include "guest/loader.hh"

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
