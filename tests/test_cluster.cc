/**
 * @file
 * Cluster/methodology tests: checkpoint-restore determinism (the Fig
 * 4.1 protocol's foundation), run-to-run reproducibility, CPU-model
 * switching mid-run, and the result cache.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/result_cache.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

FunctionSpec
specNamed(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    return {};
}

ClusterConfig
cfgFor(const FunctionSpec &spec, IsaId isa = IsaId::Riscv)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = spec.usesDb;
    cfg.startMemcached = spec.usesMemcached;
    return cfg;
}

bool
statsEqual(const RequestStats &a, const RequestStats &b)
{
    return a.cycles == b.cycles && a.insts == b.insts &&
           a.l1iMisses == b.l1iMisses && a.l1dMisses == b.l1dMisses &&
           a.l2Misses == b.l2Misses &&
           a.branchMispredicts == b.branchMispredicts;
}

} // namespace

TEST(Cluster, ExperimentsAreBitReproducible)
{
    const FunctionSpec spec = specNamed("auth-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    // Two runs through the SAME runner (checkpoint restore between
    // them) and a run on a FRESH runner must agree exactly.
    ExperimentRunner runner(cfgFor(spec));
    const FunctionResult first = runner.runFunction(spec, impl);
    const FunctionResult second = runner.runFunction(spec, impl);
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(second.ok);
    EXPECT_TRUE(statsEqual(first.cold, second.cold));
    EXPECT_TRUE(statsEqual(first.warm, second.warm));

    ExperimentRunner fresh(cfgFor(spec));
    const FunctionResult third = fresh.runFunction(spec, impl);
    ASSERT_TRUE(third.ok);
    EXPECT_TRUE(statsEqual(first.cold, third.cold));
    EXPECT_TRUE(statsEqual(first.warm, third.warm));
}

TEST(Cluster, CheckpointSurvivesFileRoundtrip)
{
    const FunctionSpec spec = specNamed("rate"); // db + memcached
    ClusterConfig cfg = cfgFor(spec);

    ServerlessCluster cluster(cfg);
    cluster.boot();
    const Checkpoint cp = cluster.system().saveCheckpoint();
    const std::string path = "/tmp/svbench_cluster_ckpt.bin";
    cp.saveToFile(path);
    const Checkpoint loaded = Checkpoint::loadFromFile(path);
    std::remove(path.c_str());

    // Restore into a freshly built, identically configured system.
    ServerlessCluster other(cfg);
    other.system().restoreCheckpoint(loaded);
    // The restored kernel knows the booted store containers.
    EXPECT_GE(other.system().kernel().findProcess("cassandra"), 0);
    EXPECT_GE(other.system().kernel().findProcess("memcached"), 0);
}

TEST(Cluster, SwitchingCpuModelsMidRunPreservesState)
{
    // Run half the experiment in O3, switch to Atomic and back; the
    // request must still complete correctly.
    const FunctionSpec spec = specNamed("fibonacci-go");
    ClusterConfig cfg = cfgFor(spec);
    ServerlessCluster cluster(cfg);
    cluster.boot();
    cluster.resetToBaseline();
    auto dep =
        cluster.deploy(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(cluster.runUntilReady(1));
    cluster.openClientGate(dep);

    System &sys = cluster.system();
    sys.switchCpu(0, CpuModel::O3);
    sys.switchCpu(1, CpuModel::O3);
    // Interrupt the O3 run mid-request several times.
    for (int i = 0; i < 5; ++i) {
        sys.run(20'000);
        sys.switchCpu(1, CpuModel::Atomic);
        sys.run(5'000);
        sys.switchCpu(1, CpuModel::O3);
        if (cluster.workEnds() >= 1)
            break;
    }
    EXPECT_TRUE(cluster.runUntilWorkEnds(1));
}

TEST(ResultCache, MemoisesAcrossInstances)
{
    const std::string path = "/tmp/svbench_test_cache.csv";
    std::remove(path.c_str());
    const FunctionSpec spec = specNamed("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = cfgFor(spec);

    FunctionResult first;
    {
        ResultCache cache(path);
        first = std::get<FunctionResult>(
            cache.run({RunMode::Detailed, spec, &impl, cfg, {}}));
        ASSERT_TRUE(first.ok);
    }
    {
        // A new cache instance must serve from disk (and therefore be
        // instant — but we only check value equality here).
        ResultCache cache(path);
        const FunctionResult again = std::get<FunctionResult>(
            cache.run({RunMode::Detailed, spec, &impl, cfg, {}}));
        EXPECT_TRUE(statsEqual(first.cold, again.cold));
        EXPECT_TRUE(statsEqual(first.warm, again.warm));
    }
    std::remove(path.c_str());
}

TEST(ResultCache, DistinguishesConfigurations)
{
    const std::string path = "/tmp/svbench_test_cache2.csv";
    std::remove(path.c_str());
    ResultCache cache(path);
    const FunctionSpec spec = specNamed("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    const FunctionResult rv = std::get<FunctionResult>(cache.run(
        {RunMode::Detailed, spec, &impl, cfgFor(spec, IsaId::Riscv), {}}));
    const FunctionResult cx = std::get<FunctionResult>(cache.run(
        {RunMode::Detailed, spec, &impl, cfgFor(spec, IsaId::Cx86), {}}));
    EXPECT_NE(rv.cold.cycles, cx.cold.cycles);
    std::remove(path.c_str());
}

TEST(Cluster, EmulationAndDetailedAgreeFunctionally)
{
    // Both modes drive the same guest software; the emulation-mode
    // latency must be positive and cold > warm in both.
    const FunctionSpec spec = specNamed("fibonacci-nodejs");
    ExperimentRunner runner(cfgFor(spec));
    const EmuResult emu = runner.runFunctionEmu(
        spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(emu.ok);
    EXPECT_GT(emu.coldNs, emu.warmNs);
}

TEST(Cluster, LukewarmLandsBetweenWarmAndCold)
{
    const FunctionSpec spec = specNamed("fibonacci-go");
    const FunctionSpec other = specNamed("aes-python");
    ExperimentRunner runner(cfgFor(spec));
    const FunctionResult solo =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(solo.ok);
    const LukewarmResult lw = runner.runLukewarm(
        spec, workloads::workloadImpl(spec.workload), other,
        workloads::workloadImpl(other.workload));
    ASSERT_TRUE(lw.ok);
    // Interleaving must hurt the warm request...
    EXPECT_GT(lw.lukewarm.cycles, lw.warm.cycles);
    EXPECT_GT(lw.lukewarm.l1iMisses, lw.warm.l1iMisses);
}
