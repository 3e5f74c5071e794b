/**
 * @file
 * The observability layer's contracts: trace export determinism
 * across worker counts, stat-tree snapshot/delta semantics and the
 * hierarchical JSON dump, RequestStats as a view over a named-stat
 * delta (byte-identical to reading the tree directly), the stall
 * partition invariant (causes sum to cycles on every measured
 * request, both ISAs), load stat dumps named per platform, the
 * RowSchema descriptor table, and the unified RunSpec -> RunResult
 * dispatch.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/parallel.hh"
#include "core/result_cache.hh"
#include "load/load_runner.hh"
#include "obs/stat_export.hh"
#include "obs/trace.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

// Pin the environment before any lazy singleton reads it: the
// CheckpointStore must be disabled (a warm store would let one sweep
// restore where the other boots, changing the prepare-phase spans)
// and the stat dumps must land in a scratch directory.
const char *statDumpPath = "test_obs_statdump";
const bool envReady = [] {
    setenv("SVBENCH_NO_CKPT", "1", 1);
    setenv("SVBENCH_STATDUMP", statDumpPath, 1);
    return true;
}();

FunctionSpec
specFor(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::allFunctions()) {
        if (spec.name == name)
            return spec;
    }
    ADD_FAILURE() << "unknown function " << name;
    return {};
}

/**
 * Four cheap, pairwise-distinct cluster configurations (no store
 * containers; the dbKind only varies the runner/track identity).
 * Distinct configurations mean every job gets its own fresh-booted
 * runner at ANY worker count, so the recorded prepare phases — and
 * with them the whole trace — cannot depend on SVBENCH_JOBS.
 */
std::vector<SweepJob>
traceJobList()
{
    std::vector<SweepJob> jobs;
    const FunctionSpec spec = specFor("fibonacci-go");
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (db::DbKind kind : {db::DbKind::Cassandra, db::DbKind::Mongo}) {
            ClusterConfig cfg;
            cfg.system = SystemConfig::paperConfig(isa);
            cfg.dbKind = kind;
            cfg.startDb = false;
            cfg.startMemcached = false;
            jobs.push_back({cfg, spec,
                            &workloads::workloadImpl(spec.workload)});
        }
    }
    return jobs;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

struct TempCacheFile
{
    explicit TempCacheFile(std::string p) : path(std::move(p))
    {
        std::remove(path.c_str());
    }
    ~TempCacheFile() { std::remove(path.c_str()); }
    std::string path;
};

/** Run the four-job sweep under @p jobs workers, returning the
 *  rendered trace JSON. */
std::string
sweepTrace(unsigned jobs, const std::string &cache_path)
{
    TempCacheFile file(cache_path);
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    tracer.enable("test_obs_trace.json");
    ResultCache cache(file.path);
    const auto results = parallelSweep(cache, traceJobList(), jobs);
    for (const FunctionResult &res : results)
        EXPECT_TRUE(res.ok);
    std::ostringstream os;
    tracer.render(os);
    tracer.reset();
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Tracer unit behaviour
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledTracerHandsOutBadTracks)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.track("riscv/none/fn/o3"), obs::badTrack);
    // Recording to badTrack is a no-op, not a crash.
    tracer.record(obs::badTrack, "cold", "measure", 0, 10);
    std::ostringstream os;
    tracer.render(os);
    EXPECT_EQ(os.str(), "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ns\"}\n");
}

TEST(Tracer, TracksSortByNameAndKeepAppendOrder)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.reset();
    tracer.enable("test_obs_unit_trace.json");
    const obs::TrackId b = tracer.track("bbb");
    const obs::TrackId a = tracer.track("aaa");
    ASSERT_NE(a, obs::badTrack);
    ASSERT_NE(b, obs::badTrack);
    tracer.record(b, "late", "phase", 5, 2);
    tracer.record(a, "first", "phase", 0, 3);
    tracer.record(a, "second", "phase", 3, 1);

    std::ostringstream os;
    tracer.render(os);
    const std::string json = os.str();
    tracer.reset();

    // "aaa" must serialise before "bbb" regardless of creation order,
    // and aaa's events must stay in append order.
    const size_t posA = json.find("\"aaa\"");
    const size_t posB = json.find("\"bbb\"");
    ASSERT_NE(posA, std::string::npos);
    ASSERT_NE(posB, std::string::npos);
    EXPECT_LT(posA, posB);
    EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
    // Both phase events carry the Chrome complete-event tag.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Stat snapshot / delta / JSON export
// ---------------------------------------------------------------------------

TEST(StatExport, DeltaSubtractsAndDefaultsMissingBefore)
{
    const obs::StatSnapshot before = {{"a", 10.0}, {"b", 2.0}};
    const obs::StatSnapshot after = {{"a", 25.0}, {"b", 2.0}, {"c", 7.0}};
    const obs::StatSnapshot d = obs::delta(before, after);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "a"), 15.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "b"), 0.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "c"), 7.0);
    EXPECT_DOUBLE_EQ(obs::statValue(d, "absent"), 0.0);
}

TEST(StatExport, WriteJsonNestsDottedNames)
{
    const obs::StatSnapshot snap = {
        {"system.cpu0.a", 1.0}, {"system.cpu0.b", 2.5}, {"top", 3.0}};
    std::ostringstream os;
    obs::writeJson(os, snap);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"system\": {\n"
              "    \"cpu0\": {\n"
              "      \"a\": 1,\n"
              "      \"b\": 2.5\n"
              "    }\n"
              "  },\n"
              "  \"top\": 3\n"
              "}\n");
}

TEST(StatExport, WriteCsvIsSortedAndStable)
{
    const obs::StatSnapshot snap = {{"z", 1.0}, {"a", 2.0}};
    std::ostringstream os;
    obs::writeCsv(os, snap);
    EXPECT_EQ(os.str(), "stat,value\na,2\nz,1\n");
}

TEST(StatExport, RequestStatsViewOverDelta)
{
    obs::StatSnapshot d;
    const std::string cpu = "system.cpu1.o3.";
    const std::string mem = "system.core1.";
    d[cpu + "numCycles"] = 1000;
    d[cpu + "numInsts"] = 400;
    d[cpu + "numUops"] = 500;
    d[cpu + "numBranches"] = 60;
    d[cpu + "branchMispredicts"] = 6;
    d[cpu + "itlb.misses"] = 3;
    d[cpu + "dtlb.misses"] = 4;
    d[mem + "l1i.misses"] = 11;
    d[mem + "l1d.misses"] = 12;
    d[mem + "l2.misses"] = 13;
    for (unsigned c = 0; c < numStallCauses; ++c)
        d[cpu + "stall." + stallCauseName(c)] = 100;

    const RequestStats rs = RequestStats::fromStatDelta(d, cpu, mem);
    EXPECT_EQ(rs.cycles, 1000u);
    EXPECT_EQ(rs.insts, 400u);
    EXPECT_EQ(rs.uops, 500u);
    EXPECT_DOUBLE_EQ(rs.cpi, 2.5);
    EXPECT_EQ(rs.branches, 60u);
    EXPECT_EQ(rs.branchMispredicts, 6u);
    EXPECT_EQ(rs.itlbMisses, 3u);
    EXPECT_EQ(rs.dtlbMisses, 4u);
    EXPECT_EQ(rs.l1iMisses, 11u);
    EXPECT_EQ(rs.l1dMisses, 12u);
    EXPECT_EQ(rs.l2Misses, 13u);
    EXPECT_EQ(rs.stallTotal(), 1000u);
}

// ---------------------------------------------------------------------------
// RowSchema descriptors
// ---------------------------------------------------------------------------

TEST(RowSchema, DescribesEveryModeAndRejectsUnknown)
{
    const RowSchema *o3 = RowSchema::find("o3");
    ASSERT_NE(o3, nullptr);
    EXPECT_EQ(o3->version, 2u); // v1 predates the stall-cause fields
    // 10 counters + 10 stall causes, cold and warm, plus "ok".
    EXPECT_EQ(o3->fields.size(), 41u);

    const RowSchema *emu = RowSchema::find("emu");
    ASSERT_NE(emu, nullptr);
    EXPECT_EQ(emu->fields.size(), 3u);

    const RowSchema *ldcal = RowSchema::find("ldcal");
    ASSERT_NE(ldcal, nullptr);
    EXPECT_EQ(ldcal->fields.size(), 2u + loadWarmSamples);

    ASSERT_NE(RowSchema::find("load"), nullptr);
    EXPECT_EQ(RowSchema::find("bogus"), nullptr);
}

TEST(RowSchema, CompleteDemandsExactFieldSet)
{
    const RowSchema *emu = RowSchema::find("emu");
    ASSERT_NE(emu, nullptr);
    std::map<std::string, uint64_t> row = {
        {"coldNs", 5}, {"warmNs", 3}, {"ok", 1}, {"v", emu->version}};
    EXPECT_TRUE(emu->complete(row));
    row.erase("warmNs");
    EXPECT_FALSE(emu->complete(row));
    row["warmNs"] = 3;
    row["stray"] = 1;
    EXPECT_FALSE(emu->complete(row));
}

// ---------------------------------------------------------------------------
// Measurement correctness on the real simulator
// ---------------------------------------------------------------------------

namespace
{

ClusterConfig
bareConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

/** Replicates the legacy field-by-field read of the server core's
 *  absolute stat tree (what snapshotServerCore() did before the
 *  delta-based view). */
RequestStats
legacyRead(const obs::StatSnapshot &snap)
{
    auto get = [&](const std::string &key) {
        return uint64_t(obs::statValue(snap, key));
    };
    const std::string cpu = "system.cpu1.o3.";
    const std::string mem = "system.core1.";
    RequestStats rs;
    rs.cycles = get(cpu + "numCycles");
    rs.insts = get(cpu + "numInsts");
    rs.uops = get(cpu + "numUops");
    rs.cpi = rs.insts ? double(rs.cycles) / double(rs.insts) : 0.0;
    rs.l1iMisses = get(mem + "l1i.misses");
    rs.l1dMisses = get(mem + "l1d.misses");
    rs.l2Misses = get(mem + "l2.misses");
    rs.branches = get(cpu + "numBranches");
    rs.branchMispredicts = get(cpu + "branchMispredicts");
    rs.itlbMisses = get(cpu + "itlb.misses");
    rs.dtlbMisses = get(cpu + "dtlb.misses");
    return rs;
}

void
expectStallPartition(const RequestStats &rs)
{
    EXPECT_GT(rs.cycles, 0u);
    EXPECT_EQ(rs.stallTotal(), rs.cycles);
    // Committing work must account for some of the request.
    EXPECT_GT(rs.stalls[unsigned(StallCause::Retiring)], 0u);
}

} // namespace

class ObsMeasurement : public ::testing::TestWithParam<IsaId>
{
};

TEST_P(ObsMeasurement, DeltaViewMatchesLegacyReadAndStallsPartition)
{
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("fibonacci-go");
    ExperimentRunner runner(bareConfig(GetParam()));
    const FunctionResult res =
        runner.runFunction(spec, workloads::workloadImpl(spec.workload));
    ASSERT_TRUE(res.ok);

    // The cluster stopped at the warm request's workEnd and its stats
    // were reset at that request's workBegin, so the ABSOLUTE tree
    // read the legacy way must equal the delta-derived warm view.
    const RequestStats legacy =
        legacyRead(obs::snapshot(runner.cluster().system().stats()));
    EXPECT_EQ(res.warm.cycles, legacy.cycles);
    EXPECT_EQ(res.warm.insts, legacy.insts);
    EXPECT_EQ(res.warm.uops, legacy.uops);
    EXPECT_DOUBLE_EQ(res.warm.cpi, legacy.cpi);
    EXPECT_EQ(res.warm.l1iMisses, legacy.l1iMisses);
    EXPECT_EQ(res.warm.l1dMisses, legacy.l1dMisses);
    EXPECT_EQ(res.warm.l2Misses, legacy.l2Misses);
    EXPECT_EQ(res.warm.branches, legacy.branches);
    EXPECT_EQ(res.warm.branchMispredicts, legacy.branchMispredicts);
    EXPECT_EQ(res.warm.itlbMisses, legacy.itlbMisses);
    EXPECT_EQ(res.warm.dtlbMisses, legacy.dtlbMisses);

    // The stall taxonomy partitions every measured request's cycles.
    expectStallPartition(res.cold);
    expectStallPartition(res.warm);
}

INSTANTIATE_TEST_SUITE_P(BothIsas, ObsMeasurement,
                         ::testing::Values(IsaId::Riscv, IsaId::Cx86),
                         [](const auto &info) {
                             return info.param == IsaId::Riscv ? "riscv"
                                                               : "x86";
                         });

// ---------------------------------------------------------------------------
// Golden determinism across worker counts
// ---------------------------------------------------------------------------

TEST(ObsDeterminism, TraceAndStatDumpsIdenticalAcrossJobs)
{
    ASSERT_TRUE(envReady);
    const std::string dumpFile = std::string(statDumpPath) +
                                 "/riscv64_cassandra00_fibonacci-go_o3" +
                                 ".warm.json";

    const std::string serial = sweepTrace(1, "test_obs_cache1.csv");
    const std::string serialDump = slurp(dumpFile);
    const std::string parallel = sweepTrace(4, "test_obs_cache4.csv");
    const std::string parallelDump = slurp(dumpFile);

    // The whole trace file and the per-request stat dump are
    // byte-identical whichever worker count produced them.
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    ASSERT_FALSE(serialDump.empty());
    EXPECT_EQ(serialDump, parallelDump);

    // Spot-check the span vocabulary: prepare phases, the semantic
    // cold/warm measurement spans, and the per-request spans from the
    // cluster's m5 plumbing.
    for (const char *needle :
         {"\"boot\"", "\"container-start\"", "\"settle\"", "\"cold\"",
          "\"warming\"", "\"warm\"", "\"request#1\"", "\"request#10\"",
          "riscv64/cassandra00/fibonacci-go/o3",
          "cx86-64/mongodb00/fibonacci-go/o3"}) {
        EXPECT_NE(serial.find(needle), std::string::npos)
            << "trace is missing " << needle;
    }
}

TEST(LoadStatDump, OneScenarioNameOnTwoIsasWritesTwoDumps)
{
    // The load view's stat dumps are named after the scenario's trace
    // track, so the same scenario name swept on two platforms writes
    // two files instead of the last writer overwriting the first.
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("fibonacci-go");
    std::vector<load::LoadScenario> scenarios;
    std::vector<std::string> dumps;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        load::LoadScenario s;
        s.name = "t-dump";
        s.cluster.system = SystemConfig::paperConfig(isa);
        s.cluster.startDb = false;
        s.cluster.startMemcached = false;
        s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
        s.arrival.ratePerSec = 400.0;
        s.invocations = 200;
        s.seed = 77;
        // A concurrency limit it never reaches engages the fleet
        // machinery, and with it the "fleet" stat group.
        s.fleet.fnConcurrencyLimit = 64;
        scenarios.push_back(s);
        dumps.push_back(std::string(statDumpPath) + "/" + isaName(isa) +
                        "_cassandra00_t-dump_load.fleet");
    }
    auto removeDumps = [&dumps] {
        for (const std::string &stem : dumps) {
            std::remove((stem + ".csv").c_str());
            std::remove((stem + ".json").c_str());
        }
    };
    removeDumps();

    TempCacheFile file("test_obs_load_statdump.csv");
    ResultCache cache(file.path);
    const std::vector<load::LoadResult> results =
        load::loadSweep(cache, scenarios, 2);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[0].ok && results[1].ok);

    const std::string riscv = slurp(dumps[0] + ".csv");
    const std::string x86 = slurp(dumps[1] + ".csv");
    EXPECT_NE(riscv.find("node0.busyNs,"), std::string::npos) << dumps[0];
    EXPECT_NE(x86.find("node0.busyNs,"), std::string::npos) << dumps[1];
    // Each platform keeps its own counters.
    EXPECT_NE(riscv, x86);
    removeDumps();
}

// ---------------------------------------------------------------------------
// Unified RunSpec dispatch
// ---------------------------------------------------------------------------

TEST(RunApi, RunnerDispatchesEveryMode)
{
    ASSERT_TRUE(envReady);
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    RunSpec rs;
    rs.spec = spec;
    rs.impl = &impl;
    rs.platform = bareConfig(IsaId::Riscv);

    ExperimentRunner runner(rs.platform);
    rs.mode = RunMode::Emu;
    const RunResult emu = runner.run(rs);
    ASSERT_TRUE(std::holds_alternative<EmuResult>(emu));
    EXPECT_TRUE(runResultOk(emu));
    EXPECT_GT(std::get<EmuResult>(emu).coldNs, 0u);

    rs.mode = RunMode::LoadCal;
    const RunResult cal = runner.run(rs);
    ASSERT_TRUE(std::holds_alternative<LoadCalibration>(cal));
    EXPECT_TRUE(runResultOk(cal));
}

TEST(RunApi, CacheRunMemoisesByModeKey)
{
    ASSERT_TRUE(envReady);
    TempCacheFile file("test_obs_runapi.csv");
    ResultCache cache(file.path);
    const FunctionSpec spec = specFor("fibonacci-go");

    RunSpec rs;
    rs.mode = RunMode::Emu;
    rs.spec = spec;
    rs.impl = &workloads::workloadImpl(spec.workload);
    rs.platform = bareConfig(IsaId::Riscv);

    const RunResult first = cache.run(rs);
    ASSERT_TRUE(std::holds_alternative<EmuResult>(first));
    ASSERT_TRUE(runResultOk(first));

    // A second identical request must come from the CSV row, and the
    // row key must carry the mode tag the schema table knows.
    const RunResult second = cache.run(rs);
    EXPECT_EQ(std::get<EmuResult>(first).coldNs,
              std::get<EmuResult>(second).coldNs);
    EXPECT_EQ(std::get<EmuResult>(first).warmNs,
              std::get<EmuResult>(second).warmNs);
    const std::string key =
        cache.rowKey(rs.platform, rs.spec.name, runModeName(rs.mode));
    EXPECT_NE(key.find(",emu"), std::string::npos);
    std::map<std::string, uint64_t> row;
    ASSERT_TRUE(cache.lookupRow(key, row));
    EXPECT_EQ(row.at("v"), RowSchema::find("emu")->version);
}
