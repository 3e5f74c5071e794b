/**
 * @file
 * The parallel experiment scheduler's determinism contract: a sweep
 * run with SVBENCH_JOBS=4 must produce byte-identical results and an
 * identical CSV cache to a serial run, and concurrent ResultCache
 * access must never duplicate a simulation or tear a row.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/parallel.hh"
#include "workloads/workloads.hh"

using namespace svb;

namespace
{

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

ClusterConfig
config(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

std::vector<SweepJob>
smallJobList()
{
    // Two functions x two ISAs: enough jobs to occupy four workers.
    std::vector<SweepJob> jobs;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (const char *fn : {"fibonacci-go", "aes-go"}) {
            const FunctionSpec spec = specFor(fn);
            jobs.push_back({config(isa), spec,
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

/** RAII cache backing file that never collides with the shared one. */
struct TempCacheFile
{
    explicit TempCacheFile(std::string p) : path(std::move(p))
    {
        std::remove(path.c_str());
    }
    ~TempCacheFile() { std::remove(path.c_str()); }
    std::string path;
};

void
expectSameResult(const FunctionResult &a, const FunctionResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.ok, b.ok);
    for (auto field : {&RequestStats::cycles, &RequestStats::insts,
                       &RequestStats::uops, &RequestStats::l1iMisses,
                       &RequestStats::l1dMisses, &RequestStats::l2Misses,
                       &RequestStats::branches,
                       &RequestStats::branchMispredicts,
                       &RequestStats::itlbMisses,
                       &RequestStats::dtlbMisses}) {
        EXPECT_EQ(a.cold.*field, b.cold.*field);
        EXPECT_EQ(a.warm.*field, b.warm.*field);
    }
}

} // namespace

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
    // The pool stays usable after wait().
    pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPool, DefaultJobsHonoursEnvVar)
{
    setenv("SVBENCH_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    unsetenv("SVBENCH_JOBS");
    EXPECT_GE(ThreadPool::defaultJobs(), 1u);
}

TEST(ParallelSweep, MatchesSerialResultsAndCacheBytes)
{
    const auto jobs = smallJobList();

    // Reference: the strictly-serial path (direct ResultCache::run()
    // calls on a single thread).
    TempCacheFile serial_file("test_parallel_serial.csv");
    std::vector<FunctionResult> serial;
    {
        ResultCache cache(serial_file.path);
        for (const SweepJob &job : jobs)
            serial.push_back(std::get<FunctionResult>(cache.run(
                {RunMode::Detailed, job.spec, job.impl, job.cfg, {}})));
    }

    // Same sweep through the scheduler with four workers.
    TempCacheFile par_file("test_parallel_jobs4.csv");
    std::vector<FunctionResult> parallel;
    {
        ResultCache cache(par_file.path);
        parallel = parallelSweep(cache, jobs, 4);
    }

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        expectSameResult(serial[i], parallel[i]);

    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));
}

TEST(ParallelSweep, SecondRunIsAllCacheHits)
{
    const auto jobs = smallJobList();
    TempCacheFile file("test_parallel_rerun.csv");
    ResultCache cache(file.path);
    const auto first = parallelSweep(cache, jobs, 2);
    const std::string csv_after_first = slurp(file.path);
    const auto second = parallelSweep(cache, jobs, 2);
    // No re-measurement: the CSV did not grow.
    EXPECT_EQ(csv_after_first, slurp(file.path));
    for (size_t i = 0; i < first.size(); ++i)
        expectSameResult(first[i], second[i]);
}

TEST(ParallelSweep, DuplicateJobsSimulateOnce)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const std::vector<SweepJob> jobs(4,
                                     {config(IsaId::Riscv), spec, &impl});

    TempCacheFile file("test_parallel_dup.csv");
    ResultCache cache(file.path);
    const auto results = parallelSweep(cache, jobs, 4);

    std::istringstream is(slurp(file.path));
    std::string line;
    size_t rows = 0;
    while (std::getline(is, line))
        ++rows;
    EXPECT_EQ(rows, 1u);
    for (size_t i = 1; i < results.size(); ++i)
        expectSameResult(results[0], results[i]);
}

TEST(ResultCache, ConcurrentDetailedRunsKeyOnce)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = config(IsaId::Riscv);

    TempCacheFile file("test_parallel_racing.csv");
    ResultCache cache(file.path);

    std::vector<FunctionResult> results(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
        threads.emplace_back([&, t] {
            results[t] = std::get<FunctionResult>(
                cache.run({RunMode::Detailed, spec, &impl, cfg, {}}));
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (const FunctionResult &res : results) {
        EXPECT_TRUE(res.ok);
        expectSameResult(results[0], res);
    }

    // Exactly one row, not torn: it parses and carries every field a
    // serial run writes (20 cold + 20 warm stats — 10 counters plus
    // 10 stall causes each — + ok + schema version).
    std::istringstream is(slurp(file.path));
    std::string line, extra;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_FALSE(std::getline(is, extra));
    size_t fields = 0;
    std::istringstream ls(line);
    std::string tok;
    ASSERT_TRUE(std::getline(ls, tok, '|')); // the key
    EXPECT_NE(tok.find("fibonacci-go"), std::string::npos);
    while (std::getline(ls, tok, '|')) {
        EXPECT_NE(tok.find('='), std::string::npos) << tok;
        ++fields;
    }
    EXPECT_EQ(fields, 42u);
}
