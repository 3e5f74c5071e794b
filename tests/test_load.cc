/**
 * @file
 * The invocation-load subsystem's contracts:
 *  - arrival generators are deterministic per substream, independent
 *    of how streams are partitioned across SVBENCH_JOBS workers;
 *  - the instance pool implements each keep-alive policy's cold/warm
 *    and eviction semantics;
 *  - loadSweep() produces byte-identical results and CSV rows at any
 *    worker count, with the cold path exercised under load, and the
 *    memoised sweeps print their progress lines in the one-worker
 *    order at any worker count;
 *  - the new ResultCache row modes ("ldcal", "load") round-trip, and
 *    rows of unknown modes or stale schema versions are skipped, not
 *    misparsed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/checkpoint_store.hh"
#include "core/parallel.hh"
#include "load/load_runner.hh"
#include "workloads/workloads.hh"

using namespace svb;
using namespace svb::load;

namespace
{

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

struct TempCheckpointDir
{
    explicit TempCheckpointDir(std::string d) : dir(std::move(d))
    {
        std::filesystem::remove_all(dir);
        CheckpointStore::global().resetForTest(dir);
    }
    ~TempCheckpointDir()
    {
        std::filesystem::remove_all(dir);
        CheckpointStore::global().resetForTest(dir);
    }
    std::string dir;
};

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
standaloneConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

LoadScenario
smallScenario(const std::string &name, KeepAlivePolicy policy)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    LoadScenario s;
    s.name = name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 400.0;
    s.pool.policy = policy;
    s.pool.maxInstances = 4;
    s.pool.keepAliveNs = 2'000'000; // 2 ms: forces TTL expiries
    s.invocations = 400;
    s.seed = 77;
    return s;
}

/** Everything written to std::cout while @p body runs. */
template <class Fn>
std::string
captureStdout(Fn &&body)
{
    std::ostringstream os;
    std::streambuf *const saved = std::cout.rdbuf(os.rdbuf());
    body();
    std::cout.rdbuf(saved);
    return os.str();
}

} // namespace

// --------------------------------------------------------------------------
// Arrival generators
// --------------------------------------------------------------------------

TEST(Arrival, UniformGapIsExact)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Uniform;
    cfg.ratePerSec = 1000.0; // 1 ms gaps
    const auto times = ArrivalProcess::generate(cfg, Rng(1).split(0), 5);
    ASSERT_EQ(times.size(), 5u);
    for (size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], (i + 1) * 1'000'000u);
}

TEST(Arrival, PoissonIsMonotoneAndHitsTheMeanRate)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerSec = 500.0;
    const size_t n = 20'000;
    const auto times = ArrivalProcess::generate(cfg, Rng(2).split(0), n);
    for (size_t i = 1; i < n; ++i)
        ASSERT_GT(times[i], times[i - 1]);
    // Long-run rate within 5% of the configured one.
    const double secs = double(times.back()) * 1e-9;
    const double rate = double(n) / secs;
    EXPECT_NEAR(rate, cfg.ratePerSec, cfg.ratePerSec * 0.05);
}

TEST(Arrival, BurstPreservesTheAverageRate)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Burst;
    cfg.ratePerSec = 200.0;
    cfg.burstFactor = 5.0;
    cfg.burstDuty = 0.1;
    cfg.burstPeriodNs = 100'000'000;
    const size_t n = 20'000;
    const auto times = ArrivalProcess::generate(cfg, Rng(3).split(0), n);
    const double rate = double(n) / (double(times.back()) * 1e-9);
    EXPECT_NEAR(rate, cfg.ratePerSec, cfg.ratePerSec * 0.10);
    for (size_t i = 1; i < n; ++i)
        ASSERT_GT(times[i], times[i - 1]);
}

TEST(Arrival, SubstreamsIdenticalAtAnyWorkerCount)
{
    // The satellite contract for sim/rng split(): per-stream arrival
    // sequences depend only on (seed, streamId) — partitioning the
    // streams across 1 or 8 pool workers changes nothing.
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Poisson;
    cfg.ratePerSec = 250.0;
    const Rng master(0xfeed);
    constexpr size_t streams = 16;

    auto runWith = [&](unsigned jobs) {
        return parallelIndexed<std::vector<uint64_t>>(
            streams,
            [&](size_t id) {
                return ArrivalProcess::generate(cfg, master.split(id),
                                                200);
            },
            jobs);
    };
    const auto serial = runWith(1);
    const auto wide = runWith(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < streams; ++i)
        EXPECT_EQ(serial[i], wide[i]) << "stream " << i;
    // And distinct streams really are distinct.
    EXPECT_NE(serial[0], serial[1]);
}

// --------------------------------------------------------------------------
// Instance pool policies
// --------------------------------------------------------------------------

TEST(InstancePool, AlwaysColdNeverReuses)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::AlwaysCold;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);
    uint64_t t = 0;
    for (int i = 0; i < 10; ++i) {
        t += 1000;
        const auto pl = pool.acquire(0, t);
        EXPECT_TRUE(pl.cold);
        pool.release(pl.slot, t + 100);
    }
    EXPECT_EQ(pool.stats().coldStarts, 10u);
    EXPECT_EQ(pool.stats().warmHits, 0u);
    EXPECT_EQ(pool.liveInstances(), 0u);
}

TEST(InstancePool, AlwaysWarmNeverPaysTheColdPath)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::AlwaysWarm;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);
    uint64_t t = 0;
    for (uint32_t fn = 0; fn < 4; ++fn) { // more functions than slots
        t += 1000;
        const auto pl = pool.acquire(fn, t);
        EXPECT_FALSE(pl.cold);
        pool.release(pl.slot, t + 100);
    }
    EXPECT_EQ(pool.stats().coldStarts, 0u);
    EXPECT_EQ(pool.stats().warmHits, 4u);
}

TEST(InstancePool, FixedTtlEvictsIdleInstances)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 4;
    cfg.keepAliveNs = 1000;
    InstancePool pool(cfg);

    auto pl = pool.acquire(0, 0);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 100);

    // Within the TTL: warm.
    pl = pool.acquire(0, 600);
    EXPECT_FALSE(pl.cold);
    pool.release(pl.slot, 700);

    // Idle past the TTL: evicted, cold again.
    pl = pool.acquire(0, 5000);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 5100);

    EXPECT_EQ(pool.stats().coldStarts, 2u);
    EXPECT_EQ(pool.stats().warmHits, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(InstancePool, FixedTtlBoundaryIsInclusive)
{
    // Regression: expireIdle() used a strict `>` comparison, so a
    // request arriving when the idle time EQUALED keepAliveNs was
    // served warm by an instance the platform had already torn down
    // at that deadline. The TTL is inclusive: exactly-at-boundary is
    // an eviction and a cold start.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 1;
    cfg.keepAliveNs = 1000;
    InstancePool pool(cfg);

    auto pl = pool.acquire(0, 0);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 700); // idle from t=700

    // One tick before the deadline: still warm.
    pl = pool.acquire(0, 700 + cfg.keepAliveNs - 1);
    EXPECT_FALSE(pl.cold);
    pool.release(pl.slot, 1700); // idle from t=1700

    // Exactly at the deadline: evicted, cold.
    pl = pool.acquire(0, 1700 + cfg.keepAliveNs);
    EXPECT_TRUE(pl.cold);
    pool.release(pl.slot, 2800);

    EXPECT_EQ(pool.stats().coldStarts, 2u);
    EXPECT_EQ(pool.stats().warmHits, 1u);
    EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(InstancePool, LruEvictsTheLeastRecentlyUsedUnderPressure)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::Lru;
    cfg.maxInstances = 2;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0); // cold, slot for fn 0
    pool.release(a.slot, 10);
    auto b = pool.acquire(1, 100); // cold, slot for fn 1
    pool.release(b.slot, 110);

    // fn 0 again: warm (still resident).
    auto c = pool.acquire(0, 200);
    EXPECT_FALSE(c.cold);
    pool.release(c.slot, 210);

    // fn 2 needs a slot: evicts fn 1 (least recently used), cold
    // start. fn 0 — more recently used — survives.
    auto d = pool.acquire(2, 300);
    EXPECT_TRUE(d.cold);
    pool.release(d.slot, 310);
    EXPECT_EQ(pool.stats().evictions, 1u);

    auto e = pool.acquire(0, 400);
    EXPECT_FALSE(e.cold);
    pool.release(e.slot, 410);

    // fn 1 was the victim, so it is cold again — and its slot comes
    // from evicting fn 2, now the least recently used.
    auto f = pool.acquire(1, 500);
    EXPECT_TRUE(f.cold);
    pool.release(f.slot, 510);
    EXPECT_EQ(pool.stats().evictions, 2u);
}

TEST(InstancePool, RecycledSlotsDoNotInheritStaleTimes)
{
    // Regression: step-3/step-4 eviction used to leave the victim's
    // lastUsedNs/busyUntilNs from its previous tenant, so a recycled
    // slot could look "recently used" (or still busy) to TTL expiry
    // before its first request even completed.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::Lru;
    cfg.maxInstances = 1;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0);
    pool.release(a.slot, 9'000'000); // fn 0 busy until t=9ms

    // fn 1 at t=10ms: evicts fn 0's idle instance (step 3). The
    // recycled slot's times must reflect the new tenant's start, not
    // the victim's history.
    auto b = pool.acquire(1, 10'000'000);
    EXPECT_TRUE(b.cold);
    EXPECT_EQ(pool.stats().evictions, 1u);
    EXPECT_EQ(pool.slotLastUsedNs(b.slot), 10'000'000u);
    EXPECT_EQ(pool.slotBusyUntilNs(b.slot), 10'000'000u);
    pool.release(b.slot, 11'000'000);

    // Step 4 (all slots busy, queue behind the earliest-free one for
    // a different function): same contract at the queued start time.
    auto c = pool.acquire(0, 10'500'000);
    EXPECT_TRUE(c.cold);
    EXPECT_EQ(c.startNs, 11'000'000u);
    EXPECT_EQ(pool.slotLastUsedNs(c.slot), 11'000'000u);
    EXPECT_EQ(pool.slotBusyUntilNs(c.slot), 11'000'000u);
    pool.release(c.slot, 12'000'000);
}

TEST(InstancePool, QueuesWhenEverySlotIsBusy)
{
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 1;
    cfg.keepAliveNs = 1'000'000;
    InstancePool pool(cfg);

    auto a = pool.acquire(0, 0);
    EXPECT_TRUE(a.cold);
    pool.release(a.slot, 10'000); // busy until t=10000

    // Arrives at t=100 while the only slot is busy: queued behind it,
    // warm (same function keeps the instance resident).
    auto b = pool.acquire(0, 100);
    EXPECT_FALSE(b.cold);
    EXPECT_EQ(b.startNs, 10'000u);
    pool.release(b.slot, 20'000);
}

TEST(InstancePool, SameTimestampAcquiresNeverDoubleBookASlot)
{
    // Regression: acquire() used to leave busyUntilNs untouched until
    // the matching release(), so a second arrival at the same
    // timestamp saw the just-handed-out slot as "warm idle" and
    // double-booked it. The reservation flag makes concurrent
    // same-timestamp acquires land on distinct slots.
    PoolConfig cfg;
    cfg.policy = KeepAlivePolicy::FixedTtl;
    cfg.maxInstances = 2;
    cfg.keepAliveNs = 1'000'000'000;
    InstancePool pool(cfg);

    // Warm both slots up for function 0 and let them go idle.
    auto a = pool.acquire(0, 0);
    auto b = pool.acquire(0, 0);
    EXPECT_NE(a.slot, b.slot);
    pool.release(a.slot, 1'000);
    pool.release(b.slot, 1'000);

    // Two arrivals at the same instant: both are warm hits, but they
    // must occupy the two distinct instances, not stack up on the MRU
    // one as impossible parallel work.
    auto c = pool.acquire(0, 10'000);
    auto d = pool.acquire(0, 10'000);
    EXPECT_FALSE(c.cold);
    EXPECT_FALSE(d.cold);
    EXPECT_NE(c.slot, d.slot);
    EXPECT_EQ(c.startNs, 10'000u);
    EXPECT_EQ(d.startNs, 10'000u);

    // A third same-instant arrival queues behind the earliest release
    // rather than stealing a reserved slot.
    pool.release(c.slot, 30'000);
    pool.release(d.slot, 40'000);
    auto e = pool.acquire(0, 10'000);
    EXPECT_EQ(e.startNs, 30'000u);
}

TEST(InstancePool, ReleaseWithoutAcquireDies)
{
    PoolConfig cfg;
    cfg.maxInstances = 1;
    InstancePool pool(cfg);
    EXPECT_DEATH(pool.release(0, 100), "not acquired");
}

// --------------------------------------------------------------------------
// Histogram bucket bounds near the top of the value range
// --------------------------------------------------------------------------

TEST(Histogram, BucketBoundsContainTheirValuesUpToUint64Max)
{
    // Regression: bucketLow/bucketHigh in the top octave used to be
    // computed with an unguarded shift, so bounds near 2^63 could
    // wrap; they must bracket their value for the whole uint64 range.
    const uint64_t probes[] = {
        1,
        LatencyHistogram::kSubBuckets - 1,
        LatencyHistogram::kSubBuckets,
        (uint64_t(1) << 62) + 12345,
        (uint64_t(1) << 63) - 1,
        uint64_t(1) << 63,
        (uint64_t(1) << 63) + 0x3039,
        ~uint64_t(0),
    };
    for (uint64_t v : probes) {
        const size_t idx = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(idx, LatencyHistogram::numBuckets()) << v;
        EXPECT_LE(LatencyHistogram::bucketLow(idx), v) << v;
        EXPECT_GE(LatencyHistogram::bucketHigh(idx), v) << v;
    }

    // The layout is contiguous (no gaps, no wrap-induced overlap) and
    // the top bucket saturates exactly at UINT64_MAX.
    for (size_t i = 0; i + 1 < LatencyHistogram::numBuckets(); ++i) {
        ASSERT_LE(LatencyHistogram::bucketLow(i),
                  LatencyHistogram::bucketHigh(i)) << i;
        ASSERT_EQ(LatencyHistogram::bucketHigh(i) + 1,
                  LatencyHistogram::bucketLow(i + 1)) << i;
    }
    EXPECT_EQ(
        LatencyHistogram::bucketHigh(LatencyHistogram::numBuckets() - 1),
        ~uint64_t(0));
}

TEST(Histogram, PercentileIsNeverTinyForHugeLatencies)
{
    // Regression: an unguarded shift could wrap a top-octave bucket
    // bound to a tiny value, so percentile() reported nanoseconds for
    // multi-century latencies. The reported value must always be at
    // or above the true order statistic, within one bucket width.
    const uint64_t big = (uint64_t(1) << 63) + 0x3039;
    LatencyHistogram h;
    h.record(100);
    h.record(big);
    EXPECT_EQ(h.maxValue(), big);
    EXPECT_GE(h.percentile(99.0), big);
    EXPECT_LE(h.percentile(99.0),
              LatencyHistogram::bucketHigh(
                  LatencyHistogram::bucketIndex(big)));

    // In the very top bucket the inclusive bound saturates to
    // UINT64_MAX; the exact recorded maximum is reported instead.
    const uint64_t huge = ~uint64_t(0) - 5;
    LatencyHistogram h2;
    h2.record(100);
    h2.record(huge);
    EXPECT_EQ(h2.percentile(99.0), huge);
    EXPECT_EQ(h2.percentile(100.0), huge);
}

// --------------------------------------------------------------------------
// Load sweep over the simulated cluster
// --------------------------------------------------------------------------

TEST(LoadSweep, DeterministicAcrossWorkerCountsAndExercisesColdPath)
{
    TempCheckpointDir ckpts("ckpt_load_sweep");

    const std::vector<LoadScenario> scenarios = {
        smallScenario("t-ttl", KeepAlivePolicy::FixedTtl),
        smallScenario("t-warm", KeepAlivePolicy::AlwaysWarm),
        smallScenario("t-cold", KeepAlivePolicy::AlwaysCold),
    };

    TempCacheFile serial_file("test_load_serial.csv");
    std::vector<LoadResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = loadSweep(cache, scenarios, 1);
    }

    TempCacheFile par_file("test_load_jobs8.csv");
    std::vector<LoadResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = loadSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        // Byte-identical histograms and cold-start counts.
        EXPECT_TRUE(serial[i].latency == wide[i].latency);
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint);
        EXPECT_EQ(serial[i].coldStarts, wide[i].coldStarts);
        EXPECT_EQ(serial[i].p99Ns, wide[i].p99Ns);
        EXPECT_EQ(serial[i].invocations, serial[i].latency.count());
    }

    // The CSV backing file too (ldcal + load rows, submission order).
    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));

    // The keep-alive policy decides how often the cold path is paid.
    const LoadResult &ttl = serial[0];
    const LoadResult &warm = serial[1];
    const LoadResult &cold = serial[2];
    EXPECT_GT(ttl.coldStarts, 0u);
    EXPECT_LT(ttl.coldStarts, ttl.invocations);
    EXPECT_EQ(warm.coldStarts, 0u);
    EXPECT_EQ(cold.coldStarts, cold.invocations);
    // Mixing cold and warm invocations separates the tail from the
    // median: the cold path is really exercised under load.
    EXPECT_GT(ttl.p99Ns, ttl.p50Ns);
    // Warm-only traffic is strictly faster at the median than
    // cold-only traffic.
    EXPECT_LT(warm.p50Ns, cold.p50Ns);
}

TEST(LoadSweep, SecondSweepIsAllCacheHits)
{
    TempCheckpointDir ckpts("ckpt_load_rerun");
    const std::vector<LoadScenario> scenarios = {
        smallScenario("t-rerun", KeepAlivePolicy::FixedTtl)};

    TempCacheFile file("test_load_rerun.csv");
    ResultCache cache(file.path);
    const auto first = loadSweep(cache, scenarios, 2);
    const std::string csv_after_first = slurp(file.path);
    const auto second = loadSweep(cache, scenarios, 2);
    EXPECT_EQ(csv_after_first, slurp(file.path));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first[0].coldStarts, second[0].coldStarts);
    EXPECT_EQ(first[0].p99Ns, second[0].p99Ns);
    EXPECT_EQ(first[0].histoFingerprint, second[0].histoFingerprint);
    // A cache-hit result carries the summary but not the buckets.
    EXPECT_EQ(second[0].latency.count(), 0u);
    EXPECT_TRUE(second[0].ok);
}

TEST(LoadSweep, ScenarioNamesWithCacheMetacharactersDie)
{
    // The scenario name is a CSV row-key component: ',' separates key
    // fields, '|' separates row fields, '=' separates field values. A
    // name containing any of them would corrupt the backing file, so
    // both entry points reject it up front.
    TempCacheFile file("test_load_badname.csv");
    for (const char *bad : {"a,b", "a|b", "a=b", ""}) {
        LoadScenario s = smallScenario("placeholder",
                                       KeepAlivePolicy::FixedTtl);
        s.name = bad;
        EXPECT_DEATH(
            {
                ResultCache cache(file.path);
                LoadRunner(cache).run(s);
            },
            "metacharacter|empty name")
            << "name: '" << bad << "'";
        EXPECT_DEATH(
            {
                ResultCache cache(file.path);
                loadSweep(cache, {s}, 1);
            },
            "metacharacter|empty name")
            << "name: '" << bad << "'";
    }
}

TEST(SweepProgress, FourWorkersPrintTheOneWorkerLinesInOrder)
{
    // Progress lines are announced from the calling thread before the
    // misses fan out, so their order is the one-worker compute order
    // (submission order) at any worker count.
    TempCheckpointDir ckpts("ckpt_load_progress");
    const FunctionSpec fib = specFor("fibonacci-go");
    const FunctionSpec aes = specFor("aes-go");
    const WorkloadImpl &fibImpl = workloads::workloadImpl(fib.workload);
    const WorkloadImpl &aesImpl = workloads::workloadImpl(aes.workload);

    const std::vector<SweepJob> jobs = {
        {standaloneConfig(IsaId::Riscv), fib, &fibImpl},
        {standaloneConfig(IsaId::Riscv), aes, &aesImpl},
        {standaloneConfig(IsaId::Cx86), fib, &fibImpl},
        // A duplicate simulates, and prints, once.
        {standaloneConfig(IsaId::Riscv), fib, &fibImpl},
    };

    LoadScenario pair = smallScenario("t-progress-rv",
                                      KeepAlivePolicy::FixedTtl);
    pair.mix.push_back({aes, &aesImpl, 1.0});
    LoadScenario x86 = smallScenario("t-progress-x86",
                                     KeepAlivePolicy::FixedTtl);
    x86.cluster = standaloneConfig(IsaId::Cx86);
    const std::vector<LoadScenario> scenarios = {pair, x86};

    auto progress = [&](unsigned workers) {
        TempCacheFile file("test_load_progress_j" + std::to_string(workers) +
                           ".csv");
        ResultCache cache(file.path);
        return captureStdout([&] {
            parallelSweep(cache, jobs, workers);
            loadSweep(cache, scenarios, workers);
        });
    };
    const std::string serial = progress(1);
    EXPECT_EQ(serial,
              "info: measuring fibonacci-go on riscv64 (detailed O3, "
              "cold+warm)...\n"
              "info: measuring aes-go on riscv64 (detailed O3, "
              "cold+warm)...\n"
              "info: measuring fibonacci-go on cx86-64 (detailed O3, "
              "cold+warm)...\n"
              "info: calibrating fibonacci-go on riscv64 for load (cold + 4 "
              "warm samples)...\n"
              "info: calibrating aes-go on riscv64 for load (cold + 4 warm "
              "samples)...\n"
              "info: calibrating fibonacci-go on cx86-64 for load (cold + 4 "
              "warm samples)...\n");
    EXPECT_EQ(progress(4), serial);
}

// --------------------------------------------------------------------------
// Engine golden: every resilience and fleet feature on fixed calibrations
// --------------------------------------------------------------------------

TEST(LoadEngineGolden, MixedClassFleetWithFaultsRetriesAndNodeCrash)
{
    // A 3-function weighted mix on a 4-node RISC-V + x86 fleet with the
    // moderate fault preset, 3 attempts under a client timeout, the
    // breaker, the autoscaler, a concurrency limit and one node crash.
    // Calibrations are written straight into the cache, so the pins
    // below depend on the event engine alone.
    LoadScenario s;
    s.name = "t-golden";
    s.cluster = standaloneConfig(IsaId::Riscv);
    const char *fns[] = {"fibonacci-go", "aes-go", "auth-go"};
    const double weights[] = {3.0, 2.0, 1.0};
    for (int m = 0; m < 3; ++m) {
        const FunctionSpec spec = specFor(fns[m]);
        s.mix.push_back(
            {spec, &workloads::workloadImpl(spec.workload), weights[m]});
    }
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 4'000.0;
    s.pool.maxInstances = 3;
    s.pool.keepAliveNs = 20'000'000;
    s.fault = defaultFaultPreset();
    s.retry.maxAttempts = 3;
    s.retry.timeoutNs = 6'000'000;
    s.retry.backoffBaseNs = 200'000;
    s.retry.backoffCapNs = 2'000'000;
    s.breaker.enabled = true;
    s.breaker.failureThreshold = 2;
    s.breaker.openCooldownNs = 2'000'000;
    NodeClass rv;
    rv.name = "rv";
    rv.watts = 5.0;
    NodeClass x86 = NodeClass::forIsa("x86", IsaId::Cx86);
    x86.speedFactor = 0.8;
    x86.costPerHour = 2.0;
    s.fleet.spec.groups = {{rv, 2}, {x86, 2}};
    s.fleet.routing = RoutingPolicy::PowerOfTwo;
    s.fleet.fnConcurrencyLimit = 10;
    s.fleet.autoscaler.enabled = true;
    s.fleet.autoscaler.minNodes = 1;
    s.fleet.autoscaler.evalPeriodNs = 2'000'000;
    s.fleet.autoscaler.targetInFlightPerNode = 2.0;
    s.fleet.autoscaler.scaleUpLagNs = 1'000'000;
    s.fleet.autoscaler.scaleDownIdleNs = 20'000'000;
    NodeFaultEvent crash;
    crash.node = 0;
    crash.atNs = 150'000'000;
    crash.durationNs = 50'000'000;
    s.fleet.nodeFaults.push_back(crash);
    s.invocations = 3'000;
    s.seed = 0x901d;

    TempCacheFile file("test_load_golden.csv");
    {
        ResultCache cache(file.path);
        const std::vector<ClusterConfig> clusters =
            calibrationClusters(s.cluster, s.fleet);
        ASSERT_EQ(clusters.size(), 2u);
        for (size_t g = 0; g < clusters.size(); ++g) {
            for (size_t m = 0; m < s.mix.size(); ++m) {
                LoadCalibration cal;
                cal.name = s.mix[m].spec.name;
                cal.coldNs = 2'500'000 + 300'000 * m + 900'000 * g;
                for (unsigned k = 0; k < loadWarmSamples; ++k)
                    cal.warmNs[k] = 180'000 + 20'000 * m + 60'000 * g +
                                    5'000 * k;
                cal.ok = true;
                cache.recordRow(
                    cache.rowKey(clusters[g], s.mix[m].spec.name, "ldcal"),
                    packRunResult(cal));
            }
        }
    }
    ResultCache cache(file.path);
    for (const ClusterConfig &c : calibrationClusters(s.cluster, s.fleet)) {
        for (const LoadMixEntry &e : s.mix) {
            std::map<std::string, uint64_t> row;
            ASSERT_TRUE(
                cache.lookupRow(cache.rowKey(c, e.spec.name, "ldcal"), row));
        }
    }
    const LoadResult r = LoadRunner(cache).run(s);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.succeeded + r.failedInvocations + r.sheds, r.invocations);

    const std::vector<std::pair<const char *, uint64_t>> got = {
        {"coldStarts", r.coldStarts},
        {"warmHits", r.warmHits},
        {"evictions", r.evictions},
        {"p50Ns", r.p50Ns},
        {"p90Ns", r.p90Ns},
        {"p99Ns", r.p99Ns},
        {"p999Ns", r.p999Ns},
        {"maxNs", r.maxNs},
        {"throughputMrps", uint64_t(std::llround(r.throughputRps * 1e3))},
        {"histoFingerprint", r.histoFingerprint},
        {"succeeded", r.succeeded},
        {"failedInvocations", r.failedInvocations},
        {"sheds", r.sheds},
        {"retries", r.retries},
        {"crashes", r.crashes},
        {"timeouts", r.timeouts},
        {"coldStartFailures", r.coldStartFailures},
        {"corruptRestores", r.corruptRestores},
        {"stragglers", r.stragglers},
        {"breakerOpens", r.breakerOpens},
        {"goodP50Ns", r.goodP50Ns},
        {"goodP99Ns", r.goodP99Ns},
        {"errP99Ns", r.errP99Ns},
        {"goodFingerprint", r.goodFingerprint},
        {"nodes", r.nodes},
        {"maxActiveNodes", r.maxActiveNodes},
        {"throttles", r.throttles},
        {"nodeFaults", r.nodeFaults},
        {"utilPermil", uint64_t(std::llround(r.fleetUtilisation * 1e3))},
        {"classes", r.classes},
        {"fleetPowerMw", r.fleetPowerMw},
        {"fleetCostMilli", r.fleetCostMilli},
        {"classRouted0", r.classRouted.at(0)},
        {"classRouted1", r.classRouted.at(1)},
    };
    const std::vector<std::pair<const char *, uint64_t>> want = {
        {"coldStarts", 1401},
        {"warmHits", 1393},
        {"evictions", 1390},
        {"p50Ns", 1572863},
        {"p90Ns", 5373951},
        {"p99Ns", 12582911},
        {"p999Ns", 18350079},
        {"maxNs", 18613576},
        {"throughputMrps", 4018844},
        {"histoFingerprint", 3166857477476362357ull},
        {"succeeded", 2443},
        {"failedInvocations", 3},
        {"sheds", 554},
        {"retries", 348},
        {"crashes", 34},
        {"timeouts", 253},
        {"coldStartFailures", 81},
        {"corruptRestores", 30},
        {"stragglers", 141},
        {"breakerOpens", 77},
        {"goodP50Ns", 2555903},
        {"goodP99Ns", 10747903},
        {"errP99Ns", 12845055},
        {"goodFingerprint", 12682184256517164640ull},
        {"nodes", 4},
        {"maxActiveNodes", 4},
        {"throttles", 63},
        {"nodeFaults", 1},
        {"utilPermil", 654},
        {"classes", 2},
        {"fleetPowerMw", 12000},
        {"fleetCostMilli", 6000},
        {"classRouted0", 1443},
        {"classRouted1", 1351},
    };
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_STREQ(got[i].first, want[i].first);
        EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
    }
}

TEST(LoadResultGuards, ZeroSpanReportsZeroNotInfOrNan)
{
    // throughputRps and the utilisation shares divide by the simulated
    // load span; a degenerate scenario must report 0, not inf/nan.
    EXPECT_EQ(safeRatePerSec(100, 0), 0.0);
    EXPECT_EQ(safeShare(5, 0), 0.0);
    EXPECT_GT(safeRatePerSec(100, 1'000'000'000), 0.0);
    EXPECT_DOUBLE_EQ(safeShare(1, 4), 0.25);
}

TEST(LoadResultGuards, SingleInvocationScenarioStaysFinite)
{
    TempCheckpointDir ckpts("ckpt_load_single");
    TempCacheFile file("test_load_single.csv");
    LoadScenario s = smallScenario("t-single", KeepAlivePolicy::FixedTtl);
    s.invocations = 1;
    ResultCache cache(file.path);
    const LoadResult res = LoadRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_TRUE(std::isfinite(res.throughputRps));
    EXPECT_TRUE(std::isfinite(res.fleetUtilisation));
    ASSERT_EQ(res.nodeUtilisation.size(), 1u);
    EXPECT_TRUE(std::isfinite(res.nodeUtilisation[0]));
    EXPECT_GE(res.throughputRps, 0.0);
}

// --------------------------------------------------------------------------
// ResultCache row modes and schema versions
// --------------------------------------------------------------------------

TEST(ResultCacheSchema, UnknownModeRowsAreSkippedNotMisparsed)
{
    TempCacheFile file("test_load_schema.csv");
    {
        std::ofstream os(file.path);
        os << "riscv64,cassandra,00,fib,futuremode|ok=1|v=9\n";
    }
    ResultCache cache(file.path);
    // The unknown-mode row must not satisfy any lookup.
    std::map<std::string, uint64_t> row;
    EXPECT_FALSE(
        cache.lookupRow("riscv64,cassandra,00,fib,futuremode", row));
}

TEST(ResultCacheSchema, StaleVersionRowsAreSkipped)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    TempCacheFile file("test_load_stale.csv");
    std::string key;
    {
        ResultCache cache(file.path);
        key = cache.rowKey(cfg, spec.name, "ldcal");
    }
    {
        // A complete ldcal row, but with a schema version from the
        // future: every field present, still rejected.
        std::ofstream os(file.path);
        os << key
           << "|coldNs=5|ok=1|v=99|warm0Ns=1|warm1Ns=1|warm2Ns=1|"
              "warm3Ns=1\n";
    }
    ResultCache cache(file.path);
    std::map<std::string, uint64_t> row;
    EXPECT_FALSE(cache.lookupRow(key, row));
}

TEST(ResultCacheSchema, LoadCalRowRoundTrips)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    TempCacheFile file("test_load_roundtrip.csv");
    LoadCalibration cal;
    cal.name = spec.name;
    cal.coldNs = 123456;
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        cal.warmNs[k] = 1000 + k;
    cal.ok = true;
    {
        ResultCache cache(file.path);
        cache.recordRow(cache.rowKey(cfg, spec.name, "ldcal"),
                        packRunResult(cal));
    }
    // A fresh cache instance re-reads it from disk.
    ResultCache cache(file.path);
    std::map<std::string, uint64_t> row;
    ASSERT_TRUE(cache.lookupRow(cache.rowKey(cfg, spec.name, "ldcal"), row));
    const LoadCalibration back = std::get<LoadCalibration>(
        unpackRunResult(RunMode::LoadCal, spec.name, row));
    EXPECT_EQ(back.coldNs, cal.coldNs);
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        EXPECT_EQ(back.warmNs[k], cal.warmNs[k]);
    EXPECT_TRUE(back.ok);
}
