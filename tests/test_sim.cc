/**
 * @file
 * Unit tests for the simulation kernel: event queue, RNG, statistics,
 * checkpoints, and the boolean environment-knob grammar.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/checkpoint_store.hh"
#include "core/parallel.hh"
#include "core/result_cache.hh"
#include "cpu/superblock.hh"
#include "mem/page_store.hh"
#include "sim/env.hh"
#include "sim/eventq.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"

using namespace svb;

TEST(EventQueue, FiresInTimeThenInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(20, "b", [&] { order.push_back(2); });
    q.schedule(10, "a", [&] { order.push_back(1); });
    q.schedule(20, "c", [&] { order.push_back(3); });
    EXPECT_EQ(q.nextEventTick(), 10u);
    EXPECT_EQ(q.serviceUpTo(15), 1u);
    EXPECT_EQ(q.serviceUpTo(25), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, "outer", [&] {
        ++fired;
        q.schedule(6, "inner", [&] { ++fired; });
    });
    q.serviceUpTo(10);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ClearDropsEverything)
{
    EventQueue q;
    q.schedule(5, "x", [] {});
    q.clear();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.nextEventTick(), maxTick);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, SplitIsIndependentOfDrawOrder)
{
    // split() must be a pure function of (seed, streamId): deriving a
    // substream after draining values from the parent gives the same
    // stream as deriving it first. This is what makes per-stream
    // sequences identical regardless of SVBENCH_JOBS scheduling.
    Rng fresh(42);
    Rng drained(42);
    for (int i = 0; i < 1000; ++i)
        drained.next();
    Rng a = fresh.split(7);
    Rng b = drained.split(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsAreDistinct)
{
    Rng master(42);
    Rng s0 = master.split(0);
    Rng s1 = master.split(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += s0.next() == s1.next();
    EXPECT_LT(same, 3);
    // And distinct from the parent stream itself.
    Rng parent(42);
    Rng child = parent.split(0);
    same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.nextBounded(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = r.nextRange(-5, 9);
        ASSERT_GE(v, -5);
        ASSERT_LE(v, 9);
    }
    for (int i = 0; i < 1000; ++i) {
        const double d = r.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Stats, ScalarAndFormula)
{
    StatGroup g("top");
    Scalar &s = g.addScalar("count", "a counter");
    g.addFormula("double", "2x count",
                 [&s] { return 2.0 * double(s.value()); });
    ++s;
    s += 4;
    auto snap = g.snapshotAll();
    EXPECT_DOUBLE_EQ(snap.at("top.count"), 5.0);
    EXPECT_DOUBLE_EQ(snap.at("top.double"), 10.0);
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, ChildGroupsAndDottedNames)
{
    StatGroup g("sys");
    Scalar &inner = g.childGroup("cpu").childGroup("l1").addScalar(
        "misses", "d");
    inner += 3;
    auto snap = g.snapshotAll();
    EXPECT_DOUBLE_EQ(snap.at("sys.cpu.l1.misses"), 3.0);
    // childGroup returns the same child on repeat lookups.
    EXPECT_EQ(&g.childGroup("cpu"), &g.childGroup("cpu"));
}

TEST(Stats, DistributionBucketsAndMean)
{
    StatGroup g("g");
    Distribution &d = g.addDistribution("lat", "latency", 0, 100, 10);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    d.sample(250); // overflow
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), (5 + 15 + 15 + 250) / 4.0);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
}

TEST(Stats, PrintProducesOutput)
{
    StatGroup g("root");
    g.addScalar("x", "something") += 9;
    std::ostringstream os;
    g.printAll(os);
    EXPECT_NE(os.str().find("root.x"), std::string::npos);
    EXPECT_NE(os.str().find("9"), std::string::npos);
}

TEST(Checkpoint, ScalarStringBlobRoundtrip)
{
    Checkpoint cp;
    cp.setScalar("a.b", 123);
    cp.setString("name", "svbench");
    cp.setBlob("mem", {1, 2, 3, 255});
    EXPECT_EQ(cp.getScalar("a.b"), 123u);
    EXPECT_EQ(cp.getString("name"), "svbench");
    EXPECT_EQ(cp.getBlob("mem").size(), 4u);
    EXPECT_TRUE(cp.hasScalar("a.b"));
    EXPECT_FALSE(cp.hasScalar("missing"));
}

TEST(Checkpoint, FileRoundtrip)
{
    const std::string path = "/tmp/svbench_test_ckpt.bin";
    {
        Checkpoint cp;
        cp.setScalar("cycle", 999);
        cp.setString("isa", "riscv64");
        std::vector<uint8_t> blob(4096);
        for (size_t i = 0; i < blob.size(); ++i)
            blob[i] = uint8_t(i * 7);
        cp.setBlob("mem.contents", std::move(blob));
        cp.saveToFile(path);
    }
    Checkpoint cp = Checkpoint::loadFromFile(path);
    EXPECT_EQ(cp.getScalar("cycle"), 999u);
    EXPECT_EQ(cp.getString("isa"), "riscv64");
    const auto &blob = cp.getBlob("mem.contents");
    ASSERT_EQ(blob.size(), 4096u);
    EXPECT_EQ(blob[1000], uint8_t(1000 * 7));
    std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Boolean environment knobs
// --------------------------------------------------------------------------

namespace
{

/** Set (or with nullptr unset) @p name for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (const char *prev = std::getenv(name))
            saved = prev;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (saved)
            setenv(name, saved->c_str(), 1);
        else
            unsetenv(name);
    }

  private:
    const char *name;
    std::optional<std::string> saved;
};

} // namespace

TEST(EnvFlag, ParsesOneGrammar)
{
    for (const char *on : {"1", "true", "yes", "on", "TRUE", "On"})
        EXPECT_EQ(parseBool(on), std::optional<bool>(true)) << on;
    for (const char *off : {"0", "false", "no", "off", "FALSE", "Off"})
        EXPECT_EQ(parseBool(off), std::optional<bool>(false)) << off;
    for (const char *bad : {"", "2", "01", "yes!", "true ", "enable"})
        EXPECT_EQ(parseBool(bad), std::nullopt) << bad;
}

TEST(EnvFlag, UnsetOrEmptyKeepsTheDefault)
{
    {
        ScopedEnv env("SVBENCH_TEST_FLAG", nullptr);
        EXPECT_TRUE(envFlag("SVBENCH_TEST_FLAG", true));
        EXPECT_FALSE(envFlag("SVBENCH_TEST_FLAG", false));
    }
    ScopedEnv env("SVBENCH_TEST_FLAG", "");
    EXPECT_TRUE(envFlag("SVBENCH_TEST_FLAG", true));
    EXPECT_FALSE(envFlag("SVBENCH_TEST_FLAG", false));
}

TEST(EnvFlag, SpelledValuesOverrideEitherDefault)
{
    {
        ScopedEnv env("SVBENCH_TEST_FLAG", "false");
        EXPECT_FALSE(envFlag("SVBENCH_TEST_FLAG", true));
        EXPECT_FALSE(envFlag("SVBENCH_TEST_FLAG", false));
    }
    ScopedEnv env("SVBENCH_TEST_FLAG", "yes");
    EXPECT_TRUE(envFlag("SVBENCH_TEST_FLAG", true));
    EXPECT_TRUE(envFlag("SVBENCH_TEST_FLAG", false));
}

TEST(EnvFlag, AnythingElseWarnsAndKeepsTheDefault)
{
    ScopedEnv env("SVBENCH_TEST_FLAG", "maybe");
    testing::internal::CaptureStderr();
    EXPECT_TRUE(envFlag("SVBENCH_TEST_FLAG", true));
    EXPECT_FALSE(envFlag("SVBENCH_TEST_FLAG", false));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("warn: ignoring SVBENCH_TEST_FLAG='maybe'"),
              std::string::npos)
        << err;
}

TEST(EnvFlag, TheFourLibraryKnobsShareTheGrammar)
{
    // Each used to read its own spelling: "false" enabled REAP and the
    // fast tier, "true" left SVBENCH_FRESH and SVBENCH_NO_CKPT off.
    // The store singleton reads its knob once, on first use; nothing
    // else in this binary uses it.
    {
        ScopedEnv env("SVBENCH_NO_CKPT", "yes");
        EXPECT_FALSE(CheckpointStore::global().enabled());
    }
    {
        ScopedEnv env("SVBENCH_REAP", "false");
        EXPECT_FALSE(reapEnvEnabled());
    }
    {
        ScopedEnv env("SVBENCH_FASTWARM", "off");
        EXPECT_FALSE(SuperblockCache::envEnabled());
    }
    // A fresh cache never reads its file, so a bad row there stays
    // silent; a loading cache warns about it.
    const std::string path = "test_sim_fresh.csv";
    {
        std::ofstream os(path);
        os << "not-a-row\n";
    }
    for (const char *fresh : {"true", "0"}) {
        ScopedEnv env("SVBENCH_FRESH", fresh);
        testing::internal::CaptureStderr();
        ResultCache cache(path);
        EXPECT_EQ(testing::internal::GetCapturedStderr().empty(),
                  *parseBool(fresh))
            << fresh;
    }
    std::remove(path.c_str());
}

TEST(EnvFlag, JobsRejectsTrailingJunk)
{
    const unsigned hw = std::thread::hardware_concurrency();
    {
        ScopedEnv env("SVBENCH_JOBS", "3");
        EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
    }
    ScopedEnv env("SVBENCH_JOBS", "4x");
    testing::internal::CaptureStderr();
    EXPECT_EQ(ThreadPool::defaultJobs(), hw ? hw : 1u);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "warn: ignoring SVBENCH_JOBS='4x'"),
              std::string::npos);
}
