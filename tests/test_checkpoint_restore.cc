/**
 * @file
 * The checkpoint-once / restore-many contract.
 *
 * The non-negotiable invariant: an experiment that restores a
 * prepared-state checkpoint produces measurements BYTE-IDENTICAL to
 * one that boots and settles from scratch — same RequestStats, same
 * full post-measurement stats snapshot, same CSV row. Verified here
 * for both ISAs, with and without database containers, in detailed
 * and emulation mode; plus the loader's corruption defences and the
 * ResultCache's tolerance of truncated backing files.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "core/checkpoint_store.hh"
#include "mem/phys_memory.hh"
#include "core/result_cache.hh"
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
standaloneConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Redirect the global CheckpointStore to a private directory for the
 *  duration of one test, deleting it (and any snapshots) afterwards. */
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
        // Leave the store pointing at a dead directory with empty
        // caches so later tests must opt in with their own dir.
        CheckpointStore::global().resetForTest(dir);
    }
    std::string dir;
};

void
expectSameStats(const RequestStats &a, const RequestStats &b,
                const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.insts, b.insts) << label;
    EXPECT_EQ(a.uops, b.uops) << label;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << label;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.branches, b.branches) << label;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << label;
    EXPECT_EQ(a.itlbMisses, b.itlbMisses) << label;
    EXPECT_EQ(a.dtlbMisses, b.dtlbMisses) << label;
}

/**
 * Run the same function on two independently constructed runners.
 * The first prepares from scratch and publishes the checkpoint; the
 * second restores it. Everything measurable must match byte for byte,
 * including the full post-measurement stats tree.
 */
void
checkRoundTrip(const ClusterConfig &cfg, const std::string &fn,
               const std::string &dir)
{
    TempCheckpointDir ckpts(dir);
    const FunctionSpec spec = specFor(fn);
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);

    ExperimentRunner fresh(cfg);
    const FunctionResult a = fresh.runFunction(spec, impl);
    ASSERT_TRUE(a.ok) << fn << ": fresh run failed";
    const auto snapA = fresh.cluster().system().stats().snapshotAll();

    // The checkpoint file must exist on disk now.
    const std::string fp = CheckpointStore::fingerprint(cfg, spec);
    EXPECT_TRUE(std::filesystem::exists(
        CheckpointStore::global().pathFor(fp)));

    ExperimentRunner restored(cfg);
    const FunctionResult b = restored.runFunction(spec, impl);
    ASSERT_TRUE(b.ok) << fn << ": restored run failed";
    const auto snapB = restored.cluster().system().stats().snapshotAll();

    expectSameStats(a.cold, b.cold, fn + " cold");
    expectSameStats(a.warm, b.warm, fn + " warm");
    EXPECT_EQ(snapA, snapB) << fn
                            << ": post-measurement stats trees differ";
}

} // namespace

TEST(CheckpointStoreTest, FingerprintSharesBackendAblationPoints)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    const ClusterConfig base = standaloneConfig(IsaId::Riscv);

    // Backend-only parameters must NOT change the fingerprint: the
    // whole point is that ablation points over latencies, prefetchers,
    // O3 geometry and predictor kind reuse one prepared snapshot.
    ClusterConfig latency = base;
    latency.system.caches.l2.hitLatency = 40;
    latency.system.dram.rowMissLatency = 200;
    ClusterConfig prefetch = base;
    prefetch.system.caches.l1d.nextLinePrefetch = true;
    ClusterConfig o3geom = base;
    o3geom.system.o3.robEntries = 64;
    ClusterConfig bp = base;
    bp.system.o3.bp.kind = BpKind::Bimodal;
    bp.system.o3.bp.tableEntries = 256;

    const std::string fpBase = CheckpointStore::fingerprint(base, spec);
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(latency, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(prefetch, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(o3geom, spec));
    EXPECT_EQ(fpBase, CheckpointStore::fingerprint(bp, spec));

    // Frontend-visible parameters MUST change it.
    ClusterConfig otherIsa = standaloneConfig(IsaId::Cx86);
    ClusterConfig geometry = base;
    geometry.system.caches.l2.sizeBytes = 256 * 1024;
    ClusterConfig withDb = base;
    withDb.startDb = true;
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(otherIsa, spec));
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(geometry, spec));
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(withDb, spec));
    EXPECT_NE(fpBase,
              CheckpointStore::fingerprint(base, specFor("aes-go")));

    // The lukewarm pair fingerprint is distinct from the solo one.
    const FunctionSpec other = specFor("aes-go");
    EXPECT_NE(fpBase, CheckpointStore::fingerprint(base, spec, &other));
}

TEST(CheckpointRestoreTest, ByteIdenticalRiscv)
{
    checkRoundTrip(standaloneConfig(IsaId::Riscv), "fibonacci-go",
                   "ckpt_rt_riscv");
}

TEST(CheckpointRestoreTest, ByteIdenticalCx86)
{
    checkRoundTrip(standaloneConfig(IsaId::Cx86), "fibonacci-go",
                   "ckpt_rt_cx86");
}

TEST(CheckpointRestoreTest, ByteIdenticalWithCassandraAndMemcached)
{
    // geo talks to the database; the full store bootstrap rides in the
    // checkpoint, which is where restore-many saves the most time.
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(IsaId::Riscv);
    cfg.dbKind = db::DbKind::Cassandra;
    checkRoundTrip(cfg, "geo", "ckpt_rt_db");
}

TEST(CheckpointRestoreTest, EmulationRestoreMatchesAndUsesNs)
{
    TempCheckpointDir ckpts("ckpt_rt_emu");
    const FunctionSpec spec = specFor("fibonacci-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    ExperimentRunner fresh(cfg);
    const EmuResult a = fresh.runFunctionEmu(spec, impl);
    ASSERT_TRUE(a.ok);
    ExperimentRunner restored(cfg);
    const EmuResult b = restored.runFunctionEmu(spec, impl);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.coldNs, b.coldNs);
    EXPECT_EQ(a.warmNs, b.warmNs);

    // Unit correctness: at 500 MHz one cycle is 2 ns, and the guest's
    // cycle-level behaviour does not depend on the clock label, so the
    // reported latencies must be exactly double the 1 GHz ones.
    ClusterConfig slow = cfg;
    slow.system.clockMHz = 500;
    ExperimentRunner slowRunner(slow);
    const EmuResult s = slowRunner.runFunctionEmu(spec, impl);
    ASSERT_TRUE(s.ok);
    EXPECT_EQ(s.coldNs, 2 * a.coldNs);
    EXPECT_EQ(s.warmNs, 2 * a.warmNs);
}

TEST(CheckpointRestoreTest, CsvRowByteIdentity)
{
    TempCheckpointDir ckpts("ckpt_rt_csv");
    const FunctionSpec spec = specFor("aes-go");
    const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);

    const std::string fileA = "ckpt_csv_a.csv";
    const std::string fileB = "ckpt_csv_b.csv";
    std::remove(fileA.c_str());
    std::remove(fileB.c_str());

    {
        ResultCache cache(fileA); // miss path: prepares and publishes
        ASSERT_TRUE(std::get<FunctionResult>(
                        cache.run({RunMode::Detailed, spec, &impl, cfg, {}}))
                        .ok);
    }
    {
        ResultCache cache(fileB); // restore path: snapshot is warm
        ASSERT_TRUE(std::get<FunctionResult>(
                        cache.run({RunMode::Detailed, spec, &impl, cfg, {}}))
                        .ok);
    }
    const std::string a = slurp(fileA);
    const std::string b = slurp(fileB);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "restored run wrote a different CSV row";
    std::remove(fileA.c_str());
    std::remove(fileB.c_str());
}

TEST(CheckpointNegativeTest, LoaderRejectsCorruptFiles)
{
    TempCheckpointDir ckpts("ckpt_neg_files");
    std::filesystem::create_directories(ckpts.dir);
    std::string err;

    // Missing file.
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(ckpts.dir + "/missing.ckpt",
                                             &err)
                     .has_value());
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;

    // Bad magic.
    const std::string badMagic = ckpts.dir + "/badmagic.ckpt";
    {
        std::ofstream os(badMagic, std::ios::binary);
        os << "DEADBEEF and then some";
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(badMagic, &err).has_value());
    EXPECT_NE(err.find("bad magic"), std::string::npos) << err;

    // A real checkpoint, truncated mid-entry: the error must name the
    // key being read when the bytes ran out.
    Checkpoint cp;
    cp.setScalar("alpha", 1);
    cp.setScalar("bravo.long.key.name", 2);
    cp.setString("charlie", "value");
    cp.setBlob("delta", std::vector<uint8_t>(64, 0xab));
    const std::string whole = ckpts.dir + "/whole.ckpt";
    cp.saveToFile(whole);
    const std::string full = slurp(whole);
    ASSERT_GT(full.size(), 40u);

    const std::string truncated = ckpts.dir + "/truncated.ckpt";
    {
        std::ofstream os(truncated, std::ios::binary);
        os.write(full.data(), std::streamsize(full.size() / 2));
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(truncated, &err).has_value());
    EXPECT_NE(err.find("while reading"), std::string::npos) << err;

    // An oversized length field must not allocate or crash.
    const std::string badLen = ckpts.dir + "/badlen.ckpt";
    {
        std::string bytes = full;
        // First scalar key length lives right after the 8-byte magic
        // and the 8-byte scalar count; stamp it with a huge value.
        for (size_t i = 16; i < 24; ++i)
            bytes[i] = char(0xff);
        std::ofstream os(badLen, std::ios::binary);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(badLen, &err).has_value());
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;

    // Trailing garbage is corruption, not slack.
    const std::string trailing = ckpts.dir + "/trailing.ckpt";
    {
        std::ofstream os(trailing, std::ios::binary);
        os.write(full.data(), std::streamsize(full.size()));
        os << "extra";
    }
    EXPECT_FALSE(Checkpoint::tryLoadFromFile(trailing, &err).has_value());
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;

    // The intact file still loads, and loads what was saved.
    std::optional<Checkpoint> back = Checkpoint::tryLoadFromFile(whole);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->getScalar("alpha"), 1u);
    EXPECT_EQ(back->getString("charlie"), "value");
    EXPECT_EQ(back->getBlob("delta").size(), 64u);
}

TEST(CheckpointNegativeTest, StoreTreatsCorruptFileAsMiss)
{
    TempCheckpointDir ckpts("ckpt_neg_store");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const FunctionSpec spec = specFor("fibonacci-go");
    const std::string fp =
        CheckpointStore::fingerprint(standaloneConfig(IsaId::Riscv), spec);

    // Corrupt bytes where the checkpoint should be: acquire must hand
    // the caller the claim instead of crashing or returning garbage.
    {
        std::ofstream os(store.pathFor(fp), std::ios::binary);
        os << "this is not a checkpoint";
    }
    bool claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);

    // A valid checkpoint file carrying a DIFFERENT fingerprint (hash
    // collision / stale file) must also be a miss.
    Checkpoint other;
    other.setString("meta.fingerprint", "some other configuration");
    other.setScalar("x", 1);
    other.saveToFile(store.pathFor(fp));
    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);
}

TEST(CheckpointNegativeTest, DoctoredMemoryImageIsAMiss)
{
    // A checkpoint whose memory image carries hostile page counts or
    // offsets must be refused at acquire() time — warn and miss, never
    // an OOB index in the restore path.
    TempCheckpointDir ckpts("ckpt_neg_doctored");
    std::filesystem::create_directories(ckpts.dir);
    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = "doctored-image-test";
    const std::string path = store.pathFor(fp);

    // A genuine page-granular image, published the way the store
    // writes them.
    PhysMemory mem(8 * snapshotPageBytes);
    mem.write64(0, 0x1234);
    mem.write64(5 * snapshotPageBytes, 0x5678);
    Checkpoint cp;
    mem.serializeState("mem.", cp);
    cp.setString("meta.fingerprint", fp);
    cp.saveToFile(path);

    bool claimed = false;
    ASSERT_NE(store.acquire(fp, &claimed), nullptr)
        << "the intact checkpoint must load";

    // Doctor the on-disk page count far beyond the recorded memory
    // and drop the in-memory cache so acquire() re-reads the file.
    Checkpoint evil = Checkpoint::loadFromFile(path);
    evil.setScalar("mem.pages", uint64_t(1) << 20);
    evil.saveToFile(path);
    CheckpointStore::global().resetForTest(ckpts.dir);

    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr)
        << "a doctored memory image was served";
    EXPECT_TRUE(claimed);
    store.release(fp);

    // Same for a table that indexes outside the unique-page pool.
    Checkpoint evil2 = Checkpoint::loadFromFile(path);
    std::vector<uint8_t> table = evil2.getBlob("mem.table");
    ASSERT_GE(table.size(), 16u);
    table[8] = 0xff; // first mapping's unique-page id
    evil2.setBlob("mem.table", std::move(table));
    evil2.setScalar("mem.pages", 2); // restore a sane page count
    evil2.saveToFile(path);
    CheckpointStore::global().resetForTest(ckpts.dir);

    claimed = false;
    EXPECT_EQ(store.acquire(fp, &claimed), nullptr);
    EXPECT_TRUE(claimed);
    store.release(fp);
}

TEST(CheckpointAtomicityTest, ConcurrentWritersNeverTearTheFile)
{
    // Several threads repeatedly save DIFFERENT checkpoints to the
    // same path while a reader polls it: every successful load must be
    // exactly one writer's complete content. With a fixed temporary
    // sibling name (the pre-fix behaviour) concurrent writers
    // interleave their bytes in the shared temp file and a mixed or
    // torn checkpoint can be renamed into place.
    TempCheckpointDir ckpts("ckpt_atomic_stress");
    std::filesystem::create_directories(ckpts.dir);
    const std::string path = ckpts.dir + "/contended.ckpt";
    constexpr unsigned kWriters = 4;
    constexpr unsigned kRounds = 40;

    std::vector<Checkpoint> contents(kWriters);
    for (unsigned w = 0; w < kWriters; ++w) {
        contents[w].setScalar("writer", w);
        contents[w].setBlob(
            "payload", std::vector<uint8_t>(64 * 1024, uint8_t(w + 1)));
    }

    std::atomic<bool> done{false};
    std::atomic<unsigned> torn{0};
    std::atomic<unsigned> loads{0};
    std::thread reader([&] {
        while (!done.load()) {
            std::optional<Checkpoint> cp = Checkpoint::tryLoadFromFile(path);
            if (!cp.has_value())
                continue; // not yet written; never torn (see below)
            ++loads;
            const uint64_t w = cp->getScalar("writer");
            const std::vector<uint8_t> &payload = cp->getBlob("payload");
            bool consistent = w < kWriters &&
                              payload.size() == 64 * 1024;
            for (size_t i = 0; consistent && i < payload.size(); ++i)
                consistent = payload[i] == uint8_t(w + 1);
            if (!consistent)
                ++torn;
        }
    });

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (unsigned r = 0; r < kRounds; ++r)
                contents[w].saveToFile(path);
        });
    }
    for (std::thread &t : writers)
        t.join();
    done = true;
    reader.join();

    EXPECT_EQ(torn.load(), 0u)
        << "a reader observed a torn/mixed checkpoint";
    EXPECT_GT(loads.load(), 0u) << "the reader never saw the file";

    // The final file is intact and is one writer's exact content.
    std::optional<Checkpoint> last = Checkpoint::tryLoadFromFile(path);
    ASSERT_TRUE(last.has_value());
    EXPECT_LT(last->getScalar("writer"), kWriters);

    // No temporary siblings left behind.
    unsigned files = 0;
    for (const auto &e : std::filesystem::directory_iterator(ckpts.dir))
        files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 1u) << "stray temp files left beside the checkpoint";
}

TEST(ResultCacheRobustnessTest, TruncatedCsvLosesOnlyAffectedRows)
{
    TempCheckpointDir ckpts("ckpt_csv_robust");
    const ClusterConfig cfg = standaloneConfig(IsaId::Riscv);
    const FunctionSpec good = specFor("fibonacci-go");
    const FunctionSpec bad = specFor("aes-go");

    const std::string file = "ckpt_csv_truncated.csv";
    std::remove(file.c_str());

    // Build one genuine row to copy the exact on-disk shape from.
    {
        ResultCache cache(file);
        const WorkloadImpl &impl = workloads::workloadImpl(good.workload);
        ASSERT_TRUE(std::get<FunctionResult>(
                        cache.run({RunMode::Detailed, good, &impl, cfg, {}}))
                        .ok);
    }
    std::string contents = slurp(file);
    ASSERT_FALSE(contents.empty());

    // Forge a second row for 'bad' and truncate it inside the warm
    // block — everything through "ok=1" survives, so the pre-fix
    // loader would have accepted it as a complete result.
    std::string forged = contents;
    const std::string goodName = "," + good.name + ",";
    const size_t at = forged.find(goodName);
    ASSERT_NE(at, std::string::npos);
    forged.replace(at, goodName.size(), "," + bad.name + ",");
    const size_t warmAt = forged.find("|warm.insts=");
    ASSERT_NE(warmAt, std::string::npos);
    forged.resize(warmAt + 7); // cut mid-field-name
    {
        std::ofstream os(file, std::ios::binary | std::ios::app);
        os << "not-a-row-at-all\n";  // junk line
        os << forged;                // truncated row, no newline
    }

    ResultCache reloaded(file);
    FunctionResult out;
    EXPECT_TRUE(reloaded.lookupDetailed(cfg, good, out))
        << "intact row was lost";
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(reloaded.lookupDetailed(cfg, bad, out))
        << "truncated row was served as a complete result";
    std::remove(file.c_str());
}
