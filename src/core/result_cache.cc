#include "result_cache.hh"

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "checkpoint_store.hh"
#include "db/store_gen.hh"
#include "sim/logging.hh"

namespace svb
{

namespace
{

/** The per-request stat fields under one prefix ("cold." / "warm."). */
std::vector<std::string>
statFields(const std::string &prefix)
{
    std::vector<std::string> fields;
    for (const char *n :
         {"cycles", "insts", "uops", "l1i", "l1d", "l2", "branches",
          "mispredicts", "itlb", "dtlb"})
        fields.push_back(prefix + n);
    for (unsigned c = 0; c < numStallCauses; ++c)
        fields.push_back(prefix + "stall." + stallCauseName(c));
    return fields;
}

std::string
modeOfKey(const std::string &key)
{
    const size_t comma = key.rfind(',');
    return comma == std::string::npos ? "" : key.substr(comma + 1);
}

/**
 * The platform component of a row/runner key: the ISA name, plus
 * "@<classTag>" when the cluster is the calibration platform of one
 * fleet node class (cluster.hh). The tag keeps two classes that share
 * an ISA but differ in clock or cache budget from ever sharing rows,
 * runners or checkpoints; untagged clusters keep the plain per-ISA
 * keys byte-for-byte.
 */
std::string
platformTag(const ClusterConfig &cfg)
{
    std::string tag = isaName(cfg.system.isa);
    if (!cfg.classTag.empty()) {
        svb_assert(cfg.classTag.find_first_of(",|=") == std::string::npos,
                   "cluster classTag contains a CSV metacharacter");
        tag += "@";
        tag += cfg.classTag;
    }
    return tag;
}

} // namespace

/**
 * The schema descriptor table: one entry per row mode, carrying the
 * mode tag, the current schema version and the complete ordered field
 * set. Bump a mode's version whenever its field set or meaning
 * changes; old rows are then skipped (and re-measured) instead of
 * misparsed. o3 is at v2: v1 predates the stall-cause fields.
 */
const RowSchema *
RowSchema::find(const std::string &mode)
{
    static const std::vector<RowSchema> schemas = [] {
        std::vector<RowSchema> s;
        {
            RowSchema o3{"o3", 2, statFields("cold.")};
            const std::vector<std::string> warm = statFields("warm.");
            o3.fields.insert(o3.fields.end(), warm.begin(), warm.end());
            o3.fields.push_back("ok");
            s.push_back(std::move(o3));
        }
        s.push_back({"emu", 1, {"coldNs", "warmNs", "ok"}});
        {
            RowSchema ld{"ldcal", 1, {"coldNs"}};
            for (unsigned k = 0; k < loadWarmSamples; ++k)
                ld.fields.push_back("warm" + std::to_string(k) + "Ns");
            ld.fields.push_back("ok");
            s.push_back(std::move(ld));
        }
        // load v5: v1 predates the resilience fields (availability,
        // retry/fault counters, goodput/error percentiles), v2 the
        // fleet fields (node count, routing policy, autoscaler peak,
        // throttles, node faults, utilisation), v3 the node-class
        // fields (class count, provisioned fleet power/cost weights);
        // v4 rows were computed before the inclusive keep-alive TTL
        // (an instance idle exactly keepAliveNs is now evicted), which
        // shifts cold/warm splits at TTL boundaries.
        s.push_back({"load", 5,
                     {"invocations", "coldStarts", "warmHits", "evictions",
                      "p50Ns", "p90Ns", "p99Ns", "p999Ns", "maxNs",
                      "throughputMrps", "histoFp", "succeeded",
                      "failedInv", "sheds", "retries", "crashes",
                      "timeouts", "coldFails", "corruptRestores",
                      "stragglers", "breakerOpens", "goodP50Ns",
                      "goodP99Ns", "errP99Ns", "goodFp", "nodes",
                      "policy", "maxActive", "throttles", "nodeFaults",
                      "utilPermil", "classes", "powerMw", "costMilli",
                      "ok"}});
        // wflow v3: workflow-scenario summaries (workflow.hh); v1
        // predates the node-class fields (classes/powerMw/costMilli)
        // and the placement-hint hit/miss counters; v2 predates the
        // inclusive keep-alive TTL (see the load v5 note). The critN
        // slots memoise per-stage critical-path permil shares for the
        // first kMaxCritSlots stages (unused slots store 0).
        {
            RowSchema wf{"wflow", 3,
                         {"invocations", "succeeded", "failedWf", "sheds",
                          "throttles", "retries", "crashes", "timeouts",
                          "coldFails", "corruptRestores", "stragglers",
                          "breakerOpens", "nodeFaults", "coldStarts",
                          "warmHits", "evictions", "stages", "tasks",
                          "p50Ns", "p90Ns", "p99Ns", "p999Ns", "maxNs",
                          "throughputMrps", "histoFp", "goodP50Ns",
                          "goodP99Ns", "errP99Ns", "goodFp", "critFp",
                          "xferLocal", "xferRemote", "xferLocalBytes",
                          "xferRemoteBytes", "xferNs", "nodes", "policy",
                          "maxActive", "utilPermil", "classes", "powerMw",
                          "costMilli", "prefHits", "prefMisses", "ok"}};
            for (unsigned k = 0; k < 12; ++k)
                wf.fields.push_back("crit" + std::to_string(k));
            s.push_back(std::move(wf));
        }
        // coldrs v1: cold-start restore-mode sweeps
        // (bench/coldstart_restore.cc) — per (runtime tier, ISA,
        // restore mode, function) cold/warm latencies plus the page
        // accounting of the REAP/CoW restore path.
        s.push_back({"coldrs", 1,
                     {"coldNs", "warmNs", "imagePages", "uniquePages",
                      "wsPages", "prefetched", "faults", "residentEnd",
                      "ok"}});
        return s;
    }();
    for (const RowSchema &schema : schemas)
        if (mode == schema.mode)
            return &schema;
    return nullptr;
}

bool
RowSchema::complete(const std::map<std::string, uint64_t> &row) const
{
    if (row.size() != fields.size() + 1) // +1: the "v" stamp
        return false;
    for (const std::string &f : fields)
        if (!row.count(f))
            return false;
    return true;
}

namespace
{

/** Current schema version of @p mode (0 when unknown). */
uint64_t
modeSchemaVersion(const std::string &mode)
{
    const RowSchema *schema = RowSchema::find(mode);
    return schema != nullptr ? schema->version : 0;
}

std::map<std::string, uint64_t>
packStats(const RequestStats &rs, const std::string &prefix)
{
    std::map<std::string, uint64_t> fields = {
        {prefix + "cycles", rs.cycles},
        {prefix + "insts", rs.insts},
        {prefix + "uops", rs.uops},
        {prefix + "l1i", rs.l1iMisses},
        {prefix + "l1d", rs.l1dMisses},
        {prefix + "l2", rs.l2Misses},
        {prefix + "branches", rs.branches},
        {prefix + "mispredicts", rs.branchMispredicts},
        {prefix + "itlb", rs.itlbMisses},
        {prefix + "dtlb", rs.dtlbMisses},
    };
    for (unsigned c = 0; c < numStallCauses; ++c)
        fields[prefix + "stall." + stallCauseName(c)] = rs.stalls[c];
    return fields;
}

RequestStats
unpackStats(const std::map<std::string, uint64_t> &fields,
            const std::string &prefix)
{
    auto get = [&](const std::string &name) {
        auto it = fields.find(prefix + name);
        return it == fields.end() ? 0ull : it->second;
    };
    RequestStats rs;
    rs.cycles = get("cycles");
    rs.insts = get("insts");
    rs.uops = get("uops");
    rs.l1iMisses = get("l1i");
    rs.l1dMisses = get("l1d");
    rs.l2Misses = get("l2");
    rs.branches = get("branches");
    rs.branchMispredicts = get("mispredicts");
    rs.itlbMisses = get("itlb");
    rs.dtlbMisses = get("dtlb");
    rs.cpi = rs.insts ? double(rs.cycles) / double(rs.insts) : 0.0;
    for (unsigned c = 0; c < numStallCauses; ++c)
        rs.stalls[c] = get(std::string("stall.") + stallCauseName(c));
    return rs;
}

std::map<std::string, uint64_t>
packResult(const FunctionResult &res)
{
    std::map<std::string, uint64_t> fields = packStats(res.cold, "cold.");
    for (const auto &[k, v] : packStats(res.warm, "warm."))
        fields[k] = v;
    fields["ok"] = res.ok ? 1 : 0;
    return fields;
}

std::map<std::string, uint64_t>
packLoadCal(const LoadCalibration &cal)
{
    std::map<std::string, uint64_t> fields;
    fields["coldNs"] = cal.coldNs;
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        fields["warm" + std::to_string(k) + "Ns"] = cal.warmNs[k];
    fields["ok"] = cal.ok ? 1 : 0;
    return fields;
}

LoadCalibration
unpackLoadCal(const std::string &name,
              const std::map<std::string, uint64_t> &fields)
{
    LoadCalibration cal;
    cal.name = name;
    cal.ok = fields.at("ok") != 0;
    cal.coldNs = fields.at("coldNs");
    for (unsigned k = 0; k < loadWarmSamples; ++k)
        cal.warmNs[k] = fields.at("warm" + std::to_string(k) + "Ns");
    return cal;
}

FunctionResult
unpackResult(const std::string &name,
             const std::map<std::string, uint64_t> &fields)
{
    FunctionResult res;
    res.name = name;
    res.ok = fields.at("ok") != 0;
    res.cold = unpackStats(fields, "cold.");
    res.warm = unpackStats(fields, "warm.");
    return res;
}

std::map<std::string, uint64_t>
packEmu(const EmuResult &res)
{
    return {{"coldNs", res.coldNs},
            {"warmNs", res.warmNs},
            {"ok", res.ok ? 1u : 0u}};
}

EmuResult
unpackEmu(const std::string &name,
          const std::map<std::string, uint64_t> &fields)
{
    EmuResult res;
    res.name = name;
    res.ok = fields.at("ok") != 0;
    res.coldNs = fields.at("coldNs");
    res.warmNs = fields.at("warmNs");
    return res;
}

bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** Validation outcome of a loaded CSV row. */
enum class RowCheck { Ok, Malformed, UnknownMode, VersionMismatch };

/**
 * Every field a valid row of @p key's mode must carry, plus the
 * mode's schema version. The CSV is append-only and a crash can
 * truncate the final line anywhere; because fields serialise in
 * alphabetical order, "ok" lands BEFORE the "warm.*" block, so a
 * truncated detailed row can look complete ("ok=1") while silently
 * missing its warm measurements. Validating the full field set closes
 * that hole; the version check stops rows written by an older or
 * newer tool generation from being misparsed field-by-field.
 */
RowCheck
rowComplete(const std::string &key,
            const std::map<std::string, uint64_t> &row)
{
    const RowSchema *schema = RowSchema::find(modeOfKey(key));
    if (schema == nullptr)
        return RowCheck::UnknownMode;
    auto vit = row.find("v");
    if (vit == row.end() || vit->second != schema->version)
        return RowCheck::VersionMismatch;
    return schema->complete(row) ? RowCheck::Ok : RowCheck::Malformed;
}

} // namespace

std::map<std::string, uint64_t>
packRunResult(const RunResult &res)
{
    if (const auto *fr = std::get_if<FunctionResult>(&res))
        return packResult(*fr);
    if (const auto *er = std::get_if<EmuResult>(&res))
        return packEmu(*er);
    if (const auto *lc = std::get_if<LoadCalibration>(&res))
        return packLoadCal(*lc);
    svb_fatal("packRunResult: lukewarm results are not cacheable");
}

RunResult
unpackRunResult(RunMode mode, const std::string &name,
                const std::map<std::string, uint64_t> &row)
{
    switch (mode) {
      case RunMode::Detailed:
        return unpackResult(name, row);
      case RunMode::Emu:
        return unpackEmu(name, row);
      case RunMode::LoadCal:
        return unpackLoadCal(name, row);
      case RunMode::Lukewarm:
        break;
    }
    svb_fatal("unpackRunResult: lukewarm rows do not exist");
}

void
announceRun(const RunSpec &rs)
{
    const char *isa = isaName(rs.platform.system.isa);
    switch (rs.mode) {
      case RunMode::Detailed:
        inform("measuring ", rs.spec.name, " on ", isa,
               " (detailed O3, cold+warm)...");
        break;
      case RunMode::Emu:
        inform("measuring ", rs.spec.name, " on ", isa, " (emulation)...");
        break;
      case RunMode::LoadCal:
        inform("calibrating ", rs.spec.name, " on ", isa,
               " for load (cold + ", loadWarmSamples, " warm samples)...");
        break;
      case RunMode::Lukewarm:
        break;
    }
}

namespace
{

/**
 * Default backing path: SVBENCH_RESULTS when set, otherwise
 * build/svbench_results.csv so machine output stays out of the
 * repository root (the directory is created on demand).
 */
std::string
defaultResultPath()
{
    if (const char *env = std::getenv("SVBENCH_RESULTS")) {
        if (env[0] != '\0')
            return env;
    }
    std::error_code ec;
    std::filesystem::create_directories("build", ec);
    if (ec)
        warn("cannot create build/ for the result cache: ",
             ec.message(), "; falling back to the working directory");
    return ec ? "svbench_results.csv" : "build/svbench_results.csv";
}

} // namespace

ResultCache::ResultCache(std::string path_arg)
    : path(path_arg.empty() ? defaultResultPath() : std::move(path_arg))
{
    const char *env = std::getenv("SVBENCH_FRESH");
    fresh = env != nullptr && env[0] == '1';
    if (!fresh)
        load();
}

void
ResultCache::load()
{
    std::ifstream is(path);
    if (!is)
        return;
    std::string line;
    size_t lineno = 0;
    size_t skipped = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // Format: key|field=value|field=value|...
        std::istringstream ls(line);
        std::string key;
        if (!std::getline(ls, key, '|') || key.empty()) {
            ++skipped;
            continue;
        }
        std::map<std::string, uint64_t> row;
        bool malformed = false;
        std::string kv;
        while (std::getline(ls, kv, '|')) {
            const size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0 ||
                !allDigits(kv.substr(eq + 1))) {
                malformed = true;
                break;
            }
            row[kv.substr(0, eq)] =
                std::strtoull(kv.c_str() + eq + 1, nullptr, 10);
        }
        const RowCheck check =
            malformed ? RowCheck::Malformed : rowComplete(key, row);
        if (check != RowCheck::Ok) {
            if (check == RowCheck::UnknownMode) {
                warn(path, ":", lineno, ": skipping row of unknown mode '",
                     modeOfKey(key),
                     "' (written by a different tool generation?)");
            } else if (check == RowCheck::VersionMismatch) {
                warn(path, ":", lineno, ": skipping '", modeOfKey(key),
                     "' row with stale schema version; it will be "
                     "re-measured");
            } else {
                warn(path, ":", lineno,
                     ": skipping malformed result row (key '", key, "')");
            }
            ++skipped;
            continue;
        }
        rows[key] = std::move(row);
    }
    if (skipped > 0)
        warn(path, ": ignored ", skipped,
             " unusable line(s); those results will be re-measured");
}

void
ResultCache::appendLocked(const std::string &key,
                          const std::map<std::string, uint64_t> &fields)
{
    rows[key] = fields;
    std::ofstream os(path, std::ios::app);
    os << key;
    for (const auto &[name, value] : fields)
        os << "|" << name << "=" << value;
    os << "\n";
}

std::string
ResultCache::rowKey(const ClusterConfig &cfg, const std::string &name,
                    const std::string &modeTag) const
{
    svb_assert(name.find_first_of(",|=") == std::string::npos,
               "row name contains a CSV metacharacter");
    std::ostringstream os;
    os << platformTag(cfg) << "," << db::dbKindName(cfg.dbKind) << ","
       << (cfg.startDb ? 1 : 0) << (cfg.startMemcached ? 1 : 0) << ","
       << name << "," << modeTag;
    return os.str();
}

ExperimentRunner &
ResultCache::runnerFor(const ClusterConfig &cfg)
{
    // Keyed by (configuration, calling thread): a runner owns a whole
    // ServerlessCluster with no internal locking, so it must never be
    // driven from two threads. Within one thread it is reused across
    // functions, preserving the serial path's boot-once behaviour.
    std::ostringstream os;
    os << platformTag(cfg) << "/" << db::dbKindName(cfg.dbKind) << "/"
       << cfg.startDb << cfg.startMemcached << "/tid"
       << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string key = os.str();

    {
        std::lock_guard<std::mutex> lk(runnersMtx);
        auto it = runners.find(key);
        if (it != runners.end())
            return *it->second;
    }
    // Construct outside the lock: booting a cluster is expensive and
    // concurrent boots are the whole point. No other thread inserts
    // this key (it embeds our thread id), so the slot stays ours.
    auto runner = std::make_unique<ExperimentRunner>(cfg);
    std::lock_guard<std::mutex> lk(runnersMtx);
    auto &slot = runners[key];
    slot = std::move(runner);
    return *slot;
}

RunResult
ResultCache::compute(const RunSpec &rs)
{
    svb_assert(rs.impl != nullptr, "RunSpec without a workload impl");
    return runnerFor(rs.platform).run(rs);
}

RunResult
ResultCache::run(const RunSpec &rs)
{
    // Lukewarm results are keyed by an interferer the row key cannot
    // carry; they always execute.
    if (rs.mode == RunMode::Lukewarm)
        return compute(rs);

    const std::string key =
        rowKey(rs.platform, rs.spec.name, runModeName(rs.mode));
    {
        std::unique_lock<std::mutex> lk(mtx);
        for (;;) {
            auto it = rows.find(key);
            if (it != rows.end() && it->second.count("ok"))
                return unpackRunResult(rs.mode, rs.spec.name, it->second);
            if (!pending.count(key))
                break;
            // Another thread is simulating this key; wait for its row
            // rather than duplicating the run.
            pendingCv.wait(lk);
        }
        pending.insert(key);
    }

    announceRun(rs);
    const RunResult res = compute(rs);
    recordRow(key, packRunResult(res));
    {
        std::lock_guard<std::mutex> lk(mtx);
        pending.erase(key);
    }
    pendingCv.notify_all();
    return res;
}

bool
ResultCache::lookupRow(const std::string &key,
                       std::map<std::string, uint64_t> &out)
{
    std::lock_guard<std::mutex> lk(mtx);
    auto it = rows.find(key);
    if (it == rows.end() || !it->second.count("ok"))
        return false;
    out = it->second;
    return true;
}

void
ResultCache::recordRow(const std::string &key,
                       const std::map<std::string, uint64_t> &fields)
{
    std::map<std::string, uint64_t> row = fields;
    row["v"] = modeSchemaVersion(modeOfKey(key));
    svb_assert(rowComplete(key, row) == RowCheck::Ok,
               "row does not match its mode's schema");
    std::lock_guard<std::mutex> lk(mtx);
    appendLocked(key, row);
}

bool
ResultCache::lookupDetailed(const ClusterConfig &cfg,
                            const FunctionSpec &spec, FunctionResult &out)
{
    std::map<std::string, uint64_t> row;
    if (!lookupRow(rowKey(cfg, spec.name, "o3"), row))
        return false;
    out = unpackResult(spec.name, row);
    return true;
}

FunctionResult
ResultCache::computeDetailed(const ClusterConfig &cfg,
                             const FunctionSpec &spec,
                             const WorkloadImpl &impl)
{
    return std::get<FunctionResult>(
        compute({RunMode::Detailed, spec, &impl, cfg, {}}));
}

void
ResultCache::recordDetailed(const ClusterConfig &cfg,
                            const FunctionSpec &spec,
                            const FunctionResult &res)
{
    recordRow(rowKey(cfg, spec.name, "o3"), packResult(res));
}

LoadCalibration
ResultCache::loadCalibration(const ClusterConfig &cfg,
                             const FunctionSpec &spec,
                             const WorkloadImpl &impl)
{
    return std::get<LoadCalibration>(
        run({RunMode::LoadCal, spec, &impl, cfg, {}}));
}

std::string
ResultCache::checkpointKeyOf(const ClusterConfig &cfg,
                             const FunctionSpec &spec) const
{
    return CheckpointStore::fingerprint(cfg, spec);
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lk(mtx);
    rows.clear();
    std::remove(path.c_str());
}

} // namespace svb
