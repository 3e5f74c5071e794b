/**
 * @file
 * Workload cold_start: checkpoint once, restore many.
 *
 * Why: per-System build/teardown and the snapshot restore dominate a
 * serverless cold start (REAP, SeBS), and the O3 model never runs.
 * Set-up publishes the checkpoints and cold-request working sets of
 * the three Go functions on both ISAs; the timed phase is a closed
 * loop of cold starts, each a fresh ExperimentRunner running the load
 * calibration protocol (restore, cold request, 4 warm requests on the
 * Atomic CPU), alternating full and working-set-aware (REAP)
 * restores through SystemConfig::reapRestore. This is the read side
 * of the checkpoint store. The seed shuffles the cold-start order.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>

#include "core/checkpoint_store.hh"
#include "inputs.hh"

using namespace svb;

namespace perf
{

namespace
{

/** Cold starts per repetition: every (function, ISA) pair once with a
 *  full restore and once with a working-set-aware one. */
constexpr size_t kBatch = 12;
/** Untraced cold starts a run needs so that p90 has >= 10 beyond it. */
constexpr size_t kMinColdStarts = 100;

struct Pair
{
    IsaId isa;
    FunctionSpec spec;
};

struct ColdStart
{
    LoadCalibration cal;
    double latencyMs = 0;
    uint64_t imagePages = 0, prefetched = 0, faults = 0, resident = 0;
};

ClusterConfig
pairConfig(const Pair &p, bool reap)
{
    ClusterConfig cfg = benchutil::chapter4Config(p.isa, false);
    cfg.system.reapRestore = reap;
    return cfg;
}

/** One cold start: a fresh runner on a fresh cluster, as a new
 *  function instance would get it. */
ColdStart
coldStart(SpanLog &log, uint64_t parent, uint64_t op, const Pair &p,
          bool reap)
{
    ColdStart cs;
    RunSpec rs;
    rs.mode = RunMode::LoadCal;
    rs.spec = p.spec;
    rs.impl = &workloads::workloadImpl(p.spec.workload);
    rs.platform = pairConfig(p, reap);

    const Clock::time_point t0 = Clock::now();
    Scope s(log, "cold_start", parent, op);
    std::unique_ptr<ExperimentRunner> runner;
    {
        Scope c(log, "core.experiment.construct", s.id(), op);
        runner = std::make_unique<ExperimentRunner>(rs.platform);
    }
    {
        Scope r(log, "core.experiment.run", s.id(), op);
        cs.cal = std::get<LoadCalibration>(runner->run(rs));
    }
    const PhysMemory &phys = runner->cluster().system().phys();
    cs.imagePages = phys.imagePages();
    cs.prefetched = phys.prefetchedPages();
    cs.faults = phys.lazyFaults();
    cs.resident = phys.residentImagePages();
    {
        Scope d(log, "core.experiment.destroy", s.id(), op);
        runner.reset();
    }
    cs.latencyMs = secondsSince(t0) * 1e3;
    return cs;
}

/** Name, size and write time of every file in the store directory. */
std::map<std::string, std::pair<uintmax_t, int64_t>>
storeListing(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::map<std::string, std::pair<uintmax_t, int64_t>> out;
    for (const fs::directory_entry &e :
         fs::directory_iterator(fs::path(dir) / "ckpts"))
        out[e.path().filename().string()] = {
            e.file_size(),
            int64_t(e.last_write_time().time_since_epoch().count())};
    return out;
}

std::string
calKey(const Pair &p)
{
    return std::string("cold_start.") + isaName(p.isa) + "." + p.spec.name;
}

} // namespace

void
runColdStart(const Options &opt, SpanLog &log, Outcome &out)
{
    std::vector<Pair> pairs;
    for (IsaId isa : kIsas) {
        for (const FunctionSpec &spec : goFunctions())
            pairs.push_back({isa, spec});
    }

    // Guest-visible results per pair: every cold start of a pair, full
    // or REAP, in set-up or timed phase, must match the first one.
    std::map<std::string, LoadCalibration> firstCal;
    const auto check = [&](const Pair &p, const LoadCalibration &cal,
                           const char *where) {
        if (!cal.ok) {
            out.violation("cold_start: " + calKey(p) + " not ok (" + where +
                          ")");
            return;
        }
        auto [it, inserted] = firstCal.try_emplace(calKey(p), cal);
        if (!inserted &&
            (it->second.coldNs != cal.coldNs ||
             !std::equal(std::begin(cal.warmNs), std::end(cal.warmNs),
                         std::begin(it->second.warmNs))))
            out.violation("cold_start: " + calKey(p) +
                          " latencies differ between restores (" + where +
                          ")");
    };

    // Set-up, several times on fresh state; the last one is kept. The
    // first cold start of each pair on an empty store boots, publishes
    // and records the working set.
    std::string dir;
    for (int k = 0; k < kSetups; ++k) {
        dir = freshDir(opt.workDir, "cold_start");
        resetCheckpointStore(dir);
        SpanLog off(false);
        const Clock::time_point t0 = Clock::now();
        const std::vector<ColdStart> prep = parallelIndexed<ColdStart>(
            pairs.size(),
            [&](size_t i) { return coldStart(off, 0, i, pairs[i], true); },
            opt.workers);
        out.setupS.push_back(secondsSince(t0));
        for (size_t i = 0; i < pairs.size(); ++i)
            check(pairs[i], prep[i].cal, "set-up");
    }
    if (countCheckpoints(dir) != pairs.size())
        out.violation("cold_start: set-up published " +
                      std::to_string(countCheckpoints(dir)) +
                      " checkpoints for " + std::to_string(pairs.size()) +
                      " pairs");
    const auto listing = storeListing(dir);

    std::mt19937_64 rng(opt.seed);
    std::vector<double> latencies, tracedLatencies;
    std::vector<ColdStart> traced;
    const unsigned minReps = (kMinColdStarts + kBatch - 1) / kBatch;
    timedLoop(opt, log, minReps, [&](SpanLog &rlog, uint64_t rep) {
        // Seed-shuffled pair order; each pair runs full then REAP.
        std::vector<size_t> order(pairs.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);

        const Clock::time_point t0 = Clock::now();
        std::vector<ColdStart> batch;
        {
            Scope r(rlog, "rep", 0, rep);
            // Closed loop: opt.workers clients, each starting its next
            // cold start when the previous one returns.
            batch = parallelIndexed<ColdStart>(
                kBatch,
                [&](size_t k) {
                    return coldStart(rlog, r.id(), rep * kBatch + k,
                                     pairs[order[k / 2]], k % 2 == 1);
                },
                opt.workers);
        }
        const double wall = secondsSince(t0);
        for (size_t k = 0; k < kBatch; ++k) {
            ++out.attempted;
            check(pairs[order[k / 2]], batch[k].cal,
                  k % 2 ? "reap restore" : "full restore");
            (rlog.enabled() ? tracedLatencies : latencies)
                .push_back(batch[k].latencyMs);
            if (rlog.enabled())
                traced.push_back(batch[k]);
        }
        return wall;
    }, out);

    // Cache guard: restore-many never publishes or rewrites a checkpoint.
    if (storeListing(dir) != listing)
        out.violation("cold_start: the timed phase wrote to the "
                      "checkpoint store (expected 0 publishes)");

    out.report.push_back({"cold_start_p50_ms", quantile(latencies, 0.5), "ms"});
    out.report.push_back({"cold_start_p90_ms", quantile(latencies, 0.9), "ms"});
    out.report.push_back({"cold_starts", double(latencies.size()), "count"});

    for (const Pair &p : pairs) {
        const auto it = firstCal.find(calKey(p));
        if (it == firstCal.end())
            continue;
        const LoadCalibration &cal = it->second;
        out.digest.push_back({calKey(p) + ".coldNs", cal.coldNs});
        for (unsigned k = 0; k < loadWarmSamples; ++k)
            out.digest.push_back({calKey(p) + ".warmNs" + std::to_string(k),
                                  cal.warmNs[k]});
    }

    if (!opt.trace)
        return;
    const std::vector<Span> spans = log.spans();
    const std::vector<Span> runs = named(spans, "core.experiment.run");
    const double reps = double(out.tracedWallS.size());
    const double n = double(traced.size());
    out.layer["core.experiment.calls"] = double(runs.size()) / reps;
    out.layer["core.experiment.busy_s"] = totalSeconds(runs) / reps;
    out.layer["core.experiment.p50_ms"] = quantile(durationsMs(runs), 0.5);
    out.layer["core.experiment.p90_ms"] = quantile(durationsMs(runs), 0.9);
    out.layer["core.experiment.construct_ms"] =
        meanMs(named(spans, "core.experiment.construct"));
    out.layer["core.experiment.destroy_ms"] =
        meanMs(named(spans, "core.experiment.destroy"));
    out.layer["core.checkpoint_store.hits"] = double(runs.size()) / reps;
    out.layer["core.checkpoint_store.publishes"] = 0.0;
    out.layer["cold_start.p50_ms"] = quantile(tracedLatencies, 0.5);
    out.layer["cold_start.p90_ms"] = quantile(tracedLatencies, 0.9);
    double image = 0, prefetched = 0, faults = 0, resident = 0;
    for (const ColdStart &cs : traced) {
        image += double(cs.imagePages);
        prefetched += double(cs.prefetched);
        faults += double(cs.faults);
        resident += double(cs.resident);
    }
    // Means per cold start; the batch mix is fixed, so they repeat.
    out.layer["mem.phys.image_pages"] = image / n;
    out.layer["mem.phys.prefetched_pages"] = prefetched / n;
    out.layer["mem.phys.lazy_faults"] = faults / n;
    out.layer["mem.phys.resident_pages"] = resident / n;

    runLayerProbe(log, freshDir(opt.workDir, "probe"),
                  probePoints(goFunctions()), out);
}

} // namespace perf
