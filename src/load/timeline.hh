/**
 * @file
 * The one event engine of the invocation-load subsystem, plus the
 * calibration matrix and two-phase sweep driver its two views share.
 *
 * Internal header: the public entry points are LoadRunner / loadSweep
 * (load_runner.hh) and WorkflowRunner / workflowSweep (workflow.hh).
 * Both are views over runTimeline():
 *
 *  - the workflow view runs its scenario's one DAG;
 *  - the load view runs a weighted mix of one-task workflows, one per
 *    traffic-mix entry (a single function is the trivial workflow,
 *    as in SeBS-Flow), and the engine draws each instance's workflow
 *    on the kStreamMix substream in arrival order.
 *
 * Each view keeps its own result projection, cache-row schema, trace
 * track suffix, span labels and stat-dump groups; the engine only
 * needs the trace surface (TimelineView) to label its spans.
 */

#ifndef SVB_LOAD_TIMELINE_HH
#define SVB_LOAD_TIMELINE_HH

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/parallel.hh"
#include "workflow.hh"

namespace svb::load
{

/** One workflow of an engine run's mix, drawn with weight/total. */
struct MixedWorkflow
{
    WorkflowSpec dag;
    double weight = 1.0;
};

/** The calibrated service model: [class group][function]. */
using CalMatrix = std::vector<std::vector<LoadCalibration>>;

/** How a view's spans look on the trace. */
struct TimelineView
{
    /** Track-name suffix after the scenario name ("load", "wflow"). */
    const char *trackSuffix;
    /** Span label of one task attempt: @p k is the task's index
     *  within @p stage of instance @p inst. */
    std::string (*label)(uint32_t inst, const StageSpec &stage, unsigned k,
                         unsigned attempt);
    /** Emit the workflow spans: a "stage" arg on cold/warm spans and
     *  the crit# chain of every completed instance. */
    bool stageSpans;
};

/** Outcome counters and distributions of one engine run. */
struct TimelineResult
{
    uint64_t succeeded = 0;
    /** Instances whose task exhausted its attempts. */
    uint64_t failed = 0;
    uint64_t sheds = 0;
    uint64_t throttles = 0;
    uint64_t retries = 0;
    uint64_t crashes = 0;
    uint64_t timeouts = 0;
    uint64_t coldStartFailures = 0;
    uint64_t corruptRestores = 0;
    uint64_t stragglers = 0;
    uint64_t breakerOpens = 0;
    uint64_t nodeFaults = 0;
    uint64_t transfersLocal = 0;
    uint64_t transfersRemote = 0;
    uint64_t bytesLocal = 0;
    uint64_t bytesRemote = 0;
    uint64_t transferNs = 0;
    /** Latest client-visible completion: the span of the run. */
    uint64_t lastEndNs = 0;
    LatencyHistogram latency;
    LatencyHistogram goodLatency;
    LatencyHistogram errorLatency;
    /** Per-stage critical-path ns (and its transfer share) summed over
     *  completed instances; indexed by stage of the mix's DAGs. */
    std::vector<uint64_t> critNs;
    std::vector<uint64_t> critXferNs;
};

/**
 * Replay calibrated service times for @p s.invocations workflow
 * instances drawn from @p mix (s.dag is not read) through the arrival
 * process, @p fleet, fault model, retry policy and circuit breakers
 * on one (time, seq)-ordered simulated timeline. @p fleet must be
 * fresh, built from (s.fleet, s.pool, s.functions.size()); the views
 * read its pool and node counters afterwards. Deterministic in
 * (s, mix, cals) alone.
 */
TimelineResult runTimeline(const WorkflowScenario &s,
                           const std::vector<MixedWorkflow> &mix,
                           const CalMatrix &cals, const TimelineView &view,
                           Fleet &fleet);

/**
 * Fetch (or run and record) every [group][fn] calibration of a
 * scenario. @return false, with a warning naming the function, when
 * one fails; the scenario is then skipped.
 */
bool calibrateScenario(ResultCache &cache, const std::string &scenario,
                       const ClusterConfig &cluster, const FleetConfig &fleet,
                       const std::vector<LoadMixEntry> &functions,
                       CalMatrix &out);

/**
 * Fill the fields LoadResult and WorkflowResult share from an engine
 * run: outcome counters, pool counters, percentiles, fingerprints and
 * the fleet echo.
 */
template <class Result>
void
projectTimeline(const WorkflowScenario &s, Fleet &fleet, TimelineResult &t,
                Result &res)
{
    res.scenario = s.name;
    res.invocations = s.invocations;
    res.policyId = uint64_t(s.fleet.routing);
    res.nodes = fleet.nodeCount();
    res.classes = fleet.groupCount();
    res.fleetPowerMw = fleet.fleetPowerMw();
    res.fleetCostMilli = fleet.fleetCostMilli();
    res.succeeded = t.succeeded;
    res.sheds = t.sheds;
    res.throttles = t.throttles;
    res.retries = t.retries;
    res.crashes = t.crashes;
    res.timeouts = t.timeouts;
    res.coldStartFailures = t.coldStartFailures;
    res.corruptRestores = t.corruptRestores;
    res.stragglers = t.stragglers;
    res.breakerOpens = t.breakerOpens;
    res.nodeFaults = t.nodeFaults;
    uint64_t fleetBusyNs = 0;
    for (unsigned n = 0; n < fleet.nodeCount(); ++n) {
        const PoolStats &ps = fleet.pool(n).stats();
        res.coldStarts += ps.coldStarts;
        res.warmHits += ps.warmHits;
        res.evictions += ps.evictions;
        fleetBusyNs += fleet.nodeStats(n).busyNs;
    }
    res.latency = std::move(t.latency);
    res.goodLatency = std::move(t.goodLatency);
    res.errorLatency = std::move(t.errorLatency);
    res.p50Ns = res.latency.percentile(50.0);
    res.p90Ns = res.latency.percentile(90.0);
    res.p99Ns = res.latency.percentile(99.0);
    res.p999Ns = res.latency.percentile(99.9);
    res.maxNs = res.latency.maxValue();
    res.goodP50Ns = res.goodLatency.percentile(50.0);
    res.goodP99Ns = res.goodLatency.percentile(99.0);
    res.errP99Ns = res.errorLatency.percentile(99.0);
    res.throughputRps = safeRatePerSec(s.invocations, t.lastEndNs);
    res.histoFingerprint = res.latency.fingerprint();
    res.goodFingerprint = res.goodLatency.fingerprint();
    res.maxActiveNodes = fleet.maxActiveNodes();
    // Occupied slot-time over the fleet's wall time, normalised by each
    // node's slot count (1.0 = every slot busy throughout).
    res.fleetUtilisation =
        safeShare(fleetBusyNs,
                  t.lastEndNs * s.pool.maxInstances * fleet.nodeCount());
    res.ok = true;
}

/** One plain counter of a view's cache row: its key and its field. */
template <class Result>
struct RowField
{
    const char *key;
    uint64_t Result::*field;
};

/** A view's cache row: its counters plus the fixed-point throughput
 *  and utilisation and the ok flag both row schemas carry. */
template <class Result, size_t N>
std::map<std::string, uint64_t>
packRow(const RowField<Result> (&schema)[N], const Result &res)
{
    std::map<std::string, uint64_t> row;
    for (const RowField<Result> &f : schema)
        row[f.key] = res.*f.field;
    row["throughputMrps"] = uint64_t(std::llround(res.throughputRps * 1000.0));
    row["utilPermil"] = uint64_t(std::llround(res.fleetUtilisation * 1000.0));
    row["ok"] = res.ok ? 1u : 0u;
    return row;
}

/** The inverse of packRow() for a schema-validated row. */
template <class Result, size_t N>
Result
unpackRow(const RowField<Result> (&schema)[N], const std::string &scenario,
          const std::map<std::string, uint64_t> &row)
{
    Result res;
    res.scenario = scenario;
    for (const RowField<Result> &f : schema)
        res.*f.field = row.at(f.key);
    res.throughputRps = double(row.at("throughputMrps")) / 1000.0;
    res.fleetUtilisation = double(row.at("utilPermil")) / 1000.0;
    res.ok = row.at("ok") != 0;
    return res;
}

/** What the shared sweep driver needs to know about a view. */
template <class Scenario, class Result>
struct SweepView
{
    /** The scenario's calibrated functions (mix / functions). */
    std::vector<LoadMixEntry> Scenario::*functions;
    /** The scenario row key (loadKey / workflowKey). */
    std::string (ResultCache::*rowKey)(const ClusterConfig &,
                                       const std::string &) const;
    std::map<std::string, uint64_t> (*pack)(const Result &);
    Result (*unpack)(const std::string &,
                     const std::map<std::string, uint64_t> &);
    /** Calibrate (through the cache) and simulate one scenario. */
    Result (*run)(ResultCache &, const Scenario &);
};

/**
 * The two-phase sweep behind loadSweep() and workflowSweep(), fanned
 * out across SVBENCH_JOBS workers. Phase 1 calibrates every distinct
 * (cluster, function) the scenarios need, one cluster per fleet
 * class; phase 2 simulates the scenarios whose row is not cached.
 * Both phases compute concurrently but record in submission order, so
 * the backing CSV is byte-identical to a serial sweep. Duplicate keys
 * simulate once and share the result.
 */
template <class Scenario, class Result>
std::vector<Result>
sweepScenarios(ResultCache &cache, const std::vector<Scenario> &scenarios,
               unsigned jobs_override, const SweepView<Scenario, Result> &view)
{
    // --- Phase 1: calibrate every distinct (cluster, function) ----------
    // Class-structured fleets contribute one cluster per class (the
    // clusters are synthesised per scenario, so jobs store the config
    // by value).
    struct CalJob
    {
        ClusterConfig cfg;
        const FunctionSpec *spec;
        const WorkloadImpl *impl;
    };
    std::vector<CalJob> calJobs;
    std::map<std::string, char> seenCal;
    for (const Scenario &s : scenarios) {
        for (const ClusterConfig &cluster :
             calibrationClusters(s.cluster, s.fleet)) {
            for (const LoadMixEntry &entry : s.*view.functions) {
                const std::string key = cache.loadCalKey(cluster, entry.spec);
                if (!seenCal.emplace(key, 1).second)
                    continue;
                LoadCalibration cached;
                if (!cache.lookupLoadCal(cluster, entry.spec, cached))
                    calJobs.push_back({cluster, &entry.spec, entry.impl});
            }
        }
    }
    if (!calJobs.empty()) {
        const auto cals = parallelIndexed<LoadCalibration>(
            calJobs.size(),
            [&](size_t i) {
                return cache.computeLoadCal(calJobs[i].cfg, *calJobs[i].spec,
                                            *calJobs[i].impl);
            },
            jobs_override);
        for (size_t i = 0; i < calJobs.size(); ++i)
            cache.recordLoadCal(calJobs[i].cfg, *calJobs[i].spec, cals[i]);
    }

    // --- Phase 2: simulate the scenarios --------------------------------
    std::vector<Result> results(scenarios.size());
    std::vector<std::string> keys(scenarios.size());
    std::map<std::string, size_t> primaryForKey;
    std::vector<size_t> primaries;
    for (size_t i = 0; i < scenarios.size(); ++i) {
        keys[i] = (cache.*view.rowKey)(scenarios[i].cluster,
                                       scenarios[i].name);
        std::map<std::string, uint64_t> row;
        if (cache.lookupRow(keys[i], row))
            results[i] = view.unpack(scenarios[i].name, row);
        else if (primaryForKey.emplace(keys[i], i).second)
            primaries.push_back(i);
    }
    if (!primaries.empty()) {
        const auto fresh = parallelIndexed<Result>(
            primaries.size(),
            [&](size_t k) { return view.run(cache, scenarios[primaries[k]]); },
            jobs_override);
        for (size_t k = 0; k < primaries.size(); ++k) {
            results[primaries[k]] = fresh[k];
            cache.recordRow(keys[primaries[k]], view.pack(fresh[k]));
        }
    }
    for (size_t i = 0; i < scenarios.size(); ++i) {
        const auto it = primaryForKey.find(keys[i]);
        if (it != primaryForKey.end() && it->second != i)
            results[i] = results[it->second];
    }
    return results;
}

} // namespace svb::load

#endif // SVB_LOAD_TIMELINE_HH
