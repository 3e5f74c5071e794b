#include "load_runner.hh"

#include <map>

#include "obs/stat_export.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "timeline.hh"

namespace svb::load
{

namespace
{

/** The "load" row's counters; packRow() adds the shared extras. */
const RowField<LoadResult> kLoadRow[] = {
    {"invocations", &LoadResult::invocations},
    {"coldStarts", &LoadResult::coldStarts},
    {"warmHits", &LoadResult::warmHits},
    {"evictions", &LoadResult::evictions},
    {"p50Ns", &LoadResult::p50Ns},
    {"p90Ns", &LoadResult::p90Ns},
    {"p99Ns", &LoadResult::p99Ns},
    {"p999Ns", &LoadResult::p999Ns},
    {"maxNs", &LoadResult::maxNs},
    {"histoFp", &LoadResult::histoFingerprint},
    {"succeeded", &LoadResult::succeeded},
    {"failedInv", &LoadResult::failedInvocations},
    {"sheds", &LoadResult::sheds},
    {"retries", &LoadResult::retries},
    {"crashes", &LoadResult::crashes},
    {"timeouts", &LoadResult::timeouts},
    {"coldFails", &LoadResult::coldStartFailures},
    {"corruptRestores", &LoadResult::corruptRestores},
    {"stragglers", &LoadResult::stragglers},
    {"breakerOpens", &LoadResult::breakerOpens},
    {"goodP50Ns", &LoadResult::goodP50Ns},
    {"goodP99Ns", &LoadResult::goodP99Ns},
    {"errP99Ns", &LoadResult::errP99Ns},
    {"goodFp", &LoadResult::goodFingerprint},
    {"nodes", &LoadResult::nodes},
    {"policy", &LoadResult::policyId},
    {"maxActive", &LoadResult::maxActiveNodes},
    {"throttles", &LoadResult::throttles},
    {"nodeFaults", &LoadResult::nodeFaults},
    {"classes", &LoadResult::classes},
    {"powerMw", &LoadResult::fleetPowerMw},
    {"costMilli", &LoadResult::fleetCostMilli},
};

/** Load-view span label: the invocation index, plus ".<attempt>" on
 *  retries, so fault-free traces keep the "cold#i"/"warm#i" names. */
std::string
loadLabel(uint32_t inst, const StageSpec &, unsigned, unsigned attempt)
{
    std::string t = std::to_string(inst);
    if (attempt > 0)
        t += "." + std::to_string(attempt);
    return t;
}

/** The resilience and fleet stat groups of a fresh load result, dumped
 *  wherever SVBENCH_STATDUMP points. Each group is emitted only when
 *  its machinery is engaged, so plain scenarios keep the legacy
 *  stat-file set byte-for-byte. */
void
dumpLoadStats(const LoadScenario &s, const LoadResult &res, Fleet &fleet)
{
    if (obs::statDumpDir().empty())
        return;
    if (s.fault.any() || s.breaker.enabled) {
        StatGroup fstats("fault");
        auto set = [&fstats](const char *name, const char *desc,
                             uint64_t v) {
            fstats.addScalar(name, desc) += v;
        };
        set("injected.coldFail", "injected failed cold starts",
            res.coldStartFailures);
        set("injected.crash", "injected instance crashes", res.crashes);
        set("injected.straggler", "injected straggler slowdowns",
            res.stragglers);
        set("injected.corruptRestore", "injected corrupt restores",
            res.corruptRestores);
        set("retry.retries", "retry attempts issued", res.retries);
        set("retry.timeouts", "client-side attempt timeouts",
            res.timeouts);
        set("breaker.opens", "circuit-breaker open transitions",
            res.breakerOpens);
        set("breaker.sheds", "requests shed to the degraded path",
            res.sheds);
        set("outcome.succeeded", "invocations answered successfully",
            res.succeeded);
        set("outcome.failed", "invocations exhausted without success",
            res.failedInvocations);
        obs::dumpRequestStats(trackName(s.cluster, s.name, "load") + ".fault",
                              obs::snapshot(fstats));
    }
    if (s.fleet.engaged()) {
        StatGroup fstats("fleet");
        auto set = [&fstats](const std::string &name,
                             const std::string &desc, uint64_t v) {
            fstats.addScalar(name, desc) += v;
        };
        set("sched.policy", "routing policy id", res.policyId);
        set("sched.throttles", "attempts rejected by the concurrency limit",
            res.throttles);
        set("sched.nodeFaults", "node fault events applied",
            res.nodeFaults);
        set("sched.maxActive", "peak concurrently active nodes",
            fleet.maxActiveNodes());
        set("sched.activations", "node scale-up activations",
            fleet.activations());
        set("sched.deactivations", "node scale-down retirements",
            fleet.deactivations());
        set("sched.evaluations", "autoscaler evaluation rounds",
            fleet.autoscaleEvaluations());
        set("sched.prefHits", "placement hints honoured",
            fleet.preferredHits());
        set("sched.prefMisses", "placement hints that fell back",
            fleet.preferredMisses());
        if (fleet.classed()) {
            for (unsigned g = 0; g < fleet.groupCount(); ++g) {
                const std::string p =
                    "class." + fleet.nodeClass(g).name + ".";
                set(p + "nodes", "provisioned nodes of the class",
                    fleet.config().spec.groups[g].count);
                set(p + "active", "active nodes of the class at the end",
                    fleet.groupActiveNodes(g));
                set(p + "routed", "attempts routed to the class",
                    res.classRouted[g]);
            }
        }
        for (unsigned n = 0; n < fleet.nodeCount(); ++n) {
            const std::string p = "node" + std::to_string(n) + ".";
            const NodeStats &nst = fleet.nodeStats(n);
            const PoolStats &ps = fleet.pool(n).stats();
            set(p + "routed", "attempts routed to the node", nst.routed);
            set(p + "busyNs", "occupied slot-time on the node",
                nst.busyNs);
            set(p + "crashEvents", "node-level crashes applied",
                nst.crashEvents);
            set(p + "coldStarts", "cold starts on the node",
                ps.coldStarts);
            set(p + "warmHits", "warm hits on the node", ps.warmHits);
            set(p + "evictions", "instance evictions on the node",
                ps.evictions);
        }
        obs::dumpRequestStats(trackName(s.cluster, s.name, "load") + ".fleet",
                              obs::snapshot(fstats));
    }
}

} // namespace

void
validateScenarioName(const std::string &name)
{
    svb_assert(!name.empty(), "load scenario with an empty name");
    svb_assert(name.find_first_of(",|=") == std::string::npos,
               "load scenario name '", name,
               "' contains a cache metacharacter (',', '|' or '=')");
}

double
safeRatePerSec(uint64_t events, uint64_t span_ns)
{
    return span_ns ? double(events) * 1e9 / double(span_ns) : 0.0;
}

double
safeShare(uint64_t part_ns, uint64_t whole_ns)
{
    return whole_ns ? double(part_ns) / double(whole_ns) : 0.0;
}

ClusterConfig
classCluster(const NodeClass &klass, const ClusterConfig &base)
{
    if (!klass.ownSystem)
        return base;
    ClusterConfig c = base;
    c.system = klass.system;
    c.classTag = klass.name;
    return c;
}

std::vector<ClusterConfig>
calibrationClusters(const ClusterConfig &base, const FleetConfig &fleet)
{
    std::vector<ClusterConfig> clusters;
    if (fleet.spec.empty()) {
        clusters.push_back(base);
        return clusters;
    }
    clusters.reserve(fleet.spec.groups.size());
    for (const FleetGroup &g : fleet.spec.groups)
        clusters.push_back(classCluster(g.klass, base));
    return clusters;
}

LoadResult
LoadRunner::run(const LoadScenario &scenario)
{
    validateScenarioName(scenario.name);
    svb_assert(!scenario.mix.empty(), "load scenario with empty mix");
    svb_assert(scenario.invocations > 0, "load scenario with no traffic");

    CalMatrix cals;
    if (!calibrateScenario(cache, scenario.name, scenario.cluster,
                           scenario.fleet, scenario.mix, cals)) {
        LoadResult res;
        res.scenario = scenario.name;
        return res;
    }

    // The scenario as a weighted mix of one-task workflows, one per
    // traffic-mix entry.
    WorkflowScenario ws;
    ws.name = scenario.name;
    ws.cluster = scenario.cluster;
    ws.functions = scenario.mix;
    ws.arrival = scenario.arrival;
    ws.pool = scenario.pool;
    ws.fault = scenario.fault;
    ws.retry = scenario.retry;
    ws.breaker = scenario.breaker;
    ws.fleet = scenario.fleet;
    ws.invocations = scenario.invocations;
    ws.seed = scenario.seed;
    std::vector<MixedWorkflow> mix(scenario.mix.size());
    for (size_t m = 0; m < mix.size(); ++m) {
        mix[m].dag.stages = {{scenario.mix[m].spec.name, uint32_t(m)}};
        mix[m].weight = scenario.mix[m].weight;
    }

    static const TimelineView view{"load", loadLabel, false};
    Fleet fleet(ws.fleet, ws.pool, unsigned(ws.functions.size()));
    TimelineResult t = runTimeline(ws, mix, cals, view, fleet);
    LoadResult res;
    projectTimeline(ws, fleet, t, res);
    res.failedInvocations = t.failed;
    const uint64_t nodeCapacityNs = t.lastEndNs * ws.pool.maxInstances;
    res.nodeUtilisation.assign(fleet.nodeCount(), 0.0);
    for (unsigned n = 0; n < fleet.nodeCount(); ++n)
        res.nodeUtilisation[n] =
            safeShare(fleet.nodeStats(n).busyNs, nodeCapacityNs);
    if (fleet.classed()) {
        res.classRouted.assign(fleet.groupCount(), 0);
        res.classNames.resize(fleet.groupCount());
        for (unsigned g = 0; g < fleet.groupCount(); ++g)
            res.classNames[g] = fleet.nodeClass(g).name;
        for (unsigned n = 0; n < fleet.nodeCount(); ++n)
            res.classRouted[fleet.groupOf(n)] += fleet.nodeStats(n).routed;
    }
    dumpLoadStats(scenario, res, fleet);
    return res;
}

std::vector<LoadResult>
loadSweep(ResultCache &cache, const std::vector<LoadScenario> &scenarios,
          unsigned jobs_override)
{
    for (const LoadScenario &s : scenarios)
        validateScenarioName(s.name);
    return sweepScenarios<LoadScenario, LoadResult>(
        cache, scenarios, jobs_override,
        {&LoadScenario::mix, "load",
         [](const LoadResult &res) { return packRow(kLoadRow, res); },
         [](const std::string &name,
            const std::map<std::string, uint64_t> &row) {
             return unpackRow(kLoadRow, name, row);
         },
         [](ResultCache &c, const LoadScenario &s) {
             return LoadRunner(c).run(s);
         }});
}

} // namespace svb::load
