#include "workflow.hh"

#include <algorithm>
#include <map>

#include "obs/stat_export.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "timeline.hh"

namespace svb::load
{

uint64_t
TransferModel::costNs(uint64_t bytes, bool local) const
{
    if (bytes == 0)
        return 0;
    const uint64_t base = local ? localBaseNs : remoteBaseNs;
    const uint64_t rate = local ? localNsPerKib : remoteNsPerKib;
    return base + bytes * rate / 1024;
}

namespace
{

/** FNV-1a over a vector of counters: the determinism probe for the
 *  per-stage critical-path attribution. */
uint64_t
fnvOver(const std::vector<uint64_t> &values)
{
    uint64_t fp = 1469598103934665603ull;
    auto mix = [&fp](uint64_t v) {
        for (unsigned b = 0; b < 8; ++b) {
            fp ^= (v >> (8 * b)) & 0xff;
            fp *= 1099511628211ull;
        }
    };
    mix(values.size());
    for (const uint64_t v : values)
        mix(v);
    return fp;
}

/** The "wflow" row's counters (schema v1 with packRow's extras and
 *  the crit# attribution slots). */
const RowField<WorkflowResult> kWorkflowRow[] = {
    {"invocations", &WorkflowResult::invocations},
    {"succeeded", &WorkflowResult::succeeded},
    {"failedWf", &WorkflowResult::failedWorkflows},
    {"sheds", &WorkflowResult::sheds},
    {"throttles", &WorkflowResult::throttles},
    {"retries", &WorkflowResult::retries},
    {"crashes", &WorkflowResult::crashes},
    {"timeouts", &WorkflowResult::timeouts},
    {"coldFails", &WorkflowResult::coldStartFailures},
    {"corruptRestores", &WorkflowResult::corruptRestores},
    {"stragglers", &WorkflowResult::stragglers},
    {"breakerOpens", &WorkflowResult::breakerOpens},
    {"nodeFaults", &WorkflowResult::nodeFaults},
    {"coldStarts", &WorkflowResult::coldStarts},
    {"warmHits", &WorkflowResult::warmHits},
    {"evictions", &WorkflowResult::evictions},
    {"stages", &WorkflowResult::stages},
    {"tasks", &WorkflowResult::tasksPerWorkflow},
    {"p50Ns", &WorkflowResult::p50Ns},
    {"p90Ns", &WorkflowResult::p90Ns},
    {"p99Ns", &WorkflowResult::p99Ns},
    {"p999Ns", &WorkflowResult::p999Ns},
    {"maxNs", &WorkflowResult::maxNs},
    {"histoFp", &WorkflowResult::histoFingerprint},
    {"goodP50Ns", &WorkflowResult::goodP50Ns},
    {"goodP99Ns", &WorkflowResult::goodP99Ns},
    {"errP99Ns", &WorkflowResult::errP99Ns},
    {"goodFp", &WorkflowResult::goodFingerprint},
    {"critFp", &WorkflowResult::critFingerprint},
    {"xferLocal", &WorkflowResult::transfersLocal},
    {"xferRemote", &WorkflowResult::transfersRemote},
    {"xferLocalBytes", &WorkflowResult::bytesLocal},
    {"xferRemoteBytes", &WorkflowResult::bytesRemote},
    {"xferNs", &WorkflowResult::transferNs},
    {"nodes", &WorkflowResult::nodes},
    {"policy", &WorkflowResult::policyId},
    {"maxActive", &WorkflowResult::maxActiveNodes},
    {"classes", &WorkflowResult::classes},
    {"powerMw", &WorkflowResult::fleetPowerMw},
    {"costMilli", &WorkflowResult::fleetCostMilli},
    {"prefHits", &WorkflowResult::preferredHits},
    {"prefMisses", &WorkflowResult::preferredMisses},
};

std::map<std::string, uint64_t>
packWorkflowResult(const WorkflowResult &res)
{
    std::map<std::string, uint64_t> row = packRow(kWorkflowRow, res);
    for (size_t k = 0; k < kMaxCritSlots; ++k)
        row["crit" + std::to_string(k)] =
            k < res.critPermil.size() ? res.critPermil[k] : 0;
    return row;
}

WorkflowResult
unpackWorkflowResult(const std::string &scenario,
                     const std::map<std::string, uint64_t> &row)
{
    WorkflowResult res = unpackRow(kWorkflowRow, scenario, row);
    // Attribution shares survive the round-trip for the first
    // kMaxCritSlots stages; anything beyond reads as 0 from a cached
    // row (fresh runs carry the full vector).
    res.critPermil.assign(res.stages, 0);
    for (size_t k = 0; k < std::min<size_t>(res.stages, kMaxCritSlots);
         ++k)
        res.critPermil[k] = row.at("crit" + std::to_string(k));
    return res;
}

/** Workflow-view span label: "w<instance>/<stage>.<k>", plus
 *  "~<attempt>" on retries. */
std::string
workflowLabel(uint32_t inst, const StageSpec &stage, unsigned k,
              unsigned attempt)
{
    std::string t = "w" + std::to_string(inst) + "/" + stage.name + "." +
                    std::to_string(k);
    if (attempt > 0)
        t += "~" + std::to_string(attempt);
    return t;
}

} // namespace

WorkflowResult
WorkflowRunner::run(const WorkflowScenario &scenario)
{
    validateScenarioName(scenario.name);
    svb_assert(!scenario.functions.empty(),
               "workflow scenario with no functions");
    svb_assert(scenario.invocations > 0,
               "workflow scenario with no traffic");
    scenario.dag.validate(scenario.functions.size());

    CalMatrix cals;
    if (!calibrateScenario(cache, scenario.name, scenario.cluster,
                           scenario.fleet, scenario.functions, cals)) {
        WorkflowResult res;
        res.scenario = scenario.name;
        return res;
    }

    static const TimelineView view{"wflow", workflowLabel, true};
    Fleet fleet(scenario.fleet, scenario.pool,
                unsigned(scenario.functions.size()));
    TimelineResult t =
        runTimeline(scenario, {{scenario.dag, 1.0}}, cals, view, fleet);
    WorkflowResult res;
    projectTimeline(scenario, fleet, t, res);
    res.failedWorkflows = t.failed;
    res.stages = scenario.dag.stages.size();
    res.tasksPerWorkflow = scenario.dag.totalTasks();
    res.transfersLocal = t.transfersLocal;
    res.transfersRemote = t.transfersRemote;
    res.bytesLocal = t.bytesLocal;
    res.bytesRemote = t.bytesRemote;
    res.transferNs = t.transferNs;
    res.preferredHits = fleet.preferredHits();
    res.preferredMisses = fleet.preferredMisses();

    // Per-stage attribution: integer permil of the total critical time
    // (floor division — shares sum to <= 1000 deterministically).
    const size_t numStages = scenario.dag.stages.size();
    uint64_t critTotal = 0;
    for (const uint64_t v : t.critNs)
        critTotal += v;
    res.critPermil.assign(numStages, 0);
    for (size_t st = 0; st < numStages; ++st)
        res.critPermil[st] = critTotal ? t.critNs[st] * 1000 / critTotal : 0;
    res.critNsByStage = t.critNs;
    res.critXferNsByStage = t.critXferNs;
    res.critFingerprint = fnvOver(t.critNs);

    // wflow.* StatGroup counters through the observability layer,
    // dumped wherever SVBENCH_STATDUMP points.
    if (!obs::statDumpDir().empty()) {
        StatGroup wstats("wflow");
        auto set = [&wstats](const std::string &name,
                             const std::string &desc, uint64_t v) {
            wstats.addScalar(name, desc) += v;
        };
        set("shape.stages", "stages per workflow", res.stages);
        set("shape.tasks", "tasks per workflow instance",
            res.tasksPerWorkflow);
        set("outcome.succeeded", "workflow instances completed",
            res.succeeded);
        set("outcome.failed", "workflow instances failed",
            res.failedWorkflows);
        set("outcome.sheds", "workflow instances shed/throttled",
            res.sheds);
        set("xfer.local", "same-node payload hand-offs",
            res.transfersLocal);
        set("xfer.remote", "cross-node payload copies",
            res.transfersRemote);
        set("xfer.totalNs", "modelled transfer time charged",
            res.transferNs);
        set("sched.prefHits", "placement hints honoured",
            res.preferredHits);
        set("sched.prefMisses",
            "placement hints that fell back to the routing policy",
            res.preferredMisses);
        if (fleet.classed()) {
            for (unsigned g = 0; g < fleet.groupCount(); ++g) {
                uint64_t routed = 0;
                for (unsigned n = 0; n < fleet.nodeCount(); ++n)
                    if (fleet.groupOf(n) == g)
                        routed += fleet.nodeStats(n).routed;
                set("class." + fleet.nodeClass(g).name + ".routed",
                    "task attempts routed to the class", routed);
            }
        }
        for (size_t st = 0; st < numStages; ++st)
            set("crit." + scenario.dag.stages[st].name,
                "critical-path ns attributed to the stage", t.critNs[st]);
        obs::dumpRequestStats(
            trackName(scenario.cluster, scenario.name, "wflow") + ".engine",
            obs::snapshot(wstats));
    }
    return res;
}

std::vector<WorkflowResult>
workflowSweep(ResultCache &cache,
              const std::vector<WorkflowScenario> &scenarios,
              unsigned jobs_override)
{
    for (const WorkflowScenario &s : scenarios) {
        validateScenarioName(s.name);
        s.dag.validate(s.functions.size());
    }
    return sweepScenarios<WorkflowScenario, WorkflowResult>(
        cache, scenarios, jobs_override,
        {&WorkflowScenario::functions, "wflow",
         packWorkflowResult, unpackWorkflowResult,
         [](ResultCache &c, const WorkflowScenario &s) {
             return WorkflowRunner(c).run(s);
         }});
}

} // namespace svb::load
