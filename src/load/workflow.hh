/**
 * @file
 * The workflow view: composed serverless functions scheduled as DAGs
 * over the invocation-load timeline.
 *
 * SeBS-Flow (PAPERS.md) benchmarks serverless *workflows* — chains,
 * fan-out/fan-in, map-reduce — and finds end-to-end latency is
 * governed by inter-function payload transfer and stage scheduling,
 * not just per-function service time. The subsystem's one event
 * engine (timeline.hh) schedules exactly that shape; the load runner
 * (load_runner.hh) is its other view, running a mix of one-task
 * workflows:
 *
 *  - a WorkflowSpec (dag.hh) names stages over the scenario's
 *    calibrated functions; an open-loop ArrivalProcess emits workflow
 *    *instances*, each executing every stage task of the DAG;
 *  - stage tasks are scheduled onto the PR-7 Fleet: per-stage
 *    placement is pluggable — Inherit routes through the fleet's
 *    policy, PayloadAffinity co-locates a task with its
 *    largest-payload producer (warm-cache hand-off);
 *  - inter-stage payloads are priced through a modelled transfer
 *    cost: a local (same node) hand-off is a DRAM-speed copy, a
 *    cross-node hop pays network base latency plus a far slower
 *    per-byte rate;
 *  - the fault/retry/breaker layer (fault.hh) applies per stage
 *    task: a failed task retries with backoff WITHOUT re-running its
 *    completed predecessors; exhausted retries fail the workflow;
 *  - per-task spans land on the scenario's obs track, and each
 *    completed workflow's critical path is computed by walking the
 *    last-finishing task's determining-predecessor chain — the
 *    per-stage attribution sums exactly to the end-to-end latency.
 *
 * Determinism contract: all randomness comes from the StreamId
 * substreams of the scenario seed (load_runner.hh) and events resolve
 * in (time, push-seq) order, so results are byte-identical at any
 * SVBENCH_JOBS. A single-stage workflow and a single-function load
 * scenario are the same engine run, so they agree on every shared
 * number (tests/test_workflow.cc pins this).
 *
 * Results are memoised in the ResultCache as mode-"wflow" rows
 * (RowSchema-registered); workflowSweep() fans scenarios across
 * SVBENCH_JOBS workers with submission-order recording, keeping the
 * backing CSV byte-identical to a serial sweep.
 */

#ifndef SVB_LOAD_WORKFLOW_HH
#define SVB_LOAD_WORKFLOW_HH

#include <string>
#include <vector>

#include "dag.hh"
#include "load_runner.hh"

namespace svb::load
{

/**
 * Inter-stage payload transfer cost: ns = base + bytes * nsPerKib /
 * 1024, on the local (consumer lands on the producer's node: the
 * payload is handed off through the node's warm cache/DRAM) or remote
 * (cross-node copy over the interconnect) tier. A zero-byte payload
 * moves nothing and costs nothing.
 */
struct TransferModel
{
    /** Same-node hand-off setup (cache-line ownership transfer). */
    uint64_t localBaseNs = 2'000; // 2 us
    /** Same-node per-KiB rate: ~100 GB/s DRAM-resident copy. */
    uint64_t localNsPerKib = 10;
    /** Cross-node setup (RPC + serialisation). */
    uint64_t remoteBaseNs = 60'000; // 60 us
    /** Cross-node per-KiB rate: ~3.2 GB/s network copy. */
    uint64_t remoteNsPerKib = 320;

    /** The modelled cost of moving @p bytes (0 when bytes == 0). */
    uint64_t costNs(uint64_t bytes, bool local) const;
};

/** A complete workflow-scenario description. */
struct WorkflowScenario
{
    /** Row-key component; same contract as LoadScenario::name (no
     *  ',', '|' or '='; must encode every knob that varies within a
     *  sweep — the cache keys rows by (cluster, name) alone). */
    std::string name;
    ClusterConfig cluster;
    /** Calibrated functions the DAG's stages index into. */
    std::vector<LoadMixEntry> functions;
    /** The DAG (validated against functions.size() on run). */
    WorkflowSpec dag;
    /** Arrival process of workflow instances (not of stage tasks). */
    ArrivalConfig arrival;
    PoolConfig pool;
    FaultConfig fault;
    RetryPolicy retry;
    BreakerConfig breaker;
    FleetConfig fleet;
    TransferModel transfer;
    /** Workflow instances to run. */
    uint64_t invocations = 500;
    uint64_t seed = 0xdafULL;
};

/** Per-stage slots the "wflow" cache row reserves for critical-path
 *  attribution; stages beyond this are simulated fine but their
 *  attribution shares are not memoised. */
constexpr size_t kMaxCritSlots = 12;

/** Scenario outcome: end-to-end distributions plus the critical-path
 *  attribution and transfer accounting. */
struct WorkflowResult
{
    std::string scenario;
    /** Workflow instances (NOT stage tasks). */
    uint64_t invocations = 0;
    /** Instances whose every task completed successfully. */
    uint64_t succeeded = 0;
    /** Instances that exhausted a task's retries. */
    uint64_t failedWorkflows = 0;
    /** Instances terminated by a breaker shed or a throttle. */
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
    uint64_t coldStarts = 0;
    uint64_t warmHits = 0;
    uint64_t evictions = 0;
    /** DAG shape echoed for cached rows. */
    uint64_t stages = 0;
    uint64_t tasksPerWorkflow = 0;

    /** End-to-end (arrival -> last task completion) percentiles over
     *  all instances, successes and failures alike. */
    uint64_t p50Ns = 0;
    uint64_t p90Ns = 0;
    uint64_t p99Ns = 0;
    uint64_t p999Ns = 0;
    uint64_t maxNs = 0;
    uint64_t goodP50Ns = 0;
    uint64_t goodP99Ns = 0;
    uint64_t errP99Ns = 0;
    /** Completed workflow instances per second of simulated time. */
    double throughputRps = 0.0;
    uint64_t histoFingerprint = 0;
    uint64_t goodFingerprint = 0;
    /** FNV over the per-stage critical-path totals: the determinism
     *  probe for the attribution itself. */
    uint64_t critFingerprint = 0;

    // --- inter-stage transfer accounting --------------------------------
    /** Payload hops served as same-node hand-offs / cross-node copies. */
    uint64_t transfersLocal = 0;
    uint64_t transfersRemote = 0;
    uint64_t bytesLocal = 0;
    uint64_t bytesRemote = 0;
    /** Total modelled transfer time charged. */
    uint64_t transferNs = 0;

    // --- fleet echo (as in LoadResult) ----------------------------------
    uint64_t nodes = 1;
    uint64_t policyId = 0;
    uint64_t maxActiveNodes = 1;
    double fleetUtilisation = 0.0;
    /** Node-class groups of the fleet (1 for a class-less fleet). */
    uint64_t classes = 1;
    /** Provisioned fleet power (milliwatts) / cost (milli-$/h). */
    uint64_t fleetPowerMw = 1000;
    uint64_t fleetCostMilli = 1000;
    /** Placement hints honoured vs fallen back to the routing policy
     *  (PayloadAffinity stages asking for an unroutable producer
     *  node): the observable cost of affinity misses. */
    uint64_t preferredHits = 0;
    uint64_t preferredMisses = 0;

    /**
     * Critical-path attribution: per-stage share (permil of the
     * summed critical time over all succeeded instances; sums to
     * ~1000). Sized to the DAG's stage count; the first kMaxCritSlots
     * survive the cache round-trip, the rest only on fresh runs.
     */
    std::vector<uint64_t> critPermil;
    /** Raw per-stage critical-path nanosecond totals (fresh runs
     *  only; empty when the result came from the CSV cache). */
    std::vector<uint64_t> critNsByStage;
    /** Per-stage transfer ns charged on critical tasks (fresh only). */
    std::vector<uint64_t> critXferNsByStage;

    /** Successful instances as a share of all, in percent. */
    double availabilityPct() const
    {
        return invocations
                   ? 100.0 * double(succeeded) / double(invocations)
                   : 0.0;
    }

    /** Full distributions; empty when served from the CSV cache. */
    LatencyHistogram latency;
    LatencyHistogram goodLatency;
    LatencyHistogram errorLatency;
    bool ok = false;
};

/**
 * Runs one workflow scenario at a time against a shared ResultCache
 * (calibration rows are memoised; the DAG simulation always runs so
 * the full histograms and attribution vectors are populated).
 */
class WorkflowRunner
{
  public:
    explicit WorkflowRunner(ResultCache &cache_arg) : cache(cache_arg) {}

    WorkflowResult run(const WorkflowScenario &scenario);

  private:
    ResultCache &cache;
};

/**
 * Run every scenario, fanned out across SVBENCH_JOBS workers: phase 1
 * calibrates every distinct (cluster, function) in submission order,
 * phase 2 simulates the scenarios concurrently with cached "wflow"
 * rows answered inline and fresh summaries recorded in submission
 * order. The backing CSV is byte-identical to a serial sweep.
 */
std::vector<WorkflowResult>
workflowSweep(ResultCache &cache,
              const std::vector<WorkflowScenario> &scenarios,
              unsigned jobs_override = 0);

} // namespace svb::load

#endif // SVB_LOAD_WORKFLOW_HH
