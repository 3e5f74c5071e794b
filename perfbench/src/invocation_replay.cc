/**
 * @file
 * Workload invocation_replay: the two event engines over cached
 * calibrations.
 *
 * Why: no guest simulation runs in the timed phase, so this isolates
 * the load engine (LoadRunner::run) and the workflow engine
 * (WorkflowRunner::run). Set-up calibrates the Go mix on both ISAs
 * into the result cache; every calibration is a hit afterwards.
 * LoadRunner::run never consults the load-row cache, so the engine
 * itself is what gets timed. Both scenarios use the workload seed as
 * their scenario seed.
 */

#include <algorithm>
#include <sstream>

#include "inputs.hh"
#include "load/workflow.hh"

using namespace svb;

namespace perf
{

namespace
{

/** Load-scenario size: about a second of engine time per repetition. */
constexpr uint64_t kLoadInvocations = 1'000'000;
/** Workflow instances (each runs the map-reduce DAG's 8 tasks). */
constexpr uint64_t kWorkflowInvocations = 100'000;
constexpr uint64_t kPayloadBytes = 64 * 1024;

std::vector<load::LoadMixEntry>
goMix()
{
    std::vector<load::LoadMixEntry> mix;
    for (const FunctionSpec &spec : goFunctions())
        mix.push_back({spec, &workloads::workloadImpl(spec.workload), 1.0});
    return mix;
}

/** Faults at the moderate preset, answered by jittered retries. */
void
resilience(load::FaultConfig &fault, load::RetryPolicy &retry)
{
    fault = load::defaultFaultPreset();
    retry.maxAttempts = 3;
    retry.backoffBaseNs = 500'000;  // 500 us
    retry.backoffCapNs = 10'000'000; // 10 ms
}

load::LoadScenario
loadScenario(uint64_t seed)
{
    load::LoadScenario s;
    std::ostringstream name;
    name << "perf;go-mix3;poisson8000;nodes4;faults;retry3;n"
         << kLoadInvocations << ";seed" << seed;
    s.name = name.str();
    s.cluster = benchutil::chapter4Config(IsaId::Riscv, false);
    s.mix = goMix();
    s.arrival.kind = load::ArrivalKind::Poisson;
    s.arrival.ratePerSec = 8000.0;
    s.pool = {load::KeepAlivePolicy::FixedTtl, 4, 50'000'000};
    resilience(s.fault, s.retry);
    s.fleet.nodes = 4;
    s.invocations = kLoadInvocations;
    s.seed = seed;
    return s;
}

load::WorkflowScenario
workflowScenario(uint64_t seed)
{
    load::WorkflowScenario s;
    std::ostringstream name;
    name << "perf;go-mix3;map-reduce-4x2;poisson500;nodes4;faults;retry3;n"
         << kWorkflowInvocations << ";seed" << seed;
    s.name = name.str();
    s.cluster = benchutil::chapter4Config(IsaId::Cx86, false);
    s.functions = goMix();
    s.dag = load::mapReduceSpec("map-reduce", 4, 2, {0, 1, 2}, kPayloadBytes);
    s.arrival.kind = load::ArrivalKind::Poisson;
    s.arrival.ratePerSec = 500.0;
    s.pool = {load::KeepAlivePolicy::FixedTtl, 2, 50'000'000};
    resilience(s.fault, s.retry);
    s.fleet.nodes = 4;
    s.invocations = kWorkflowInvocations;
    s.seed = seed;
    return s;
}

} // namespace

void
runInvocationReplay(const Options &opt, SpanLog &log, Outcome &out)
{
    const load::LoadScenario ls = loadScenario(opt.seed);
    const load::WorkflowScenario ws = workflowScenario(opt.seed);

    struct Cal
    {
        ClusterConfig cfg;
        FunctionSpec spec;
    };
    std::vector<Cal> cals;
    for (const load::LoadMixEntry &e : ls.mix)
        cals.push_back({ls.cluster, e.spec});
    for (const load::LoadMixEntry &e : ws.functions)
        cals.push_back({ws.cluster, e.spec});

    // Set-up, several times on fresh state; the last one is kept:
    // calibrate every (platform, function) into an empty result cache.
    std::string dir;
    std::unique_ptr<ResultCache> cache;
    std::vector<LoadCalibration> calibrated, first;
    for (int k = 0; k < kSetups; ++k) {
        cache.reset();
        dir = freshDir(opt.workDir, "invocation_replay");
        resetCheckpointStore(dir);
        cache = std::make_unique<ResultCache>(dir + "/results.csv");
        const Clock::time_point t0 = Clock::now();
        calibrated = parallelIndexed<LoadCalibration>(
            cals.size(),
            [&](size_t i) {
                const Cal &c = cals[i];
                return cache->loadCalibration(
                    c.cfg, c.spec, workloads::workloadImpl(c.spec.workload));
            },
            opt.workers);
        out.setupS.push_back(secondsSince(t0));
        if (k == 0)
            first = calibrated;
        for (size_t i = 0; i < cals.size(); ++i) {
            if (calibrated[i].coldNs != first[i].coldNs ||
                !std::equal(std::begin(calibrated[i].warmNs),
                            std::end(calibrated[i].warmNs),
                            std::begin(first[i].warmNs)))
                out.violation("invocation_replay: calibration of " +
                              cals[i].spec.name + " differs between set-ups");
        }
    }
    for (size_t i = 0; i < cals.size(); ++i) {
        const LoadCalibration &cal = calibrated[i];
        const std::string key = std::string("invocation_replay.cal.") +
                                isaName(cals[i].cfg.system.isa) + "." +
                                cals[i].spec.name;
        if (!cal.ok)
            out.violation("invocation_replay: calibration " + key +
                          " not ok");
        out.digest.push_back({key + ".coldNs", cal.coldNs});
        for (unsigned w = 0; w < loadWarmSamples; ++w)
            out.digest.push_back(
                {key + ".warmNs" + std::to_string(w), cal.warmNs[w]});
    }
    const size_t rows = countLines(dir + "/results.csv");

    load::LoadRunner loadRunner(*cache);
    load::WorkflowRunner workflowRunner(*cache);
    // One engine run: a load run for even indices, a workflow run for
    // odd ones.
    struct EngineRun
    {
        load::LoadResult lr;
        load::WorkflowResult wr;
        double seconds = 0;
    };
    const size_t batch = 2 * opt.workers;
    std::vector<double> loadRate, wflowRate;
    std::vector<EngineRun> traced;
    std::vector<DigestEntry> firstLoad, firstWflow;
    const auto sameAsFirst = [&](std::vector<DigestEntry> &first,
                                 std::vector<DigestEntry> digest) {
        if (first.empty()) {
            first = std::move(digest);
            return;
        }
        for (size_t i = 0; i < digest.size(); ++i) {
            if (digest[i].value != first[i].value)
                out.violation("invocation_replay: " + digest[i].key +
                              " differs between runs");
        }
    };
    timedLoop(opt, log, 3, [&](SpanLog &rlog, uint64_t rep) {
        // Closed loop: opt.workers clients, each starting its next
        // engine run when the previous one returns. Every run replays
        // the same seeded scenario, so all runs of a kind must agree.
        const Clock::time_point t0 = Clock::now();
        std::vector<EngineRun> runs;
        {
            Scope r(rlog, "rep", 0, rep);
            runs = parallelIndexed<EngineRun>(
                batch,
                [&](size_t k) {
                    EngineRun run;
                    const bool wflow = k % 2 == 1;
                    Scope s(rlog,
                            wflow ? "load.workflow.run"
                                  : "load.load_runner.run",
                            r.id(), rep * batch + k);
                    const Clock::time_point r0 = Clock::now();
                    if (wflow)
                        run.wr = workflowRunner.run(ws);
                    else
                        run.lr = loadRunner.run(ls);
                    run.seconds = secondsSince(r0);
                    return run;
                },
                opt.workers);
        }
        const double wall = secondsSince(t0);

        for (size_t k = 0; k < batch; ++k) {
            ++out.attempted;
            const EngineRun &run = runs[k];
            if (k % 2 == 1) {
                const load::WorkflowResult &wr = run.wr;
                if (!wr.ok)
                    out.violation("invocation_replay: workflow run not ok");
                if (wr.succeeded + wr.failedWorkflows + wr.sheds !=
                    wr.invocations)
                    out.violation("invocation_replay: workflow outcomes do "
                                  "not add up to its invocations");
                sameAsFirst(
                    firstWflow,
                    {{"invocation_replay.wflow.invocations", wr.invocations,
                      true},
                     {"invocation_replay.wflow.succeeded", wr.succeeded,
                      true},
                     {"invocation_replay.wflow.transfersRemote",
                      wr.transfersRemote, true},
                     {"invocation_replay.wflow.histoFingerprint",
                      wr.histoFingerprint, true},
                     {"invocation_replay.wflow.goodFingerprint",
                      wr.goodFingerprint, true},
                     {"invocation_replay.wflow.critFingerprint",
                      wr.critFingerprint, true}});
                if (!rlog.enabled())
                    wflowRate.push_back(double(wr.invocations) / run.seconds);
            } else {
                const load::LoadResult &lr = run.lr;
                if (!lr.ok)
                    out.violation("invocation_replay: load run not ok");
                if (lr.succeeded + lr.failedInvocations + lr.sheds !=
                    lr.invocations)
                    out.violation("invocation_replay: load outcomes do not "
                                  "add up to its invocations");
                sameAsFirst(
                    firstLoad,
                    {{"invocation_replay.load.invocations", lr.invocations,
                      true},
                     {"invocation_replay.load.succeeded", lr.succeeded, true},
                     {"invocation_replay.load.coldStarts", lr.coldStarts,
                      true},
                     {"invocation_replay.load.retries", lr.retries, true},
                     {"invocation_replay.load.histoFingerprint",
                      lr.histoFingerprint, true},
                     {"invocation_replay.load.goodFingerprint",
                      lr.goodFingerprint, true}});
                if (!rlog.enabled())
                    loadRate.push_back(double(lr.invocations) / run.seconds);
            }
            if (rlog.enabled())
                traced.push_back(run);
        }
        return wall;
    }, out);
    out.digest.insert(out.digest.end(), firstLoad.begin(), firstLoad.end());
    out.digest.insert(out.digest.end(), firstWflow.begin(),
                      firstWflow.end());

    // Cache guard: every calibration was a hit, so no row was added.
    if (countLines(dir + "/results.csv") != rows)
        out.violation("invocation_replay: the timed phase computed "
                      "calibrations (expected all result-cache hits)");

    out.report.push_back({"load_inv_per_s", median(loadRate), "1/s"});
    out.report.push_back({"wflow_inv_per_s", median(wflowRate), "1/s"});

    if (!opt.trace)
        return;
    const std::vector<Span> spans = log.spans();
    const double reps = double(out.tracedWallS.size());
    const std::vector<Span> loads = named(spans, "load.load_runner.run");
    const std::vector<Span> wflows = named(spans, "load.workflow.run");
    double invs = 0, retries = 0, colds = 0;
    double winvs = 0, wretries = 0, tasks = 0, remote = 0;
    for (const EngineRun &run : traced) {
        invs += double(run.lr.invocations);
        retries += double(run.lr.retries);
        colds += double(run.lr.coldStarts);
        winvs += double(run.wr.invocations);
        tasks += double(run.wr.invocations * run.wr.tasksPerWorkflow);
        remote += double(run.wr.transfersRemote);
        wretries += double(run.wr.retries);
    }
    out.layer["load.load_runner.busy_s"] = totalSeconds(loads) / reps;
    out.layer["load.load_runner.invocations"] = invs / reps;
    out.layer["load.load_runner.retries"] = retries / reps;
    out.layer["load.load_runner.cold_starts"] = colds / reps;
    out.layer["load.load_runner.inv_per_s"] = invs / totalSeconds(loads);
    out.layer["load.workflow.busy_s"] = totalSeconds(wflows) / reps;
    out.layer["load.workflow.invocations"] = winvs / reps;
    out.layer["load.workflow.tasks"] = tasks / reps;
    out.layer["load.workflow.retries"] = wretries / reps;
    out.layer["load.workflow.remote_transfers"] = remote / reps;
    out.layer["load.workflow.inv_per_s"] = winvs / totalSeconds(wflows);

    std::vector<FunctionSpec> specs;
    for (const load::LoadMixEntry &e : ls.mix)
        specs.push_back(e.spec);
    runLayerProbe(log, freshDir(opt.workDir, "probe"), probePoints(specs),
                  out);
}

} // namespace perf
