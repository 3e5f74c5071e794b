/**
 * @file
 * Workload detailed_sweep: a fresh Chapter-4 sweep of the
 * standalone + online-shop functions on riscv64 and cx86 (the
 * fig4_04 / fig4_12 configuration, 30 experiments, no stores).
 *
 * Why: this is the end-to-end "fresh figure run". The O3 stages take
 * most of its host time, and every experiment boots and publishes a
 * checkpoint (the write side of the store). Each repetition starts
 * from an empty result CSV and an empty checkpoint store; the seed
 * permutes each repetition's job submission order only, so the
 * simulated outputs are the same at every seed.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <map>
#include <random>
#include <thread>

#include "inputs.hh"

using namespace svb;

namespace perf
{

namespace
{

/** Set-ups per run: two on each CPU of a 4-CPU host. */
constexpr int kSweepSetups = 8;

std::vector<SweepJob>
sweepJobs()
{
    std::vector<SweepJob> jobs;
    for (IsaId isa : kIsas) {
        for (const SweepJob &job :
             benchutil::sweepJobs(benchutil::chapter4Config(isa, false),
                                  benchutil::standalonePlusShop()))
            jobs.push_back(job);
    }
    return jobs;
}

std::string
jobKey(const SweepJob &job)
{
    return std::string(isaName(job.cfg.system.isa)) + "." + job.spec.name;
}

void
digestStats(const std::string &prefix, const RequestStats &rs,
            std::vector<DigestEntry> &out)
{
    out.push_back({prefix + ".cycles", rs.cycles});
    out.push_back({prefix + ".insts", rs.insts});
    out.push_back({prefix + ".uops", rs.uops});
    out.push_back({prefix + ".l1iMisses", rs.l1iMisses});
    out.push_back({prefix + ".l1dMisses", rs.l1dMisses});
    out.push_back({prefix + ".l2Misses", rs.l2Misses});
    out.push_back({prefix + ".branches", rs.branches});
    out.push_back({prefix + ".branchMispredicts", rs.branchMispredicts});
    out.push_back({prefix + ".itlbMisses", rs.itlbMisses});
    out.push_back({prefix + ".dtlbMisses", rs.dtlbMisses});
    for (unsigned c = 0; c < numStallCauses; ++c)
        out.push_back({prefix + ".stall" + std::to_string(c), rs.stalls[c]});
}

/** The digest entries of one experiment's cold and warm request. */
std::vector<DigestEntry>
resultDigest(const std::string &key, const FunctionResult &res)
{
    std::vector<DigestEntry> out;
    digestStats(key + ".cold", res.cold, out);
    digestStats(key + ".warm", res.warm, out);
    return out;
}

bool
sameDigest(const std::vector<DigestEntry> &a,
           const std::vector<DigestEntry> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const DigestEntry &x, const DigestEntry &y) {
                          return x.key == y.key && x.value == y.value;
                      });
}

/**
 * The traced sweep: parallelSweep's own schedule (lookup every job,
 * one pool task per checkpoint group in submission order, record in
 * submission order) spelled out over the split-phase ResultCache API
 * and parallelIndexed, so each call gets its span.
 */
std::vector<FunctionResult>
tracedSweep(SpanLog &log, uint64_t rep, ResultCache &cache,
            const std::vector<SweepJob> &jobs, unsigned workers,
            uint64_t &hits)
{
    std::vector<FunctionResult> results(jobs.size());
    std::vector<size_t> misses;
    for (size_t i = 0; i < jobs.size(); ++i) {
        Scope s(log, "core.result_cache.lookup", rep, i);
        if (cache.lookupDetailed(jobs[i].cfg, jobs[i].spec, results[i]))
            ++hits;
        else
            misses.push_back(i);
    }
    std::map<std::string, std::vector<size_t>> groups;
    std::vector<const std::vector<size_t> *> order;
    for (size_t i : misses) {
        auto [it, inserted] =
            groups.try_emplace(cache.checkpointKeyOf(jobs[i].cfg,
                                                     jobs[i].spec));
        if (inserted)
            order.push_back(&it->second);
        it->second.push_back(i);
    }
    {
        Scope par(log, "core.parallel.run", rep);
        parallelIndexed<char>(
            order.size(),
            [&](size_t g) -> char {
                for (size_t i : *order[g]) {
                    Scope s(log, "core.experiment.run", par.id(), i);
                    results[i] = cache.computeDetailed(
                        jobs[i].cfg, jobs[i].spec, *jobs[i].impl);
                }
                return 1;
            },
            workers);
    }
    for (size_t i : misses) {
        Scope s(log, "core.result_cache.record", rep, i);
        cache.recordDetailed(jobs[i].cfg, jobs[i].spec, results[i]);
    }
    return results;
}

/** core.parallel metrics of one traced repetition's pool phase. */
void
parallelMetrics(const std::vector<Span> &spans, unsigned workers,
                double &busy_share, double &tail_s)
{
    for (const Span &par : named(spans, "core.parallel.run")) {
        double busy = 0.0;
        std::map<unsigned, int64_t> lastEnd; // worker -> last job end
        for (const Span &s : spans) {
            if (s.parent != par.id || s.name != "core.experiment.run")
                continue;
            busy += double(s.endNs - s.startNs) / 1e9;
            lastEnd[s.thread] = std::max(lastEnd[s.thread], s.endNs);
        }
        const double wall = double(par.endNs - par.startNs) / 1e9;
        busy_share += wall > 0 ? busy / (workers * wall) : 0.0;
        // A worker that never got a job is idle from the start.
        int64_t firstIdle = par.startNs;
        if (lastEnd.size() >= workers) {
            firstIdle = par.endNs;
            for (const auto &[thread, end] : lastEnd)
                firstIdle = std::min(firstIdle, end);
        }
        tail_s += double(par.endNs - firstIdle) / 1e9;
    }
}

/** Host CPUs this process may run on (empty if unknown). */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Run @p fn on a new thread pinned to host CPU @p cpu (unpinned if
 *  @p cpu is negative) and return its host time in seconds. */
double
timedOnCpu(int cpu, const std::function<void()> &fn)
{
    double seconds = 0.0;
    std::thread t([&] {
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
        }
        const Clock::time_point t0 = Clock::now();
        fn();
        seconds = secondsSince(t0);
    });
    t.join();
    return seconds;
}

} // namespace

void
runDetailedSweep(const Options &opt, SpanLog &log, Outcome &out)
{
    std::vector<SweepJob> jobs = sweepJobs();
    // Each repetition submits the jobs in its own order, drawn from the
    // seed, so a run's median spans several schedules rather than the
    // one tail a single order happens to leave.
    std::mt19937_64 order(opt.seed);

    // Set-up: a fail-fast pre-flight that builds every job's guest
    // programs once, before minutes of detailed simulation are spent.
    // It is single-threaded, and a shared host's CPUs drift apart in
    // speed, so the set-ups take turns over every CPU the process may
    // use and setup_s is their median.
    const std::vector<int> cpus = allowedCpus();
    for (int k = 0; k < kSweepSetups; ++k) {
        const int cpu = cpus.empty() ? -1 : cpus[k % cpus.size()];
        out.setupS.push_back(timedOnCpu(cpu, [&] {
            for (const SweepJob &job : jobs) {
                const IsaId isa = job.cfg.system.isa;
                buildServerProgram(job.spec, *job.impl, isa);
                buildClientProgram(job.spec, *job.impl, isa);
            }
        }));
    }

    std::map<std::string, FunctionResult> first; // job key -> rep-0 result
    uint64_t hits = 0, tracedReps = 0, publishes = 0;
    double cycles = 0, insts = 0;
    // An untraced run medians at least two sweeps; a traced run, whose
    // times are not compared, alternates one untraced and one traced.
    timedLoop(opt, log, opt.trace ? 1 : 2, [&](SpanLog &rlog, uint64_t rep) {
        // Fresh state: own directory, result CSV and checkpoint store.
        const std::string dir = freshDir(opt.workDir, "detailed_sweep");
        resetCheckpointStore(dir);
        ResultCache cache(dir + "/results.csv");
        std::shuffle(jobs.begin(), jobs.end(), order);

        const Clock::time_point t0 = Clock::now();
        std::vector<FunctionResult> results;
        if (rlog.enabled()) {
            Scope r(rlog, "rep", 0, rep);
            results = tracedSweep(rlog, r.id(), cache, jobs, opt.workers,
                                  hits);
        } else {
            results = parallelSweep(cache, jobs, opt.workers);
        }
        const double wall = secondsSince(t0);

        // Fresh-state guard: every experiment missed the result cache
        // (one new CSV row each) and published its own checkpoint.
        const size_t rows = countLines(dir + "/results.csv");
        const size_t ckpts = countCheckpoints(dir);
        if (rows != jobs.size())
            out.violation("detailed_sweep: " + std::to_string(rows) +
                          " result rows for " + std::to_string(jobs.size()) +
                          " jobs (expected all misses)");
        if (ckpts != jobs.size())
            out.violation("detailed_sweep: " + std::to_string(ckpts) +
                          " checkpoints published for " +
                          std::to_string(jobs.size()) +
                          " jobs (expected no checkpoint hits)");

        for (size_t i = 0; i < jobs.size(); ++i) {
            ++out.attempted;
            const FunctionResult &res = results[i];
            const std::string key = jobKey(jobs[i]);
            if (!res.ok) {
                out.violation("detailed_sweep: " + key + " not ok");
                continue;
            }
            auto [it, inserted] = first.try_emplace(key, res);
            if (!inserted && !sameDigest(resultDigest(key, it->second),
                                         resultDigest(key, res)))
                out.violation("detailed_sweep: " + key +
                              " differs between repetitions");
        }
        if (rlog.enabled()) {
            ++tracedReps;
            publishes += ckpts;
            for (const FunctionResult &res : results) {
                cycles += double(res.cold.cycles + res.warm.cycles);
                insts += double(res.cold.insts + res.warm.insts);
            }
        }
        return wall;
    }, out);

    for (const auto &[key, res] : first) {
        for (DigestEntry &e : resultDigest(key, res))
            out.digest.push_back(std::move(e));
    }

    if (!opt.trace)
        return;
    const std::vector<Span> spans = log.spans();
    const double n = double(tracedReps);
    const std::vector<Span> runs = named(spans, "core.experiment.run");
    double busyShare = 0, tail = 0;
    parallelMetrics(spans, opt.workers, busyShare, tail);
    out.layer["core.result_cache.lookup_ms"] =
        totalSeconds(named(spans, "core.result_cache.lookup")) * 1e3 / n;
    out.layer["core.result_cache.record_ms"] =
        totalSeconds(named(spans, "core.result_cache.record")) * 1e3 / n;
    out.layer["core.result_cache.hits"] = double(hits) / n;
    out.layer["core.experiment.calls"] = double(runs.size()) / n;
    out.layer["core.experiment.busy_s"] = totalSeconds(runs) / n;
    out.layer["core.experiment.p50_ms"] = quantile(durationsMs(runs), 0.5);
    out.layer["core.experiment.p90_ms"] = quantile(durationsMs(runs), 0.9);
    out.layer["core.parallel.busy_share"] = busyShare / n;
    out.layer["core.parallel.tail_s"] = tail / n;
    // Every experiment acquires once; a miss boots and publishes.
    out.layer["core.checkpoint_store.publishes"] = double(publishes) / n;
    out.layer["core.checkpoint_store.hits"] =
        double(runs.size() - publishes) / n;
    out.layer["sim.measured_cycles"] = cycles / n;
    out.layer["sim.measured_insts"] = insts / n;

    // Probe one function per runtime tier on both ISAs.
    runLayerProbe(log, freshDir(opt.workDir, "probe"),
                  probePoints({standaloneFunction("fibonacci-go"),
                               standaloneFunction("fibonacci-python"),
                               standaloneFunction("fibonacci-nodejs")}),
                  out);
}

} // namespace perf
