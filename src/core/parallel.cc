#include "parallel.hh"

#include <cstdlib>
#include <map>
#include <type_traits>

#include "checkpoint_store.hh"
#include "sim/logging.hh"

namespace svb
{

// Results are merged across threads by copying into a pre-sized
// vector slot per submission index.
static_assert(std::is_copy_assignable_v<FunctionResult>,
              "parallel merge requires copyable results");

// The shared-state audit for this scheduler rests on stat trees being
// impossible to alias across clusters: keep StatGroup non-copyable.
static_assert(!std::is_copy_constructible_v<StatGroup> &&
                  !std::is_copy_assignable_v<StatGroup>,
              "StatGroup must stay instance-scoped per System");

ThreadPool::ThreadPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobs();
    workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &t : workers)
        t.join();
}

unsigned
ThreadPool::defaultJobs()
{
    if (const char *env = std::getenv("SVBENCH_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (v > 0 && *end == '\0')
            return unsigned(v);
        warn("ignoring SVBENCH_JOBS='", env, "' (want a positive integer)");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1u;
}

void
ThreadPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lk(mtx);
        svb_assert(!stopping, "submit() on a stopping ThreadPool");
        tasks.push_back(std::move(task));
        ++inFlight;
    }
    taskReady.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(mtx);
    allDone.wait(lk, [this] { return inFlight == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(mtx);
            taskReady.wait(lk,
                           [this] { return stopping || !tasks.empty(); });
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lk(mtx);
            --inFlight;
            if (inFlight == 0)
                allDone.notify_all();
        }
    }
}

std::vector<RunResult>
sweepRuns(ResultCache &cache, const std::vector<RunSpec> &runs,
          unsigned jobs_override)
{
    std::vector<std::string> keys;
    for (const RunSpec &rs : runs) {
        svb_assert(rs.mode != RunMode::Lukewarm,
                   "sweepRuns: lukewarm runs are not cacheable");
        keys.push_back(
            cache.rowKey(rs.platform, rs.spec.name, runModeName(rs.mode)));
    }
    return memoisedSweep<RunResult>(
        cache, keys, [&](size_t i) { announceRun(runs[i]); },
        [&](size_t i) { return cache.compute(runs[i]); }, packRunResult,
        [&](size_t i, const std::map<std::string, uint64_t> &row) {
            return unpackRunResult(runs[i].mode, runs[i].spec.name, row);
        },
        jobs_override);
}

std::vector<FunctionResult>
parallelSweep(ResultCache &cache, const std::vector<SweepJob> &jobs,
              unsigned jobs_override)
{
    std::vector<RunSpec> runs;
    for (const SweepJob &job : jobs)
        runs.push_back({RunMode::Detailed, job.spec, job.impl, job.cfg, {}});
    std::vector<FunctionResult> results;
    for (RunResult &res : sweepRuns(cache, runs, jobs_override))
        results.push_back(std::move(std::get<FunctionResult>(res)));
    return results;
}

std::vector<FunctionResult>
parallelRun(const std::vector<SweepJob> &jobs, unsigned jobs_override)
{
    std::vector<FunctionResult> results(jobs.size());
    // Ablation points usually differ only in backend parameters
    // (latencies, O3 geometry, predictors), which the prepared-state
    // fingerprint deliberately ignores — so whole ablation series
    // share one checkpoint. Group by that key: the first job of a
    // group prepares and publishes, its groupmates restore in-memory.
    std::map<std::string, std::vector<size_t>> groups;
    std::vector<const std::vector<size_t> *> groupOrder;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const std::string ck =
            CheckpointStore::fingerprint(jobs[i].cfg, jobs[i].spec);
        auto [it, inserted] = groups.try_emplace(ck);
        if (inserted)
            groupOrder.push_back(&it->second);
        it->second.push_back(i);
    }
    ThreadPool pool(jobs_override);
    for (const std::vector<size_t> *members : groupOrder) {
        pool.submit([&jobs, &results, members] {
            for (size_t i : *members) {
                ExperimentRunner runner(jobs[i].cfg);
                results[i] =
                    runner.runFunction(jobs[i].spec, *jobs[i].impl);
            }
        });
    }
    pool.wait();
    return results;
}

} // namespace svb
