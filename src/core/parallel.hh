/**
 * @file
 * Deterministic parallel experiment scheduler.
 *
 * Chapter 4's figure sweeps are grids of fully independent
 * simulations — (function x ISA x cold/warm x DB) — and every
 * simulation is bit-deterministic and instance-scoped (per-cluster
 * System, object-scoped Rng, no global tick state). This module fans
 * those simulations out across host cores with a fixed-size thread
 * pool and merges the results back in submission order, so figure
 * tables and the CSV result cache are byte-identical to a serial run
 * regardless of completion order.
 *
 * memoisedSweep() is the one memoised batch loop: look up hits,
 * dedupe misses by row key, announce the misses, compute them on the
 * pool, record them in submission order and copy duplicates. Every
 * cached sweep goes through it: sweepRuns() and parallelSweep() for
 * RunSpec rows, and the load/workflow scenario sweeps
 * (load/timeline.hh) for calibrations and scenario rows.
 *
 * Worker count comes from the SVBENCH_JOBS environment variable
 * (default: hardware_concurrency). SVBENCH_JOBS=1 degrades to the
 * serial behaviour.
 */

#ifndef SVB_CORE_PARALLEL_HH
#define SVB_CORE_PARALLEL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "result_cache.hh"

namespace svb
{

/**
 * A fixed-size pool of worker threads servicing a FIFO task queue.
 *
 * Deliberately work-stealing-free: tasks are picked up in submission
 * order from a single queue, which keeps scheduling easy to reason
 * about. Determinism of *results* does not depend on the pool at all —
 * callers merge by submission index, never by completion order.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param jobs worker count; 0 selects defaultJobs() */
    explicit ThreadPool(unsigned jobs = 0);

    /** Drains nothing: joins after finishing already-queued tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Worker count implied by the environment: SVBENCH_JOBS if set to
     * a positive integer, otherwise std::thread::hardware_concurrency
     * (or 1 when that reports 0).
     */
    static unsigned defaultJobs();

    /** Enqueue @p task for execution on some worker. */
    void submit(Task task);

    /** Block until every submitted task has finished running. */
    void wait();

    unsigned size() const { return unsigned(workers.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers;
    std::deque<Task> tasks;
    std::mutex mtx;
    std::condition_variable taskReady; ///< signals workers
    std::condition_variable allDone;   ///< signals wait()
    size_t inFlight = 0;               ///< queued + currently running
    bool stopping = false;
};

/** One independent experiment: a cluster configuration, the function
 *  to run on it, and the function's workload implementation. */
struct SweepJob
{
    ClusterConfig cfg;
    FunctionSpec spec;
    const WorkloadImpl *impl = nullptr;
};

/**
 * The submission-order merge without the cache: run @p compute(i)
 * for every i in [0, n) across the pool and return the results in
 * index order, regardless of completion order. @p compute must be
 * safe to call concurrently from multiple workers; determinism of
 * each result is the callee's responsibility.
 */
template <typename Result, typename Fn>
std::vector<Result>
parallelIndexed(size_t n, Fn &&compute, unsigned jobs_override = 0)
{
    std::vector<Result> results(n);
    ThreadPool pool(jobs_override);
    for (size_t i = 0; i < n; ++i)
        pool.submit([&results, &compute, i] { results[i] = compute(i); });
    pool.wait();
    return results;
}

/**
 * The one memoised batch over cache rows. Item i is the row
 * @p keys[i]; a hit is unpacked with @p unpack(i, row). Misses are
 * deduplicated by key (the first item of a key is its primary). Every
 * primary is announced from the calling thread with @p announce(i),
 * in submission order — the order a one-worker pool computes them —
 * before any work is fanned out, so progress lines never race. The
 * primaries then run as one pool task each through @p compute(i), and
 * the calling thread records every primary's @p pack(result) in
 * submission order, so the CSV is byte-identical to a serial sweep.
 * Duplicates get their primary's result, exactly as a serial sweep
 * would hit the row the primary just recorded. @p compute must be
 * safe to call concurrently from several workers.
 *
 * @param jobs_override worker count; 0 selects ThreadPool::defaultJobs()
 * @return one result per item, in submission order
 */
template <class Result, class Announce, class Compute, class Pack,
          class Unpack>
std::vector<Result>
memoisedSweep(ResultCache &cache, const std::vector<std::string> &keys,
              Announce &&announce, Compute &&compute, Pack &&pack,
              Unpack &&unpack, unsigned jobs_override = 0)
{
    std::vector<Result> results(keys.size());
    std::map<std::string, size_t> primaryForKey;
    std::vector<size_t> primaries;
    for (size_t i = 0; i < keys.size(); ++i) {
        std::map<std::string, uint64_t> row;
        if (cache.lookupRow(keys[i], row))
            results[i] = unpack(i, row);
        else if (primaryForKey.emplace(keys[i], i).second)
            primaries.push_back(i);
    }

    if (!primaries.empty()) {
        for (size_t i : primaries)
            announce(i);
        std::vector<Result> computed = parallelIndexed<Result>(
            primaries.size(),
            [&](size_t j) { return compute(primaries[j]); }, jobs_override);
        for (size_t j = 0; j < primaries.size(); ++j) {
            cache.recordRow(keys[primaries[j]], pack(computed[j]));
            results[primaries[j]] = std::move(computed[j]);
        }
    }

    for (size_t i = 0; i < keys.size(); ++i) {
        const auto it = primaryForKey.find(keys[i]);
        if (it != primaryForKey.end() && it->second != i)
            results[i] = results[it->second];
    }
    return results;
}

/**
 * memoisedSweep() over RunSpec rows (any mode but Lukewarm, which is
 * not cacheable): rows are keyed by rowKey(platform, spec name, mode
 * tag), announced with announceRun() and computed on each worker's
 * own runner through ResultCache::compute().
 */
std::vector<RunResult> sweepRuns(ResultCache &cache,
                                 const std::vector<RunSpec> &runs,
                                 unsigned jobs_override = 0);

/**
 * Run every job's detailed experiment through the ResultCache across
 * the pool: sweepRuns() of detailed RunSpecs. Each worker builds its
 * own ExperimentRunner / ServerlessCluster via the cache's per-thread
 * runner table.
 *
 * @param jobs_override worker count; 0 selects ThreadPool::defaultJobs()
 * @return one FunctionResult per job, in submission order
 */
std::vector<FunctionResult>
parallelSweep(ResultCache &cache, const std::vector<SweepJob> &jobs,
              unsigned jobs_override = 0);

/**
 * Cache-free variant for design-space ablations, whose configurations
 * differ in fields the cache key does not cover. Each job gets a
 * fresh ExperimentRunner on a worker thread; results are merged in
 * submission order.
 */
std::vector<FunctionResult>
parallelRun(const std::vector<SweepJob> &jobs, unsigned jobs_override = 0);

} // namespace svb

#endif // SVB_CORE_PARALLEL_HH
