/**
 * @file
 * On-disk memoisation of experiment results.
 *
 * The figures of Chapter 4 reuse each other's measurements (e.g.,
 * Figs 4.15-4.18 replot the data of Figs 4.4 and 4.12), and the load
 * and workflow studies reuse calibrations. Simulation is
 * bit-deterministic, so results are cached in a CSV file; every bench
 * binary transparently shares it. Delete the file (or set
 * SVBENCH_FRESH=1) to re-measure.
 *
 * Backing file location: SVBENCH_RESULTS when set, otherwise
 * build/svbench_results.csv under the working directory (machine
 * output never lands at the repo root).
 *
 * One row identity: every row, an experiment result, a calibration
 * or a scenario summary alike, is keyed by rowKey(cluster, name,
 * mode tag) and travels through lookupRow()/recordRow(). run() is
 * the memoising entry point for RunSpec rows and compute() its
 * uncached half; memoisedSweep() (parallel.hh) is the one batch
 * primitive over those rows. The detailed-row and calibration
 * forwards at the end of the class exist only because the frozen
 * benchmark harness (perfbench/) spells its sweeps with them.
 *
 * Row modes and schemas: each row's key ends in a mode tag ("o3",
 * "emu", "ldcal", "load", "wflow", "coldrs") and each mode is
 * described by a RowSchema descriptor (tag, version, field set) — the
 * single source of truth for the "v" version stamp and for
 * completeness validation. Loading a row whose mode is unknown or
 * whose version does not match warns and skips it (the row is
 * re-measured) instead of silently misparsing fields written by a
 * different tool generation.
 *
 * Thread-safety: every public member may be called concurrently. The
 * row map and CSV append are guarded by one mutex; in run(), a
 * "pending" set plus condition variable guarantees that two threads
 * asking for the same key never duplicate a simulation (the second
 * waits for the first's row). Runners are constructed per
 * (configuration, calling thread), never shared across threads — an
 * ExperimentRunner owns a whole ServerlessCluster and is not itself
 * thread-safe.
 */

#ifndef SVB_CORE_RESULT_CACHE_HH
#define SVB_CORE_RESULT_CACHE_HH

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "experiment.hh"

namespace svb
{

/**
 * The on-disk schema of one row mode: its key tag, its schema version
 * (written to and checked against every row's "v" field) and the
 * exact set of data fields a complete row carries. The descriptor
 * table in result_cache.cc is the single source of truth — version
 * checks, completeness validation and the field enumeration all read
 * it, so adding a field to a mode is a one-place change (plus the
 * version bump).
 */
struct RowSchema
{
    const char *mode;   ///< key tag: "o3", "emu", "ldcal", "load", "wflow", "coldrs"
    uint64_t version;   ///< current generation, stored as "v"
    std::vector<std::string> fields; ///< data fields (excluding "v")

    /** @return the descriptor for @p mode, or nullptr if unknown. */
    static const RowSchema *find(const std::string &mode);

    /** Does @p row carry exactly this schema's fields (plus "v")? */
    bool complete(const std::map<std::string, uint64_t> &row) const;
};

/**
 * Serialise whichever result the variant holds under its mode's row
 * schema (without the "v" stamp, which recordRow() adds). Lukewarm
 * results are not cacheable.
 */
std::map<std::string, uint64_t> packRunResult(const RunResult &res);

/** The inverse of packRunResult() for a schema-validated row of
 *  @p mode, naming the result @p name. */
RunResult unpackRunResult(RunMode mode, const std::string &name,
                          const std::map<std::string, uint64_t> &row);

/**
 * Print the "info: measuring/calibrating ..." progress line of a
 * cache miss about to be computed. The one per-mode progress switch:
 * ResultCache::run() calls it before computing, and the memoised
 * sweeps (parallel.hh) call it from the calling thread for every
 * miss before fanning out, so the lines never race.
 */
void announceRun(const RunSpec &rs);

/**
 * Lazily-populated store of experiment and scenario rows.
 *
 * Every row, whatever its mode, is addressed by rowKey() and travels
 * through lookupRow()/recordRow(); run() is the memoising entry point
 * for RunSpec rows and compute() its uncached half.
 */
class ResultCache
{
  public:
    /**
     * @param path CSV backing file (created on first write); empty
     *             selects SVBENCH_RESULTS, falling back to
     *             build/svbench_results.csv
     */
    explicit ResultCache(std::string path = "");

    /**
     * The cache-aware entry point: fetch the row for @p rs (keyed by
     * rs.platform, rs.spec.name and the mode tag), or announce it, run
     * it on this thread's runner and record the row. Lukewarm runs are
     * not cached (their identity includes the interferer, which the
     * key does not carry) and always execute.
     */
    RunResult run(const RunSpec &rs);

    /**
     * Run @p rs on this thread's runner for rs.platform WITHOUT
     * looking up, announcing or recording the row: the split-phase
     * half the memoised sweeps fan out across workers.
     */
    RunResult compute(const RunSpec &rs);

    /**
     * The CSV row key of @p name on @p cfg under row mode @p modeTag
     * ("o3", "emu", "ldcal", "load", "wflow", "coldrs"). @p name is a
     * function or scenario name and must not contain the CSV
     * metacharacters ',', '|' or '='.
     */
    std::string rowKey(const ClusterConfig &cfg, const std::string &name,
                       const std::string &modeTag) const;

    /** @return true and fill @p out when @p key has a complete row. */
    bool lookupRow(const std::string &key,
                   std::map<std::string, uint64_t> &out);

    /**
     * Store a row: stamps the mode's schema version into "v",
     * validates the field set against the RowSchema descriptor, then
     * appends to the CSV.
     */
    void recordRow(const std::string &key,
                   const std::map<std::string, uint64_t> &fields);

    /** Forget everything (and remove the backing file). */
    void clear();

    // --- pinned by perfbench/ until the next benchmark change -----------
    // The frozen benchmark harness spells its traced sweep and its
    // calibrations with these; each only forwards to the API above.

    /** lookupRow() of the detailed ("o3") row, unpacked. */
    bool lookupDetailed(const ClusterConfig &cfg, const FunctionSpec &spec,
                        FunctionResult &out);

    /** compute() of a detailed RunSpec. */
    FunctionResult computeDetailed(const ClusterConfig &cfg,
                                   const FunctionSpec &spec,
                                   const WorkloadImpl &impl);

    /** recordRow() of a detailed result. */
    void recordDetailed(const ClusterConfig &cfg, const FunctionSpec &spec,
                        const FunctionResult &res);

    /** run() of a load-calibration RunSpec. */
    LoadCalibration loadCalibration(const ClusterConfig &cfg,
                                    const FunctionSpec &spec,
                                    const WorkloadImpl &impl);

    /** CheckpointStore::fingerprint() of (@p cfg, @p spec). */
    std::string checkpointKeyOf(const ClusterConfig &cfg,
                                const FunctionSpec &spec) const;

  private:
    ExperimentRunner &runnerFor(const ClusterConfig &cfg);
    void load();
    /** Caller must hold @ref mtx. */
    void appendLocked(const std::string &key,
                      const std::map<std::string, uint64_t> &fields);

    std::string path;
    bool fresh = false;

    /** Guards rows, pending, and the CSV append. */
    std::mutex mtx;
    std::condition_variable pendingCv;
    /** Keys whose simulation is in flight on some thread. */
    std::set<std::string> pending;
    /** key -> field -> value. */
    std::map<std::string, std::map<std::string, uint64_t>> rows;

    /** Guards runners (map mutation only; runner use is unsynchronised
     *  and safe because entries are keyed by constructing thread). */
    std::mutex runnersMtx;
    /** One live runner per (cluster configuration, thread). */
    std::map<std::string, std::unique_ptr<ExperimentRunner>> runners;
};

} // namespace svb

#endif // SVB_CORE_RESULT_CACHE_HH
