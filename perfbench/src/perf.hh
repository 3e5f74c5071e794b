/**
 * @file
 * Shared plumbing of the svbench host-performance benchmark: run
 * options, the per-run outcome, host-time spans and small statistics
 * helpers.
 *
 * Every time measured here is HOST time (what the simulator costs to
 * run). Simulated statistics only feed the correctness digest.
 */

#ifndef SVB_PERFBENCH_PERF_HH
#define SVB_PERFBENCH_PERF_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perf
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Host worker threads, min(2, nproc) for detailed_sweep and
     *  min(4, nproc) otherwise; never read from SVBENCH_JOBS. */
    unsigned workers = 4;
    /** Scratch root for the per-repetition result caches and stores. */
    std::string workDir = ".bench_build/work";
    std::string goldenDir = "perfbench/golden";
};

/** One closed span of host time. Times are ns since the log's origin;
 *  parent 0 marks a root span. Spans of one operation share @ref op. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = -1; ///< -1 while open
    unsigned thread = 0;
};

/**
 * In-memory span recorder, written out once at exit. A disabled log
 * records nothing, so untraced runs pay two branch tests per call.
 * Thread-safe: worker threads record into the same log.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled), origin(Clock::now()) {}

    bool enabled() const { return on; }

    /** Open a span. @return its id, or 0 when disabled. */
    uint64_t begin(const std::string &name, uint64_t parent, uint64_t op);

    /** Close span @p id (no-op for id 0). */
    void end(uint64_t id);

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    const bool on;
    const Clock::time_point origin;
    mutable std::mutex mtx;
    std::vector<Span> all;                ///< guarded by mtx; id = index+1
    std::map<std::thread::id, unsigned> threads; ///< guarded by mtx
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const std::string &name, uint64_t parent,
          uint64_t op = 0)
        : log(log), spanId(log.begin(name, parent, op))
    {}
    ~Scope() { log.end(spanId); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint64_t id() const { return spanId; }

  private:
    SpanLog &log;
    const uint64_t spanId;
};

/** Spans named @p name among @p spans. */
std::vector<Span> named(const std::vector<Span> &spans,
                        const std::string &name);

/** Span durations in milliseconds. */
std::vector<double> durationsMs(const std::vector<Span> &spans);

/** Sum of span durations in seconds. */
double totalSeconds(const std::vector<Span> &spans);

/** Mean span duration in ms (0 for none). */
double meanMs(const std::vector<Span> &spans);

/** Linear-interpolated quantile @p q in [0, 1] (0 for an empty set). */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Print the one-screen self-time summary of @p spans: per span name,
 * calls, total time and self time (duration minus the union of its
 * children's intervals).
 */
void printSelfTimeSummary(const std::vector<Span> &spans, double wall_s);

/** Write @p spans as JSON to @p path. @return success */
bool writeSpansJson(const std::vector<Span> &spans, const std::string &path,
                    const std::string &workload, uint64_t seed);

/** One simulated-output value of the correctness digest. */
struct DigestEntry
{
    std::string key;
    uint64_t value = 0;
    /** True when the value depends on the workload seed: compared with
     *  the golden digest only at the seed the golden was recorded at. */
    bool seedDependent = false;
};

/** What a workload run measured and checked. */
struct Outcome
{
    /** Operations attempted in timed phases (experiments, cold starts,
     *  engine runs) and how many of them failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness-gate violations, one line each. */
    std::vector<std::string> violations;

    std::vector<double> setupS;      ///< one per set-up
    std::vector<double> wallS;       ///< one per untraced repetition
    std::vector<double> tracedWallS; ///< one per traced repetition

    /** A figure printed for people but not part of the JSON result. */
    struct Figure
    {
        std::string name;
        double value = 0;
        std::string unit;
    };
    std::vector<Figure> report;
    /** Per-layer metrics of the traced run: name -> value. */
    std::map<std::string, double> layer;
    std::vector<DigestEntry> digest;

    /** Record a correctness violation (counts toward failed). */
    void violation(const std::string &what);
};

/** A fresh, empty directory @p root/@p tag (removed first if present). */
std::string freshDir(const std::string &root, const std::string &tag);

/**
 * Point the process-wide CheckpointStore at an empty directory under
 * @p dir, dropping every in-memory checkpoint and page image, so no
 * state carries over from an earlier repetition.
 */
void resetCheckpointStore(const std::string &dir);

/** Number of .ckpt files under @p dir. */
size_t countCheckpoints(const std::string &dir);

/** Number of lines in @p path (0 when missing). */
size_t countLines(const std::string &path);

/**
 * The timed phase: call @p rep until opt.seconds have passed and at
 * least @p min_reps untraced repetitions ran. In trace mode the
 * repetitions alternate untraced / traced (each kind at least
 * @p min_reps times), so trace.overhead_frac compares like with like.
 * @p rep records into the log it is given (a disabled one for
 * untraced repetitions) and returns its wall time in seconds.
 */
void timedLoop(const Options &opt, SpanLog &log, unsigned min_reps,
               const std::function<double(SpanLog &, uint64_t)> &rep,
               Outcome &out);

/** The workloads; each fills @p out. */
void runDetailedSweep(const Options &opt, SpanLog &log, Outcome &out);
void runColdStart(const Options &opt, SpanLog &log, Outcome &out);
void runInvocationReplay(const Options &opt, SpanLog &log, Outcome &out);

} // namespace perf

#endif // SVB_PERFBENCH_PERF_HH
