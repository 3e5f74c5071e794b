/**
 * @file
 * svbench_perf: the host-performance benchmark of svbench.
 *
 *   svbench_perf --workload <detailed_sweep|cold_start|invocation_replay>
 *                --seed <n> --seconds <s> --trace <0|1>
 *                [--work-dir <dir>] [--golden-dir <dir>]
 *
 * Prints a run manifest, every metric by name with its unit, the
 * correctness-gate verdict and, as the last line, one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
 * metrics are the end-to-end ones (host time of untraced runs); with
 * --trace 1 they are the per-layer ones of a traced run, whose spans
 * are written as JSON under the work directory. Exits non-zero when a
 * correctness check fails.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perf.hh"
#include "sim/logging.hh"

extern char **environ;

namespace
{

using namespace perf;

/** Knobs that change what is measured: the benchmark refuses them.
 *  (SVBENCH_JOBS is recorded but ignored: the worker count is fixed.) */
const char *const kRefusedKnobs[] = {
    "SVBENCH_FRESH",    "SVBENCH_REAP",     "SVBENCH_FASTWARM",
    "SVBENCH_FAULTS",   "SVBENCH_NO_CKPT",  "SVBENCH_TRACE",
    "SVBENCH_STATDUMP", "SVBENCH_RESULTS",  "SVBENCH_CKPT_DIR",
};

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** Every per-layer metric; a workload that does not exercise a layer
 *  reports 0 for it. */
const MetricDef kPerLayer[] = {
    {"core.result_cache.lookup_ms", "ms"},
    {"core.result_cache.record_ms", "ms"},
    {"core.result_cache.hits", "count"},
    {"core.experiment.calls", "count"},
    {"core.experiment.busy_s", "s"},
    {"core.experiment.p50_ms", "ms"},
    {"core.experiment.p90_ms", "ms"},
    {"core.experiment.construct_ms", "ms"},
    {"core.experiment.destroy_ms", "ms"},
    {"core.parallel.busy_share", "ratio"},
    {"core.parallel.tail_s", "s"},
    {"stack.runtime.build_ms", "ms"},
    {"core.cluster.construct_ms", "ms"},
    {"core.cluster.boot_ms", "ms"},
    {"core.cluster.start_ms", "ms"},
    {"core.cluster.save_ms", "ms"},
    {"core.cluster.begin_restore_ms", "ms"},
    {"core.cluster.finish_restore_full_ms", "ms"},
    {"core.cluster.finish_restore_reap_ms", "ms"},
    {"core.cluster.teardown_ms", "ms"},
    {"core.checkpoint_store.publish_ms", "ms"},
    {"core.checkpoint_store.publishes", "count"},
    {"core.checkpoint_store.acquire_ms", "ms"},
    {"core.checkpoint_store.image_for_ms", "ms"},
    {"core.checkpoint_store.hits", "count"},
    {"mem.phys.image_pages", "count"},
    {"mem.phys.prefetched_pages", "count"},
    {"mem.phys.lazy_faults", "count"},
    {"mem.phys.resident_pages", "count"},
    {"cpu.o3.guest_cycles_per_s", "1/s"},
    {"cpu.atomic.fast_mips", "MIPS"},
    {"cpu.atomic.slow_mips", "MIPS"},
    {"cold_start.p50_ms", "ms"},
    {"cold_start.p90_ms", "ms"},
    {"load.load_runner.busy_s", "s"},
    {"load.load_runner.invocations", "count"},
    {"load.load_runner.retries", "count"},
    {"load.load_runner.cold_starts", "count"},
    {"load.load_runner.inv_per_s", "1/s"},
    {"load.workflow.busy_s", "s"},
    {"load.workflow.invocations", "count"},
    {"load.workflow.tasks", "count"},
    {"load.workflow.retries", "count"},
    {"load.workflow.remote_transfers", "count"},
    {"load.workflow.inv_per_s", "1/s"},
    {"sim.measured_cycles", "count"},
    {"sim.measured_insts", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "svbench_perf: %s\nusage: svbench_perf --workload "
                 "<detailed_sweep|cold_start|invocation_replay> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--golden-dir <dir>]\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag + ": '" + text + "'")
                  .c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload") {
            opt.workload = val;
            haveWorkload = true;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned("--seed", val);
        } else if (flag == "--seconds") {
            opt.seconds = double(parseUnsigned("--seconds", val));
        } else if (flag == "--trace") {
            const uint64_t t = parseUnsigned("--trace", val);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.trace = t == 1;
        } else if (flag == "--work-dir") {
            opt.workDir = val;
        } else if (flag == "--golden-dir") {
            opt.goldenDir = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    // A sweep's wall time is the makespan of a few multi-second jobs:
    // two workers leave the host spare cores, so a stolen core does not
    // stall the whole pool behind one late job.
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned cap = opt.workload == "detailed_sweep" ? 2u : 4u;
    opt.workers = std::min(cap, hw ? hw : 1u);
    return opt;
}

/** Print the run manifest; refuse knobs that change what is measured. */
void
manifest(const Options &opt)
{
    bool refused = false;
    for (const char *knob : kRefusedKnobs) {
        if (std::getenv(knob) != nullptr) {
            std::fprintf(stderr,
                         "svbench_perf: refusing to run with %s set: it "
                         "changes what the benchmark measures\n",
                         knob);
            refused = true;
        }
    }
    if (refused)
        std::exit(2);

    std::printf("manifest: workload=%s seed=%lu seconds=%g trace=%d "
                "workers=%u nproc=%u\n",
                opt.workload.c_str(), (unsigned long)opt.seed, opt.seconds,
                opt.trace ? 1 : 0, opt.workers,
                std::thread::hardware_concurrency());
    std::printf("manifest: build_type=%s compiler=\"%s\"\n",
                SVB_PERF_BUILD_TYPE,
#if defined(__clang__)
                "clang " __clang_version__
#elif defined(__GNUC__)
                "gcc " __VERSION__
#else
                "unknown"
#endif
    );
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "SVBENCH_", 8) == 0)
            std::printf("manifest: env %s\n", *e);
    }
}

/**
 * Compare the digest with the golden one kept with the benchmark.
 * Seed-dependent entries are compared only at the golden's own seed.
 */
void
checkGolden(const Options &opt, Outcome &out)
{
    namespace fs = std::filesystem;
    // The digest of this run, in the golden file's format, so a new
    // golden is a copy of it.
    const fs::path mine =
        fs::path(opt.workDir) / (opt.workload + ".digest.txt");
    {
        std::ofstream os(mine);
        os << "seed " << opt.seed << "\n";
        for (const DigestEntry &e : out.digest)
            os << e.key << " " << e.value << "\n";
    }

    const fs::path path = fs::path(opt.goldenDir) / (opt.workload + ".txt");
    std::ifstream is(path);
    if (!is) {
        out.violation("no golden digest at " + path.string());
        return;
    }
    uint64_t goldenSeed = 0;
    std::map<std::string, uint64_t> golden;
    std::string key;
    uint64_t value = 0;
    while (is >> key >> value) {
        if (key == "seed")
            goldenSeed = value;
        else
            golden[key] = value;
    }
    size_t compared = 0;
    for (const DigestEntry &e : out.digest) {
        if (e.seedDependent && opt.seed != goldenSeed)
            continue;
        ++compared;
        const auto it = golden.find(e.key);
        if (it == golden.end())
            out.violation("golden digest lacks " + e.key);
        else if (it->second != e.value)
            out.violation("golden mismatch: " + e.key + " = " +
                          std::to_string(e.value) + ", golden " +
                          std::to_string(it->second));
    }
    if (opt.seed == goldenSeed && compared != golden.size())
        out.violation("digest has " + std::to_string(compared) +
                      " entries, golden " + std::to_string(golden.size()));
    std::printf("correctness: %zu digest entries compared with %s "
                "(golden seed %lu)\n",
                compared, path.string().c_str(), (unsigned long)goldenSeed);
}

double
peakRssMib()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    manifest(opt);
    svb::setInformEnabled(false);
    std::filesystem::create_directories(opt.workDir);

    SpanLog log(opt.trace);
    Outcome out;
    if (opt.workload == "detailed_sweep")
        runDetailedSweep(opt, log, out);
    else if (opt.workload == "cold_start")
        runColdStart(opt, log, out);
    else if (opt.workload == "invocation_replay")
        runInvocationReplay(opt, log, out);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());
    checkGolden(opt, out);

    std::map<std::string, double> metrics;
    metrics["setup_s"] = median(out.setupS);
    metrics["wall_s"] = median(out.wallS);
    metrics["peak_rss_mib"] = peakRssMib();
    const double failedFrac =
        out.attempted ? double(out.failed) / double(out.attempted) : 1.0;

    std::printf("samples: %zu set-ups, %zu untraced and %zu traced "
                "repetitions, %lu ops attempted\n",
                out.setupS.size(), out.wallS.size(), out.tracedWallS.size(),
                (unsigned long)out.attempted);
    const auto series = [](const char *what, const std::vector<double> &v) {
        std::printf("samples: %s s:", what);
        for (double x : v)
            std::printf(" %.4f", x);
        std::printf("\n");
    };
    series("set-up", out.setupS);
    series("untraced repetition", out.wallS);
    series("traced repetition", out.tracedWallS);
    for (const MetricDef &m : kEndToEnd)
        std::printf("metric %-28s %14.6f %s\n", m.name, metrics[m.name],
                    m.unit);
    std::printf("metric %-28s %14.6f %s\n", "failed_frac", failedFrac,
                "failed/attempted");
    for (const Outcome::Figure &f : out.report)
        std::printf("metric %-28s %14.6f %s\n", f.name.c_str(), f.value,
                    f.unit.c_str());

    if (opt.trace) {
        out.layer["trace.overhead_frac"] =
            median(out.tracedWallS) / median(out.wallS) - 1.0;
        const std::vector<Span> spans = log.spans();
        const std::string path = (std::filesystem::path(opt.workDir) /
                                  (opt.workload + ".trace.json"))
                                     .string();
        if (!writeSpansJson(spans, path, opt.workload, opt.seed))
            out.violation("cannot write " + path);
        std::printf("trace-file %s\n", path.c_str());
        printSelfTimeSummary(spans, median(out.tracedWallS));
        for (const MetricDef &m : kPerLayer)
            std::printf("layer %-38s %16.6f %s\n", m.name,
                        out.layer.count(m.name) ? out.layer[m.name] : 0.0,
                        m.unit);
    }

    for (const std::string &v : out.violations)
        std::printf("VIOLATION: %s\n", v.c_str());
    const bool correct = out.violations.empty();
    std::printf("correctness: %s\n", correct ? "ok" : "FAILED");

    // The result line: end-to-end or per-layer metrics, full precision.
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " +
            std::to_string(std::min(out.failed, out.attempted));
    json += ", \"metrics\": {";
    bool firstMetric = true;
    const auto emit = [&](const MetricDef &m, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        json += std::string(firstMetric ? "" : ", ") + "\"" + m.name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
        firstMetric = false;
    };
    if (opt.trace) {
        for (const MetricDef &m : kPerLayer)
            emit(m, out.layer.count(m.name) ? out.layer[m.name] : 0.0);
    } else {
        for (const MetricDef &m : kEndToEnd)
            emit(m, metrics[m.name]);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
