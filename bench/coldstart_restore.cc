/**
 * @file
 * Cold-start restore sweep: full vs working-set-aware (REAP-style)
 * snapshot restores per runtime tier x ISA.
 *
 * REAP (Ustiugov et al., PAPERS.md) showed that a serverless cold
 * start touches a small fraction of the snapshot image, and that
 * prefetching exactly that recorded working set while lazily
 * materialising the rest removes most of the restore cost. This bench
 * drives both restore modes of the simulator's CheckpointStore over
 * the standalone Go mix on both ISAs and both emulation tiers
 * (superblock fast-warm on/off):
 *
 *   1. a first emulation run prepares the tuple, publishes the
 *      page-granular snapshot and records the cold request's page
 *      working set;
 *   2. a second, fresh runner restores from the store — fully
 *      (SVBENCH_REAP=0) or working-set-aware (SVBENCH_REAP=1) — and
 *      re-measures the cold and warm request.
 *
 * Reported per cell: the guest-visible cold/warm latencies (which
 * MUST be byte-identical across restore modes — a lazy restore is
 * architecturally invisible; the footer asserts it) and the page
 * accounting that is the point of the exercise: image pages vs
 * unique (CoW-deduplicated) pages vs working-set pages vs pages
 * actually resident after the run.
 *
 * Rows are cached under the "coldrs" schema; every table is printed
 * from rows only, so output is byte-identical at any SVBENCH_JOBS
 * value, fresh or cached.
 *
 * SVBENCH_HOSTTIME=1 appends a host wall-clock restore-latency
 * section (mean finishRestore() time over repeated restores). It is
 * real time, not simulated time — excluded from the deterministic
 * surface and from CI diffs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench_common.hh"
#include "bench_env.hh"
#include "core/checkpoint_store.hh"

using namespace svb;

namespace
{

const std::vector<const char *> kFunctions = {"fibonacci-go", "aes-go",
                                              "auth-go"};

struct Cell
{
    IsaId isa;
    bool fastWarm;
    bool reap;
    FunctionSpec spec;
};

const char *
tierName(bool fast_warm)
{
    return fast_warm ? "fastwarm" : "atomic";
}

const char *
modeName(bool reap)
{
    return reap ? "reap" : "full";
}

std::string
scenarioName(const Cell &cell)
{
    return cell.spec.name + "." + tierName(cell.fastWarm) + "." +
           modeName(cell.reap);
}

ClusterConfig
cellConfig(const Cell &cell)
{
    ClusterConfig cfg = benchutil::chapter4Config(cell.isa,
                                                  /*with_stores=*/false);
    cfg.system.fastWarm = cell.fastWarm;
    return cfg;
}

/**
 * Measure one cell: prepare (or reuse) the checkpoint + working set,
 * then restore on a fresh runner under the cell's restore mode and
 * read the page accounting off its PhysMemory. Serial by design: the
 * REAP gate is latched from SVBENCH_REAP at System construction, so
 * the env flip must not race another cell.
 */
std::map<std::string, uint64_t>
measureCell(const Cell &cell)
{
    setenv("SVBENCH_REAP", cell.reap ? "1" : "0", 1);
    const ClusterConfig cfg = cellConfig(cell);
    const WorkloadImpl &impl = workloads::workloadImpl(cell.spec.workload);

    // Pass 1: make sure the snapshot exists and carries a working set
    // (the first cold request anywhere records it, whatever the mode).
    {
        ExperimentRunner prep(cfg);
        prep.runFunctionEmu(cell.spec, impl);
    }

    // Pass 2: a fresh runner restores from the store under this
    // cell's mode and re-measures.
    ExperimentRunner meas(cfg);
    const EmuResult res = meas.runFunctionEmu(cell.spec, impl);
    PhysMemory &phys = meas.cluster().system().phys();

    // Snapshot-side page counts, straight from the published image.
    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = CheckpointStore::fingerprint(cfg, cell.spec);
    bool claimed = false;
    uint64_t unique_pages = 0;
    uint64_t ws_pages = 0;
    if (auto cp = store.acquire(fp, &claimed)) {
        unique_pages = cp->getScalar("mem.uniquePages");
        if (cp->hasBlob("mem.ws"))
            ws_pages = cp->getBlob("mem.ws").size() / 8;
    } else if (claimed) {
        store.release(fp);
    }

    return {{"coldNs", res.coldNs},
            {"warmNs", res.warmNs},
            {"imagePages", phys.imagePages()},
            {"uniquePages", unique_pages},
            {"wsPages", ws_pages},
            {"prefetched", phys.prefetchedPages()},
            {"faults", phys.lazyFaults()},
            {"residentEnd", phys.residentImagePages()},
            {"ok", res.ok ? 1u : 0u}};
}

/**
 * Host wall-clock restore timing (SVBENCH_HOSTTIME=1 only): mean
 * finishRestore() time over @p iters repeated restores of the cell's
 * snapshot. Non-deterministic by nature; never cached.
 */
double
hostRestoreMicros(const Cell &cell, unsigned iters)
{
    setenv("SVBENCH_REAP", cell.reap ? "1" : "0", 1);
    const ClusterConfig cfg = cellConfig(cell);
    const WorkloadImpl &impl = workloads::workloadImpl(cell.spec.workload);
    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = CheckpointStore::fingerprint(cfg, cell.spec);
    bool claimed = false;
    auto cp = store.acquire(fp, &claimed);
    if (!cp) {
        if (claimed)
            store.release(fp);
        return 0.0;
    }

    ExperimentRunner runner(cfg);
    ServerlessCluster &cl = runner.cluster();
    double total_us = 0.0;
    for (unsigned i = 0; i < iters; ++i) {
        cl.beginRestore();
        cl.deploy(cell.spec, impl);
        std::shared_ptr<const PageImage> img;
        if (cl.system().reapEnabled())
            img = store.imageFor(fp, *cp);
        const auto t0 = std::chrono::steady_clock::now();
        cl.finishRestore(*cp, img);
        const auto t1 = std::chrono::steady_clock::now();
        total_us +=
            std::chrono::duration<double, std::micro>(t1 - t0).count();
    }
    return total_us / iters;
}

} // namespace

int
main()
{
    ResultCache cache;

    std::vector<Cell> cells;
    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        for (bool fast_warm : {true, false}) {
            for (bool reap : {false, true}) {
                for (const char *fn : kFunctions) {
                    for (const FunctionSpec &spec :
                         workloads::standaloneSuite()) {
                        if (spec.name == fn)
                            cells.push_back({isa, fast_warm, reap, spec});
                    }
                }
            }
        }
    }

    // Serial fill: REAP mode is a process-global env latch (see
    // measureCell), so cells never run concurrently. Cached rows make
    // re-runs instant and keep the tables byte-identical either way.
    std::vector<std::map<std::string, uint64_t>> rows;
    for (const Cell &cell : cells) {
        const std::string key =
            cache.rowKey(cellConfig(cell), scenarioName(cell), "coldrs");
        std::map<std::string, uint64_t> row;
        if (!cache.lookupRow(key, row)) {
            row = measureCell(cell);
            cache.recordRow(key, row);
            cache.lookupRow(key, row); // re-read: print the stored row
        }
        rows.push_back(std::move(row));
    }

    for (IsaId isa : {IsaId::Riscv, IsaId::Cx86}) {
        report::figureHeader(
            "Cold-start restore sweep",
            std::string(isaName(isa)) +
                ": full vs working-set-aware (REAP) snapshot restore",
            {SystemConfig::paperConfig(isa)});
        std::vector<report::Row> table_rows;
        for (size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].isa != isa)
                continue;
            const std::map<std::string, uint64_t> &row = rows[i];
            table_rows.push_back(
                {scenarioName(cells[i]),
                 {double(row.at("coldNs")) / 1e3,
                  double(row.at("warmNs")) / 1e3,
                  double(row.at("imagePages")),
                  double(row.at("uniquePages")),
                  double(row.at("wsPages")),
                  double(row.at("prefetched")),
                  double(row.at("faults")),
                  double(row.at("residentEnd"))}});
        }
        report::table({"function.tier.mode", "cold us", "warm us",
                       "image pg", "unique pg", "ws pg", "prefetch pg",
                       "fault pg", "resident pg"},
                      table_rows);
    }

    // The byte-identity gate: a lazy restore must be architecturally
    // invisible, so the guest-visible latencies of the full and reap
    // rows of one (isa, tier, function) cell must match exactly.
    bool identical = true;
    std::printf("\nRestore-mode identity (full vs reap, guest time):\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].reap)
            continue;
        for (size_t j = 0; j < cells.size(); ++j) {
            if (!cells[j].reap || cells[j].isa != cells[i].isa ||
                cells[j].fastWarm != cells[i].fastWarm ||
                cells[j].spec.name != cells[i].spec.name)
                continue;
            const bool same =
                rows[i].at("coldNs") == rows[j].at("coldNs") &&
                rows[i].at("warmNs") == rows[j].at("warmNs");
            identical &= same;
            std::printf("  %-10s %-28s cold=%lu warm=%lu  %s\n",
                        isaName(cells[i].isa),
                        (cells[i].spec.name + "." +
                         tierName(cells[i].fastWarm))
                            .c_str(),
                        (unsigned long)rows[i].at("coldNs"),
                        (unsigned long)rows[i].at("warmNs"),
                        same ? "identical" : "MISMATCH");
        }
    }
    if (!identical) {
        std::fprintf(stderr, "restore modes diverged: a lazy restore "
                             "leaked into guest-visible state\n");
        return 1;
    }

    if (benchenv::flag("SVBENCH_HOSTTIME")) {
        std::printf("\nHost restore latency (mean of 10 restores; wall "
                    "clock, not deterministic):\n");
        for (const Cell &cell : cells) {
            if (cell.isa != IsaId::Riscv || !cell.fastWarm)
                continue;
            std::printf("  %-28s %8.1f us\n", scenarioName(cell).c_str(),
                        hostRestoreMicros(cell, 10));
        }
    }
    return 0;
}
