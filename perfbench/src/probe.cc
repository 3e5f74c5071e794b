#include <memory>

#include "core/checkpoint_store.hh"
#include "inputs.hh"
#include "obs/stat_export.hh"
#include "sim/logging.hh"

using namespace svb;

namespace perf
{

namespace
{

/** Guest cycles of the O3 sample: the cold request's first million
 *  cycles, long enough to amortise the model switch. */
constexpr uint64_t kO3Cycles = 1'000'000;

/** Instructions retired by the Atomic CPUs of every core so far. */
uint64_t
atomicInsts(System &m)
{
    const obs::StatSnapshot snap = obs::snapshot(m.stats());
    uint64_t sum = 0;
    for (unsigned c = 0; c < m.config().numCores; ++c) {
        const auto it =
            snap.find("system.cpu" + std::to_string(c) + ".atomic.numInsts");
        if (it != snap.end())
            sum += uint64_t(it->second);
    }
    return sum;
}

struct Rates
{
    double o3Cycles = 0, o3S = 0;
    double fastInsts = 0, fastS = 0;
    double slowInsts = 0, slowS = 0;
};

/** Credit the Atomic instructions @p m retires while @p fn runs to
 *  the fast or slow tier's rate, under a span named after the tier. */
template <typename Fn>
bool
atomicWindow(SpanLog &log, uint64_t parent, uint64_t op, System &m,
             Rates &rates, Fn &&fn)
{
    const bool fast = m.fastPathEnabled();
    const uint64_t i0 = atomicInsts(m);
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    {
        Scope s(log, fast ? "cpu.atomic.fast_run" : "cpu.atomic.slow_run",
                parent, op);
        ok = fn();
    }
    (fast ? rates.fastS : rates.slowS) += secondsSince(t0);
    (fast ? rates.fastInsts : rates.slowInsts) +=
        double(atomicInsts(m) - i0);
    return ok;
}

/**
 * Construct, boot and start the function's container on a new
 * cluster, as prepareFresh() does: deploy, run the container to
 * readiness on the Atomic CPU, settle. @return nullptr on failure
 */
std::unique_ptr<ServerlessCluster>
startCluster(SpanLog &log, uint64_t parent, uint64_t op,
             const ClusterConfig &cfg, const FunctionSpec &spec,
             const WorkloadImpl &impl, ServerlessCluster::Deployment &dep,
             Rates &rates)
{
    std::unique_ptr<ServerlessCluster> cl;
    {
        Scope s(log, "core.cluster.construct", parent, op);
        cl = std::make_unique<ServerlessCluster>(cfg);
    }
    {
        Scope s(log, "core.cluster.boot", parent, op);
        cl->boot();
    }
    Scope start(log, "core.cluster.start", parent, op);
    cl->resetToBaseline();
    {
        Scope s(log, "core.cluster.deploy", start.id(), op);
        dep = cl->deploy(spec, impl);
    }
    System &m = cl->system();
    const bool ok = atomicWindow(log, start.id(), op, m, rates, [&] {
        const bool ready = cl->runUntilReady(1);
        m.run(5'000);
        return ready;
    });
    if (!ok)
        cl.reset();
    return cl;
}

/** Serve the first (cold) request on the Atomic CPU. */
bool
atomicColdRequest(SpanLog &log, uint64_t parent, uint64_t op,
                  ServerlessCluster &cl,
                  const ServerlessCluster::Deployment &dep, Rates &rates)
{
    return atomicWindow(log, parent, op, cl.system(), rates, [&] {
        cl.openClientGate(dep);
        return cl.runUntilWorkEnds(1);
    });
}

/** Rebuild @p cl from @p cp through the public restore protocol. */
ServerlessCluster::Deployment
restore(SpanLog &log, uint64_t parent, uint64_t op, ServerlessCluster &cl,
        const ProbePoint &p, const WorkloadImpl &impl, const Checkpoint &cp,
        std::shared_ptr<const PageImage> img)
{
    {
        Scope s(log, "core.cluster.begin_restore", parent, op);
        cl.beginRestore();
    }
    ServerlessCluster::Deployment dep;
    {
        Scope s(log, "core.cluster.deploy", parent, op);
        dep = cl.deploy(p.spec, impl);
    }
    Scope s(log,
            img ? "core.cluster.finish_restore_reap"
                : "core.cluster.finish_restore_full",
            parent, op);
    cl.finishRestore(cp, std::move(img));
    return dep;
}

void
probePoint(SpanLog &log, uint64_t parent, uint64_t op, const ProbePoint &p,
           Rates &rates, Outcome &out)
{
    const WorkloadImpl &impl = workloads::workloadImpl(p.spec.workload);
    const IsaId isa = p.cfg.system.isa;
    const std::string what = p.spec.name + " on " + isaName(isa);
    {
        Scope s(log, "stack.runtime.build", parent, op);
        buildServerProgram(p.spec, impl, isa);
        buildClientProgram(p.spec, impl, isa);
    }

    CheckpointStore &store = CheckpointStore::global();
    const std::string fp = CheckpointStore::fingerprint(p.cfg, p.spec);
    bool claimed = false;
    if (store.acquire(fp, &claimed) || !claimed) {
        out.violation("probe: " + what + " found a checkpoint in an "
                      "empty store");
        return;
    }

    // Write side: boot, container start (fast Atomic tier), save,
    // publish.
    ServerlessCluster::Deployment dep;
    std::unique_ptr<ServerlessCluster> cl =
        startCluster(log, parent, op, p.cfg, p.spec, impl, dep, rates);
    if (!cl) {
        store.release(fp);
        out.violation("probe: " + what + " container did not start");
        return;
    }
    Checkpoint saved;
    {
        Scope s(log, "core.cluster.save", parent, op);
        saved = cl->savePrepared();
    }
    {
        Scope s(log, "core.checkpoint_store.publish", parent, op);
        store.publish(fp, std::move(saved));
    }
    // The first cold request records the working set a REAP restore
    // prefetches, exactly as ExperimentRunner does after a publish.
    cl->system().phys().startTouchRecording();
    cl->openClientGate(dep);
    if (!cl->runUntilWorkEnds(1)) {
        out.violation("probe: " + what + " cold request did not complete");
        return;
    }
    store.attachWorkingSet(fp, cl->system().phys().stopTouchRecording());

    // Read side: acquire, page image, full and working-set restores.
    std::shared_ptr<const Checkpoint> cp;
    {
        Scope s(log, "core.checkpoint_store.acquire", parent, op);
        cp = store.acquire(fp, &claimed);
    }
    std::shared_ptr<const PageImage> img;
    if (cp) {
        Scope s(log, "core.checkpoint_store.image_for", parent, op);
        img = store.imageFor(fp, *cp);
    }
    if (!cp || !img) {
        out.violation("probe: " + what + " has no published page image");
        return;
    }
    dep = restore(log, parent, op, *cl, p, impl, *cp, nullptr);
    if (!atomicColdRequest(log, parent, op, *cl, dep, rates)) {
        out.violation("probe: " + what + " restored cold request failed");
        return;
    }
    dep = restore(log, parent, op, *cl, p, impl, *cp, img);

    // The detailed O3 CPU from cold microarchitectural state, as the
    // sweep's measured cold request runs.
    {
        System &m = cl->system();
        m.switchCpu(topo::clientCore, CpuModel::O3);
        m.switchCpu(topo::serverCore, CpuModel::O3);
        m.flushMicroarchState();
        cl->openClientGate(dep);
        const Clock::time_point t0 = Clock::now();
        uint64_t ran = 0;
        {
            Scope s(log, "cpu.o3.run", parent, op);
            while (ran < kO3Cycles) {
                const uint64_t step = m.run(kO3Cycles - ran);
                if (step == 0)
                    break;
                ran += step;
            }
        }
        rates.o3S += secondsSince(t0);
        rates.o3Cycles += double(ran);
    }
    {
        Scope s(log, "core.cluster.teardown", parent, op);
        cl.reset();
    }

    // The slow per-instruction Atomic tier (the correctness oracle)
    // over the same container start and cold request.
    ClusterConfig slowCfg = p.cfg;
    slowCfg.system.fastWarm = false;
    cl = startCluster(log, parent, op, slowCfg, p.spec, impl, dep, rates);
    if (!cl || !atomicColdRequest(log, parent, op, *cl, dep, rates)) {
        out.violation("probe: " + what + " slow-tier start failed");
        return;
    }
    Scope s(log, "core.cluster.teardown", parent, op);
    cl.reset();
}

} // namespace

FunctionSpec
standaloneFunction(const std::string &name)
{
    for (const FunctionSpec &spec : workloads::standaloneSuite()) {
        if (spec.name == name)
            return spec;
    }
    svb_panic("no standalone function named '", name, "'");
}

std::vector<FunctionSpec>
goFunctions()
{
    return {standaloneFunction("fibonacci-go"), standaloneFunction("aes-go"),
            standaloneFunction("auth-go")};
}

std::vector<ProbePoint>
probePoints(const std::vector<FunctionSpec> &specs)
{
    std::vector<ProbePoint> points;
    for (IsaId isa : kIsas) {
        for (const FunctionSpec &spec : specs)
            points.push_back({benchutil::chapter4Config(isa, false), spec});
    }
    return points;
}

void
runLayerProbe(SpanLog &log, const std::string &dir,
              const std::vector<ProbePoint> &points, Outcome &out)
{
    resetCheckpointStore(dir);
    Rates rates;
    {
        Scope probe(log, "probe", 0);
        for (size_t i = 0; i < points.size(); ++i)
            probePoint(log, probe.id(), i, points[i], rates, out);
    }

    const std::vector<Span> spans = log.spans();
    const auto mean = [&](const char *name) {
        return meanMs(named(spans, name));
    };
    out.layer["stack.runtime.build_ms"] = mean("stack.runtime.build");
    out.layer["core.cluster.construct_ms"] = mean("core.cluster.construct");
    out.layer["core.cluster.boot_ms"] = mean("core.cluster.boot");
    out.layer["core.cluster.start_ms"] = mean("core.cluster.start");
    out.layer["core.cluster.save_ms"] = mean("core.cluster.save");
    out.layer["core.cluster.begin_restore_ms"] =
        mean("core.cluster.begin_restore");
    out.layer["core.cluster.finish_restore_full_ms"] =
        mean("core.cluster.finish_restore_full");
    out.layer["core.cluster.finish_restore_reap_ms"] =
        mean("core.cluster.finish_restore_reap");
    out.layer["core.cluster.teardown_ms"] = mean("core.cluster.teardown");
    out.layer["core.checkpoint_store.publish_ms"] =
        mean("core.checkpoint_store.publish");
    out.layer["core.checkpoint_store.acquire_ms"] =
        mean("core.checkpoint_store.acquire");
    out.layer["core.checkpoint_store.image_for_ms"] =
        mean("core.checkpoint_store.image_for");
    out.layer["cpu.o3.guest_cycles_per_s"] =
        rates.o3S > 0 ? rates.o3Cycles / rates.o3S : 0.0;
    out.layer["cpu.atomic.fast_mips"] =
        rates.fastS > 0 ? rates.fastInsts / rates.fastS / 1e6 : 0.0;
    out.layer["cpu.atomic.slow_mips"] =
        rates.slowS > 0 ? rates.slowInsts / rates.slowS / 1e6 : 0.0;
}

} // namespace perf
