#include "timeline.hh"

#include <algorithm>
#include <queue>
#include <sstream>

#include "isa/isa_info.hh"
#include "names.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace svb::load
{

namespace
{

using SpanArgs = std::vector<std::pair<std::string, std::string>>;

enum class EvKind : uint8_t
{
    /** Admit through the breaker, route across the fleet, pull the
     *  inputs, place on the node's pool, roll the fault dice. */
    TaskStart,
    /** Apply the outcome to the breaker, then fire successors, finish
     *  the instance or schedule the task's retry. */
    TaskEnd,
    /** Apply a scheduled node-level crash/partition. */
    NodeFault,
};

/**
 * One timeline event. Events resolve in (time, seq) order, seq being
 * the push order, so ties are deterministic at any SVBENCH_JOBS.
 * NodeFault events reuse `inst` as the index into the scenario's
 * nodeFaults list.
 */
struct Event
{
    uint64_t timeNs = 0;
    uint64_t seq = 0;
    uint32_t inst = 0;
    uint32_t task = 0; ///< task index within the instance's workflow
    unsigned attempt = 0;
    unsigned node = 0; ///< node of a TaskEnd / NodeFault
    EvKind kind = EvKind::TaskStart;
    /** A TaskEnd's client-visible outcome: a good response, or a
     *  failed cold start, crash or timeout. */
    bool good = true;
    /** A TaskEnd synthesised by a node crash, replacing the cancelled
     *  original end of the same attempt. */
    bool synthetic = false;
};

struct EventLater
{
    bool operator()(const Event &a, const Event &b) const
    {
        if (a.timeNs != b.timeNs)
            return a.timeNs > b.timeNs;
        return a.seq > b.seq;
    }
};

/** The static task graph of one workflow of the mix. Dataflow is
 *  all-to-all across a stage edge: every task of every predecessor
 *  stage feeds every task of the consumer stage. */
struct Layout
{
    const WorkflowSpec *dag = nullptr;
    std::vector<uint32_t> taskStage;
    std::vector<unsigned> stageOffset;
    std::vector<std::vector<uint32_t>> predTasks;
    std::vector<std::vector<uint32_t>> succTasks;
    /** Tasks without predecessors, in index order. */
    std::vector<uint32_t> sources;

    explicit Layout(const WorkflowSpec &spec) : dag(&spec)
    {
        const size_t numStages = spec.stages.size();
        const uint32_t T = uint32_t(spec.totalTasks());
        stageOffset.assign(numStages, 0);
        taskStage.assign(T, 0);
        unsigned off = 0;
        for (size_t st = 0; st < numStages; ++st) {
            stageOffset[st] = off;
            for (unsigned k = 0; k < spec.stages[st].parallelism; ++k)
                taskStage[off + k] = uint32_t(st);
            off += spec.stages[st].parallelism;
        }
        const auto preds = stagePredecessors(spec);
        predTasks.resize(T);
        succTasks.resize(T);
        for (uint32_t t = 0; t < T; ++t) {
            for (const unsigned ps : preds[taskStage[t]]) {
                for (unsigned k = 0; k < spec.stages[ps].parallelism; ++k) {
                    const uint32_t p = stageOffset[ps] + k;
                    predTasks[t].push_back(p);
                    succTasks[p].push_back(t);
                }
            }
            if (predTasks[t].empty())
                sources.push_back(t);
        }
    }

    uint32_t tasks() const { return uint32_t(taskStage.size()); }
};

} // namespace

/**
 * Critical path: when a task's predecessor countdown reaches zero, the
 * finishing predecessor is recorded as its *determining* predecessor
 * (events resolve in time order, so that is the last-finishing one)
 * and the task's ready time is that instant. Each task's critical
 * contribution is finish - ready, which telescopes along the
 * determining chain to exactly the end-to-end latency.
 *
 * Sources are not pushed onto the event heap: arrivals are strictly
 * increasing and a source's push order precedes every other event's,
 * so the next source in (instance, source) order is merged in ahead of
 * any heap event at the same instant — the order a heap holding every
 * source up front would produce.
 */
TimelineResult
runTimeline(const WorkflowScenario &s, const std::vector<MixedWorkflow> &mix,
            const CalMatrix &cals, const TimelineView &view, Fleet &fleet)
{
    TimelineResult res;
    svb_assert(!mix.empty(), "timeline without a workflow");
    svb_assert(s.retry.maxAttempts >= 1, "retry policy needs >= 1 attempt");
    svb_assert(cals.size() == fleet.groupCount(),
               "calibration matrix does not match the fleet's classes");

    std::vector<Layout> layouts;
    layouts.reserve(mix.size());
    uint32_t stride = 0;
    size_t numStages = 0;
    double totalWeight = 0.0;
    for (const MixedWorkflow &w : mix) {
        layouts.emplace_back(w.dag);
        stride = std::max(stride, layouts.back().tasks());
        numStages = std::max(numStages, w.dag.stages.size());
        totalWeight += w.weight;
    }
    svb_assert(totalWeight > 0.0, "workflow mix has no weight");

    // Substream ids come from the StreamId claim table (load_runner.hh).
    // Each concern draws from its own stream, so enabling faults,
    // retries or routing never perturbs the arrival, mix or warm-sample
    // sequences; a disabled fault model and a single routable node draw
    // nothing at all.
    const Rng master(s.seed);
    ArrivalProcess arrivals(s.arrival, master.split(kStreamArrival));
    Rng mixRng = master.split(kStreamMix);
    Rng warmRng = master.split(kStreamWarm);
    FaultInjector faults(s.fault, master.split(kStreamFault));
    Rng retryRng = master.split(kStreamRetry);
    Rng routeRng = master.split(kStreamRoute);
    const bool fleetOn = s.fleet.engaged();
    std::vector<CircuitBreaker> breakers(s.functions.size(),
                                         CircuitBreaker(s.breaker));

    // Per-scenario trace track (simulated nanoseconds). All times come
    // from the timeline, so the track is deterministic in (scenario,
    // calibrations).
    obs::Tracer &tracer = obs::Tracer::global();
    obs::TrackId track = obs::badTrack;
    if (tracer.enabled()) {
        std::ostringstream os;
        os << isaName(s.cluster.system.isa) << "/"
           << db::dbKindName(s.cluster.dbKind)
           << (s.cluster.startDb ? 1 : 0)
           << (s.cluster.startMemcached ? 1 : 0) << "/" << s.name << "/"
           << view.trackSuffix;
        track = tracer.track(os.str());
    }

    // --- per-instance and per-task state --------------------------------
    struct Instance
    {
        uint64_t arrivalNs = 0;
        /** Index into the mix. */
        uint32_t wf = 0;
        /** Tasks completed; the instance succeeds when all are. */
        uint32_t completed = 0;
        /** A shed / throttle / retry exhaustion already finished this
         *  instance (terminally); siblings still in flight complete
         *  server-side but cannot resurrect it. */
        bool finished = false;
    };
    struct Task
    {
        uint64_t readyNs = 0;
        uint64_t finishNs = 0;
        /** Transfer ns charged on the latest attempt. */
        uint64_t xferNs = 0;
        /** The previous retry backoff (nextBackoffNs state). */
        uint64_t backoffNs = 0;
        unsigned node = 0;
        /** Predecessor tasks still outstanding. */
        uint32_t waiting = 0;
        /** The predecessor whose completion zeroed `waiting` (the
         *  last-finishing one); ~0u for source tasks. */
        uint32_t critPred = ~0u;
    };
    // Arrival times and workflow choices are drawn up front, in
    // arrival order; task state is one flat invocations x stride
    // array, indexed like `cancelled` below.
    std::vector<Instance> insts(s.invocations);
    std::vector<Task> tasks(size_t(s.invocations) * stride);
    for (uint64_t i = 0; i < s.invocations; ++i) {
        Instance &in = insts[i];
        in.arrivalNs = arrivals.nextArrivalNs();
        if (mix.size() > 1) {
            double u = mixRng.nextDouble() * totalWeight;
            for (size_t m = 0; m + 1 < mix.size(); ++m) {
                u -= mix[m].weight;
                if (u < 0.0)
                    break;
                in.wf = uint32_t(m + 1);
            }
        }
        const Layout &L = layouts[in.wf];
        for (uint32_t t = 0; t < L.tasks(); ++t) {
            Task &task = tasks[i * stride + t];
            task.readyNs = in.arrivalNs;
            task.waiting = uint32_t(L.predTasks[t].size());
        }
    }

    std::priority_queue<Event, std::vector<Event>, EventLater> events;
    uint64_t seq = 0;
    for (size_t f = 0; f < s.fleet.nodeFaults.size(); ++f)
        events.push({s.fleet.nodeFaults[f].atNs, seq++, uint32_t(f), 0, 0,
                     s.fleet.nodeFaults[f].node, EvKind::NodeFault, true,
                     false});
    // The next source task to enter the timeline.
    uint64_t srcInst = 0;
    size_t srcIdx = 0;

    // A node crash cancels the original TaskEnd of every attempt in
    // flight on the node and replaces it with a synthetic failed end at
    // the crash instant. The flag is keyed by (instance, task,
    // attempt); the synthetic replacement shares the key, so only
    // non-synthetic ends consult it.
    std::vector<uint8_t> cancelled(
        size_t(s.invocations) * stride * s.retry.maxAttempts, 0);
    auto cancelKey = [&](uint32_t inst, uint32_t task, unsigned attempt) {
        return (size_t(inst) * stride + task) * s.retry.maxAttempts +
               attempt;
    };
    // Client-side in-flight attempts per node: what a crash cancels.
    struct Pending
    {
        uint32_t inst;
        uint32_t task;
        unsigned attempt;
        uint64_t serverEndNs;
    };
    std::vector<std::vector<Pending>> pending(fleet.nodeCount());

    auto label = [&](uint32_t inst, uint32_t task, unsigned attempt) {
        const Layout &L = layouts[insts[inst].wf];
        const uint32_t st = L.taskStage[task];
        return view.label(inst, L.dag->stages[st], task - L.stageOffset[st],
                          attempt);
    };

    res.critNs.assign(numStages, 0);
    res.critXferNs.assign(numStages, 0);
    auto finish = [&](uint64_t end_ns, uint64_t arrival_ns, bool good) {
        res.latency.record(end_ns - arrival_ns);
        (good ? res.goodLatency : res.errorLatency)
            .record(end_ns - arrival_ns);
        if (end_ns > res.lastEndNs)
            res.lastEndNs = end_ns;
    };

    for (;;) {
        Event ev;
        if (srcInst < s.invocations &&
            (events.empty() ||
             insts[srcInst].arrivalNs <= events.top().timeNs)) {
            const Layout &L = layouts[insts[srcInst].wf];
            ev.timeNs = insts[srcInst].arrivalNs;
            ev.inst = uint32_t(srcInst);
            ev.task = L.sources[srcIdx];
            if (++srcIdx == L.sources.size()) {
                srcIdx = 0;
                ++srcInst;
            }
        } else if (!events.empty()) {
            ev = events.top();
            events.pop();
        } else {
            break;
        }

        if (ev.kind == EvKind::NodeFault) {
            // ---- node-level fault at ev.timeNs -----------------------
            const NodeFaultEvent &nf = s.fleet.nodeFaults[ev.inst];
            ++res.nodeFaults;
            fleet.applyNodeFault(nf);
            if (track != obs::badTrack)
                tracer.record(track,
                              std::string("node-") +
                                  nodeFaultKindName(nf.kind) + "#" +
                                  std::to_string(ev.inst) + "@n" +
                                  std::to_string(nf.node),
                              "node", ev.timeNs, nf.durationNs);
            if (nf.kind == NodeFaultEvent::Kind::Crash) {
                // Every attempt in flight on the node dies with it:
                // cancel the scheduled end, hand back the busy time
                // the node will no longer serve, and let the client
                // learn of the crash right now via the retry path.
                for (const Pending &p : pending[nf.node]) {
                    const Layout &L = layouts[insts[p.inst].wf];
                    cancelled[cancelKey(p.inst, p.task, p.attempt)] = 1;
                    if (p.serverEndNs > ev.timeNs)
                        fleet.truncateBusy(nf.node,
                                           p.serverEndNs - ev.timeNs);
                    fleet.onAttemptEnd(
                        nf.node, L.dag->stages[L.taskStage[p.task]].fn);
                    ++res.crashes;
                    events.push({ev.timeNs, seq++, p.inst, p.task,
                                 p.attempt, nf.node, EvKind::TaskEnd, false,
                                 true});
                }
                pending[nf.node].clear();
            }
            continue;
        }

        Instance &in = insts[ev.inst];
        const Layout &L = layouts[in.wf];
        const StageSpec &stage = L.dag->stages[L.taskStage[ev.task]];
        Task *const instTasks = &tasks[size_t(ev.inst) * stride];
        Task &task = instTasks[ev.task];
        CircuitBreaker &breaker = breakers[stage.fn];

        if (ev.kind == EvKind::TaskStart) {
            // ---- task attempt start at ev.timeNs ---------------------
            if (in.finished)
                continue; // the instance already failed terminally

            if (!breaker.admit(ev.timeNs)) {
                // Shed: the open breaker answers with the degraded
                // fast path; terminal for the instance, not a good
                // response.
                ++res.sheds;
                in.finished = true;
                if (track != obs::badTrack)
                    tracer.record(track,
                                  "shed#" + label(ev.inst, ev.task,
                                                  ev.attempt),
                                  "breaker", ev.timeNs,
                                  s.breaker.degradedNs);
                finish(ev.timeNs + s.breaker.degradedNs, in.arrivalNs,
                       false);
                continue;
            }

            // Payload-affinity placement: prefer the node of the
            // largest-payload predecessor task (ties break on the
            // lowest pred task index — strict-greater replacement).
            unsigned preferred = Fleet::badNode;
            if (stage.placement == StagePlacement::PayloadAffinity) {
                uint64_t bestBytes = 0;
                bool have = false;
                for (const uint32_t p : L.predTasks[ev.task]) {
                    const uint64_t b =
                        L.dag->stages[L.taskStage[p]].payloadBytes;
                    if (!have || b > bestBytes) {
                        have = true;
                        bestBytes = b;
                        preferred = instTasks[p].node;
                    }
                }
            }

            const Fleet::Route rt =
                fleet.route(stage.fn, ev.timeNs, routeRng, preferred);
            if (rt.throttled) {
                // Per-function concurrency limit: a fast 429-style
                // response, terminal for the instance (counted in both
                // sheds and throttles).
                ++res.throttles;
                ++res.sheds;
                in.finished = true;
                if (track != obs::badTrack)
                    tracer.record(track,
                                  "throttle#" + label(ev.inst, ev.task,
                                                      ev.attempt),
                                  "throttle", ev.timeNs,
                                  s.fleet.throttleNs);
                finish(ev.timeNs + s.fleet.throttleNs, in.arrivalNs,
                       false);
                continue;
            }
            if (rt.node == Fleet::badNode) {
                // No routable node yet (scale-up lag, or every node in
                // a fault window): the attempt re-enters the timeline
                // once capacity can exist. Progress is guaranteed —
                // either the retry time is strictly later, or a
                // zero-lag activation just made a node routable.
                svb_assert(rt.retryAtNs >= ev.timeNs,
                           "unroutable task scheduled into the past");
                if (track != obs::badTrack)
                    tracer.record(track,
                                  "scale-wait#" + label(ev.inst, ev.task,
                                                        ev.attempt),
                                  "scale", ev.timeNs,
                                  rt.retryAtNs - ev.timeNs);
                events.push({rt.retryAtNs, seq++, ev.inst, ev.task,
                             ev.attempt, 0, EvKind::TaskStart, true, false});
                continue;
            }

            // Inter-stage transfer: the task pulls every predecessor
            // task's payload, local hand-offs at DRAM cost, cross-node
            // hops at network cost. A retried task re-pulls its inputs
            // (the new attempt may land on a different node).
            uint64_t xferNs = 0;
            for (const uint32_t p : L.predTasks[ev.task]) {
                const uint64_t bytes =
                    L.dag->stages[L.taskStage[p]].payloadBytes;
                if (bytes == 0)
                    continue;
                const bool local = instTasks[p].node == rt.node;
                xferNs += s.transfer.costNs(bytes, local);
                if (local) {
                    ++res.transfersLocal;
                    res.bytesLocal += bytes;
                } else {
                    ++res.transfersRemote;
                    res.bytesRemote += bytes;
                }
            }
            res.transferNs += xferNs;
            task.xferNs = xferNs;
            const uint64_t execStart = ev.timeNs + xferNs;

            InstancePool &pool = fleet.pool(rt.node);
            const InstancePool::Placement pl =
                pool.acquire(stage.fn, execStart);
            // The node's CLASS picks the calibrated service model: on
            // a mixed-ISA fleet the same function replays different
            // measured cold/warm times depending on where it landed.
            const LoadCalibration &cal =
                cals[fleet.groupOf(rt.node)][stage.fn];
            const FaultInjector::Draw dice = faults.draw(pl.cold);

            uint64_t service =
                pl.cold ? cal.coldNs
                        : cal.warmNs[warmRng.nextBounded(loadWarmSamples)];
            if (pl.cold && dice.restoreCorrupt) {
                // The restored snapshot came up corrupt: the platform
                // falls back to booting from scratch — the start still
                // succeeds but pays the boot penalty.
                service = uint64_t(double(service) *
                                   s.fault.restoreBootFactor);
                ++res.corruptRestores;
            }
            if (dice.straggler) {
                service =
                    uint64_t(double(service) * s.fault.stragglerFactor);
                ++res.stragglers;
            }
            // Heterogeneous fleets scale the calibrated service time
            // by the node's speed factor; exactly 1.0 (the homogeneous
            // default) leaves the value bit-untouched.
            const double speed = fleet.speedFactor(rt.node);
            if (speed != 1.0)
                service = uint64_t(double(service) * speed);
            service = std::max<uint64_t>(1, service);
            const uint64_t end = pl.startNs + service;

            if (track != obs::badTrack) {
                const std::string t = label(ev.inst, ev.task, ev.attempt);
                // Class-structured fleets tag the route span with the
                // node's class so mixed-ISA placement is visible (empty
                // args render exactly like a span without them).
                if (fleetOn)
                    tracer.record(
                        track, "route#" + t + "@n" + std::to_string(rt.node),
                        "route", ev.timeNs, 0,
                        fleet.classed()
                            ? SpanArgs{{"class",
                                        fleet.nodeClass(fleet.groupOf(rt.node))
                                            .name}}
                            : SpanArgs{});
                if (xferNs > 0)
                    tracer.record(track, "xfer#" + t, "xfer", ev.timeNs,
                                  xferNs,
                                  {{"stage", stage.name},
                                   {"bytes",
                                    std::to_string(stage.payloadBytes)}});
                if (pl.startNs > execStart)
                    tracer.record(track, "queue#" + t, "queue", execStart,
                                  pl.startNs - execStart);
                tracer.record(track, (pl.cold ? "cold#" : "warm#") + t,
                              pl.cold ? "cold" : "warm", pl.startNs,
                              end - pl.startNs,
                              view.stageSpans ? SpanArgs{{"stage", stage.name}}
                                              : SpanArgs{});
            }

            bool good = true;
            uint64_t clientEnd = end;
            uint64_t serverEnd = end;
            if (pl.cold && dice.coldFail) {
                // The instance never comes up; the client learns at
                // the point the cold path would have completed.
                good = false;
                pool.kill(pl.slot, end);
                ++res.coldStartFailures;
            } else if (dice.crash) {
                const uint64_t crashAt =
                    pl.startNs +
                    std::max<uint64_t>(
                        1, uint64_t(double(service) * dice.crashFrac));
                good = false;
                clientEnd = crashAt;
                serverEnd = crashAt;
                pool.kill(pl.slot, crashAt);
                ++res.crashes;
            } else {
                pool.release(pl.slot, end);
            }
            // The client-side timeout wins over any later outcome; the
            // instance still finishes (or crashes) server-side —
            // abandoned work stays on the slot's timeline.
            if (s.retry.timeoutNs > 0 &&
                clientEnd > ev.timeNs + s.retry.timeoutNs) {
                good = false;
                clientEnd = ev.timeNs + s.retry.timeoutNs;
                ++res.timeouts;
                if (track != obs::badTrack)
                    tracer.record(track,
                                  "timeout#" + label(ev.inst, ev.task,
                                                     ev.attempt),
                                  "timeout", ev.timeNs, s.retry.timeoutNs);
            }
            fleet.onAttemptStart(rt.node, stage.fn, pl.startNs, serverEnd);
            pending[rt.node].push_back(
                {ev.inst, ev.task, ev.attempt, serverEnd});
            events.push({clientEnd, seq++, ev.inst, ev.task, ev.attempt,
                         rt.node, EvKind::TaskEnd, good, false});
            continue;
        }

        // ---- task attempt end at ev.timeNs ---------------------------
        if (!ev.synthetic) {
            if (cancelled[cancelKey(ev.inst, ev.task, ev.attempt)])
                continue; // superseded by a node-crash end
            std::vector<Pending> &inflight = pending[ev.node];
            for (auto it = inflight.begin(); it != inflight.end(); ++it) {
                if (it->inst == ev.inst && it->task == ev.task &&
                    it->attempt == ev.attempt) {
                    inflight.erase(it);
                    break;
                }
            }
            fleet.onAttemptEnd(ev.node, stage.fn);
        }
        if (ev.good) {
            breaker.onSuccess(ev.timeNs);
            task.finishNs = ev.timeNs;
            task.node = ev.node;
            if (in.finished)
                continue; // a sibling already failed the instance
            ++in.completed;
            // Fire consumers whose predecessor countdown reaches zero:
            // this completion is their determining (last) predecessor
            // and their ready instant.
            for (const uint32_t u : L.succTasks[ev.task]) {
                Task &next = instTasks[u];
                svb_assert(next.waiting > 0,
                           "task fired with no outstanding preds");
                if (--next.waiting == 0) {
                    next.critPred = ev.task;
                    next.readyNs = ev.timeNs;
                    events.push({ev.timeNs, seq++, ev.inst, u, 0, 0,
                                 EvKind::TaskStart, true, false});
                }
            }
            if (in.completed < L.tasks())
                continue;
            // Instance complete: this task finished last. Walk the
            // determining-predecessor chain; per-task contributions
            // (finish - ready) telescope to the end-to-end latency.
            ++res.succeeded;
            finish(ev.timeNs, in.arrivalNs, true);
            for (uint32_t cur = ev.task; cur != ~0u;
                 cur = instTasks[cur].critPred) {
                const Task &ct = instTasks[cur];
                const uint32_t cst = L.taskStage[cur];
                svb_assert(ct.finishNs >= ct.readyNs,
                           "critical task finishes before ready");
                res.critNs[cst] += ct.finishNs - ct.readyNs;
                res.critXferNs[cst] += ct.xferNs;
                if (view.stageSpans && track != obs::badTrack)
                    tracer.record(track, "crit#" + label(ev.inst, cur, 0),
                                  "crit", ct.readyNs,
                                  ct.finishNs - ct.readyNs,
                                  {{"stage", L.dag->stages[cst].name},
                                   {"xferNs", std::to_string(ct.xferNs)}});
            }
            continue;
        }
        const uint64_t opensBefore = breaker.timesOpened();
        breaker.onFailure(ev.timeNs);
        if (track != obs::badTrack && breaker.timesOpened() > opensBefore)
            tracer.record(track,
                          "breaker-open#" +
                              std::to_string(breaker.timesOpened()),
                          "breaker", ev.timeNs, s.breaker.openCooldownNs);
        if (in.finished)
            continue; // instance already failed; no further retries
        if (ev.attempt + 1 < s.retry.maxAttempts) {
            // Retry the failed task alone — its completed predecessors
            // are NOT re-run (their outputs are re-pulled at the new
            // attempt's transfer step).
            const uint64_t delay =
                nextBackoffNs(s.retry, task.backoffNs, retryRng);
            ++res.retries;
            if (track != obs::badTrack)
                tracer.record(track,
                              "retry#" + label(ev.inst, ev.task,
                                               ev.attempt + 1),
                              "retry", ev.timeNs, delay);
            events.push({ev.timeNs + delay, seq++, ev.inst, ev.task,
                         ev.attempt + 1, 0, EvKind::TaskStart, true, false});
        } else {
            ++res.failed;
            in.finished = true;
            finish(ev.timeNs, in.arrivalNs, false);
        }
    }

    for (const CircuitBreaker &breaker : breakers)
        res.breakerOpens += breaker.timesOpened();
    return res;
}

bool
calibrateScenario(ResultCache &cache, const std::string &scenario,
                  const ClusterConfig &cluster, const FleetConfig &fleet,
                  const std::vector<LoadMixEntry> &functions, CalMatrix &out)
{
    // One calibration pass per fleet class (a class-less scenario has
    // exactly one, the scenario's own cluster): the [group][fn] matrix
    // the engine indexes by the class of the node a task lands on.
    const std::vector<ClusterConfig> clusters =
        calibrationClusters(cluster, fleet);
    out.assign(clusters.size(), {});
    for (size_t g = 0; g < clusters.size(); ++g) {
        out[g].reserve(functions.size());
        for (const LoadMixEntry &entry : functions) {
            svb_assert(entry.impl != nullptr, "function without workload");
            out[g].push_back(
                cache.loadCalibration(clusters[g], entry.spec, *entry.impl));
            if (!out[g].back().ok) {
                warn(scenario, ": calibration of ", entry.spec.name,
                     " failed; scenario skipped");
                return false;
            }
        }
    }
    return true;
}

} // namespace svb::load
