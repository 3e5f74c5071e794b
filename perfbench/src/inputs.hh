/**
 * @file
 * The simulated inputs the workloads share, and the layer probe.
 *
 * Configurations come from bench/bench_common.hh, so the benchmark
 * measures exactly the Chapter-4 platform the figure binaries use.
 */

#ifndef SVB_PERFBENCH_INPUTS_HH
#define SVB_PERFBENCH_INPUTS_HH

#include <string>
#include <vector>

#include "bench_common.hh"
#include "perf.hh"

namespace perf
{

/** Both ISAs of the paper, in figure order. */
inline const std::vector<svb::IsaId> kIsas = {svb::IsaId::Riscv,
                                              svb::IsaId::Cx86};

/** The standalone-suite function named @p name. */
svb::FunctionSpec standaloneFunction(const std::string &name);

/** The three Go functions of the cold-start and load studies. */
std::vector<svb::FunctionSpec> goFunctions();

/** One (platform, function) point the layer probe drives. */
struct ProbePoint
{
    svb::ClusterConfig cfg;
    svb::FunctionSpec spec;
};

/** @p specs on the Chapter-4 platform (no stores) of every ISA. */
std::vector<ProbePoint>
probePoints(const std::vector<svb::FunctionSpec> &specs);

/**
 * The layer probe of a traced run. Layers that are reachable only
 * inside ExperimentRunner::run (program build, boot, save/restore, the
 * O3 and Atomic CPUs) are driven here through their own public
 * functions over the workload's functions, on an empty checkpoint
 * store under @p dir, with one span around each call. Fills the
 * stack.runtime, core.cluster, core.checkpoint_store (times) and
 * cpu.* layer metrics of @p out.
 */
void runLayerProbe(SpanLog &log, const std::string &dir,
                   const std::vector<ProbePoint> &points, Outcome &out);

} // namespace perf

#endif // SVB_PERFBENCH_INPUTS_HH
