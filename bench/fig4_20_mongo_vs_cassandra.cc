/**
 * @file
 * Figure 4.20: MongoDB vs Cassandra as the hotel application's
 * backing store, measured in functional-emulation mode (the paper's
 * QEMU study — MongoDB could not be booted under gem5 there either),
 * x86 ISA, request latency in ns. MongoDB's cold requests are
 * distinctly faster; warm requests are comparable.
 */

#include "bench_common.hh"

using namespace svb;

int
main()
{
    ResultCache cache;
    std::vector<report::Row> rows;
    for (const FunctionSpec &spec : workloads::hotelSuite()) {
        const WorkloadImpl &impl = workloads::workloadImpl(spec.workload);
        const EmuResult cass = std::get<EmuResult>(cache.run(
            {RunMode::Emu, spec, &impl,
             benchutil::chapter4Config(IsaId::Cx86, true,
                                       db::DbKind::Cassandra),
             {}}));
        const EmuResult mongo = std::get<EmuResult>(cache.run(
            {RunMode::Emu, spec, &impl,
             benchutil::chapter4Config(IsaId::Cx86, true, db::DbKind::Mongo),
             {}}));
        rows.push_back({spec.name,
                        {double(cass.coldNs), double(cass.warmNs),
                         double(mongo.coldNs), double(mongo.warmNs)}});
    }

    report::figureHeader(
        "Figure 4.20",
        "hotel latency with Cassandra vs MongoDB, emulation mode, x86 (ns)",
        {SystemConfig::paperConfig(IsaId::Cx86)});
    report::barFigure({{"Cass Cold", "ns"},
                       {"Cass Warm", "ns"},
                       {"Mongo Cold", "ns"},
                       {"Mongo Warm", "ns"}},
                      rows);
    return 0;
}
