#include "report.hh"

#include <algorithm>
#include <cstdio>

#include "cpu/stall_cause.hh"
#include "sim/logging.hh"

namespace svb::report
{

namespace
{

void
printBar(double value, double max_value, int width)
{
    const int n =
        max_value > 0 ? int(double(width) * value / max_value) : 0;
    std::printf(" |");
    for (int i = 0; i < n && i < width; ++i)
        std::printf("#");
    std::printf("\n");
}

} // namespace

void
figureHeader(const std::string &figure_id, const std::string &caption,
             const std::vector<SystemConfig> &platforms)
{
    std::printf("\n");
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s: %s\n", figure_id.c_str(), caption.c_str());
    for (const SystemConfig &cfg : platforms) {
        std::printf("  platform: %-8s  %u cores @ %lu MHz | L1 %uKB/%u-way"
                    " L2 %uKB/%u-way | ROB %u LSQ %u+%u\n",
                    isaName(cfg.isa), cfg.numCores,
                    (unsigned long)cfg.clockMHz,
                    cfg.caches.l1d.sizeBytes / 1024, cfg.caches.l1d.assoc,
                    cfg.caches.l2.sizeBytes / 1024, cfg.caches.l2.assoc,
                    cfg.o3.robEntries, cfg.o3.lqEntries, cfg.o3.sqEntries);
    }
    std::printf("-----------------------------------------------------------"
                "---------------------\n");
}

void
barFigure(const std::vector<SeriesSpec> &series, const std::vector<Row> &rows)
{
    double max_value = 0;
    for (const Row &row : rows) {
        svb_assert(row.values.size() == series.size(),
                   "figure row has a different arity than its series");
        for (size_t i = 0; i < row.values.size(); ++i)
            max_value = std::max(max_value, row.values[i] * series[i].scale);
    }

    std::printf("%-26s", "benchmark");
    for (const SeriesSpec &s : series)
        std::printf(" %14s", (s.name + " (" + s.unit + ")").c_str());
    std::printf("\n");

    for (const Row &row : rows) {
        std::printf("%-26s", row.label.c_str());
        for (size_t i = 0; i < row.values.size(); ++i)
            std::printf(" %14.0f", row.values[i] * series[i].scale);
        printBar(row.values.empty() ? 0 : row.values[0] * series[0].scale,
                 max_value, 28);
    }
}

void
stackedPercentFigure(const std::vector<SeriesSpec> &series,
                     const std::vector<Row> &rows)
{
    std::printf("%-26s", "benchmark");
    for (const SeriesSpec &s : series)
        std::printf(" %12s", (s.name + " %").c_str());
    std::printf(" %16s\n", "total");

    for (const Row &row : rows) {
        svb_assert(row.values.size() == series.size(),
                   "figure row has a different arity than its series");
        double total = 0;
        for (size_t i = 0; i < row.values.size(); ++i)
            total += row.values[i] * series[i].scale;
        std::printf("%-26s", row.label.c_str());
        for (size_t i = 0; i < row.values.size(); ++i) {
            const double v = row.values[i] * series[i].scale;
            std::printf(" %12.1f", total > 0 ? 100.0 * v / total : 0.0);
        }
        std::printf(" %16.0f\n", total);
    }
}

void
stallPanel(const std::vector<Row> &rows)
{
    std::vector<SeriesSpec> series;
    for (unsigned c = 0; c < numStallCauses; ++c)
        series.push_back({stallCauseName(c), "cycles"});
    stackedPercentFigure(series, rows);
}

void
table(const std::vector<std::string> &columns, const std::vector<Row> &rows,
      int precision)
{
    std::printf("%-30s", columns.empty() ? "" : columns[0].c_str());
    for (size_t i = 1; i < columns.size(); ++i)
        std::printf(" %12s", columns[i].c_str());
    std::printf("\n");
    for (const Row &row : rows) {
        std::printf("%-30s", row.label.c_str());
        for (double v : row.values) {
            if (v < 0)
                std::printf(" %12s", "n/a");
            else
                std::printf(" %12.*f", precision, v);
        }
        std::printf("\n");
    }
}

void
configTables(const SystemConfig &riscv_cfg, const SystemConfig &x86_cfg)
{
    const SystemConfig &c = riscv_cfg;
    std::printf("Table 4.1 — common simulated-platform configuration\n");
    std::printf("  L1 I Cache   %u cores x %uKB, %u-way\n", c.numCores,
                c.caches.l1i.sizeBytes / 1024, c.caches.l1i.assoc);
    std::printf("  L1 D Cache   %u cores x %uKB, %u-way\n", c.numCores,
                c.caches.l1d.sizeBytes / 1024, c.caches.l1d.assoc);
    std::printf("  L2 Cache     %u cores x %uKB, %u-way\n", c.numCores,
                c.caches.l2.sizeBytes / 1024, c.caches.l2.assoc);
    std::printf("  RAM          2GB DDR3-1600 model, single channel\n");
    std::printf("  Page-walk $  %u cores x 8KB (I + D)\n", c.numCores);
    std::printf("  ROB          %u entries\n", c.o3.robEntries);
    std::printf("  LSQs         %u load + %u store entries\n",
                c.o3.lqEntries, c.o3.sqEntries);
    std::printf("  Registers    %u Int + 256 Float (FP unused: integer"
                " suite)\n", c.o3.numPhysIntRegs);
    std::printf("  Cores        %u @ %lu MHz\n", c.numCores,
                (unsigned long)c.clockMHz);
    std::printf("Table 4.2 — RISC-V platform: %s / %s\n",
                riscv_cfg.osLabel.c_str(), riscv_cfg.compilerLabel.c_str());
    std::printf("Table 4.3 — x86 platform:    %s / %s\n",
                x86_cfg.osLabel.c_str(), x86_cfg.compilerLabel.c_str());
}

} // namespace svb::report
