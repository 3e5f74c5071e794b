/**
 * @file
 * Figure/table emission: prints the same rows and series the paper's
 * Chapter-4 figures report, as aligned text tables with ASCII bars.
 */

#ifndef SVB_CORE_REPORT_HH
#define SVB_CORE_REPORT_HH

#include <string>
#include <vector>

#include "system_config.hh"

namespace svb::report
{

/** One row of a figure: a label plus one value per series. */
struct Row
{
    std::string label;
    std::vector<double> values;
};

/**
 * One figure series (column): its display name, the unit printed in
 * the column header, and a scale factor applied to every value before
 * printing (e.g. 1e-6 to plot cycles as Mcycles). Figures take one
 * SeriesSpec per column instead of parallel name/unit vectors, so a
 * column's description travels as one value.
 */
struct SeriesSpec
{
    std::string name;
    std::string unit;
    double scale = 1.0;
};

/** Print the experiment banner (figure id, caption, platform). */
void figureHeader(const std::string &figure_id, const std::string &caption,
                  const std::vector<SystemConfig> &platforms);

/**
 * Print a grouped-bar figure: one row per benchmark, one column per
 * series, with a scaled ASCII bar for the first series. Every row
 * must carry exactly one value per series.
 */
void barFigure(const std::vector<SeriesSpec> &series,
               const std::vector<Row> &rows);

/** Print a percentage-stacked figure (Figs 4.8/4.9 style); the
 *  series' units are unused (columns print as "name %"). */
void stackedPercentFigure(const std::vector<SeriesSpec> &series,
                          const std::vector<Row> &rows);

/**
 * Print the O3 stall-cause breakdown panel: one row per measured
 * request, one column per cause from the stall taxonomy
 * (cpu/stall_cause.hh), as percentages of the request's cycles. Row
 * values must be ordered by StallCause; the total column equals the
 * request's cycle count because the causes partition it.
 */
void stallPanel(const std::vector<Row> &rows);

/** Print a plain table (Tables 4.4/4.5 style). */
void table(const std::vector<std::string> &columns,
           const std::vector<Row> &rows, int precision = 2);

/** Print Tables 4.1-4.3: the platform configuration. */
void configTables(const SystemConfig &riscv_cfg,
                  const SystemConfig &x86_cfg);

} // namespace svb::report

#endif // SVB_CORE_REPORT_HH
