/**
 * @file
 * Axis-aware analysis of campaign reports.
 *
 * The campaign's headline claims are design-space comparisons — speedup
 * and perf/W of NMP variants across geometries, exec ablations, key skew,
 * scales and operators. This module turns a loaded ReportModel into:
 *
 *  - per-axis sensitivity tables: for each value of one axis, pair every
 *    run with the baseline run at the same point of all *other* axes and
 *    geomean the speedup / perf-per-watt per system — the table a
 *    "sweep theta, how does the edge erode?" question reads directly;
 *  - a recomputed summary with paired/total run counts and dropped
 *    (non-positive) comparison counts, the corrected form of the
 *    report's stored rollup;
 *  - a report-vs-report diff (per-run and per-summary) under a relative
 *    tolerance, for golden-report regression gates;
 *  - chart-ready CSV of runs and sensitivity tables.
 *
 * All numbers recompute from the runs themselves, never from the stored
 * summary block, so analysis inherits none of the summary's history.
 */

#ifndef MONDRIAN_SYSTEM_ANALYSIS_HH
#define MONDRIAN_SYSTEM_ANALYSIS_HH

#include <string>
#include <vector>

#include "system/report_model.hh"

namespace mondrian {

/** The sweepable report axes (system is the compared quantity, not an
 *  axis you hold fixed). */
enum class Axis
{
    kGeometry,
    kExec,
    kZipfTheta,
    kScale,
    kScenario,
    kSeed,
    kTraffic
};

/** Printable axis name ("geometry", "exec", "zipf-theta", ...). */
const char *axisName(Axis axis);

/** Parse an axis name as printed by axisName(). */
bool axisFromName(const std::string &name, Axis &out);

/** All axes, in report order. */
const std::vector<Axis> &allAxes();

/** The label of @p run's value on @p axis (theta at 12-digit encoding). */
std::string axisValueLabel(const ReportRun &run, Axis axis);

/** One (axis value, system) cell of a sensitivity table. */
struct SensitivityCell
{
    std::string system;
    std::size_t paired = 0; ///< baseline-paired runs in the geomeans
    std::size_t total = 0;  ///< all runs of the system at this axis value
    /** Paired comparisons dropped from the speedup geomean because the
     *  speedup was non-positive (a broken run). */
    std::size_t droppedSpeedups = 0;
    /** Same, for the perf/W geomean. */
    std::size_t droppedPerfPerWatt = 0;
    double geomeanSpeedup = 0.0;
    double geomeanPerfPerWatt = 0.0;
};

/** One axis value: its label and one cell per non-baseline system. */
struct SensitivityRow
{
    std::string value;
    std::vector<SensitivityCell> cells;
};

/** Per-axis sensitivity of every system vs. the baseline. */
struct SensitivityTable
{
    Axis axis = Axis::kGeometry;
    std::string baseline;
    std::vector<SensitivityRow> rows; ///< axis values in report order
};

/**
 * Compute the sensitivity table of @p axis: rows are the axis values
 * present in the report, cells pair each system's runs at that value
 * with @p baseline runs in the same comparison group (all other axes
 * equal) and geomean the comparisons.
 */
SensitivityTable sensitivity(const ReportModel &m, Axis axis,
                             const std::string &baseline);

/** Markdown rendering of a sensitivity table. */
std::string renderSensitivityMarkdown(const SensitivityTable &t);

/** Chart-ready CSV of a sensitivity table (one line per cell). */
std::string sensitivityCsv(const SensitivityTable &t);

/** Summary recomputed from the runs: one cell per non-baseline system
 *  over the whole report. */
struct AnalysisSummary
{
    std::string baseline;
    std::vector<SensitivityCell> systems;
};

AnalysisSummary recomputeSummary(const ReportModel &m,
                                 const std::string &baseline);

/** Markdown rendering of a recomputed summary. */
std::string renderSummaryMarkdown(const AnalysisSummary &s);

/** One numeric mismatch between two reports. */
struct DiffEntry
{
    std::string where; ///< run point key or "summary <system>"
    std::string field; ///< e.g. "total_time_ps", "geomean_speedup"
    double a = 0.0;
    double b = 0.0;
    double relErr = 0.0;
};

/** Everything two reports disagree on. */
struct ReportDiff
{
    /** Non-numeric disagreements: runs present on one side only,
     *  mismatched phase structure, differing baselines. */
    std::vector<std::string> structural;
    /** Numeric fields whose relative error exceeds the tolerance. */
    std::vector<DiffEntry> numeric;

    bool empty() const { return structural.empty() && numeric.empty(); }
};

/**
 * Compare two reports field by field: runs are matched by point key
 * (every axis coordinate), then every timing/energy/functional/phase
 * metric and every stored summary geomean is compared at relative
 * tolerance @p rtol (|a-b| / max(|a|,|b|); exact-zero pairs match).
 */
ReportDiff diffReports(const ReportModel &a, const ReportModel &b,
                       double rtol);

/** Human-readable rendering of a diff ("" when empty). */
std::string renderDiff(const ReportDiff &d);

/**
 * Chart-ready CSV of every run: axis coordinates, headline metrics and —
 * when @p baseline is non-empty and the paired run exists — speedup and
 * perf/W vs. the baseline at the same grid point. When any run carries
 * served metrics (traffic sweeps), a traffic column and the served
 * columns (sustained QPS, latency percentiles, energy per query) are
 * appended; they stay empty on runs without served metrics, and the CSV
 * of a servedless report is byte-identical to the pre-traffic layout.
 */
std::string runsCsv(const ReportModel &m, const std::string &baseline);

/**
 * Markdown table of every run with served metrics: traffic coordinates,
 * admission accounting, sustained QPS, latency percentiles and energy
 * per query. "" when the report has no served runs.
 */
std::string renderServedMarkdown(const ReportModel &m);

/**
 * Chart-ready CSV of every stage of every scenario run (one row per
 * (run, stage)): axis coordinates plus per-stage timing, energy, tuple
 * flow and functional columns. Runs without stage sub-results
 * (degenerate scenarios) contribute no rows.
 */
std::string stagesCsv(const ReportModel &m);

/** One (scenario, stage) row of the per-stage breakdown: cells pair
 *  each system's stage with the baseline's same stage at the same grid
 *  point and geomean stage-time speedup / stage perf-per-watt. */
struct StageBreakdownRow
{
    std::string scenario;
    std::size_t stageIndex = 0;
    std::string stage; ///< stage token ("filter")
    std::string op;    ///< basic op it lowered onto
    std::vector<SensitivityCell> cells;
};

/**
 * Per-stage breakdown of every pipeline scenario in the report vs.
 * @p baseline. Empty when no run carries stage sub-results.
 */
std::vector<StageBreakdownRow> stageBreakdown(const ReportModel &m,
                                              const std::string &baseline);

/** Markdown rendering of the per-stage breakdown. */
std::string
renderStageBreakdownMarkdown(const std::vector<StageBreakdownRow> &rows);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_ANALYSIS_HH
