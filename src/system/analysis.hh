/**
 * @file
 * Axis-aware analysis of campaign reports.
 *
 * The campaign's headline claims are design-space comparisons — speedup
 * and perf/W of NMP variants across geometries, exec ablations, key skew,
 * scales and operators. This module turns a report read back by
 * readCampaignReport into:
 *
 *  - per-axis sensitivity tables: for each value of one axis, pair every
 *    run with the baseline run at the same point of all *other* axes and
 *    geomean the speedup / perf-per-watt per system — the table a
 *    "sweep theta, how does the edge erode?" question reads directly;
 *  - a report-vs-report diff (per-run and per-summary) under a relative
 *    tolerance, for golden-report regression gates;
 *  - chart-ready CSV of runs and sensitivity tables.
 *
 * Pairing and rollups are the campaign's own (baselineIndex,
 * gridGroupKey, summarizeRuns), recomputed from the runs rather than
 * taken from the stored summary block.
 */

#ifndef MONDRIAN_SYSTEM_ANALYSIS_HH
#define MONDRIAN_SYSTEM_ANALYSIS_HH

#include <optional>
#include <string>
#include <vector>

#include "system/campaign.hh"

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
std::string axisValueLabel(const CampaignRun &run, Axis axis);

/** One axis value: its label and one rollup per non-baseline system
 *  with runs at that value. */
struct SensitivityRow
{
    std::string value;
    std::vector<SystemSummary> cells;
};

/** Per-axis sensitivity of every system vs. the baseline. */
struct SensitivityTable
{
    Axis axis = Axis::kGeometry;
    std::vector<SensitivityRow> rows; ///< axis values in report order
};

/**
 * Compute the sensitivity table of @p axis: rows are the axis values
 * present in the report, cells are summarizeRuns over the runs at that
 * value (each paired with the @p baseline run of its comparison group).
 */
SensitivityTable sensitivity(const CampaignReport &report, Axis axis,
                             SystemKind baseline);

/** Markdown rendering of a sensitivity table. */
std::string renderSensitivityMarkdown(const SensitivityTable &t);

/** Chart-ready CSV of a sensitivity table (one line per cell). */
std::string sensitivityCsv(const SensitivityTable &t);

/** Markdown rendering of summarizeRuns' per-system rollups. */
std::string renderSummaryMarkdown(const std::vector<SystemSummary> &s);

/** One numeric mismatch between two reports. */
struct DiffEntry
{
    std::string where; ///< "run <coordinate labels>" or "summary <system>"
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
 * Compare two reports field by field: runs are matched by grid point
 * (system and gridGroupKey), not by index, then every timing/energy/
 * functional/phase metric and every stored summary geomean is compared
 * at relative tolerance @p rtol (|a-b| / max(|a|,|b|); exact-zero pairs
 * match). Labels (phase and stage names, a stage's input) compare
 * exactly.
 */
ReportDiff diffReports(const CampaignReport &a, const CampaignReport &b,
                       double rtol);

/** Human-readable rendering of a diff ("" when empty). */
std::string renderDiff(const ReportDiff &d);

/**
 * Chart-ready CSV of every run: axis coordinates, headline metrics and —
 * when @p baseline is given and the paired run exists — speedup and
 * perf/W vs. the baseline at the same grid point. When any run carries
 * served metrics (traffic sweeps), a traffic column and the served
 * columns (sustained QPS, latency percentiles, energy per query) are
 * appended; they stay empty on runs without served metrics, and the CSV
 * of a servedless report is byte-identical to the pre-traffic layout.
 */
std::string runsCsv(const CampaignReport &report,
                    std::optional<SystemKind> baseline);

/**
 * Markdown table of every run with served metrics: traffic coordinates,
 * admission accounting, sustained QPS, latency percentiles and energy
 * per query. "" when the report has no served runs.
 */
std::string renderServedMarkdown(const CampaignReport &report);

/**
 * Chart-ready CSV of every stage of every scenario run (one row per
 * (run, stage)): axis coordinates plus per-stage timing, energy, tuple
 * flow and functional columns. Runs without stage sub-results
 * (degenerate scenarios) contribute no rows.
 */
std::string stagesCsv(const CampaignReport &report);

/** One (scenario, stage) row of the per-stage breakdown: cells pair
 *  each system's stage with the baseline's same stage at the same grid
 *  point and geomean stage-time speedup / stage perf-per-watt. */
struct StageBreakdownRow
{
    std::string scenario;
    std::size_t stageIndex = 0;
    std::string stage; ///< stage token ("filter")
    std::string op;    ///< basic op it lowered onto
    std::vector<SystemSummary> cells;
};

/**
 * Per-stage breakdown of every pipeline scenario in the report vs.
 * @p baseline. Empty when no run carries stage sub-results.
 */
std::vector<StageBreakdownRow> stageBreakdown(const CampaignReport &report,
                                              SystemKind baseline);

/** Markdown rendering of the per-stage breakdown. */
std::string
renderStageBreakdownMarkdown(const std::vector<StageBreakdownRow> &rows);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_ANALYSIS_HH
