/**
 * @file
 * Report helpers: the tables and figure series of the paper's evaluation,
 * rendered as text from RunResults.
 */

#ifndef MONDRIAN_SYSTEM_REPORT_HH
#define MONDRIAN_SYSTEM_REPORT_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "system/runner.hh"

namespace mondrian {

/** Speedup of @p sys over @p base on total time. */
double overallSpeedup(const RunResult &base, const RunResult &sys);

/** Speedup restricted to partition phases (Table 5). */
double partitionSpeedup(const RunResult &base, const RunResult &sys);

/** Speedup restricted to probe phases (Fig. 6). */
double probeSpeedup(const RunResult &base, const RunResult &sys);

/**
 * Efficiency (performance per watt) improvement over @p base (Fig. 9):
 * equal work per run, so perf/W ratio reduces to the inverse energy ratio.
 */
double efficiencyImprovement(const RunResult &base, const RunResult &sys);

/** Fig. 8 row: fractional energy breakdown of one run. */
struct EnergyShares
{
    double dramDynamic = 0.0;
    double dramStatic = 0.0;
    double cores = 0.0;
    double network = 0.0;
};
EnergyShares energyShares(const RunResult &run);

/** Render one run as a human-readable block. */
std::string describeRun(const RunResult &run);

/** Printable name for a phase kind ("partition" / "probe"). */
const char *phaseKindName(PhaseKind kind);

/**
 * Serialize one run as a JSON object into @p w (deterministic: same run,
 * same bytes). Shared by the campaign CLI and tests.
 */
void writeRunResult(JsonWriter &w, const RunResult &run);

/** One run as a standalone JSON document. */
std::string runResultJson(const RunResult &run);

/**
 * Inverse of writeRunResult: reconstruct a RunResult from its parsed JSON
 * object (campaign --resume). Timing fields are exact (integers);
 * double-valued fields round-trip through the writer's 12-significant-
 * digit encoding. @return false when @p v is not a run-result object.
 */
bool readRunResult(const JsonValue &v, RunResult &out);

/** Geometric mean of @p values (ignores non-positive entries). */
double geomean(const std::vector<double> &values);

/**
 * Geometric mean with provenance: how many entries contributed and how
 * many were dropped as non-positive. A zero/negative speedup is a broken
 * run, not a data point — callers surface @c dropped so corrupt runs
 * can't silently vanish from a rollup.
 */
struct GeomeanStats
{
    double value = 0.0;    ///< geomean of the positive entries (0 if none)
    std::size_t used = 0;  ///< positive entries that contributed
    std::size_t dropped = 0; ///< non-positive entries excluded
};
GeomeanStats geomeanStats(const std::vector<double> &values);

/** Render a GitHub-flavored markdown table; first row is the header. */
std::string
renderMarkdownTable(const std::vector<std::vector<std::string>> &rows);

/** Format @p v with @p digits decimals. */
std::string fmt(double v, int digits = 2);

/**
 * Run-count cell of a rollup table: "paired", or "paired/total" when
 * some runs had no baseline to compare against.
 */
std::string pairedCountLabel(std::size_t paired, std::size_t total);

/**
 * Geomean cell of a rollup table: "1.23x", with " (N dropped)" appended
 * when @p dropped non-positive comparisons were excluded.
 */
std::string geomeanCellLabel(double v, std::size_t dropped, int digits = 2);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_REPORT_HH
