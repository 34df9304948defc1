#include "system/analysis.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/json.hh"
#include "system/report.hh"
#include "system/result_fields.hh"

namespace mondrian {

namespace {

/** A run's coordinate labels, system first, as the diff names it. */
std::string
runLabel(const CampaignRun &r)
{
    const CampaignJob &j = r.job;
    // Theta at the report's canonical 12-digit encoding (see json.hh).
    return std::string(systemKindName(j.system)) + "|" + j.scenario.name +
           "|" + std::to_string(j.log2Tuples) + "|" + std::to_string(j.seed) +
           "|" + geometryName(j.geometry) + "|" + j.exec.name() + "|" +
           JsonWriter::doubleString(j.zipfTheta) + "|" + j.traffic.name();
}

/** The leading CSV columns of a run: index and coordinates up to theta. */
std::string
coordinateColumns(const CampaignJob &j)
{
    std::string out = std::to_string(j.index) + "," +
                      systemKindName(j.system) + "," + j.scenario.name +
                      "," + std::to_string(j.log2Tuples) + "," +
                      std::to_string(j.seed) + "," +
                      geometryName(j.geometry) + "," + j.exec.name() + ",";
    JsonWriter::appendDouble(out, j.zipfTheta);
    return out;
}

/** |a-b| / max(|a|,|b|); 0 when both sides are exactly 0 or both NaN
 *  (the writer's null), infinite when only one is NaN. */
double
relErr(double a, double b)
{
    if (std::isnan(a) != std::isnan(b))
        return HUGE_VAL;
    double d = std::fabs(a - b);
    if (!(d > 0.0))
        return 0.0;
    double m = std::max(std::fabs(a), std::fabs(b));
    return d / m;
}

/** Record @p field as a numeric mismatch when @p apart. */
void
noteIf(bool apart, ReportDiff &out, const std::string &where,
       const std::string &field, double a, double b)
{
    if (apart)
        out.numeric.push_back({where, field, a, b, relErr(a, b)});
}

/** How the diff names a list element whose labels disagree. */
std::string
elementLabel(const PhaseResult &p)
{
    return p.name;
}

std::string
elementLabel(const StageResult &s)
{
    return s.stage + "(" + s.op + ", input " + s.input + ")";
}

/**
 * The per-run diff, a visitor over result_fields.hh naming each mismatch
 * by its JSON path. A list element whose labels differ is one structural
 * entry, not a field-by-field diff.
 */
template <typename S>
struct ResultDiffer
{
    const S &a;
    const S &b;
    const std::string &where;
    std::string path; ///< JSON path prefix of @c a and @c b
    double rtol;
    ReportDiff &out;
    bool labelsDiffer = false;

    template <typename M>
    void label(const char *, M S::*m) { labelsDiffer |= a.*m != b.*m; }
    template <typename M>
    void
    exact(const char *name, M S::*m)
    {
        noteIf(a.*m != b.*m, out, where, path + name,
               static_cast<double>(a.*m), static_cast<double>(b.*m));
    }
    template <typename M>
    void
    approx(const char *name, M S::*m)
    {
        const double x = static_cast<double>(a.*m);
        const double y = static_cast<double>(b.*m);
        noteIf(relErr(x, y) > rtol, out, where, path + name, x, y);
    }
    void derived(const char *, double (S::*)() const) {}
    template <typename Fn>
    void
    group(const char *name, Fn fn)
    {
        ResultDiffer g{a, b, where, path + name + ".", rtol, out};
        fn(g);
    }
    template <typename T>
    void
    object(const char *name, T S::*m, bool T::*valid = nullptr)
    {
        if (valid && (a.*m).*valid != (b.*m).*valid) {
            out.structural.push_back(where + ": " + path + name +
                                     " metrics only in " +
                                     ((a.*m).*valid ? "first" : "second"));
        } else if (!valid || (a.*m).*valid) {
            ResultDiffer<T> d{a.*m, b.*m, where, path + name + ".", rtol,
                              out};
            resultFields(d, std::type_identity<T>{});
        }
    }
    template <typename T>
    void
    list(const char *name, std::vector<T> S::*m, Presence)
    {
        const std::vector<T> &la = a.*m, &lb = b.*m;
        const std::string at = path + name;
        if (la.size() != lb.size()) {
            out.structural.push_back(where + ": " +
                                     std::to_string(la.size()) + " " + at +
                                     " vs " + std::to_string(lb.size()));
            return;
        }
        for (std::size_t i = 0; i < la.size(); ++i) {
            const std::string tag = at + "[" + std::to_string(i) + "]";
            const std::size_t numeric = out.numeric.size();
            const std::size_t structural = out.structural.size();
            ResultDiffer<T> d{la[i], lb[i], where, tag + ".", rtol, out};
            resultFields(d, std::type_identity<T>{});
            if (d.labelsDiffer) {
                out.numeric.resize(numeric);
                out.structural.resize(structural);
                out.structural.push_back(where + ": " + tag + " is " +
                                         elementLabel(la[i]) + " vs " +
                                         elementLabel(lb[i]));
            }
        }
    }
};

} // namespace

const char *
axisName(Axis axis)
{
    switch (axis) {
      case Axis::kGeometry: return "geometry";
      case Axis::kExec: return "exec";
      case Axis::kZipfTheta: return "zipf-theta";
      case Axis::kScale: return "scale";
      case Axis::kScenario: return "scenario";
      case Axis::kSeed: return "seed";
      case Axis::kTraffic: return "traffic";
    }
    return "?";
}

bool
axisFromName(const std::string &name, Axis &out)
{
    for (Axis axis : allAxes()) {
        if (name == axisName(axis)) {
            out = axis;
            return true;
        }
    }
    return false;
}

const std::vector<Axis> &
allAxes()
{
    static const std::vector<Axis> axes = {
        Axis::kGeometry, Axis::kExec,     Axis::kZipfTheta, Axis::kScale,
        Axis::kScenario, Axis::kSeed,     Axis::kTraffic};
    return axes;
}

std::string
axisValueLabel(const CampaignRun &run, Axis axis)
{
    const CampaignJob &j = run.job;
    switch (axis) {
      case Axis::kGeometry: return geometryName(j.geometry);
      case Axis::kExec: return j.exec.name();
      case Axis::kZipfTheta: return JsonWriter::doubleString(j.zipfTheta);
      case Axis::kScale: return "2^" + std::to_string(j.log2Tuples);
      case Axis::kScenario: return j.scenario.name;
      case Axis::kSeed: return std::to_string(j.seed);
      case Axis::kTraffic: return j.traffic.name();
    }
    return "?";
}

SensitivityTable
sensitivity(const CampaignReport &report, Axis axis, SystemKind baseline)
{
    SensitivityTable t;
    t.axis = axis;
    // Rows: the axis values of the compared runs, in grid order.
    std::vector<std::string> values;
    for (const CampaignRun &r : report.runs) {
        if (r.failed || r.job.system == baseline)
            continue;
        std::string value = axisValueLabel(r, axis);
        if (std::find(values.begin(), values.end(), value) == values.end())
            values.push_back(std::move(value));
    }
    for (const std::string &value : values) {
        // Holding the axis at one value keeps whole comparison groups: a
        // run and its baseline differ only in the system.
        std::vector<CampaignRun> at_value;
        for (const CampaignRun &r : report.runs) {
            if (!r.failed && axisValueLabel(r, axis) == value)
                at_value.push_back(r);
        }
        SensitivityRow &row = t.rows.emplace_back();
        row.value = value;
        row.cells = summarizeRuns(report.grid, at_value, baseline);
        std::erase_if(row.cells, [](const SystemSummary &c) {
            return c.totalRuns == 0;
        });
    }
    return t;
}

std::string
renderSensitivityMarkdown(const SensitivityTable &t)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({axisName(t.axis), "system", "paired",
                    "geomean speedup", "geomean perf/W"});
    for (const SensitivityRow &row : t.rows) {
        for (const SystemSummary &c : row.cells) {
            rows.push_back(
                {row.value, c.system, pairedCountLabel(c.runs, c.totalRuns),
                 geomeanCellLabel(c.geomeanSpeedup, c.droppedSpeedups, 4),
                 geomeanCellLabel(c.geomeanPerfPerWatt,
                                  c.droppedPerfPerWatt, 4)});
        }
    }
    return renderMarkdownTable(rows);
}

std::string
sensitivityCsv(const SensitivityTable &t)
{
    std::string out = "axis,value,system,paired,total,dropped_speedups,"
                      "dropped_perf_per_watt,geomean_speedup,"
                      "geomean_perf_per_watt\n";
    for (const SensitivityRow &row : t.rows) {
        for (const SystemSummary &c : row.cells) {
            out += std::string(axisName(t.axis)) + "," + row.value + "," +
                   c.system + "," + std::to_string(c.runs) + "," +
                   std::to_string(c.totalRuns) + "," +
                   std::to_string(c.droppedSpeedups) + "," +
                   std::to_string(c.droppedPerfPerWatt) + ",";
            JsonWriter::appendDouble(out, c.geomeanSpeedup);
            out += ",";
            JsonWriter::appendDouble(out, c.geomeanPerfPerWatt);
            out += "\n";
        }
    }
    return out;
}

std::string
renderSummaryMarkdown(const std::vector<SystemSummary> &s)
{
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"system", "paired runs", "geomean speedup",
                    "geomean perf/W"});
    for (const SystemSummary &c : s) {
        rows.push_back(
            {c.system, pairedCountLabel(c.runs, c.totalRuns),
             geomeanCellLabel(c.geomeanSpeedup, c.droppedSpeedups, 4),
             geomeanCellLabel(c.geomeanPerfPerWatt, c.droppedPerfPerWatt,
                              4)});
    }
    return renderMarkdownTable(rows);
}

ReportDiff
diffReports(const CampaignReport &a, const CampaignReport &b, double rtol)
{
    ReportDiff out;
    if (a.baseline != b.baseline) {
        out.structural.push_back("baseline: '" + a.baseline + "' vs '" +
                                 b.baseline + "'");
    }

    // Runs pair by grid point, not by index, so reports of two grids
    // still compare the points they share.
    using Point = std::pair<SystemKind, GridGroupKey>;
    auto points = [](const CampaignReport &r) {
        std::map<Point, const CampaignRun *> by_point;
        for (const CampaignRun &run : r.runs) {
            if (!run.failed)
                by_point[{run.job.system, gridGroupKey(run)}] = &run;
        }
        return by_point;
    };
    const auto a_runs = points(a), b_runs = points(b);
    for (const CampaignRun &r : a.runs) {
        if (r.failed)
            continue;
        auto it = b_runs.find({r.job.system, gridGroupKey(r)});
        if (it == b_runs.end()) {
            out.structural.push_back("run " + runLabel(r) +
                                     " only in first report");
            continue;
        }
        // Runs pair by grid point, so their own labels are not compared.
        const std::string where = "run " + runLabel(r);
        ResultDiffer<RunResult> d{r.result, it->second->result, where, "",
                                  rtol, out};
        resultFields(d, std::type_identity<RunResult>{});
    }
    for (const CampaignRun &r : b.runs) {
        if (!r.failed && !a_runs.count({r.job.system, gridGroupKey(r)})) {
            out.structural.push_back("run " + runLabel(r) +
                                     " only in second report");
        }
    }

    std::map<std::string, const SystemSummary *> b_summary;
    for (const SystemSummary &row : b.summaries)
        b_summary[row.system] = &row;
    std::set<std::string> summary_matched;
    for (const SystemSummary &row : a.summaries) {
        auto it = b_summary.find(row.system);
        if (it == b_summary.end()) {
            out.structural.push_back("summary " + row.system +
                                     " only in first report");
            continue;
        }
        summary_matched.insert(row.system);
        const std::string where = "summary " + row.system;
        const SystemSummary &o = *it->second;
        noteIf(row.runs != o.runs, out, where, "runs",
               static_cast<double>(row.runs), static_cast<double>(o.runs));
        noteIf(relErr(row.geomeanSpeedup, o.geomeanSpeedup) > rtol, out,
               where, "geomean_speedup", row.geomeanSpeedup,
               o.geomeanSpeedup);
        noteIf(relErr(row.geomeanPerfPerWatt, o.geomeanPerfPerWatt) > rtol,
               out, where, "geomean_perf_per_watt", row.geomeanPerfPerWatt,
               o.geomeanPerfPerWatt);
    }
    for (const SystemSummary &row : b.summaries) {
        if (summary_matched.find(row.system) == summary_matched.end()) {
            out.structural.push_back("summary " + row.system +
                                     " only in second report");
        }
    }
    return out;
}

std::string
renderDiff(const ReportDiff &d)
{
    std::string out;
    for (const std::string &s : d.structural)
        out += s + "\n";
    for (const DiffEntry &e : d.numeric) {
        out += e.where + " " + e.field + ": ";
        JsonWriter::appendDouble(out, e.a);
        out += " vs ";
        JsonWriter::appendDouble(out, e.b);
        out += " (rel err ";
        JsonWriter::appendDouble(out, e.relErr);
        out += ")\n";
    }
    return out;
}

std::string
runsCsv(const CampaignReport &report, std::optional<SystemKind> baseline)
{
    std::map<GridGroupKey, const CampaignRun *> base;
    if (baseline)
        base = baselineIndex(report.runs, *baseline);

    bool any_served = false;
    for (const CampaignRun &r : report.runs)
        any_served = any_served || (!r.failed && r.result.served.valid);

    std::string out =
        "index,system,scenario,log2_tuples,seed,geometry,exec,zipf_theta,"
        "total_time_ps,partition_time_ps,probe_time_ps,seconds,"
        "sim_events,energy_total_j,energy_dram_dynamic_j,energy_dram_static_j,"
        "energy_cores_j,energy_network_j,partition_vault_bw_gbps,"
        "probe_vault_bw_gbps,speedup_vs_baseline,perf_per_watt_vs_baseline";
    if (any_served) {
        out += ",traffic,served_offered,served_admitted,served_rejected,"
               "served_completed,served_measured_completed,"
               "served_window_ps,served_sustained_qps,"
               "served_latency_p50_ps,served_latency_p95_ps,"
               "served_latency_p99_ps,served_latency_max_ps,"
               "served_latency_mean_ps,served_energy_per_query_j";
    }
    out += "\n";
    for (const CampaignRun &r : report.runs) {
        if (r.failed)
            continue;
        out += coordinateColumns(r.job);
        out += "," + std::to_string(r.result.totalTime) + "," +
               std::to_string(r.result.partitionTime) + "," +
               std::to_string(r.result.probeTime) + ",";
        JsonWriter::appendDouble(out, r.result.seconds());
        out += "," + std::to_string(r.result.simEvents) + ",";
        JsonWriter::appendDouble(out, r.result.energy.total());
        out += ",";
        JsonWriter::appendDouble(out, r.result.energy.dramDynamic);
        out += ",";
        JsonWriter::appendDouble(out, r.result.energy.dramStatic);
        out += ",";
        JsonWriter::appendDouble(out, r.result.energy.cores);
        out += ",";
        JsonWriter::appendDouble(out, r.result.energy.network);
        out += ",";
        JsonWriter::appendDouble(out, r.result.partitionVaultBWGBps);
        out += ",";
        JsonWriter::appendDouble(out, r.result.probeVaultBWGBps);
        // Pairing columns stay empty for the baseline's own runs, for
        // unpaired grid points, and when no baseline was requested.
        std::string speedup, ppw;
        if (baseline && r.job.system != *baseline) {
            auto it = base.find(gridGroupKey(r));
            if (it != base.end()) {
                JsonWriter::appendDouble(
                    speedup, overallSpeedup(it->second->result, r.result));
                JsonWriter::appendDouble(
                    ppw, efficiencyImprovement(it->second->result,
                                               r.result));
            }
        }
        out += "," + speedup + "," + ppw;
        if (any_served) {
            const ServedMetrics &s = r.result.served;
            out += "," + r.job.traffic.name();
            if (s.valid) {
                out += "," + std::to_string(s.offered) + "," +
                       std::to_string(s.admitted) + "," +
                       std::to_string(s.rejected) + "," +
                       std::to_string(s.completed) + "," +
                       std::to_string(s.measuredCompleted) + "," +
                       std::to_string(s.window) + ",";
                JsonWriter::appendDouble(out, s.sustainedQps);
                out += "," + std::to_string(s.latencyP50) + "," +
                       std::to_string(s.latencyP95) + "," +
                       std::to_string(s.latencyP99) + "," +
                       std::to_string(s.latencyMax) + ",";
                JsonWriter::appendDouble(out, s.latencyMeanPs);
                out += ",";
                JsonWriter::appendDouble(out, s.energyPerQueryJ);
            } else {
                out += ",,,,,,,,,,,,,";
            }
        }
        out += "\n";
    }
    return out;
}

std::string
renderServedMarkdown(const CampaignReport &report)
{
    std::vector<std::vector<std::string>> table;
    table.push_back({"system", "scenario", "traffic", "offered", "adm",
                     "rej", "done", "QPS", "p50 us", "p95 us", "p99 us",
                     "J/query"});
    auto us = [](Tick ps) {
        std::string s;
        JsonWriter::appendDouble(s, static_cast<double>(ps) / 1e6);
        return s;
    };
    for (const CampaignRun &r : report.runs) {
        const ServedMetrics &s = r.result.served;
        if (r.failed || !s.valid)
            continue;
        std::string qps, epq;
        JsonWriter::appendDouble(qps, s.sustainedQps);
        JsonWriter::appendDouble(epq, s.energyPerQueryJ);
        table.push_back({systemKindName(r.job.system),
                         r.job.scenario.name, r.job.traffic.name(),
                         std::to_string(s.offered),
                         std::to_string(s.admitted),
                         std::to_string(s.rejected),
                         std::to_string(s.completed), qps,
                         us(s.latencyP50), us(s.latencyP95),
                         us(s.latencyP99), epq});
    }
    if (table.size() == 1)
        return "";
    return renderMarkdownTable(table);
}

std::string
stagesCsv(const CampaignReport &report)
{
    std::string out =
        "index,system,scenario,log2_tuples,seed,geometry,exec,zipf_theta,"
        "stage_index,stage,stage_op,input,total_time_ps,partition_time_ps,"
        "probe_time_ps,energy_total_j,partition_vault_bw_gbps,"
        "probe_vault_bw_gbps,input_tuples,output_tuples,scan_matches,"
        "join_matches,group_count,agg_checksum\n";
    for (const CampaignRun &r : report.runs) {
        for (std::size_t i = 0; !r.failed && i < r.result.stages.size();
             ++i) {
            const StageResult &s = r.result.stages[i];
            out += coordinateColumns(r.job);
            out += "," + std::to_string(i) + "," + s.stage + "," + s.op +
                   "," + s.input + "," + std::to_string(s.totalTime) +
                   "," + std::to_string(s.partitionTime) + "," +
                   std::to_string(s.probeTime) + ",";
            JsonWriter::appendDouble(out, s.energy.total());
            out += ",";
            JsonWriter::appendDouble(out, s.partitionVaultBWGBps);
            out += ",";
            JsonWriter::appendDouble(out, s.probeVaultBWGBps);
            out += "," + std::to_string(s.inputTuples) + "," +
                   std::to_string(s.outputTuples) + "," +
                   std::to_string(s.scanMatches) + "," +
                   std::to_string(s.joinMatches) + "," +
                   std::to_string(s.groupCount) + "," +
                   std::to_string(s.aggChecksum) + "\n";
        }
    }
    return out;
}

std::vector<StageBreakdownRow>
stageBreakdown(const CampaignReport &report, SystemKind baseline)
{
    const auto base = baselineIndex(report.runs, baseline);

    // Row identity: (scenario, stage index). Cells accumulate per
    // system, pairing each run's stage with the baseline run's stage at
    // the same grid point (same index — scenarios fix the stage list).
    std::vector<StageBreakdownRow> rows;
    auto rowIndex = [&rows](const CampaignRun &r, std::size_t stage_idx) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].scenario == r.job.scenario.name &&
                rows[i].stageIndex == stage_idx)
                return i;
        }
        StageBreakdownRow &row = rows.emplace_back();
        row.scenario = r.job.scenario.name;
        row.stageIndex = stage_idx;
        row.stage = r.result.stages[stage_idx].stage;
        row.op = r.result.stages[stage_idx].op;
        return rows.size() - 1;
    };

    struct Comparisons
    {
        std::size_t total = 0;
        std::vector<double> speedups, perfPerWatt;
    };
    std::map<std::pair<std::size_t, SystemKind>, Comparisons> cells;
    for (const CampaignRun &r : report.runs) {
        if (r.failed || r.job.system == baseline)
            continue;
        const CampaignRun *b = nullptr;
        if (auto it = base.find(gridGroupKey(r)); it != base.end())
            b = it->second;
        for (std::size_t i = 0; i < r.result.stages.size(); ++i) {
            Comparisons &c = cells[{rowIndex(r, i), r.job.system}];
            ++c.total;
            if (!b || b->result.stages.size() != r.result.stages.size())
                continue;
            const StageResult &ss = r.result.stages[i];
            const StageResult &bs = b->result.stages[i];
            c.speedups.push_back(
                ss.totalTime > 0
                    ? static_cast<double>(bs.totalTime) /
                          static_cast<double>(ss.totalTime)
                    : 0.0);
            c.perfPerWatt.push_back(
                ss.energy.total() > 0.0
                    ? bs.energy.total() / ss.energy.total()
                    : 0.0);
        }
    }

    for (std::size_t i = 0; i < rows.size(); ++i) {
        for (SystemKind sys : report.grid.systems) {
            auto it = cells.find({i, sys});
            if (it == cells.end())
                continue;
            rows[i].cells.push_back(summarizeComparisons(
                systemKindName(sys), it->second.total, it->second.speedups,
                it->second.perfPerWatt));
        }
    }
    return rows;
}

std::string
renderStageBreakdownMarkdown(const std::vector<StageBreakdownRow> &rows)
{
    std::vector<std::vector<std::string>> table;
    table.push_back({"scenario", "stage", "op", "system", "paired",
                     "geomean speedup", "geomean perf/W"});
    for (const StageBreakdownRow &row : rows) {
        for (const SystemSummary &c : row.cells) {
            table.push_back(
                {row.scenario,
                 std::to_string(row.stageIndex) + ":" + row.stage, row.op,
                 c.system, pairedCountLabel(c.runs, c.totalRuns),
                 geomeanCellLabel(c.geomeanSpeedup, c.droppedSpeedups, 4),
                 geomeanCellLabel(c.geomeanPerfPerWatt,
                                  c.droppedPerfPerWatt, 4)});
        }
    }
    return renderMarkdownTable(table);
}

} // namespace mondrian
