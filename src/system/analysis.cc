#include "system/analysis.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/json.hh"
#include "system/report.hh"

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

/** |a-b| / max(|a|,|b|); 0 when both sides are exactly 0. */
double
relErr(double a, double b)
{
    double d = std::fabs(a - b);
    if (d == 0.0)
        return 0.0;
    double m = std::max(std::fabs(a), std::fabs(b));
    return d / m;
}

/** Diff accumulation helpers bound to one (where, rtol, out) context. */
struct FieldDiffer
{
    const std::string &where;
    double rtol;
    ReportDiff &out;

    void
    approx(const char *field, double a, double b) const
    {
        double e = relErr(a, b);
        if (e > rtol)
            out.numeric.push_back({where, field, a, b, e});
    }

    /** Exact-integer fields (functional outputs, run counts): any
     *  difference is a mismatch regardless of magnitude. */
    void
    exact(const char *field, std::uint64_t a, std::uint64_t b) const
    {
        if (a != b) {
            out.numeric.push_back({where, field, static_cast<double>(a),
                                   static_cast<double>(b),
                                   relErr(static_cast<double>(a),
                                          static_cast<double>(b))});
        }
    }
};

void
diffPhaseList(const std::string &where, const std::string &prefix,
              const std::vector<PhaseResult> &a,
              const std::vector<PhaseResult> &b, double rtol,
              ReportDiff &out)
{
    if (a.size() != b.size()) {
        out.structural.push_back(where + ": " + std::to_string(a.size()) +
                                 " " + prefix + " vs " +
                                 std::to_string(b.size()));
        return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const PhaseResult &pa = a[i];
        const PhaseResult &pb = b[i];
        const std::string tag = prefix + "[" + std::to_string(i) + "]";
        if (pa.name != pb.name || pa.kind != pb.kind) {
            out.structural.push_back(where + ": " + tag + " is " + pa.name +
                                     " vs " + pb.name);
            continue;
        }
        FieldDiffer pd{where, rtol, out};
        pd.approx((tag + ".time_ps").c_str(), static_cast<double>(pa.time),
                  static_cast<double>(pb.time));
        pd.approx((tag + ".dram_bytes").c_str(),
                  static_cast<double>(pa.dramBytes),
                  static_cast<double>(pb.dramBytes));
        pd.approx((tag + ".activations").c_str(),
                  static_cast<double>(pa.activations),
                  static_cast<double>(pb.activations));
        pd.approx((tag + ".avg_vault_bw_gbps").c_str(), pa.avgVaultBWGBps,
                  pb.avgVaultBWGBps);
        pd.approx((tag + ".core_utilization").c_str(), pa.coreUtilization,
                  pb.coreUtilization);
        pd.approx((tag + ".stalls.store").c_str(), pa.stallStore,
                  pb.stallStore);
        pd.approx((tag + ".stalls.stream").c_str(), pa.stallStream,
                  pb.stallStream);
        pd.approx((tag + ".stalls.load").c_str(), pa.stallLoad,
                  pb.stallLoad);
        pd.approx((tag + ".stalls.fence").c_str(), pa.stallFence,
                  pb.stallFence);
    }
}

void
diffEnergy(const FieldDiffer &d, const std::string &tag,
           const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    d.approx((tag + ".dram_dynamic").c_str(), a.dramDynamic,
             b.dramDynamic);
    d.approx((tag + ".dram_static").c_str(), a.dramStatic, b.dramStatic);
    d.approx((tag + ".cores").c_str(), a.cores, b.cores);
    d.approx((tag + ".network").c_str(), a.network, b.network);
}

void
diffRunResult(const std::string &where, const RunResult &a,
              const RunResult &b, double rtol, ReportDiff &out)
{
    FieldDiffer d{where, rtol, out};
    d.approx("total_time_ps", static_cast<double>(a.totalTime),
             static_cast<double>(b.totalTime));
    d.approx("partition_time_ps", static_cast<double>(a.partitionTime),
             static_cast<double>(b.partitionTime));
    d.approx("probe_time_ps", static_cast<double>(a.probeTime),
             static_cast<double>(b.probeTime));
    d.approx("partition_vault_bw_gbps", a.partitionVaultBWGBps,
             b.partitionVaultBWGBps);
    d.approx("probe_vault_bw_gbps", a.probeVaultBWGBps, b.probeVaultBWGBps);
    // Exact by the output-identity contract: the perf transforms must
    // not move a single event, so any drift here is a real bug.
    d.exact("sim_events", a.simEvents, b.simEvents);
    diffEnergy(d, "energy_j", a.energy, b.energy);
    d.exact("functional.scan_matches", a.scanMatches, b.scanMatches);
    d.exact("functional.join_matches", a.joinMatches, b.joinMatches);
    d.exact("functional.group_count", a.groupCount, b.groupCount);
    d.exact("functional.agg_checksum", a.aggChecksum, b.aggChecksum);

    if (a.served.valid != b.served.valid) {
        out.structural.push_back(
            where + ": served metrics " +
            (a.served.valid ? "only in first" : "only in second"));
    } else if (a.served.valid) {
        // Admission accounting is deterministic — any difference is a
        // mismatch; rates, latencies and energy compare at tolerance.
        d.exact("served.offered", a.served.offered, b.served.offered);
        d.exact("served.admitted", a.served.admitted, b.served.admitted);
        d.exact("served.rejected", a.served.rejected, b.served.rejected);
        d.exact("served.completed", a.served.completed,
                b.served.completed);
        d.exact("served.measured_completed", a.served.measuredCompleted,
                b.served.measuredCompleted);
        d.approx("served.window_ps", static_cast<double>(a.served.window),
                 static_cast<double>(b.served.window));
        d.approx("served.sustained_qps", a.served.sustainedQps,
                 b.served.sustainedQps);
        d.approx("served.latency_p50_ps",
                 static_cast<double>(a.served.latencyP50),
                 static_cast<double>(b.served.latencyP50));
        d.approx("served.latency_p95_ps",
                 static_cast<double>(a.served.latencyP95),
                 static_cast<double>(b.served.latencyP95));
        d.approx("served.latency_p99_ps",
                 static_cast<double>(a.served.latencyP99),
                 static_cast<double>(b.served.latencyP99));
        d.approx("served.latency_max_ps",
                 static_cast<double>(a.served.latencyMax),
                 static_cast<double>(b.served.latencyMax));
        d.approx("served.latency_mean_ps", a.served.latencyMeanPs,
                 b.served.latencyMeanPs);
        d.approx("served.energy_per_query_j", a.served.energyPerQueryJ,
                 b.served.energyPerQueryJ);
    }

    if (a.stages.size() != b.stages.size()) {
        out.structural.push_back(where + ": " +
                                 std::to_string(a.stages.size()) +
                                 " stages vs " +
                                 std::to_string(b.stages.size()));
    } else {
        for (std::size_t i = 0; i < a.stages.size(); ++i) {
            const StageResult &sa = a.stages[i];
            const StageResult &sb = b.stages[i];
            const std::string tag = "stages[" + std::to_string(i) + "]";
            if (sa.stage != sb.stage || sa.op != sb.op ||
                sa.input != sb.input) {
                out.structural.push_back(
                    where + ": " + tag + " is " + sa.stage + "(" + sa.op +
                    ", input " + sa.input + ") vs " + sb.stage + "(" +
                    sb.op + ", input " + sb.input + ")");
                continue;
            }
            FieldDiffer sd{where, rtol, out};
            sd.approx((tag + ".total_time_ps").c_str(),
                      static_cast<double>(sa.totalTime),
                      static_cast<double>(sb.totalTime));
            sd.approx((tag + ".partition_time_ps").c_str(),
                      static_cast<double>(sa.partitionTime),
                      static_cast<double>(sb.partitionTime));
            sd.approx((tag + ".probe_time_ps").c_str(),
                      static_cast<double>(sa.probeTime),
                      static_cast<double>(sb.probeTime));
            sd.approx((tag + ".partition_vault_bw_gbps").c_str(),
                      sa.partitionVaultBWGBps, sb.partitionVaultBWGBps);
            sd.approx((tag + ".probe_vault_bw_gbps").c_str(),
                      sa.probeVaultBWGBps, sb.probeVaultBWGBps);
            diffEnergy(sd, tag + ".energy_j", sa.energy, sb.energy);
            sd.exact((tag + ".input_tuples").c_str(), sa.inputTuples,
                     sb.inputTuples);
            sd.exact((tag + ".output_tuples").c_str(), sa.outputTuples,
                     sb.outputTuples);
            sd.exact((tag + ".scan_matches").c_str(), sa.scanMatches,
                     sb.scanMatches);
            sd.exact((tag + ".join_matches").c_str(), sa.joinMatches,
                     sb.joinMatches);
            sd.exact((tag + ".group_count").c_str(), sa.groupCount,
                     sb.groupCount);
            sd.exact((tag + ".agg_checksum").c_str(), sa.aggChecksum,
                     sb.aggChecksum);
            diffPhaseList(where, tag + ".phases", sa.phases, sb.phases,
                          rtol, out);
        }
    }

    diffPhaseList(where, "phases", a.phases, b.phases, rtol, out);
}

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
        diffRunResult("run " + runLabel(r), r.result, it->second->result,
                      rtol, out);
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
        FieldDiffer d{where, rtol, out};
        d.exact("runs", row.runs, it->second->runs);
        d.approx("geomean_speedup", row.geomeanSpeedup,
                 it->second->geomeanSpeedup);
        d.approx("geomean_perf_per_watt", row.geomeanPerfPerWatt,
                 it->second->geomeanPerfPerWatt);
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
