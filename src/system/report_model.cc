#include "system/report_model.hh"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "system/report.hh"

namespace mondrian {

namespace {

/** Append @p v to @p axis if it is not already present. */
template <typename T>
void
noteAxisValue(std::vector<T> &axis, const T &v)
{
    if (std::find(axis.begin(), axis.end(), v) == axis.end())
        axis.push_back(v);
}

} // namespace

std::string
ReportRun::groupKey() const
{
    // Theta at the report's canonical 12-digit encoding (see json.hh).
    return scenario + "|" + std::to_string(log2Tuples) + "|" +
           std::to_string(seed) + "|" + geometry + "|" + exec + "|" +
           JsonWriter::doubleString(zipfTheta) + "|" + traffic;
}

std::string
ReportRun::pointKey() const
{
    return system + "|" + groupKey();
}

bool
loadReportModel(const std::string &json_text, ReportModel &out,
                std::string &error)
{
    out = ReportModel{};
    JsonValue doc;
    if (!parseJson(json_text, doc, error) || !checkReportSchema(doc, error))
        return false;
    if (const JsonValue *paper = doc.find("paper"))
        out.paper = paper->asString();

    const JsonValue *runs = doc.find("runs");
    if (!runs || !runs->isArray()) {
        error = "report has no runs array";
        return false;
    }
    out.runs.reserve(runs->items.size());
    std::set<std::string> seen_points;
    for (const JsonValue &r : runs->items) {
        ReportRun run;
        // A wrong-typed coordinate would corrupt every point key
        // downstream — fail loudly instead.
        std::string coord_error;
        if (!readRunCoordinates(r, run, coord_error)) {
            error = "run " + std::to_string(out.runs.size()) + ": " +
                    coord_error;
            return false;
        }
        const JsonValue *result = r.find("result");
        if (!result || !readRunResult(*result, run.result)) {
            error = "run " + std::to_string(out.runs.size()) +
                    " has a malformed result object";
            return false;
        }
        // Two runs at one grid point make every per-point analysis
        // ambiguous — corrupt report, not a recoverable condition.
        if (!seen_points.insert(run.pointKey()).second) {
            error = "duplicate run at grid point " + run.pointKey();
            return false;
        }

        noteAxisValue(out.systems, run.system);
        noteAxisValue(out.scenarios, run.scenario);
        noteAxisValue(out.log2Tuples, run.log2Tuples);
        noteAxisValue(out.seeds, run.seed);
        noteAxisValue(out.geometries, run.geometry);
        noteAxisValue(out.execs, run.exec);
        noteAxisValue(out.zipfThetas, run.zipfTheta);
        noteAxisValue(out.traffics, run.traffic);
        out.runs.push_back(std::move(run));
    }

    if (const JsonValue *summary = doc.find("summary")) {
        if (const JsonValue *base = summary->find("baseline"))
            out.baseline = base->asString();
        if (const JsonValue *systems = summary->find("systems");
            systems && systems->isArray()) {
            for (const JsonValue &s : systems->items) {
                ReportSummaryRow row;
                if (const JsonValue *n = s.find("system"))
                    row.system = n->asString();
                if (const JsonValue *n = s.find("runs"))
                    row.runs = n->asU64();
                if (const JsonValue *n = s.find("geomean_speedup"))
                    row.geomeanSpeedup = n->asDouble();
                if (const JsonValue *n = s.find("geomean_perf_per_watt"))
                    row.geomeanPerfPerWatt = n->asDouble();
                out.summaries.push_back(std::move(row));
            }
        }
    }
    return true;
}

bool
loadReportFile(const std::string &path, ReportModel &out, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    if (!loadReportModel(ss.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace mondrian
