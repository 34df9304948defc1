/**
 * @file
 * mondrian_report: axis-aware analysis of campaign reports.
 *
 * Reads the JSON reports mondrian_campaign writes (schema
 * mondrian-campaign-v4) and renders them as analyzable data:
 *
 *   mondrian_report summary report.json
 *       Summary recomputed from the runs (paired/total counts, dropped
 *       comparisons surfaced) as a markdown table. Reports carrying
 *       per-stage sub-results (pipeline scenarios) get an additional
 *       per-stage breakdown table; reports carrying served metrics
 *       (traffic sweeps) get a served-traffic table (QPS, latency
 *       percentiles, energy per query).
 *
 *   mondrian_report sensitivity report.json [--axis A] [--baseline SYS]
 *       Per-axis sensitivity tables: for each value of one axis, the
 *       geomean speedup / perf-per-watt of each system vs. the baseline
 *       with all other axes held fixed. Default: every axis the report
 *       actually sweeps (plus single-value axes when --axis asks).
 *
 *   mondrian_report diff a.json b.json [--rtol 1e-6]
 *       Field-by-field comparison (per-run and per-summary) under a
 *       relative tolerance. Empty output + exit 0 when the reports
 *       agree; differences + exit 1 otherwise — the structured
 *       replacement for text-diffing golden summaries.
 *
 *   mondrian_report csv report.json [--axis A] [--baseline SYS]
 *       [--stages] [--out F]
 *       Chart-ready CSV: one row per run (default), a sensitivity table
 *       with --axis, or one row per (run, stage) with --stages.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/file_io.hh"
#include "common/grammar.hh"
#include "common/logging.hh"
#include "system/analysis.hh"

using namespace mondrian;

namespace {

void
usage(const char *prog)
{
    std::fprintf(stderr,
        "usage: %s <command> [options]\n"
        "\n"
        "Commands:\n"
        "  summary REPORT            recomputed summary (markdown)\n"
        "  sensitivity REPORT        per-axis sensitivity tables (markdown)\n"
        "  diff A B                  compare two reports; exit 1 on any\n"
        "                            difference beyond --rtol\n"
        "  csv REPORT                chart-ready CSV (runs, or one axis's\n"
        "                            sensitivity table with --axis)\n"
        "\n"
        "Options:\n"
        "  --axis A                  axis to analyze: geometry exec\n"
        "                            zipf-theta scale scenario seed traffic\n"
        "                            (sensitivity: default = every swept\n"
        "                            axis; csv: default = per-run rows)\n"
        "  --stages                  csv: one row per (run, stage) of\n"
        "                            pipeline scenario runs\n"
        "  --baseline SYS            baseline system (default: the\n"
        "                            report's own, usually cpu)\n"
        "  --rtol X                  diff relative tolerance (default 1e-6)\n"
        "  --out PATH                write output to PATH (default stdout)\n"
        "  --help                    this text\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "mondrian_report: %s\n", msg.c_str());
    std::exit(2);
}

std::string
argValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        die(std::string(flag) + " requires a value");
    return argv[++i];
}

CampaignReport
loadOrDie(const std::string &path)
{
    std::string text, error;
    CampaignReport report;
    if (!readTextFile(path, text, error))
        die(error);
    if (!readCampaignReport(text, report, error))
        die(path + ": " + error);
    return report;
}

/** The report's baseline unless overridden; summary/sensitivity/csv
 *  pairing needs one. nullopt: no pairing. */
std::optional<SystemKind>
resolveBaseline(const CampaignReport &report, const std::string &override_sys,
                bool required)
{
    const std::string name =
        override_sys.empty() ? report.baseline : override_sys;
    if (name.empty()) {
        if (required) {
            die("report has no baseline system; pass --baseline "
                "(one of the report's systems)");
        }
        return std::nullopt;
    }
    SystemKind baseline;
    const bool known =
        systemKindFromName(name, baseline) &&
        std::any_of(report.runs.begin(), report.runs.end(),
                    [baseline](const CampaignRun &r) {
                        return !r.failed && r.job.system == baseline;
                    });
    if (!known) {
        // An explicitly requested (or required) baseline must exist; a
        // stored baseline absent from the runs (every baseline run
        // failed) just means no pairing.
        if (!override_sys.empty() || required)
            die("baseline '" + name + "' has no runs in the report");
        return std::nullopt;
    }
    return baseline;
}

void
emit(const std::string &text, const std::string &out_path)
{
    if (out_path.empty()) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return;
    }
    std::string error;
    if (!writeTextFile(out_path, text, error))
        die(error);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        usage(argv[0]);
        return 0;
    }

    std::vector<std::string> positional;
    std::string axis_arg, baseline_arg, out_path;
    double rtol = 1e-6;
    bool stages = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--axis") {
            axis_arg = argValue(argc, argv, i, "--axis");
        } else if (arg == "--stages") {
            stages = true;
        } else if (arg == "--baseline") {
            baseline_arg = argValue(argc, argv, i, "--baseline");
        } else if (arg == "--rtol") {
            std::string v = argValue(argc, argv, i, "--rtol");
            if (!parseReal(v, rtol) || rtol < 0.0)
                die("--rtol: '" + v + "' is not a non-negative number");
        } else if (arg == "--out") {
            out_path = argValue(argc, argv, i, "--out");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0]);
            die("unknown option '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }

    Axis axis = Axis::kGeometry;
    bool have_axis = !axis_arg.empty();
    if (have_axis && !axisFromName(axis_arg, axis)) {
        die("unknown axis '" + axis_arg +
            "' (geometry exec zipf-theta scale scenario seed traffic)");
    }

    if (command == "summary") {
        if (positional.size() != 1)
            die("summary takes exactly one report");
        const CampaignReport report = loadOrDie(positional[0]);
        const SystemKind baseline =
            *resolveBaseline(report, baseline_arg, true);
        const std::string base_name = systemKindName(baseline);
        const auto ran = std::count_if(
            report.runs.begin(), report.runs.end(),
            [](const CampaignRun &r) { return !r.failed; });
        std::string out = "Summary of " + positional[0] + " (" +
                          std::to_string(ran) + " runs, vs " + base_name +
                          "):\n\n";
        out += renderSummaryMarkdown(
            summarizeRuns(report.grid, report.runs, baseline));
        // Pipeline scenario runs carry per-stage sub-results — append
        // the per-stage breakdown so the summary shows where in the
        // pipeline each system wins.
        auto breakdown = stageBreakdown(report, baseline);
        if (!breakdown.empty()) {
            out += "\n### Stages (vs " + base_name + ")\n\n";
            out += renderStageBreakdownMarkdown(breakdown);
        }
        // Served-workload runs (traffic sweeps) report throughput and
        // tail latency — the open-loop view a speedup geomean cannot show.
        std::string served = renderServedMarkdown(report);
        if (!served.empty()) {
            out += "\n### Served traffic\n\n";
            out += served;
        }
        emit(out, out_path);
        return 0;
    }

    if (command == "sensitivity") {
        if (positional.size() != 1)
            die("sensitivity takes exactly one report");
        const CampaignReport report = loadOrDie(positional[0]);
        const SystemKind baseline =
            *resolveBaseline(report, baseline_arg, true);
        std::string out;
        for (Axis a : allAxes()) {
            if (have_axis && a != axis)
                continue;
            // Without --axis, single-value axes add nothing a summary
            // doesn't already say — show the swept ones.
            SensitivityTable t = sensitivity(report, a, baseline);
            if (!have_axis && t.rows.size() < 2)
                continue;
            out += std::string("### Sensitivity: ") + axisName(a) +
                   " (vs " + systemKindName(baseline) + ")\n\n";
            out += renderSensitivityMarkdown(t);
            out += "\n";
        }
        if (out.empty()) {
            out = "No swept axes in " + positional[0] +
                  " (every axis has a single value); pass --axis to "
                  "render one anyway.\n";
        }
        emit(out, out_path);
        return 0;
    }

    if (command == "diff") {
        if (positional.size() != 2)
            die("diff takes exactly two reports");
        // Named locals: A is loaded, and refused, before B.
        const CampaignReport a = loadOrDie(positional[0]);
        const CampaignReport b = loadOrDie(positional[1]);
        ReportDiff d = diffReports(a, b, rtol);
        emit(renderDiff(d), out_path);
        return d.empty() ? 0 : 1;
    }

    if (command == "csv") {
        if (positional.size() != 1)
            die("csv takes exactly one report");
        if (stages && have_axis)
            die("--stages and --axis are mutually exclusive");
        const CampaignReport report = loadOrDie(positional[0]);
        // Per-run and per-stage CSV work without a baseline (pairing
        // columns empty); a sensitivity CSV needs one.
        const std::optional<SystemKind> baseline =
            resolveBaseline(report, baseline_arg, have_axis);
        std::string out;
        if (stages)
            out = stagesCsv(report);
        else if (have_axis)
            out = sensitivityCsv(sensitivity(report, axis, *baseline));
        else
            out = runsCsv(report, baseline);
        emit(out, out_path);
        return 0;
    }

    usage(argv[0]);
    die("unknown command '" + command + "'");
}
