/** @file Reading a report back: readCampaignReport, the one loader. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/file_io.hh"
#include "common/json_parse.hh"
#include "system/campaign.hh"
#include "system/grid_axes.hh"
#include "system/report.hh"
#include "system/scenario.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

/** Two swept axes (theta x op) plus a baseline, cheap at 2^8. */
CampaignGrid
modelGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    grid.zipfThetas = {0.0, 0.5};
    return grid;
}

/** One cpu scan at 2^8: the smallest report there is. */
std::string
tinyReportJson()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    return campaignReportJson(CampaignRunner(grid).run(1));
}

std::string
goldenText(const std::string &name)
{
    std::string text, err;
    EXPECT_TRUE(readTextFile(std::string(MONDRIAN_SOURCE_DIR) +
                                 "/scripts/golden/" + name,
                             text, err))
        << err;
    return text;
}

/** readCampaignReport then campaignReportJson, as the file ends. */
std::string
rewritten(const std::string &json)
{
    CampaignReport report;
    std::string err;
    EXPECT_TRUE(readCampaignReport(json, report, err)) << err;
    return campaignReportJson(report) + "\n";
}

/** The load error of @p json (the load must fail). */
std::string
loadError(const std::string &json)
{
    CampaignReport report;
    std::string err;
    EXPECT_FALSE(readCampaignReport(json, report, err));
    EXPECT_FALSE(err.empty());
    return err;
}

/** @p json with the first @p from after the runs array starts replaced. */
std::string
editRuns(std::string json, const std::string &from, const std::string &to)
{
    const std::size_t at = json.find(from, json.find("\"runs\""));
    EXPECT_NE(at, std::string::npos) << from;
    return json.replace(at, from.size(), to);
}

} // namespace

TEST(ReportLoader, RewritesBothGoldensByteIdentically)
{
    for (const char *name : {"paper14-report.json", "served12-report.json"}) {
        const std::string golden = goldenText(name);
        ASSERT_FALSE(golden.empty()) << name;
        EXPECT_EQ(rewritten(golden), golden) << name;
    }
}

TEST(ReportLoader, RewritesAReportWithFailedRunsByteIdentically)
{
    // The shape a sticky fault leaves: the coordinator marks the job's
    // slot failed, lists it under failed_runs, and the summary counts
    // the now-unpaired run in runs_total.
    CampaignReport report = CampaignRunner(modelGrid()).run(1);
    report.runs[2].failed = true;
    report.failedRuns.push_back({2, 2, "worker crashed (injected)"});
    finishCampaign(report);
    const std::string json = campaignReportJson(report) + "\n";
    ASSERT_NE(json.find("\"failed_runs\""), std::string::npos);
    ASSERT_NE(json.find("\"runs_total\""), std::string::npos);
    EXPECT_EQ(rewritten(json), json);

    CampaignReport loaded;
    std::string err;
    ASSERT_TRUE(readCampaignReport(json, loaded, err)) << err;
    ASSERT_EQ(loaded.failedRuns.size(), 1u);
    EXPECT_EQ(loaded.failedRuns[0].index, 2u);
    EXPECT_EQ(loaded.failedRuns[0].attempts, 2u);
    EXPECT_EQ(loaded.failedRuns[0].error, "worker crashed (injected)");
    EXPECT_TRUE(loaded.runs[2].failed);
    EXPECT_FALSE(loaded.runs[3].failed);
}

TEST(ReportLoader, PutsEveryRunInItsGridSlot)
{
    const CampaignReport report = CampaignRunner(modelGrid()).run(1);
    const std::string json = campaignReportJson(report);

    CampaignReport m;
    std::string err;
    ASSERT_TRUE(readCampaignReport(json, m, err)) << err;
    EXPECT_EQ(m.baseline, "cpu");
    EXPECT_EQ(campaignReportJson(m), json);

    // Every slot holds its own grid point and the run's result: exact
    // integers, 12-digit doubles, phases.
    ASSERT_EQ(m.runs.size(), report.runs.size());
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
        const CampaignRun &got = m.runs[i];
        const CampaignRun &want = report.runs[i];
        EXPECT_FALSE(got.failed);
        EXPECT_EQ(got.job.index, i);
        EXPECT_EQ(campaignJobKey(got.job), campaignJobKey(want.job));
        EXPECT_EQ(got.result.totalTime, want.result.totalTime);
        EXPECT_EQ(got.result.aggChecksum, want.result.aggChecksum);
        EXPECT_EQ(got.result.phases.size(), want.result.phases.size());
        EXPECT_NEAR(got.result.energy.total(), want.result.energy.total(),
                    want.result.energy.total() * 1e-9);
    }

    // summarizeRuns over the loaded runs reproduces the stored rollups.
    const std::vector<SystemSummary> again =
        summarizeRuns(m.grid, m.runs, SystemKind::kCpu);
    ASSERT_EQ(again.size(), m.summaries.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
        EXPECT_EQ(again[i].system, m.summaries[i].system);
        EXPECT_EQ(again[i].runs, m.summaries[i].runs);
        EXPECT_EQ(JsonWriter::doubleString(again[i].geomeanSpeedup),
                  JsonWriter::doubleString(m.summaries[i].geomeanSpeedup));
    }
}

TEST(ReportLoader, RejectsMalformedDocumentsNamingTheFault)
{
    const std::string json = tinyReportJson();

    loadError("not json");
    EXPECT_NE(loadError("{\"schema\": \"something-else\"}")
                  .find("something-else"),
              std::string::npos);
    EXPECT_NE(loadError("{\"schema\": \"mondrian-campaign-v4\"}")
                  .find("grid block"),
              std::string::npos);

    // A wrong-typed coordinate (a string seed) must not read as seed 0,
    // another grid point.
    std::string err = loadError(
        editRuns(json, "\"seed\": 42,", "\"seed\": \"42\","));
    EXPECT_NE(err.find("run 0"), std::string::npos) << err;
    EXPECT_NE(err.find("wrong-typed \"seed\""), std::string::npos) << err;

    err = loadError(editRuns(json, "\"index\": 0,", "\"index\": 7,"));
    EXPECT_NE(err.find("run 0"), std::string::npos) << err;
    EXPECT_NE(err.find("index 7 out of range"), std::string::npos) << err;

    // Coordinates that disagree with the grid point their index names.
    err = loadError(editRuns(json, "\"log2_tuples\": 8,",
                             "\"log2_tuples\": 9,"));
    EXPECT_NE(err.find("\"log2_tuples\" is '9' but grid point 0 has '8'"),
              std::string::npos)
        << err;

    err = loadError(editRuns(json, "\"result\": {", "\"broken\": {"));
    EXPECT_NE(err.find("run 0: malformed result"), std::string::npos) << err;

    // A result of another grid point: "op" is read strictly but is not
    // the op of the point the run's coordinates name.
    err = loadError(editRuns(json, "\"op\": \"scan\"", "\"op\": \"join\""));
    EXPECT_NE(err.find("run 0: malformed result: is of cpu/join, not of "
                       "cpu/scan"),
              std::string::npos)
        << err;
}

namespace {

/** @p v as compact JSON: numbers by their literal, strings re-quoted. */
std::string
toJson(const JsonValue &v)
{
    std::string out;
    switch (v.kind) {
      case JsonValue::Kind::kNull: return "null";
      case JsonValue::Kind::kBool: return v.boolean ? "true" : "false";
      case JsonValue::Kind::kNumber: return v.text;
      case JsonValue::Kind::kString: return "\"" + v.text + "\"";
      case JsonValue::Kind::kArray:
        for (const JsonValue &item : v.items)
            out += (out.empty() ? "" : ",") + toJson(item);
        return "[" + out + "]";
      case JsonValue::Kind::kObject:
        for (const auto &[k, m] : v.members)
            out += (out.empty() ? "\"" : ",\"") + k + "\":" + toJson(m);
        return "{" + out + "}";
    }
    return out;
}

/** One object member of a parsed document: its JSON path and the
 *  member/item indices that lead to it from the root. */
struct MemberAt
{
    std::string path;
    std::vector<std::size_t> route;
};

void
collectMembers(const JsonValue &v, const std::string &path,
               std::vector<std::size_t> &route, std::vector<MemberAt> &out)
{
    for (std::size_t i = 0; i < v.members.size(); ++i) {
        route.push_back(i);
        const std::string at =
            (path.empty() ? "" : path + ".") + v.members[i].first;
        out.push_back({at, route});
        collectMembers(v.members[i].second, at, route, out);
        route.pop_back();
    }
    for (std::size_t i = 0; i < v.items.size(); ++i) {
        route.push_back(i);
        collectMembers(v.items[i], path + "[" + std::to_string(i) + "]",
                       route, out);
        route.pop_back();
    }
}

/** The object holding the member @p route ends at, and that member's
 *  index in it. */
std::pair<JsonValue *, std::size_t>
memberOwner(JsonValue &root, const std::vector<std::size_t> &route)
{
    JsonValue *v = &root;
    for (std::size_t k = 0; k + 1 < route.size(); ++k)
        v = v->isObject() ? &v->members[route[k]].second
                          : &v->items[route[k]];
    return {v, route.back()};
}

/** The error readJournalLine gives @p doc (the read must fail). */
std::string
journalError(const JsonValue &doc)
{
    std::string key, error;
    RunResult result;
    EXPECT_FALSE(readJournalLine(toJson(doc), key, result, error));
    return error;
}

} // namespace

TEST(ResultReader, RejectsEveryDeletedOrRetypedMemberNamingItsPath)
{
    // A pipeline run (stages, phases) and a served run (served block).
    Scenario sessions;
    TrafficSpec served;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("sessions", sessions, err)) << err;
    ASSERT_TRUE(parseTrafficSpec("poisson,lambda=2000,queries=4", served,
                                 err))
        << err;
    CampaignGrid grid;
    grid.systems = {SystemKind::kMondrian};
    grid.scenarios = {sessions};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    grid.traffics = {TrafficSpec{}, served};
    const CampaignReport report = CampaignRunner(grid).run(1);
    ASSERT_EQ(report.runs.size(), 2u);
    ASSERT_FALSE(report.runs[0].result.stages.empty());
    ASSERT_TRUE(report.runs[1].result.served.valid);

    for (const CampaignRun &run : report.runs) {
        JsonValue doc;
        ASSERT_TRUE(parseJson(campaignJournalLine(run.job, run.result), doc,
                              err))
            << err;
        ASSERT_EQ(doc.members[2].first, "result");
        std::vector<std::size_t> route = {2};
        std::vector<MemberAt> members;
        collectMembers(doc.members[2].second, "", route, members);
        const std::string deepest = run.result.served.valid
                                        ? "served.energy_per_query_j"
                                        : "stages[1].phases[0].stalls.fence";
        ASSERT_TRUE(std::any_of(members.begin(), members.end(),
                                [&](const MemberAt &m) {
                                    return m.path == deepest;
                                }))
            << deepest;
        {
            std::string key;
            RunResult back;
            ASSERT_TRUE(readJournalLine(toJson(doc), key, back, err)) << err;
        }

        for (const MemberAt &m : members) {
            const std::string named = "\"" + m.path + "\"";
            // Deleted. Only the optional blocks may be absent, and their
            // absence reads as a run without them.
            if (m.path != "served" && m.path != "stages") {
                JsonValue cut = doc;
                auto [owner, i] = memberOwner(cut, m.route);
                owner->members.erase(owner->members.begin() +
                                     static_cast<std::ptrdiff_t>(i));
                EXPECT_NE(journalError(cut).find(named), std::string::npos)
                    << "deleted " << m.path << ": " << journalError(cut);
            }
            // Retyped: a string becomes a number (a phase kind an
            // unknown kind), anything else a string.
            JsonValue retyped = doc;
            auto [owner, i] = memberOwner(retyped, m.route);
            JsonValue &value = owner->members[i].second;
            const bool was_string = value.isString();
            value = JsonValue{};
            if (m.path.ends_with("kind")) {
                value.kind = JsonValue::Kind::kString;
                value.text = "bogus";
            } else if (was_string) {
                value.kind = JsonValue::Kind::kNumber;
                value.text = "7";
            } else {
                value.kind = JsonValue::Kind::kString;
                value.text = "x";
            }
            EXPECT_NE(journalError(retyped).find(named), std::string::npos)
                << "retyped " << m.path << ": " << journalError(retyped);
        }
    }

    // An integer member takes only a non-negative integer literal that
    // fits; a double member also takes null, the non-finite marker.
    const std::string line =
        campaignJournalLine(report.runs[0].job, report.runs[0].result);
    const std::string events =
        "\"sim_events\": " + std::to_string(report.runs[0].result.simEvents);
    ASSERT_NE(line.find(events), std::string::npos);
    for (const char *bad : {"-1", "1.5", "1e3", "18446744073709551616"}) {
        std::string edited = line;
        edited.replace(edited.find(events), events.size(),
                       std::string("\"sim_events\": ") + bad);
        std::string key, error;
        RunResult back;
        EXPECT_FALSE(readJournalLine(edited, key, back, error)) << bad;
        EXPECT_NE(error.find("\"sim_events\""), std::string::npos) << bad;
    }
    std::string edited = line;
    const std::size_t bw = edited.find("\"probe_vault_bw_gbps\": ") + 23;
    edited.replace(bw, edited.find(',', bw) - bw, "null");
    std::string key;
    RunResult back;
    ASSERT_TRUE(readJournalLine(edited, key, back, err)) << err;
    EXPECT_TRUE(std::isnan(back.probeVaultBWGBps));
}

TEST(ReportLoader, RejectsAnIndexGivenTwice)
{
    CampaignGrid grid = modelGrid();
    grid.zipfThetas = {0.0};
    CampaignReport report = CampaignRunner(grid).run(1);
    report.runs.push_back(report.runs.front());
    const std::string err = loadError(campaignReportJson(report));
    EXPECT_NE(err.find("run 4: index 0 given twice"), std::string::npos)
        << err;
}

TEST(ReportLoader, RejectsAGridBlockThatFailsValidation)
{
    // Structurally fine, but a repeated seed would run one point twice.
    std::string json = tinyReportJson();
    const std::string seeds = "\"seeds\": [\n      42\n    ]";
    const std::size_t at = json.find(seeds);
    ASSERT_NE(at, std::string::npos);
    json.replace(at, seeds.size(), "\"seeds\": [42, 42]");
    json.replace(json.find("\"total_runs\": 1"), 15, "\"total_runs\": 2");
    std::string err = loadError(json);
    EXPECT_NE(err.find("duplicate seed '42'"), std::string::npos) << err;

    // A theta of -0, its run placed under it: a point labelled "-0" of
    // the same input as theta 0.
    json = tinyReportJson();
    const std::string thetas = "\"zipf_thetas\": [\n      0\n    ]";
    ASSERT_NE(json.find(thetas), std::string::npos);
    json.replace(json.find(thetas), thetas.size(), "\"zipf_thetas\": [-0]");
    const std::string theta = "\"zipf_theta\": 0,";
    ASSERT_NE(json.find(theta), std::string::npos);
    json.replace(json.find(theta), theta.size(), "\"zipf_theta\": -0,");
    err = loadError(json);
    EXPECT_NE(err.find("zipf theta must be in [0, 2)"), std::string::npos)
        << err;
}

namespace {

/** Two values on every axis. Grid point 0 has every axis at its first
 *  value, a cpu scan at 2^8: cheap to run. */
CampaignGrid
twoValueGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    Scenario sessions;
    std::string err;
    EXPECT_TRUE(scenarioFromSpec("sessions", sessions, err)) << err;
    grid.scenarios = {degenerateScenario(OpKind::kScan), sessions};
    grid.log2Tuples = {8, 9};
    grid.seeds = {42, 43};
    MemGeometry narrow = defaultGeometry();
    narrow.vaultsPerStack = 8;
    grid.geometries = {defaultGeometry(), narrow};
    ExecOverride radix;
    radix.radixBits = 9;
    grid.execOverrides = {ExecOverride{}, radix};
    grid.zipfThetas = {0.0, 0.5};
    TrafficSpec served;
    served.lambdaQps = 2000.0;
    served.queries = 4;
    grid.traffics = {TrafficSpec{}, served};
    return grid;
}

/** The text of @p axis's coordinate member of @p job in a run entry:
 *  a number as itself, anything else as its quoted label. */
template <typename Axis>
std::string
coordinateText(const Axis &axis, const CampaignJob &job)
{
    using T = typename Axis::Value;
    const std::string label = axis.label(job.*axis.value);
    return std::string("\"") + axis.coordinate + "\": " +
           (std::is_arithmetic_v<T> ? label : "\"" + label + "\"");
}

} // namespace

TEST(GridAxes, EachAxisIsValidatedLabeledAndKeyed)
{
    const CampaignGrid grid = twoValueGrid();
    std::string err;
    ASSERT_TRUE(validateGrid(grid, err)) << err;

    // A report of grid point 0 alone.
    CampaignReport report;
    report.grid = grid;
    for (CampaignJob &job : expandGrid(grid)) {
        CampaignRun &run = report.runs.emplace_back();
        run.job = std::move(job);
        run.failed = run.job.index != 0;
    }
    const CampaignJob &first = report.runs[0].job;
    report.runs[0].result = executeCampaignJob(first);
    const std::string json = campaignReportJson(report);
    EXPECT_EQ(rewritten(json), json + "\n");

    std::size_t axes = 0;
    visitGridAxes([&](const auto &axis) {
        using T = typename std::decay_t<decltype(axis)>::Value;
        SCOPED_TRACE(axis.block);
        ++axes;
        const std::vector<T> &values = grid.*axis.values;
        const std::string noun = axis.noun;

        CampaignGrid g = grid;
        (g.*axis.values).clear();
        EXPECT_FALSE(validateGrid(g, err));
        EXPECT_EQ(err, std::string(axis.name) + " axis is empty");

        g = grid;
        (g.*axis.values).push_back(values[0]);
        EXPECT_FALSE(validateGrid(g, err));
        EXPECT_EQ(err, "duplicate " + noun + " '" + axis.label(values[0]) +
                           "'");

        // Run 0's coordinate naming the axis's other value.
        CampaignJob other = first;
        other.*axis.value = values[1];
        err = loadError(editRuns(json, coordinateText(axis, first),
                                 coordinateText(axis, other)));
        EXPECT_NE(err.find(std::string("run 0: \"") + axis.coordinate +
                           "\" is '" + axis.label(values[1]) +
                           "' but grid point 0 has '" +
                           axis.label(values[0]) + "'"),
                  std::string::npos)
            << err;

        // Jobs that differ on this axis alone are two grid points, in one
        // comparison group iff the axis is the system.
        EXPECT_NE(campaignJobKey(other), campaignJobKey(first));
        EXPECT_EQ(gridGroupKey(other) == gridGroupKey(first),
                  (std::is_same_v<T, SystemKind>));
        return true;
    });
    EXPECT_EQ(axes, 8u);
}

TEST(ReportSchema, EveryGridEmitsV4)
{
    // Degenerate, pipeline and served grids all write the one schema,
    // with the same envelope: scenarios and traffics tables, and every
    // run labeled with its scenario and traffic.
    CampaignGrid degenerate;
    degenerate.systems = {SystemKind::kCpu};
    degenerate.scenarios = {degenerateScenario(OpKind::kScan)};
    degenerate.log2Tuples = {8};
    degenerate.seeds = {42};
    CampaignGrid pipeline = degenerate;
    Scenario sessions;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("sessions", sessions, err)) << err;
    pipeline.scenarios = {sessions};
    CampaignGrid served = degenerate;
    ASSERT_TRUE(parseTrafficSpec("poisson,lambda=200000,queries=4",
                                 served.traffics[0], err))
        << err;

    for (const CampaignGrid &grid : {degenerate, pipeline, served}) {
        const std::string json =
            campaignReportJson(CampaignRunner(grid).run(1));
        const std::string &sc = grid.scenarios[0].name;
        const std::string traffic = grid.traffics[0].name();
        EXPECT_NE(json.find("\"schema\": \"mondrian-campaign-v4\""),
                  std::string::npos) << sc << "/" << traffic;
        EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
        EXPECT_NE(json.find("\"traffics\""), std::string::npos);
        EXPECT_EQ(json.find("\"ops\""), std::string::npos);
        EXPECT_NE(json.find("\"scenario\": \"" + sc + "\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"traffic\": \"" + traffic + "\""),
                  std::string::npos);
        EXPECT_EQ(rewritten(json), json + "\n") << sc << "/" << traffic;
    }
}

TEST(ReportSchema, ReadersRejectOlderSchemas)
{
    std::string json = tinyReportJson();
    const std::string v4 = "mondrian-campaign-v4";
    json.replace(json.find(v4), v4.size(), "mondrian-campaign-v2");

    std::string err = loadError(json);
    EXPECT_NE(err.find("mondrian-campaign-v2"), std::string::npos) << err;

    ResumeCache cache;
    err.clear();
    EXPECT_FALSE(cache.load(json, err));
    EXPECT_NE(err.find("mondrian-campaign-v2"), std::string::npos) << err;
    EXPECT_EQ(cache.size(), 0u);
}
