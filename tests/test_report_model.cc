/** @file Reading a report back: readCampaignReport, the one loader. */

#include <gtest/gtest.h>

#include "common/file_io.hh"
#include "system/campaign.hh"
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
    const std::string err = loadError(json);
    EXPECT_NE(err.find("duplicate seed '42'"), std::string::npos) << err;
}

TEST(GridGroupKey, SeparatesEveryAxisButTheSystem)
{
    CampaignJob base;
    base.system = SystemKind::kCpu;
    base.scenario = degenerateScenario(OpKind::kJoin);
    base.log2Tuples = 14;

    // The group key ignores the system (that's what pairing means) ...
    CampaignJob v = base;
    v.system = SystemKind::kNmp;
    EXPECT_EQ(gridGroupKey(v), gridGroupKey(base));

    // ... and any one other axis changes it.
    auto differs = [&base](const CampaignJob &j) {
        EXPECT_NE(gridGroupKey(j), gridGroupKey(base));
    };
    v = base;
    v.scenario = degenerateScenario(OpKind::kScan);
    differs(v);
    v = base;
    v.log2Tuples = 15;
    differs(v);
    v = base;
    v.seed = 43;
    differs(v);
    v = base;
    v.geometry.vaultsPerStack = 8;
    differs(v);
    v = base;
    v.exec.radixBits = 9;
    differs(v);
    v = base;
    v.zipfTheta = 0.75;
    differs(v);
    v = base;
    v.traffic.lambdaQps = 1000.0;
    v.traffic.queries = 4;
    differs(v);
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
