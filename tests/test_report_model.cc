/** @file Typed report loading: the one schema, axis labels, fail-loud. */

#include <gtest/gtest.h>

#include "system/campaign.hh"
#include "system/report.hh"
#include "system/report_model.hh"
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
    grid.scenarios = {degenerateScenario(OpKind::kScan), degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    grid.zipfThetas = {0.0, 0.5};
    return grid;
}

} // namespace

TEST(ReportModel, RoundTripsDegenerateReport)
{
    CampaignGrid grid = modelGrid();
    CampaignReport report = CampaignRunner(grid).run(1);
    std::string json = campaignReportJson(report);

    ReportModel m;
    std::string err;
    ASSERT_TRUE(loadReportModel(json, m, err)) << err;
    EXPECT_EQ(m.paper, "conf_isca_DrumondDMUPFGP17");
    EXPECT_EQ(m.baseline, "cpu");

    // Axis values are derived from the runs, in grid order.
    EXPECT_EQ(m.systems, (std::vector<std::string>{"cpu", "mondrian"}));
    EXPECT_EQ(m.scenarios, (std::vector<std::string>{"scan", "join"}));
    EXPECT_EQ(m.log2Tuples, std::vector<unsigned>{8});
    EXPECT_EQ(m.seeds, std::vector<std::uint64_t>{42});
    EXPECT_EQ(m.geometries,
              std::vector<std::string>{geometryName(defaultGeometry())});
    EXPECT_EQ(m.execs, std::vector<std::string>{"base"});
    EXPECT_EQ(m.zipfThetas, (std::vector<double>{0.0, 0.5}));
    EXPECT_EQ(m.traffics, std::vector<std::string>{"none"});

    // Every run round-trips: exact integers, 12-digit doubles, phases.
    ASSERT_EQ(m.runs.size(), report.runs.size());
    for (std::size_t i = 0; i < m.runs.size(); ++i) {
        const ReportRun &got = m.runs[i];
        const CampaignRun &want = report.runs[i];
        EXPECT_EQ(got.index, want.job.index);
        EXPECT_EQ(got.system, systemKindName(want.job.system));
        EXPECT_EQ(got.scenario, want.job.scenario.name);
        EXPECT_EQ(got.log2Tuples, want.job.log2Tuples);
        EXPECT_EQ(got.seed, want.job.seed);
        EXPECT_EQ(got.geometry, geometryName(want.job.geometry));
        EXPECT_EQ(got.exec, want.job.exec.name());
        EXPECT_DOUBLE_EQ(got.zipfTheta, want.job.zipfTheta);
        EXPECT_EQ(got.result.totalTime, want.result.totalTime);
        EXPECT_EQ(got.result.partitionTime, want.result.partitionTime);
        EXPECT_EQ(got.result.aggChecksum, want.result.aggChecksum);
        EXPECT_EQ(got.result.phases.size(), want.result.phases.size());
        EXPECT_NEAR(got.result.energy.total(), want.result.energy.total(),
                    want.result.energy.total() * 1e-9);
    }

    ASSERT_EQ(m.summaries.size(), report.summaries.size());
    for (std::size_t i = 0; i < m.summaries.size(); ++i) {
        EXPECT_EQ(m.summaries[i].system, report.summaries[i].system);
        EXPECT_EQ(m.summaries[i].runs, report.summaries[i].runs);
        EXPECT_NEAR(m.summaries[i].geomeanSpeedup,
                    report.summaries[i].geomeanSpeedup,
                    report.summaries[i].geomeanSpeedup * 1e-9);
    }
}

TEST(ReportModel, PointAndGroupKeysSeparateEveryAxis)
{
    ReportRun base;
    base.system = "cpu";
    base.scenario = "join";
    base.log2Tuples = 14;
    base.seed = 42;
    base.geometry = "4x16x8-8MiB-r256";
    base.exec = "base";
    base.zipfTheta = 0.0;

    // The group key ignores the system (that's what pairing means) ...
    ReportRun sys = base;
    sys.system = "nmp";
    EXPECT_EQ(sys.groupKey(), base.groupKey());
    EXPECT_NE(sys.pointKey(), base.pointKey());

    // ... and every other axis separates both keys.
    auto differs = [&base](ReportRun v) {
        EXPECT_NE(v.groupKey(), base.groupKey());
        EXPECT_NE(v.pointKey(), base.pointKey());
    };
    ReportRun v = base;
    v.scenario = "scan";
    differs(v);
    v = base;
    v.log2Tuples = 15;
    differs(v);
    v = base;
    v.seed = 43;
    differs(v);
    v = base;
    v.geometry = "2x8x8-8MiB-r256";
    differs(v);
    v = base;
    v.exec = "radix=9";
    differs(v);
    v = base;
    v.zipfTheta = 0.75;
    differs(v);
}

TEST(ReportModel, RejectsMalformedDocuments)
{
    ReportModel m;
    std::string err;
    EXPECT_FALSE(loadReportModel("not json", m, err));
    EXPECT_FALSE(loadReportModel("{\"schema\": \"something-else\"}", m, err));
    EXPECT_NE(err.find("something-else"), std::string::npos);
    // A report without runs is not analyzable.
    EXPECT_FALSE(loadReportModel(
        "{\"schema\": \"mondrian-campaign-v4\"}", m, err));
    EXPECT_NE(err.find("runs"), std::string::npos);

    // Unlike the best-effort resume cache, a malformed run entry fails
    // the whole load: analysis over a half-parsed report would produce
    // confidently wrong numbers.
    EXPECT_FALSE(loadReportModel(
        "{\"schema\": \"mondrian-campaign-v4\", \"runs\": [{\"system\": "
        "\"cpu\"}]}",
        m, err));
    EXPECT_NE(err.find("run 0"), std::string::npos);

    // A run without axis labels is malformed, not defaulted.
    EXPECT_FALSE(loadReportModel(
        "{\"schema\": \"mondrian-campaign-v4\", \"runs\": [{"
        "\"index\": 0, \"system\": \"cpu\", \"scenario\": \"scan\", "
        "\"log2_tuples\": 8, \"seed\": 42, \"result\": {\"system\": "
        "\"cpu\", \"op\": \"scan\"}}]}",
        m, err));
    EXPECT_NE(err.find("\"geometry\""), std::string::npos) << err;

    // Wrong-typed coordinates (e.g. a string scale from a foreign
    // serializer) would decode as 0 and corrupt every point key.
    EXPECT_FALSE(loadReportModel(
        "{\"schema\": \"mondrian-campaign-v4\", \"runs\": [{"
        "\"index\": 0, \"system\": \"cpu\", \"scenario\": \"scan\", "
        "\"log2_tuples\": \"14\", \"seed\": 42, \"geometry\": \"g\", "
        "\"exec\": \"base\", \"zipf_theta\": 0, \"traffic\": \"none\", "
        "\"result\": {\"system\": \"cpu\", \"op\": \"scan\"}}]}",
        m, err));
    EXPECT_NE(err.find("wrong-typed \"log2_tuples\""), std::string::npos)
        << err;

    EXPECT_FALSE(loadReportFile("/nonexistent/report.json", m, err));
    EXPECT_NE(err.find("/nonexistent/report.json"), std::string::npos);
}

TEST(ReportModel, RejectsDuplicateGridPoints)
{
    // Two runs at one grid point make every per-point analysis
    // ambiguous; the load fails instead of letting a last-wins lookup
    // pick one silently.
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    CampaignReport report = CampaignRunner(grid).run(1);
    report.runs.push_back(report.runs.front());
    ReportModel m;
    std::string err;
    EXPECT_FALSE(loadReportModel(campaignReportJson(report), m, err));
    EXPECT_NE(err.find("duplicate run at grid point"), std::string::npos);
}

TEST(ReportModel, LoadsCheckedInGoldenReport)
{
    // The nightly regression artifact: full paper grid at 2^14.
    ReportModel m;
    std::string err;
    ASSERT_TRUE(loadReportFile(std::string(MONDRIAN_SOURCE_DIR) +
                                   "/scripts/golden/paper14-report.json",
                               m, err))
        << err;
    EXPECT_EQ(m.baseline, "cpu");
    EXPECT_EQ(m.systems.size(), 7u);
    EXPECT_EQ(m.scenarios.size(), 4u);
    EXPECT_EQ(m.runs.size(), 28u);
    EXPECT_EQ(m.log2Tuples, std::vector<unsigned>{14});
    EXPECT_EQ(m.summaries.size(), 6u);
    for (const ReportRun &r : m.runs)
        EXPECT_GT(r.result.totalTime, 0u);
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

        ReportModel m;
        ASSERT_TRUE(loadReportModel(json, m, err)) << err;
        ASSERT_EQ(m.runs.size(), 1u);
        EXPECT_EQ(m.runs[0].scenario, sc);
        EXPECT_EQ(m.runs[0].traffic, traffic);
    }
}

TEST(ReportSchema, ReadersRejectOlderSchemas)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    std::string json = campaignReportJson(CampaignRunner(grid).run(1));
    const std::string v4 = "mondrian-campaign-v4";
    json.replace(json.find(v4), v4.size(), "mondrian-campaign-v2");

    ReportModel m;
    std::string err;
    EXPECT_FALSE(loadReportModel(json, m, err));
    EXPECT_NE(err.find("mondrian-campaign-v2"), std::string::npos) << err;

    ResumeCache cache;
    err.clear();
    EXPECT_FALSE(cache.load(json, err));
    EXPECT_NE(err.find("mondrian-campaign-v2"), std::string::npos) << err;
    EXPECT_EQ(cache.size(), 0u);
}
