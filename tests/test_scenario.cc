/** @file Scenario API: spec parsing, stage chaining, scenario campaigns. */

#include <gtest/gtest.h>

#include "common/json_parse.hh"
#include "system/campaign.hh"
#include "system/report.hh"
#include "system/traffic.hh"
#include "system/scenario.hh"

using namespace mondrian;

namespace {

Scenario
parseOk(const std::string &spec)
{
    Scenario sc;
    std::string err;
    EXPECT_TRUE(scenarioFromSpec(spec, sc, err)) << spec << ": " << err;
    return sc;
}

WorkloadConfig
smallWorkload(std::uint64_t tuples = 1u << 10)
{
    WorkloadConfig wl;
    wl.tuples = tuples;
    wl.seed = 7;
    return wl;
}

} // namespace

TEST(ScenarioSpec, DegenerateOpsPreserveTodaysNames)
{
    for (OpKind op : allOpKinds()) {
        Scenario sc = parseOk(opKindName(op));
        EXPECT_TRUE(sc.degenerate());
        EXPECT_EQ(sc.name, opKindName(op)); // byte-for-byte
        ASSERT_EQ(sc.stages.size(), 1u);
        EXPECT_EQ(sc.stages[0].op, op);
        EXPECT_EQ(sc.stages[0].input, StageInput::kGenerated);
    }
}

TEST(ScenarioSpec, SessionsPresetExpandsToTheClickstreamPipeline)
{
    Scenario sc = parseOk("sessions");
    EXPECT_FALSE(sc.degenerate());
    EXPECT_EQ(sc.name, "sessions");
    ASSERT_EQ(sc.stages.size(), 4u);
    EXPECT_EQ(sc.stages[0].spark, "filter");
    EXPECT_EQ(sc.stages[0].op, OpKind::kScan);
    EXPECT_EQ(sc.stages[0].input, StageInput::kGenerated);
    EXPECT_EQ(sc.stages[1].spark, "join");
    EXPECT_EQ(sc.stages[1].op, OpKind::kJoin);
    EXPECT_EQ(sc.stages[1].input, StageInput::kPrevOutput);
    EXPECT_EQ(sc.stages[2].spark, "reduceByKey");
    EXPECT_EQ(sc.stages[2].op, OpKind::kGroupBy);
    EXPECT_EQ(sc.stages[3].spark, "sortByKey");
    EXPECT_EQ(sc.stages[3].op, OpKind::kSort);

    // The explicit chain spec builds the same pipeline under its own
    // canonical name.
    Scenario chain = parseOk("filter>join>reduceByKey>sortByKey");
    EXPECT_EQ(chain.name, "filter>join>reduceByKey>sortByKey");
    ASSERT_EQ(chain.stages.size(), sc.stages.size());
    for (std::size_t i = 0; i < sc.stages.size(); ++i) {
        EXPECT_EQ(chain.stages[i].spark, sc.stages[i].spark);
        EXPECT_EQ(chain.stages[i].op, sc.stages[i].op);
        EXPECT_EQ(chain.stages[i].input, sc.stages[i].input);
    }
}

TEST(ScenarioSpec, EveryTable1TokenParsesAsAStage)
{
    for (const auto &[token, op] : scenarioStageTokens()) {
        Scenario sc = parseOk(token);
        ASSERT_EQ(sc.stages.size(), 1u) << token;
        EXPECT_EQ(sc.stages[0].op, op) << token;
    }
}

TEST(ScenarioSpec, MalformedSpecsAreRejectedWithContext)
{
    Scenario sink;
    std::string err;
    EXPECT_FALSE(scenarioFromSpec("", sink, err));
    EXPECT_NE(err.find("empty"), std::string::npos);

    EXPECT_FALSE(scenarioFromSpec("bogus", sink, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    EXPECT_NE(err.find("sessions"), std::string::npos); // lists presets

    // Stray '>'s: leading, trailing, doubled.
    for (const std::string spec :
         {">filter", "filter>", "filter>>join", ">"}) {
        EXPECT_FALSE(scenarioFromSpec(spec, sink, err)) << spec;
        EXPECT_NE(err.find("empty stage"), std::string::npos) << spec;
    }

    // Presets and degenerate op names are whole-spec words, not chain
    // stages.
    EXPECT_FALSE(scenarioFromSpec("sessions>filter", sink, err));
    EXPECT_FALSE(scenarioFromSpec("scan>join", sink, err));

    // Table 1 names are canonical camelCase tokens, exactly.
    EXPECT_FALSE(scenarioFromSpec("Filter>Join", sink, err));
}

TEST(ScenarioRun, StageNConsumesStageNMinus1Output)
{
    ServedRunner runner(smallWorkload());
    RunResult res = runner.run(makeSystem(SystemKind::kMondrian),
                               parseOk("sessions"));
    ASSERT_EQ(res.stages.size(), 4u);
    for (std::size_t i = 1; i < res.stages.size(); ++i) {
        EXPECT_EQ(res.stages[i].input, "prev");
        EXPECT_EQ(res.stages[i].inputTuples,
                  res.stages[i - 1].outputTuples)
            << "stage " << i;
    }
    // The pipeline actually reduces: groupby shrinks the flow.
    EXPECT_LT(res.stages[2].outputTuples, res.stages[2].inputTuples);
    EXPECT_EQ(res.stages[3].outputTuples, res.stages[2].outputTuples);

    // Aggregates are sums over the stages.
    Tick total = 0;
    double energy = 0.0;
    for (const StageResult &s : res.stages) {
        total += s.totalTime;
        energy += s.energy.total();
        EXPECT_GT(s.totalTime, 0u) << s.stage;
        EXPECT_GT(s.energy.total(), 0.0) << s.stage;
    }
    EXPECT_EQ(total, res.totalTime);
    EXPECT_NEAR(energy, res.energy.total(), res.energy.total() * 1e-9);

    // Top-level phases carry stage-token prefixes.
    ASSERT_FALSE(res.phases.empty());
    EXPECT_EQ(res.phases.front().name.rfind("filter.", 0), 0u);
}

TEST(ScenarioRun, FunctionalResultsAgreeAcrossSystems)
{
    ServedRunner runner(smallWorkload());
    Scenario sessions = parseOk("sessions");
    RunResult ref = runner.run(makeSystem(SystemKind::kCpu), sessions);
    for (SystemKind k :
         {SystemKind::kNmp, SystemKind::kNmpSeq, SystemKind::kMondrian}) {
        RunResult res = runner.run(makeSystem(k), sessions);
        ASSERT_EQ(res.stages.size(), ref.stages.size());
        for (std::size_t i = 0; i < ref.stages.size(); ++i) {
            const StageResult &a = ref.stages[i];
            const StageResult &b = res.stages[i];
            EXPECT_EQ(a.scanMatches, b.scanMatches) << a.stage;
            EXPECT_EQ(a.joinMatches, b.joinMatches) << a.stage;
            EXPECT_EQ(a.groupCount, b.groupCount) << a.stage;
            EXPECT_EQ(a.aggChecksum, b.aggChecksum) << a.stage;
            EXPECT_EQ(a.inputTuples, b.inputTuples) << a.stage;
            EXPECT_EQ(a.outputTuples, b.outputTuples) << a.stage;
        }
    }
}

TEST(ScenarioRun, DegenerateScenarioMatchesClassicOpRunByteForByte)
{
    ServedRunner runner(smallWorkload());
    for (OpKind op : allOpKinds()) {
        RunResult classic =
            runner.run(makeSystem(SystemKind::kMondrian),
                       degenerateScenario(op));
        EXPECT_TRUE(classic.stages.empty());
        // No stage list in the serialized form: classic consumers see
        // the historical document.
        EXPECT_EQ(runResultJson(classic).find("\"stages\""),
                  std::string::npos)
            << opKindName(op);
    }
}

TEST(ScenarioRun, StageResultsSerializeAndRoundTrip)
{
    ServedRunner runner(smallWorkload());
    RunResult res = runner.run(makeSystem(SystemKind::kNmp),
                               parseOk("sessions"));
    std::string json = runResultJson(res);
    EXPECT_NE(json.find("\"stages\""), std::string::npos);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(json, doc, err)) << err;
    RunResult back;
    ASSERT_TRUE(readRunResult(doc, back));
    ASSERT_EQ(back.stages.size(), res.stages.size());
    for (std::size_t i = 0; i < res.stages.size(); ++i) {
        EXPECT_EQ(back.stages[i].stage, res.stages[i].stage);
        EXPECT_EQ(back.stages[i].op, res.stages[i].op);
        EXPECT_EQ(back.stages[i].input, res.stages[i].input);
        EXPECT_EQ(back.stages[i].totalTime, res.stages[i].totalTime);
        EXPECT_EQ(back.stages[i].inputTuples, res.stages[i].inputTuples);
        EXPECT_EQ(back.stages[i].outputTuples,
                  res.stages[i].outputTuples);
        EXPECT_EQ(back.stages[i].aggChecksum, res.stages[i].aggChecksum);
        EXPECT_EQ(back.stages[i].phases.size(),
                  res.stages[i].phases.size());
    }
}

TEST(ScenarioCampaign, PipelineReportRoundTripsThroughTheLoader)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      parseOk("sessions")};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    CampaignReport report = CampaignRunner(grid).run(1);
    std::string json = campaignReportJson(report);
    EXPECT_NE(json.find("\"scenario\": \"sessions\""), std::string::npos);

    CampaignReport m;
    std::string err;
    ASSERT_TRUE(readCampaignReport(json, m, err)) << err;
    EXPECT_EQ(campaignReportJson(m), json);
    ASSERT_EQ(m.runs.size(), 4u);
    // Degenerate runs carry no stages; pipeline runs carry all four.
    EXPECT_TRUE(m.runs[0].result.stages.empty());
    EXPECT_EQ(m.runs[2].result.stages.size(), 4u);
    EXPECT_EQ(m.runs[2].job.scenario.name, "sessions");
    EXPECT_EQ(scenarioIdentity(m.runs[2].job.scenario),
              scenarioIdentity(grid.scenarios[1]));
}

TEST(ScenarioCampaign, DegenerateResumeSplicesVerbatimIntoPipelineSweeps)
{
    // A classic single-op report ...
    CampaignGrid single;
    single.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    single.scenarios = {degenerateScenario(OpKind::kJoin)};
    single.log2Tuples = {8};
    single.seeds = {42};
    std::string single_json =
        campaignReportJson(CampaignRunner(single).run(1));

    // ... resumed into a scenario sweep that includes the same point.
    CampaignGrid sweep = single;
    sweep.scenarios.push_back(parseOk("sessions"));

    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(single_json, err)) << err;
    EXPECT_EQ(cache.size(), 2u);

    CampaignRunner resumed(sweep);
    resumed.setResume(&cache);
    CampaignReport rep = resumed.run(1);
    EXPECT_EQ(rep.cachedRuns, 2u);
    std::string resumed_json = campaignReportJson(rep);

    // The spliced document is byte-identical to a fresh run of the
    // same sweep.
    std::string fresh_json =
        campaignReportJson(CampaignRunner(sweep).run(1));
    EXPECT_EQ(resumed_json, fresh_json);

    // And the sweep's report resumes into itself completely.
    ResumeCache sweep_cache;
    ASSERT_TRUE(sweep_cache.load(fresh_json, err)) << err;
    EXPECT_EQ(sweep_cache.size(), 4u);
    CampaignRunner again(sweep);
    again.setResume(&sweep_cache);
    CampaignReport rep2 = again.run(1);
    EXPECT_EQ(rep2.cachedRuns, 4u);
    EXPECT_EQ(campaignReportJson(rep2), fresh_json);
}

TEST(ScenarioCampaign, ResumeIdentityEncodesStageStructure)
{
    // Two pipelines sharing a name but differing in stages must never
    // satisfy each other's cache entries.
    Scenario a = parseOk("filter>join");
    Scenario b = parseOk("filter>sortByKey");
    b.name = a.name; // a hypothetical renamed/restructured pipeline
    EXPECT_NE(scenarioIdentity(a), scenarioIdentity(b));
    // Degenerate identities stay the bare operator names.
    EXPECT_EQ(scenarioIdentity(degenerateScenario(OpKind::kJoin)),
              "join");

    // End to end: a report's cache entries are keyed through its
    // scenarios table, so a grid running scenario `b` under a's name
    // gets no hits from a report simulated with a's stages.
    CampaignGrid grid;
    grid.systems = {SystemKind::kMondrian};
    grid.scenarios = {a};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    std::string json = campaignReportJson(CampaignRunner(grid).run(1));

    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(json, err)) << err;
    EXPECT_EQ(cache.size(), 1u);

    CampaignGrid restructured = grid;
    restructured.scenarios = {b};
    CampaignRunner runner(restructured);
    runner.setResume(&cache);
    EXPECT_EQ(runner.run(1).cachedRuns, 0u);

    // The same grid resumes into itself completely.
    CampaignRunner same(grid);
    same.setResume(&cache);
    EXPECT_EQ(same.run(1).cachedRuns, 1u);
}

TEST(ScenarioCampaign, ValidateGridRejectsBadScenarioAxes)
{
    CampaignGrid grid = smokeGrid();
    std::string error;

    grid.scenarios.clear();
    EXPECT_FALSE(validateGrid(grid, error));
    EXPECT_NE(error.find("scenario axis is empty"), std::string::npos);

    grid = smokeGrid();
    grid.scenarios.push_back(grid.scenarios.front());
    EXPECT_FALSE(validateGrid(grid, error));
    EXPECT_NE(error.find("duplicate scenario"), std::string::npos);

    grid = smokeGrid();
    grid.scenarios.push_back(Scenario{"empty", {}});
    EXPECT_FALSE(validateGrid(grid, error));
    EXPECT_NE(error.find("no stages"), std::string::npos);

    // Pipelines accumulate footprint: a scenario that cannot fit the
    // pool at a swept scale fails fast, where the single op would fit.
    grid = smokeGrid();
    grid.scenarios = {parseOk("sessions")};
    grid.log2Tuples = {22};
    EXPECT_FALSE(validateGrid(grid, error));
    EXPECT_NE(error.find("does not fit"), std::string::npos);
}
