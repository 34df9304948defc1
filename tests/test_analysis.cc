/** @file Axis-aware analysis: sensitivity tables, report diff, CSV. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/file_io.hh"
#include "system/analysis.hh"
#include "system/campaign.hh"
#include "system/report.hh"

using namespace mondrian;

namespace {

/**
 * Hand-computed two-axis grid: {scale 2^8, 2^9} x {theta 0, 0.5}, one
 * op, systems {cpu, mondrian}. The cpu baseline is 8e6 ticks / 16 J at
 * every point; mondrian's values are chosen so each point's speedup and
 * perf/W are the same round number:
 *
 *   point          time     energy     speedup = perf/W
 *   (2^8, 0.0)     4e6      8          2
 *   (2^8, 0.5)     1e6      2          8
 *   (2^9, 0.0)     2e6      4          4
 *   (2^9, 0.5)     5e5      1          16
 *
 * So per-scale geomeans are sqrt(2*8)=4 and sqrt(4*16)=8, per-theta
 * geomeans are sqrt(2*4)=sqrt(8) and sqrt(8*16)=sqrt(128), and the
 * overall geomean is (2*8*4*16)^(1/4) = 2^2.5.
 */
CampaignReport
handReport()
{
    CampaignReport m;
    m.grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    m.grid.scenarios = {degenerateScenario(OpKind::kJoin)};
    m.grid.log2Tuples = {8, 9};
    m.grid.seeds = {42};
    m.grid.zipfThetas = {0.0, 0.5};
    m.baseline = "cpu";

    const struct
    {
        unsigned log2;
        double theta;
        Tick time;
        double energy;
    } points[] = {
        {8, 0.0, 4000000, 8.0},
        {8, 0.5, 1000000, 2.0},
        {9, 0.0, 2000000, 4.0},
        {9, 0.5, 500000, 1.0},
    };
    for (const CampaignJob &job : expandGrid(m.grid)) {
        CampaignRun &r = m.runs.emplace_back();
        r.job = job;
        r.result.system = systemKindName(job.system);
        r.result.op = job.scenario.name;
        r.result.totalTime = 8000000;
        r.result.energy.cores = 16.0;
        if (job.system == SystemKind::kCpu)
            continue;
        for (const auto &p : points) {
            if (p.log2 == job.log2Tuples && p.theta == job.zipfTheta) {
                r.result.totalTime = p.time;
                r.result.energy.cores = p.energy;
            }
        }
    }

    SystemSummary row;
    row.system = "mondrian";
    row.runs = row.totalRuns = 4;
    row.geomeanSpeedup = std::pow(2.0, 2.5);
    row.geomeanPerfPerWatt = std::pow(2.0, 2.5);
    m.summaries = {row};
    return m;
}

/** The run of @p m's @p system at (2^@p log2, @p theta). */
CampaignRun &
runAt(CampaignReport &m, SystemKind system, unsigned log2, double theta)
{
    for (CampaignRun &r : m.runs) {
        if (r.job.system == system && r.job.log2Tuples == log2 &&
            r.job.zipfTheta == theta)
            return r;
    }
    ADD_FAILURE() << "no such run";
    return m.runs.front();
}

const SystemSummary &
onlyCell(const SensitivityRow &row)
{
    EXPECT_EQ(row.cells.size(), 1u);
    return row.cells.front();
}

} // namespace

TEST(Analysis, AxisNamesRoundTrip)
{
    for (Axis axis : allAxes()) {
        Axis parsed;
        ASSERT_TRUE(axisFromName(axisName(axis), parsed));
        EXPECT_EQ(parsed, axis);
    }
    Axis sink;
    EXPECT_FALSE(axisFromName("systems", sink));
    EXPECT_FALSE(axisFromName("op", sink));
}

TEST(Analysis, SensitivityHoldsOtherAxesFixed)
{
    const CampaignReport m = handReport();
    const SystemKind cpu = SystemKind::kCpu;

    SensitivityTable scale = sensitivity(m, Axis::kScale, cpu);
    EXPECT_EQ(scale.axis, Axis::kScale);
    ASSERT_EQ(scale.rows.size(), 2u);
    EXPECT_EQ(scale.rows[0].value, "2^8");
    EXPECT_EQ(scale.rows[1].value, "2^9");
    const SystemSummary &s8 = onlyCell(scale.rows[0]);
    EXPECT_EQ(s8.system, "mondrian");
    EXPECT_EQ(s8.runs, 2u);
    EXPECT_EQ(s8.totalRuns, 2u);
    EXPECT_EQ(s8.droppedSpeedups, 0u);
    EXPECT_EQ(s8.droppedPerfPerWatt, 0u);
    EXPECT_NEAR(s8.geomeanSpeedup, 4.0, 4.0 * 1e-12);
    EXPECT_NEAR(s8.geomeanPerfPerWatt, 4.0, 4.0 * 1e-12);
    const SystemSummary &s9 = onlyCell(scale.rows[1]);
    EXPECT_NEAR(s9.geomeanSpeedup, 8.0, 8.0 * 1e-12);

    SensitivityTable theta = sensitivity(m, Axis::kZipfTheta, cpu);
    ASSERT_EQ(theta.rows.size(), 2u);
    EXPECT_EQ(theta.rows[0].value, "0");
    EXPECT_EQ(theta.rows[1].value, "0.5");
    EXPECT_NEAR(onlyCell(theta.rows[0]).geomeanSpeedup, std::sqrt(8.0),
                std::sqrt(8.0) * 1e-12);
    EXPECT_NEAR(onlyCell(theta.rows[1]).geomeanSpeedup, std::sqrt(128.0),
                std::sqrt(128.0) * 1e-12);

    // A single-value axis degenerates to the overall rollup.
    SensitivityTable op = sensitivity(m, Axis::kScenario, cpu);
    ASSERT_EQ(op.rows.size(), 1u);
    EXPECT_NEAR(onlyCell(op.rows[0]).geomeanSpeedup, std::pow(2.0, 2.5),
                std::pow(2.0, 2.5) * 1e-12);

    // ... and matches the campaign's own rollup.
    const std::vector<SystemSummary> summary =
        summarizeRuns(m.grid, m.runs, cpu);
    ASSERT_EQ(summary.size(), 1u);
    EXPECT_EQ(summary[0].runs, 4u);
    EXPECT_NEAR(summary[0].geomeanSpeedup, std::pow(2.0, 2.5),
                std::pow(2.0, 2.5) * 1e-12);
}

TEST(Analysis, SensitivityCountsUnpairedAndDroppedRuns)
{
    // Missing baseline at (2^9, 0.5): that mondrian run can't be compared.
    CampaignReport m = handReport();
    runAt(m, SystemKind::kCpu, 9, 0.5).failed = true;

    SensitivityTable scale = sensitivity(m, Axis::kScale, SystemKind::kCpu);
    const SystemSummary &s9 = onlyCell(scale.rows[1]);
    EXPECT_EQ(s9.runs, 1u);
    EXPECT_EQ(s9.totalRuns, 2u);
    // The geomean covers only the paired point (speedup 4).
    EXPECT_NEAR(s9.geomeanSpeedup, 4.0, 4.0 * 1e-12);

    // A broken run (zero time -> speedup 0) is dropped and surfaced on
    // the metric it broke — the perf/W geomean (energies intact) keeps
    // both points.
    CampaignReport broken = handReport();
    runAt(broken, SystemKind::kMondrian, 8, 0.0).result.totalTime = 0;
    SensitivityTable bscale =
        sensitivity(broken, Axis::kScale, SystemKind::kCpu);
    const SystemSummary &b8 = onlyCell(bscale.rows[0]);
    EXPECT_EQ(b8.runs, 2u);
    EXPECT_EQ(b8.droppedSpeedups, 1u);
    EXPECT_EQ(b8.droppedPerfPerWatt, 0u);
    EXPECT_NEAR(b8.geomeanSpeedup, 8.0, 8.0 * 1e-12); // the surviving point
    EXPECT_NEAR(b8.geomeanPerfPerWatt, 4.0, 4.0 * 1e-12); // both points
    std::string md = renderSensitivityMarkdown(bscale);
    EXPECT_NE(md.find("8.0000x (1 dropped)"), std::string::npos);
    // The intact perf/W column carries no dropped annotation.
    EXPECT_EQ(md.find("4.0000x (1 dropped)"), std::string::npos);
}

TEST(Analysis, DiffSelfCompareIsEmpty)
{
    const CampaignReport m = handReport();
    ReportDiff d = diffReports(m, m, 0.0);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(renderDiff(d), "");
}

TEST(Analysis, DiffFlagsPerturbationsAtTheRightTolerance)
{
    const CampaignReport a = handReport();

    // A 1e-5 relative perturbation of one run's total time.
    CampaignReport b = handReport();
    runAt(b, SystemKind::kMondrian, 8, 0.0).result.totalTime +=
        40; // 4e6 * 1e-5
    ReportDiff tight = diffReports(a, b, 1e-6);
    ASSERT_EQ(tight.numeric.size(), 1u);
    EXPECT_TRUE(tight.structural.empty());
    EXPECT_EQ(tight.numeric[0].field, "total_time_ps");
    EXPECT_EQ(tight.numeric[0].where,
              "run mondrian|join|8|42|" + geometryName(defaultGeometry()) +
                  "|base|0|none");
    EXPECT_NEAR(tight.numeric[0].relErr, 1e-5, 1e-7);
    EXPECT_NE(renderDiff(tight).find("total_time_ps"), std::string::npos);
    // The same perturbation passes at a looser tolerance.
    EXPECT_TRUE(diffReports(a, b, 1e-4).empty());

    // Functional outputs are exact: any difference is flagged no matter
    // how large the values.
    CampaignReport c = handReport();
    c.runs[0].result.aggChecksum = 0xdeadbeefdeadbeefull;
    CampaignReport c2 = handReport();
    c2.runs[0].result.aggChecksum = 0xdeadbeefdeadbef0ull;
    ReportDiff exact = diffReports(c, c2, 1e-3);
    ASSERT_EQ(exact.numeric.size(), 1u);
    EXPECT_EQ(exact.numeric[0].field, "functional.agg_checksum");

    // A run present on one side only is structural.
    CampaignReport missing = handReport();
    missing.runs.back().failed = true;
    ReportDiff structural = diffReports(a, missing, 1e-6);
    ASSERT_EQ(structural.structural.size(), 1u);
    EXPECT_NE(structural.structural[0].find("only in first report"),
              std::string::npos);

    // Stored summary geomeans are compared under the same tolerance.
    CampaignReport sum = handReport();
    sum.summaries[0].geomeanSpeedup *= 1.0 + 1e-5;
    ReportDiff sdiff = diffReports(a, sum, 1e-6);
    ASSERT_EQ(sdiff.numeric.size(), 1u);
    EXPECT_EQ(sdiff.numeric[0].field, "geomean_speedup");
    EXPECT_EQ(sdiff.numeric[0].where, "summary mondrian");
}

TEST(Analysis, DiffComparesEveryPhaseFieldAndStageInput)
{
    // One phase per run, and one stage (with its own phase) on one run:
    // every field the report writes for them must reach the diff.
    auto withPhases = [] {
        CampaignReport m = handReport();
        PhaseResult p;
        p.name = "probe";
        p.time = 1000;
        p.avgVaultBWGBps = 2.5;
        p.coreUtilization = 0.5;
        p.stallStore = p.stallStream = p.stallLoad = p.stallFence = 0.125;
        for (CampaignRun &r : m.runs)
            r.result.phases = {p};
        StageResult stage;
        stage.stage = "join";
        stage.op = "join";
        stage.input = "generated";
        stage.phases = {p};
        m.runs[1].result.stages = {stage};
        return m;
    };
    const CampaignReport a = withPhases();
    EXPECT_TRUE(diffReports(a, withPhases(), 1e-6).empty());

    const struct
    {
        const char *field;
        double PhaseResult::*member;
    } fields[] = {
        {"phases[0].avg_vault_bw_gbps", &PhaseResult::avgVaultBWGBps},
        {"phases[0].core_utilization", &PhaseResult::coreUtilization},
        {"phases[0].stalls.store", &PhaseResult::stallStore},
        {"phases[0].stalls.stream", &PhaseResult::stallStream},
        {"phases[0].stalls.load", &PhaseResult::stallLoad},
        {"phases[0].stalls.fence", &PhaseResult::stallFence},
    };
    for (const auto &f : fields) {
        CampaignReport b = withPhases();
        b.runs[2].result.phases[0].*f.member *= 1.0 + 1e-5;
        ReportDiff d = diffReports(a, b, 1e-6);
        ASSERT_EQ(d.numeric.size(), 1u) << f.field;
        EXPECT_EQ(d.numeric[0].field, f.field);
        EXPECT_TRUE(diffReports(a, b, 1e-4).empty()) << f.field;

        // The same field of a stage's phase.
        CampaignReport s = withPhases();
        s.runs[1].result.stages[0].phases[0].*f.member *= 1.0 + 1e-5;
        d = diffReports(a, s, 1e-6);
        ASSERT_EQ(d.numeric.size(), 1u) << f.field;
        EXPECT_EQ(d.numeric[0].field, std::string("stages[0].") + f.field);
    }

    // A stage's input is a label: any difference is structural.
    CampaignReport input = withPhases();
    input.runs[1].result.stages[0].input = "prev";
    ReportDiff d = diffReports(a, input, 1.0);
    ASSERT_EQ(d.structural.size(), 1u);
    EXPECT_NE(d.structural[0].find("input generated"), std::string::npos)
        << d.structural[0];
}

TEST(Analysis, RunsCsvPairsAgainstBaseline)
{
    const CampaignReport m = handReport();
    std::string csv = runsCsv(m, SystemKind::kCpu);
    // Header + one line per run.
    std::size_t lines = 0;
    for (char ch : csv)
        lines += ch == '\n';
    EXPECT_EQ(lines, 1u + m.runs.size());
    EXPECT_EQ(csv.find("index,system,scenario,"), 0u);
    // mondrian at (2^8, theta 0): speedup 2, perf/W 2.
    EXPECT_NE(csv.find(",2,2\n"), std::string::npos);
    // Baseline rows leave the pairing columns empty.
    EXPECT_NE(csv.find(",,\n"), std::string::npos);

    // Without a baseline the pairing columns are empty everywhere.
    std::string bare = runsCsv(m, std::nullopt);
    EXPECT_EQ(bare.find(",2,2\n"), std::string::npos);
}

TEST(Analysis, SensitivityCsvAndMarkdownRenderEveryCell)
{
    const CampaignReport m = handReport();
    SensitivityTable t = sensitivity(m, Axis::kScale, SystemKind::kCpu);

    std::string csv = sensitivityCsv(t);
    EXPECT_EQ(csv.find("axis,value,system,"), 0u);
    EXPECT_NE(csv.find("scale,2^8,mondrian,2,2,0,0,4,4\n"),
              std::string::npos);
    EXPECT_NE(csv.find("scale,2^9,mondrian,2,2,0,0,8,8\n"),
              std::string::npos);

    std::string md = renderSensitivityMarkdown(t);
    EXPECT_NE(md.find("| scale | system |"), std::string::npos);
    EXPECT_NE(md.find("| 2^8 | mondrian | 2 | 4.0000x | 4.0000x |"),
              std::string::npos);
}

TEST(Analysis, RealReportSelfDiffIsEmpty)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp,
                    SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kGroupBy)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignReport m;
    std::string err;
    ASSERT_TRUE(readCampaignReport(
        campaignReportJson(CampaignRunner(grid).run(1)), m, err))
        << err;
    // The self-diff of a real report is empty at the golden rtol.
    EXPECT_TRUE(diffReports(m, m, 1e-6).empty());
}

TEST(Analysis, GoldenReportGeomeansMatchHandComputedValues)
{
    // The acceptance check: per-axis geomeans on the checked-in nightly
    // report must match values recomputed directly from the same JSON
    // with plain products and roots.
    std::string text, err;
    ASSERT_TRUE(readTextFile(std::string(MONDRIAN_SOURCE_DIR) +
                                 "/scripts/golden/paper14-report.json",
                             text, err))
        << err;
    CampaignReport m;
    ASSERT_TRUE(readCampaignReport(text, m, err)) << err;
    const SystemKind cpu = SystemKind::kCpu;

    // Hand-compute each system's per-op speedup (there is exactly one
    // comparison per (system, op) cell on the paper grid).
    SensitivityTable per_op = sensitivity(m, Axis::kScenario, cpu);
    ASSERT_EQ(per_op.rows.size(), 4u);
    for (const SensitivityRow &row : per_op.rows) {
        ASSERT_EQ(row.cells.size(), 5u);
        for (const SystemSummary &cell : row.cells) {
            const CampaignRun *base = nullptr, *sys = nullptr;
            for (const CampaignRun &r : m.runs) {
                if (r.job.scenario.name != row.value)
                    continue;
                if (r.job.system == cpu)
                    base = &r;
                if (systemKindName(r.job.system) == cell.system)
                    sys = &r;
            }
            ASSERT_NE(base, nullptr);
            ASSERT_NE(sys, nullptr);
            EXPECT_EQ(cell.runs, 1u);
            const double speedup =
                static_cast<double>(base->result.totalTime) /
                static_cast<double>(sys->result.totalTime);
            EXPECT_NEAR(cell.geomeanSpeedup, speedup, speedup * 1e-12);
            const double ppw = base->result.energy.total() /
                               sys->result.energy.total();
            EXPECT_NEAR(cell.geomeanPerfPerWatt, ppw, ppw * 1e-12);
        }
    }

    // The single-value axes (theta, geometry) roll all four ops into one
    // row per system; hand-compute the geomean as a product of the
    // per-op speedups.
    for (Axis axis : {Axis::kZipfTheta, Axis::kGeometry}) {
        SensitivityTable t = sensitivity(m, axis, cpu);
        ASSERT_EQ(t.rows.size(), 1u);
        ASSERT_EQ(t.rows[0].cells.size(), 5u);
        for (const SystemSummary &cell : t.rows[0].cells) {
            double prod = 1.0;
            std::size_t n = 0;
            for (const SensitivityRow &row : per_op.rows) {
                for (const SystemSummary &op_cell : row.cells) {
                    if (op_cell.system == cell.system) {
                        prod *= op_cell.geomeanSpeedup;
                        ++n;
                    }
                }
            }
            ASSERT_EQ(n, 4u);
            EXPECT_EQ(cell.runs, 4u);
            const double expected = std::pow(prod, 1.0 / 4.0);
            EXPECT_NEAR(cell.geomeanSpeedup, expected, expected * 1e-12);
        }
    }

    // The stored summary block agrees with the recomputation.
    const std::vector<SystemSummary> summary =
        summarizeRuns(m.grid, m.runs, cpu);
    ASSERT_EQ(summary.size(), m.summaries.size());
    for (std::size_t i = 0; i < summary.size(); ++i) {
        EXPECT_EQ(summary[i].system, m.summaries[i].system);
        EXPECT_NEAR(summary[i].geomeanSpeedup, m.summaries[i].geomeanSpeedup,
                    m.summaries[i].geomeanSpeedup * 1e-9);
    }
}
