/** @file Axis-aware analysis: sensitivity tables, report diff, CSV. */

#include <gtest/gtest.h>

#include <cmath>

#include "system/analysis.hh"
#include "system/campaign.hh"
#include "system/report.hh"
#include "system/report_model.hh"

using namespace mondrian;

namespace {

ReportRun
makeRun(const std::string &system, const std::string &op, unsigned log2,
        double theta, Tick total_time, double energy)
{
    ReportRun r;
    r.system = system;
    r.scenario = op;
    r.log2Tuples = log2;
    r.seed = 42;
    r.geometry = "4x16x8-8MiB-r256";
    r.exec = "base";
    r.zipfTheta = theta;
    r.result.system = system;
    r.result.op = op;
    r.result.totalTime = total_time;
    r.result.energy.cores = energy;
    return r;
}

/**
 * Hand-computed two-axis grid: {scale 2^8, 2^9} x {theta 0, 0.5}, one
 * op, systems {cpu, x}. The cpu baseline is 8e6 ticks / 16 J at every
 * point; x's values are chosen so each point's speedup and perf/W are
 * the same round number:
 *
 *   point          x time   x energy   speedup = perf/W
 *   (2^8, 0.0)     4e6      8          2
 *   (2^8, 0.5)     1e6      2          8
 *   (2^9, 0.0)     2e6      4          4
 *   (2^9, 0.5)     5e5      1          16
 *
 * So per-scale geomeans are sqrt(2*8)=4 and sqrt(4*16)=8, per-theta
 * geomeans are sqrt(2*4)=sqrt(8) and sqrt(8*16)=sqrt(128), and the
 * overall geomean is (2*8*4*16)^(1/4) = 2^2.5.
 */
ReportModel
handModel()
{
    ReportModel m;
    m.baseline = "cpu";
    m.systems = {"cpu", "x"};
    m.scenarios = {"join"};
    m.log2Tuples = {8, 9};
    m.seeds = {42};
    m.geometries = {"4x16x8-8MiB-r256"};
    m.execs = {"base"};
    m.zipfThetas = {0.0, 0.5};

    const struct
    {
        unsigned log2;
        double theta;
        Tick xTime;
        double xEnergy;
    } points[] = {
        {8, 0.0, 4000000, 8.0},
        {8, 0.5, 1000000, 2.0},
        {9, 0.0, 2000000, 4.0},
        {9, 0.5, 500000, 1.0},
    };
    for (const auto &p : points) {
        m.runs.push_back(makeRun("cpu", "join", p.log2, p.theta, 8000000,
                                 16.0));
        m.runs.push_back(
            makeRun("x", "join", p.log2, p.theta, p.xTime, p.xEnergy));
    }
    for (std::size_t i = 0; i < m.runs.size(); ++i)
        m.runs[i].index = i;

    ReportSummaryRow row;
    row.system = "x";
    row.runs = 4;
    row.geomeanSpeedup = std::pow(2.0, 2.5);
    row.geomeanPerfPerWatt = std::pow(2.0, 2.5);
    m.summaries = {row};
    return m;
}

const SensitivityCell &
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
    ReportModel m = handModel();

    SensitivityTable scale = sensitivity(m, Axis::kScale, "cpu");
    EXPECT_EQ(scale.axis, Axis::kScale);
    ASSERT_EQ(scale.rows.size(), 2u);
    EXPECT_EQ(scale.rows[0].value, "2^8");
    EXPECT_EQ(scale.rows[1].value, "2^9");
    const SensitivityCell &s8 = onlyCell(scale.rows[0]);
    EXPECT_EQ(s8.system, "x");
    EXPECT_EQ(s8.paired, 2u);
    EXPECT_EQ(s8.total, 2u);
    EXPECT_EQ(s8.droppedSpeedups, 0u);
    EXPECT_EQ(s8.droppedPerfPerWatt, 0u);
    EXPECT_NEAR(s8.geomeanSpeedup, 4.0, 4.0 * 1e-12);
    EXPECT_NEAR(s8.geomeanPerfPerWatt, 4.0, 4.0 * 1e-12);
    const SensitivityCell &s9 = onlyCell(scale.rows[1]);
    EXPECT_NEAR(s9.geomeanSpeedup, 8.0, 8.0 * 1e-12);

    SensitivityTable theta = sensitivity(m, Axis::kZipfTheta, "cpu");
    ASSERT_EQ(theta.rows.size(), 2u);
    EXPECT_EQ(theta.rows[0].value, "0");
    EXPECT_EQ(theta.rows[1].value, "0.5");
    EXPECT_NEAR(onlyCell(theta.rows[0]).geomeanSpeedup, std::sqrt(8.0),
                std::sqrt(8.0) * 1e-12);
    EXPECT_NEAR(onlyCell(theta.rows[1]).geomeanSpeedup, std::sqrt(128.0),
                std::sqrt(128.0) * 1e-12);

    // A single-value axis degenerates to the overall rollup.
    SensitivityTable op = sensitivity(m, Axis::kScenario, "cpu");
    ASSERT_EQ(op.rows.size(), 1u);
    EXPECT_NEAR(onlyCell(op.rows[0]).geomeanSpeedup, std::pow(2.0, 2.5),
                std::pow(2.0, 2.5) * 1e-12);

    // ... and matches the recomputed summary.
    AnalysisSummary summary = recomputeSummary(m, "cpu");
    ASSERT_EQ(summary.systems.size(), 1u);
    EXPECT_EQ(summary.systems[0].paired, 4u);
    EXPECT_NEAR(summary.systems[0].geomeanSpeedup, std::pow(2.0, 2.5),
                std::pow(2.0, 2.5) * 1e-12);
}

TEST(Analysis, SensitivityCountsUnpairedAndDroppedRuns)
{
    // Missing baseline at (2^9, 0.5): that x run can't be compared.
    ReportModel m = handModel();
    std::vector<ReportRun> runs;
    for (const ReportRun &r : m.runs)
        if (!(r.system == "cpu" && r.log2Tuples == 9 && r.zipfTheta == 0.5))
            runs.push_back(r);
    m.runs = runs;

    SensitivityTable scale = sensitivity(m, Axis::kScale, "cpu");
    const SensitivityCell &s9 = onlyCell(scale.rows[1]);
    EXPECT_EQ(s9.paired, 1u);
    EXPECT_EQ(s9.total, 2u);
    // The geomean covers only the paired point (speedup 4).
    EXPECT_NEAR(s9.geomeanSpeedup, 4.0, 4.0 * 1e-12);

    // A broken run (zero time -> speedup 0) is dropped and surfaced on
    // the metric it broke — the perf/W geomean (energies intact) keeps
    // both points.
    ReportModel broken = handModel();
    for (ReportRun &r : broken.runs)
        if (r.system == "x" && r.log2Tuples == 8 && r.zipfTheta == 0.0)
            r.result.totalTime = 0;
    SensitivityTable bscale = sensitivity(broken, Axis::kScale, "cpu");
    const SensitivityCell &b8 = onlyCell(bscale.rows[0]);
    EXPECT_EQ(b8.paired, 2u);
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
    ReportModel m = handModel();
    ReportDiff d = diffReports(m, m, 0.0);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(renderDiff(d), "");
}

TEST(Analysis, DiffFlagsPerturbationsAtTheRightTolerance)
{
    ReportModel a = handModel();

    // A 1e-5 relative perturbation of one run's total time.
    ReportModel b = handModel();
    for (ReportRun &r : b.runs)
        if (r.system == "x" && r.log2Tuples == 8 && r.zipfTheta == 0.0)
            r.result.totalTime += 40; // 4e6 * 1e-5
    ReportDiff tight = diffReports(a, b, 1e-6);
    ASSERT_EQ(tight.numeric.size(), 1u);
    EXPECT_TRUE(tight.structural.empty());
    EXPECT_EQ(tight.numeric[0].field, "total_time_ps");
    EXPECT_NEAR(tight.numeric[0].relErr, 1e-5, 1e-7);
    EXPECT_NE(renderDiff(tight).find("total_time_ps"), std::string::npos);
    // The same perturbation passes at a looser tolerance.
    EXPECT_TRUE(diffReports(a, b, 1e-4).empty());

    // Functional outputs are exact: any difference is flagged no matter
    // how large the values.
    ReportModel c = handModel();
    c.runs[0].result.aggChecksum = 0xdeadbeefdeadbeefull;
    ReportModel c2 = handModel();
    c2.runs[0].result.aggChecksum = 0xdeadbeefdeadbef0ull;
    ReportDiff exact = diffReports(c, c2, 1e-3);
    ASSERT_EQ(exact.numeric.size(), 1u);
    EXPECT_EQ(exact.numeric[0].field, "functional.agg_checksum");

    // A run present on one side only is structural.
    ReportModel missing = handModel();
    missing.runs.pop_back();
    ReportDiff structural = diffReports(a, missing, 1e-6);
    ASSERT_EQ(structural.structural.size(), 1u);
    EXPECT_NE(structural.structural[0].find("only in first report"),
              std::string::npos);

    // A duplicated run (corrupt report, e.g. a broken resume splice) is
    // structural too, on whichever side carries it — a diff against the
    // clean report must not pass.
    ReportModel duped = handModel();
    duped.runs.push_back(duped.runs.back());
    ReportDiff dup_diff = diffReports(a, duped, 1e-6);
    ASSERT_EQ(dup_diff.structural.size(), 1u);
    EXPECT_NE(dup_diff.structural[0].find("appears 2 times in second"),
              std::string::npos);
    EXPECT_FALSE(diffReports(duped, duped, 1e-6).empty());

    // Stored summary geomeans are compared under the same tolerance.
    ReportModel sum = handModel();
    sum.summaries[0].geomeanSpeedup *= 1.0 + 1e-5;
    ReportDiff sdiff = diffReports(a, sum, 1e-6);
    ASSERT_EQ(sdiff.numeric.size(), 1u);
    EXPECT_EQ(sdiff.numeric[0].field, "geomean_speedup");
    EXPECT_EQ(sdiff.numeric[0].where, "summary x");
}

TEST(Analysis, RunsCsvPairsAgainstBaseline)
{
    ReportModel m = handModel();
    std::string csv = runsCsv(m, "cpu");
    // Header + one line per run.
    std::size_t lines = 0;
    for (char ch : csv)
        lines += ch == '\n';
    EXPECT_EQ(lines, 1u + m.runs.size());
    EXPECT_EQ(csv.find("index,system,scenario,"), 0u);
    // x at (2^8, theta 0): speedup 2, perf/W 2.
    EXPECT_NE(csv.find(",2,2\n"), std::string::npos);
    // Baseline rows leave the pairing columns empty.
    EXPECT_NE(csv.find(",,\n"), std::string::npos);

    // Without a baseline the pairing columns are empty everywhere.
    std::string bare = runsCsv(m, "");
    EXPECT_EQ(bare.find(",2,2\n"), std::string::npos);
}

TEST(Analysis, SensitivityCsvAndMarkdownRenderEveryCell)
{
    ReportModel m = handModel();
    SensitivityTable t = sensitivity(m, Axis::kScale, "cpu");

    std::string csv = sensitivityCsv(t);
    EXPECT_EQ(csv.find("axis,value,system,"), 0u);
    EXPECT_NE(csv.find("scale,2^8,x,2,2,0,0,4,4\n"), std::string::npos);
    EXPECT_NE(csv.find("scale,2^9,x,2,2,0,0,8,8\n"), std::string::npos);

    std::string md = renderSensitivityMarkdown(t);
    EXPECT_NE(md.find("| scale | system |"), std::string::npos);
    EXPECT_NE(md.find("| 2^8 | x | 2 | 4.0000x | 4.0000x |"),
              std::string::npos);
}

TEST(Analysis, RecomputedSummaryMatchesCampaignRollupOnARealReport)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp,
                    SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kGroupBy)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    CampaignReport report = CampaignRunner(grid).run(1);

    ReportModel m;
    std::string err;
    ASSERT_TRUE(loadReportModel(campaignReportJson(report), m, err)) << err;
    AnalysisSummary summary = recomputeSummary(m, m.baseline);
    ASSERT_EQ(summary.systems.size(), report.summaries.size());
    for (std::size_t i = 0; i < summary.systems.size(); ++i) {
        EXPECT_EQ(summary.systems[i].system, report.summaries[i].system);
        EXPECT_EQ(summary.systems[i].paired, report.summaries[i].runs);
        // Values round-trip the 12-digit JSON encoding.
        EXPECT_NEAR(summary.systems[i].geomeanSpeedup,
                    report.summaries[i].geomeanSpeedup,
                    report.summaries[i].geomeanSpeedup * 1e-9);
        EXPECT_NEAR(summary.systems[i].geomeanPerfPerWatt,
                    report.summaries[i].geomeanPerfPerWatt,
                    report.summaries[i].geomeanPerfPerWatt * 1e-9);
    }

    // And the self-diff of a real report is empty at the golden rtol.
    EXPECT_TRUE(diffReports(m, m, 1e-6).empty());
}

TEST(Analysis, GoldenReportGeomeansMatchHandComputedValues)
{
    // The acceptance check: per-axis geomeans on the checked-in nightly
    // report must match values recomputed directly from the same JSON
    // with plain products and roots.
    ReportModel m;
    std::string err;
    ASSERT_TRUE(loadReportFile(std::string(MONDRIAN_SOURCE_DIR) +
                                   "/scripts/golden/paper14-report.json",
                               m, err))
        << err;

    // Hand-compute each system's per-op speedup (there is exactly one
    // comparison per (system, op) cell on the paper grid).
    SensitivityTable per_op = sensitivity(m, Axis::kScenario, "cpu");
    ASSERT_EQ(per_op.rows.size(), 4u);
    for (const SensitivityRow &row : per_op.rows) {
        ASSERT_EQ(row.cells.size(), 6u);
        for (const SensitivityCell &cell : row.cells) {
            const ReportRun *cpu = nullptr, *sys = nullptr;
            for (const ReportRun &r : m.runs) {
                if (r.scenario != row.value)
                    continue;
                if (r.system == "cpu")
                    cpu = &r;
                if (r.system == cell.system)
                    sys = &r;
            }
            ASSERT_NE(cpu, nullptr);
            ASSERT_NE(sys, nullptr);
            EXPECT_EQ(cell.paired, 1u);
            const double speedup =
                static_cast<double>(cpu->result.totalTime) /
                static_cast<double>(sys->result.totalTime);
            EXPECT_NEAR(cell.geomeanSpeedup, speedup, speedup * 1e-12);
            const double ppw = cpu->result.energy.total() /
                               sys->result.energy.total();
            EXPECT_NEAR(cell.geomeanPerfPerWatt, ppw, ppw * 1e-12);
        }
    }

    // The single-value axes (theta, geometry) roll all four ops into one
    // row per system; hand-compute the geomean as a product of the
    // per-op speedups.
    for (Axis axis : {Axis::kZipfTheta, Axis::kGeometry}) {
        SensitivityTable t = sensitivity(m, axis, "cpu");
        ASSERT_EQ(t.rows.size(), 1u);
        ASSERT_EQ(t.rows[0].cells.size(), 6u);
        for (const SensitivityCell &cell : t.rows[0].cells) {
            double prod = 1.0;
            std::size_t n = 0;
            for (const SensitivityRow &row : per_op.rows) {
                for (const SensitivityCell &op_cell : row.cells) {
                    if (op_cell.system == cell.system) {
                        prod *= op_cell.geomeanSpeedup;
                        ++n;
                    }
                }
            }
            ASSERT_EQ(n, 4u);
            EXPECT_EQ(cell.paired, 4u);
            const double expected = std::pow(prod, 1.0 / 4.0);
            EXPECT_NEAR(cell.geomeanSpeedup, expected, expected * 1e-12);
        }
    }

    // The stored summary block agrees with the recomputation.
    AnalysisSummary summary = recomputeSummary(m, "cpu");
    ASSERT_EQ(summary.systems.size(), m.summaries.size());
    for (std::size_t i = 0; i < summary.systems.size(); ++i) {
        EXPECT_EQ(summary.systems[i].system, m.summaries[i].system);
        EXPECT_NEAR(summary.systems[i].geomeanSpeedup,
                    m.summaries[i].geomeanSpeedup,
                    m.summaries[i].geomeanSpeedup * 1e-9);
    }
}
