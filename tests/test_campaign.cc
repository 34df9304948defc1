/** @file Campaign grid expansion, parallel determinism and JSON output. */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "sim/thread_pool.hh"
#include "system/analysis.hh"
#include "system/campaign.hh"
#include "system/report.hh"

#include <atomic>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "malformed_numbers.hh"

using namespace mondrian;

namespace {

/** Small two-axis grid with a baseline, cheap enough for unit tests. */
CampaignGrid
testGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan), degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8, 9};
    grid.seeds = {42, 7};
    return grid;
}

} // namespace

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnSubmit)
{
    ThreadPool pool(0);
    int count = 0;
    pool.submit([&count] { ++count; });
    EXPECT_EQ(count, 1);
    pool.wait(); // no-op, must not hang
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&count, i] {
            if (i == 3)
                throw std::runtime_error("job 3 failed");
            ++count;
        });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(count.load(), 7); // the other jobs still ran
    // The pool stays usable after an error.
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 8);
}

TEST(Campaign, GridSizeIsCrossProduct)
{
    CampaignGrid grid = testGrid();
    EXPECT_EQ(grid.size(), 3u * 2u * 2u * 2u);

    grid.scenarios.clear();
    EXPECT_EQ(grid.size(), 0u);
}

TEST(Campaign, ExpandGridCoversEveryPointOnce)
{
    CampaignGrid grid = testGrid();
    auto jobs = expandGrid(grid);
    ASSERT_EQ(jobs.size(), grid.size());

    std::set<std::tuple<int, std::string, unsigned, std::uint64_t>> seen;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i); // index == position, densely numbered
        seen.insert({static_cast<int>(jobs[i].system),
                     jobs[i].scenario.name, jobs[i].log2Tuples,
                     jobs[i].seed});
    }
    EXPECT_EQ(seen.size(), jobs.size()); // no duplicates
}

TEST(Campaign, JobWorkloadReflectsGridPoint)
{
    CampaignGrid grid = testGrid();
    grid.zipfThetas = {0.5};
    auto jobs = expandGrid(grid);
    for (const auto &job : jobs) {
        WorkloadConfig wl = job.workload();
        EXPECT_EQ(wl.tuples, std::uint64_t{1} << job.log2Tuples);
        EXPECT_EQ(wl.seed, job.seed);
        EXPECT_DOUBLE_EQ(wl.zipfTheta, 0.5);
    }
}

TEST(Campaign, AxesExpandAsCrossProduct)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    MemGeometry narrow = defaultGeometry();
    narrow.vaultsPerStack = 8;
    grid.geometries = {defaultGeometry(), narrow};
    ExecOverride radix9;
    radix9.radixBits = 9;
    grid.execOverrides = {ExecOverride{}, radix9};
    grid.zipfThetas = {0.0, 0.75};

    EXPECT_EQ(grid.size(), 2u * 1 * 1 * 1 * 2 * 2 * 2);
    auto jobs = expandGrid(grid);
    ASSERT_EQ(jobs.size(), grid.size());

    std::set<std::string> seen;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i);
        seen.insert(geometryName(jobs[i].geometry) + "|" +
                    jobs[i].exec.name() + "|" +
                    std::to_string(jobs[i].zipfTheta) + "|" +
                    systemKindName(jobs[i].system));
    }
    EXPECT_EQ(seen.size(), jobs.size()); // every axis point hit exactly once

    // Geometries are outermost: the first half of the jobs run the first
    // geometry, and within one geometry systems stay contiguous.
    for (std::size_t i = 0; i < jobs.size() / 2; ++i)
        EXPECT_EQ(geometryName(jobs[i].geometry),
                  geometryName(defaultGeometry()));
    EXPECT_EQ(jobs[0].system, SystemKind::kCpu);
    EXPECT_EQ(jobs[1].system, SystemKind::kMondrian);
}

TEST(Campaign, SystemConfigAppliesGeometryAndOverride)
{
    CampaignJob job;
    job.system = SystemKind::kCpu;
    job.geometry = defaultGeometry();
    job.geometry.vaultsPerStack = 8;
    job.exec.radixBits = 9;
    job.exec.tlbEntries = 16;

    SystemConfig cfg = job.systemConfig();
    EXPECT_EQ(cfg.geo.totalVaults(), 32u);
    EXPECT_EQ(cfg.exec.cpuPartitionBits, 9u);
    EXPECT_EQ(cfg.exec.tlbEntries, 16u);
    // Unset knobs inherit the preset.
    EXPECT_EQ(cfg.exec.readChunkBytes, makeSystem(SystemKind::kCpu).exec.readChunkBytes);
}

TEST(Campaign, ValidateGridNamesAnInvalidGeometry)
{
    // Empty and repeated axes: GridAxes.EachAxisIsValidatedLabeledAndKeyed.
    CampaignGrid grid = testGrid();
    std::string err;
    EXPECT_TRUE(validateGrid(grid, err)) << err;

    CampaignGrid bad_geo = grid;
    bad_geo.geometries[0].vaultsPerStack = 5; // not a power of two
    EXPECT_FALSE(validateGrid(bad_geo, err));
    EXPECT_NE(err.find("invalid geometry"), std::string::npos);

    EXPECT_THROW(CampaignRunner(bad_geo).run(1), std::invalid_argument);
}

TEST(Campaign, GeometrySpecsParseAndRoundTrip)
{
    MemGeometry geo;
    std::string err;
    ASSERT_TRUE(parseGeometrySpec("default", geo, err)) << err;
    EXPECT_EQ(geometryName(geo), "4x16x8-8MiB-r256");

    ASSERT_TRUE(parseGeometrySpec("2x8", geo, err)) << err;
    EXPECT_EQ(geo.numStacks, 2u);
    EXPECT_EQ(geo.vaultsPerStack, 8u);
    EXPECT_EQ(geo.banksPerVault, 8u); // inherited from the default
    EXPECT_EQ(geometryName(geo), "2x8x8-8MiB-r256");

    ASSERT_TRUE(parseGeometrySpec("8x32x4:row=2048:vault=256KiB", geo, err))
        << err;
    EXPECT_EQ(geo.banksPerVault, 4u);
    EXPECT_EQ(geo.rowBytes, 2048u);
    EXPECT_EQ(geo.vaultBytes, 256 * kKiB);
    EXPECT_EQ(geometryName(geo), "8x32x4-256KiB-r2048");

    // Size suffixes belong to the row=/vault= knobs only; shape dims are
    // plain integers ("2KiBx2" must not become a 2048-stack machine).
    ASSERT_TRUE(parseGeometrySpec("4x16:row=2KiB", geo, err)) << err;
    EXPECT_EQ(geo.rowBytes, 2048u);
    EXPECT_FALSE(parseGeometrySpec("2KiBx2", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x2KiB", geo, err));

    // Oversized dimensions are rejected, not truncated into a different
    // (valid-looking) machine.
    EXPECT_FALSE(parseGeometrySpec("4294967298x16", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x16:vault=99999999MiB", geo, err));

    EXPECT_FALSE(parseGeometrySpec("", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4xx16", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x16::row=2048", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x16:bogus=3", geo, err));
    EXPECT_FALSE(parseGeometrySpec("4x16:row=300", geo, err)); // not pow2
    EXPECT_FALSE(parseGeometrySpec("3x16", geo, err));         // not pow2

    // Every malformed form in every number, the error naming its part.
    struct Slot
    {
        const char *name, *before, *good, *after;
    };
    for (const Slot &slot : std::vector<Slot>{
             {"shape", "", "2", "x8"},
             {"shape", "2x", "8", ""},
             {"shape", "2x8x", "4", ""},
             {"row", "4x16:row=", "2048", ""},
             {"vault", "4x16:vault=", "256", "KiB"}}) {
        const std::string good =
            std::string(slot.before) + slot.good + slot.after;
        EXPECT_TRUE(parseGeometrySpec(good, geo, err)) << good << ": " << err;
        for (const std::string &value : malformedNumbers(slot.good, false)) {
            const std::string spec = slot.before + value + slot.after;
            EXPECT_FALSE(parseGeometrySpec(spec, geo, err)) << spec;
            EXPECT_NE(err.find(slot.name), std::string::npos) << err;
        }
    }
}

TEST(Campaign, ValidateGridRejectsInfeasibleCombinations)
{
    // A scale that cannot fit the swept pool fails fast instead of
    // aborting mid-campaign in the vault allocator.
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    MemGeometry tiny;
    std::string err;
    ASSERT_TRUE(parseGeometrySpec("1x4:vault=64KiB", tiny, err)) << err;
    grid.geometries = {tiny}; // 256 KiB pool, needs ~4 MiB
    EXPECT_FALSE(validateGrid(grid, err));
    EXPECT_NE(err.find("does not fit"), std::string::npos) << err;

    // A read-chunk override wider than a geometry's row buffer is
    // physically meaningless and rejected.
    CampaignGrid chunky;
    chunky.systems = {SystemKind::kMondrian};
    chunky.scenarios = {degenerateScenario(OpKind::kScan)};
    chunky.log2Tuples = {8};
    chunky.seeds = {42};
    MemGeometry narrow_row;
    ASSERT_TRUE(parseGeometrySpec("4x16:row=64", narrow_row, err)) << err;
    chunky.geometries = {narrow_row};
    ExecOverride big_chunk;
    big_chunk.readChunkBytes = 256;
    chunky.execOverrides = {big_chunk};
    EXPECT_FALSE(validateGrid(chunky, err));
    EXPECT_NE(err.find("row buffer"), std::string::npos) << err;

    // The same chunk on the default 256 B rows is fine.
    chunky.geometries = {defaultGeometry()};
    EXPECT_TRUE(validateGrid(chunky, err)) << err;

    // Overrides built through the library API get the same range checks
    // as CLI-parsed ones (a chunk of 0 would divide by zero mid-run).
    ExecOverride zero_chunk;
    zero_chunk.readChunkBytes = 0;
    chunky.execOverrides = {zero_chunk};
    EXPECT_FALSE(validateGrid(chunky, err));
    EXPECT_NE(err.find("invalid exec-ablation"), std::string::npos) << err;

    ExecOverride wild_radix;
    wild_radix.radixBits = 40;
    chunky.execOverrides = {wild_radix};
    EXPECT_FALSE(validateGrid(chunky, err));
    EXPECT_NE(err.find("radix bits"), std::string::npos) << err;
}

TEST(Resume, ThetaKeyMatchesReportEncoding)
{
    // The key labels theta at the report writer's 12 significant digits,
    // so a theta parsed back from a report keys identically to the
    // CLI-parsed original even when the original had more digits.
    CampaignJob cli, report;
    cli.zipfTheta = 0.1234567890123456;   // what the CLI parsed
    report.zipfTheta = 0.123456789012;    // what the report stores
    EXPECT_EQ(campaignJobKey(cli), campaignJobKey(report));
    // ... while thetas that differ within 12 digits still differ.
    cli.zipfTheta = 0.5;
    report.zipfTheta = 0.75;
    EXPECT_NE(campaignJobKey(cli), campaignJobKey(report));
}

TEST(Campaign, ExecOverrideParseAndCanonicalName)
{
    ExecOverride ov;
    std::string err;
    ASSERT_TRUE(parseExecOverride("base", ov, err)) << err;
    EXPECT_TRUE(ov.isBase());
    EXPECT_EQ(ov.name(), "base");

    ASSERT_TRUE(parseExecOverride("tlb=16+radix=9", ov, err)) << err;
    EXPECT_EQ(ov.radixBits, 9);
    EXPECT_EQ(ov.tlbEntries, 16);
    EXPECT_EQ(ov.readChunkBytes, -1);
    // Canonical name is order-independent (fixed chunk/radix/tlb order).
    EXPECT_EQ(ov.name(), "radix=9+tlb=16");
    ExecOverride ov2;
    ASSERT_TRUE(parseExecOverride("radix=9+tlb=16", ov2, err)) << err;
    EXPECT_EQ(ov.name(), ov2.name());

    ASSERT_TRUE(parseExecOverride("chunk=256", ov, err)) << err;
    EXPECT_EQ(ov.readChunkBytes, 256);
    EXPECT_EQ(ov.name(), "chunk=256");

    EXPECT_FALSE(parseExecOverride("", ov, err));
    EXPECT_FALSE(parseExecOverride("radix", ov, err));
    EXPECT_FALSE(parseExecOverride("radix=0", ov, err));
    EXPECT_FALSE(parseExecOverride("chunk=100", ov, err)); // not pow2
    EXPECT_FALSE(parseExecOverride("turbo=1", ov, err));
    // The event-count shortcuts are not model knobs: no campaign sets
    // them.
    for (const char *toggle : {"coalesce=0", "rle=0", "skip=1", "eager=0"}) {
        EXPECT_FALSE(parseExecOverride(toggle, ov, err)) << toggle;
        EXPECT_NE(err.find("unknown exec-ablation knob"), std::string::npos)
            << err;
    }
    // An empty knob anywhere is a typo, not a no-op.
    for (const char *stray : {"radix=9+", "+radix=9", "radix=9++tlb=16"}) {
        EXPECT_FALSE(parseExecOverride(stray, ov, err)) << stray;
        EXPECT_NE(err.find("knob '' is not key=value"), std::string::npos)
            << err;
    }
    // A repeated knob is a typo'd ablation point, not "last wins".
    EXPECT_FALSE(parseExecOverride("chunk=256+chunk=128", ov, err));
    EXPECT_NE(err.find("twice"), std::string::npos) << err;

    // Every malformed form in every knob's value ("+9" splits into an
    // empty value and a knob "9").
    for (const std::string knob : {"radix=", "chunk=", "tlb="}) {
        const std::string good = knob == "radix=" ? "9" : "16";
        EXPECT_TRUE(parseExecOverride(knob + good, ov, err)) << err;
        for (const std::string &value : malformedNumbers(good, false)) {
            EXPECT_FALSE(parseExecOverride(knob + value, ov, err))
                << knob << value;
            EXPECT_NE(err.find("exec-ablation value '"), std::string::npos)
                << err;
        }
    }
}

TEST(Campaign, ValidateGridRejectsThetaDuplicates)
{
    // Thetas identical at the report's 12-digit precision would share
    // one axis label and resume identity: a repeated value.
    CampaignGrid grid = testGrid();
    std::string err;
    grid.zipfThetas = {0.123456789012, 0.1234567890121};
    EXPECT_FALSE(validateGrid(grid, err));
    EXPECT_NE(err.find("duplicate zipf-theta '0.123456789012'"),
              std::string::npos)
        << err;

    // -0 labels as "-0": a second point of the same input as 0.
    grid.zipfThetas = {0.0, -0.0};
    EXPECT_FALSE(validateGrid(grid, err));
    EXPECT_EQ(err, "zipf theta must be in [0, 2)");

    grid.zipfThetas = {0.0, 0.5, 0.75};
    EXPECT_TRUE(validateGrid(grid, err)) << err;
}

TEST(Campaign, ParallelMatchesSerialByteForByte)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan), degenerateScenario(OpKind::kGroupBy)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignReport serial = CampaignRunner(grid).run(1);
    CampaignReport parallel = CampaignRunner(grid).run(4);

    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].result.totalTime,
                  parallel.runs[i].result.totalTime);
        EXPECT_EQ(serial.runs[i].result.aggChecksum,
                  parallel.runs[i].result.aggChecksum);
    }
    EXPECT_EQ(campaignReportJson(serial), campaignReportJson(parallel));
}

TEST(Campaign, SummaryUsesCpuBaseline)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignReport report = CampaignRunner(grid).run(1);
    EXPECT_EQ(report.baseline, "cpu");
    ASSERT_EQ(report.summaries.size(), 1u);
    EXPECT_EQ(report.summaries[0].system, "mondrian");
    EXPECT_EQ(report.summaries[0].runs, 1u);
    // NMP beats the CPU baseline on every operator in the paper.
    EXPECT_GT(report.summaries[0].geomeanSpeedup, 1.0);
    EXPECT_GT(report.summaries[0].geomeanPerfPerWatt, 1.0);
}

TEST(Campaign, BaselineIndexKeysBySeedScaleOp)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8, 9};
    grid.seeds = {42};

    CampaignReport report = CampaignRunner(grid).run(1);
    auto base = baselineIndex(report.runs, SystemKind::kCpu);
    ASSERT_EQ(base.size(), 2u); // one cpu run per scale
    for (const auto &r : report.runs) {
        auto it = base.find(gridGroupKey(r));
        ASSERT_NE(it, base.end());
        // Every run maps to the baseline of its own scale.
        EXPECT_EQ(it->second->job.log2Tuples, r.job.log2Tuples);
        EXPECT_EQ(it->second->job.system, SystemKind::kCpu);
    }
}

TEST(Campaign, SummaryCountsOnlyPairedRuns)
{
    // Regression: `runs` used to count every run of a system even when
    // its grid point had no baseline to compare against, overstating the
    // paired-run count on partial/resumed reports.
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8, 9};
    grid.seeds = {42};
    CampaignReport report = CampaignRunner(grid).run(1);

    // Simulate a partial report: the cpu baseline of the 2^9 grid point
    // is missing.
    std::vector<CampaignRun> runs;
    for (const auto &r : report.runs)
        if (!(r.job.system == SystemKind::kCpu && r.job.log2Tuples == 9))
            runs.push_back(r);

    auto summaries = summarizeRuns(grid, runs, SystemKind::kCpu);
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].system, "nmp");
    EXPECT_EQ(summaries[0].runs, 1u);      // only the paired 2^8 point
    EXPECT_EQ(summaries[0].totalRuns, 2u); // both nmp runs exist
    // The geomean is exactly the one paired comparison.
    const CampaignRun *cpu8 = nullptr, *nmp8 = nullptr;
    for (const auto &r : runs) {
        if (r.job.log2Tuples != 8)
            continue;
        (r.job.system == SystemKind::kCpu ? cpu8 : nmp8) = &r;
    }
    ASSERT_NE(cpu8, nullptr);
    ASSERT_NE(nmp8, nullptr);
    const double expected = overallSpeedup(cpu8->result, nmp8->result);
    EXPECT_NEAR(summaries[0].geomeanSpeedup, expected, expected * 1e-12);

    // The partial report's JSON carries the provenance ("runs_total"),
    // while a full grid's summary block stays byte-identical (no
    // conditional members).
    CampaignReport partial = report;
    partial.runs = runs;
    partial.summaries = summaries;
    std::string partial_json = campaignReportJson(partial);
    EXPECT_NE(partial_json.find("\"runs\": 1"), std::string::npos);
    EXPECT_NE(partial_json.find("\"runs_total\": 2"), std::string::npos);
    std::string full_json = campaignReportJson(report);
    EXPECT_EQ(full_json.find("\"runs_total\""), std::string::npos);
    EXPECT_EQ(full_json.find("\"dropped_"), std::string::npos);
}

TEST(Campaign, SummaryTableMarksPartialAndDroppedRollups)
{
    SystemSummary partial;
    partial.system = "nmp";
    partial.runs = 1;
    partial.totalRuns = 2;
    partial.droppedSpeedups = 1;
    partial.geomeanSpeedup = 2.0;
    partial.geomeanPerfPerWatt = 3.0;
    std::string table = renderSummaryMarkdown({partial});
    EXPECT_NE(table.find("1/2"), std::string::npos);
    EXPECT_NE(table.find("(1 dropped)"), std::string::npos);
}

TEST(Campaign, NoBaselineMeansNoSummaries)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kNmp, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignReport report = CampaignRunner(grid).run(1);
    EXPECT_EQ(report.baseline, "");
    EXPECT_TRUE(report.summaries.empty());
}

TEST(Campaign, ProgressCallbackSeesEveryRun)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignRunner campaign(grid);
    std::set<std::size_t> indices;
    campaign.onRunDone([&indices](const CampaignRun &r) {
        indices.insert(r.job.index);
    });
    campaign.run(2);
    EXPECT_EQ(indices.size(), grid.size());
}

TEST(CampaignJson, ReportRoundTripsThroughSchema)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};

    CampaignReport report = CampaignRunner(grid).run(1);
    std::string json = campaignReportJson(report);

    // Schema markers and grid echo.
    EXPECT_NE(json.find("\"schema\": \"mondrian-campaign-v4\""),
              std::string::npos);
    EXPECT_NE(json.find("\"total_runs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"baseline\": \"cpu\""), std::string::npos);

    // Axis tables and per-run axis labels.
    EXPECT_NE(json.find("\"geometries\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"4x16x8-8MiB-r256\""), std::string::npos);
    EXPECT_NE(json.find("\"exec_overrides\""), std::string::npos);
    EXPECT_NE(json.find("\"zipf_thetas\""), std::string::npos);
    EXPECT_NE(json.find("\"geometry\": \"4x16x8-8MiB-r256\""),
              std::string::npos);
    EXPECT_NE(json.find("\"exec\": \"base\""), std::string::npos);
    EXPECT_NE(json.find("\"zipf_theta\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
    EXPECT_NE(json.find("\"traffics\""), std::string::npos);
    EXPECT_NE(json.find("\"traffic\": \"none\""), std::string::npos);

    // Every run serializes with its grid coordinates and result payload.
    EXPECT_NE(json.find("\"system\": \"mondrian\""), std::string::npos);
    EXPECT_NE(json.find("\"scenario\": \"join\""), std::string::npos);
    EXPECT_NE(json.find("\"log2_tuples\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"total_time_ps\""), std::string::npos);
    EXPECT_NE(json.find("\"energy_j\""), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);

    // Identical reports serialize to identical bytes.
    EXPECT_EQ(json, campaignReportJson(report));
}

TEST(CampaignJson, RunResultJsonMatchesRunOutput)
{
    WorkloadConfig wl;
    wl.tuples = 1u << 8;
    RunResult r = ServedRunner(wl).run(makeSystem(SystemKind::kNmp),
                                       degenerateScenario(OpKind::kJoin));
    std::string json = runResultJson(r);
    EXPECT_NE(json.find("\"system\": \"nmp\""), std::string::npos);
    EXPECT_NE(json.find("\"op\": \"join\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"partition\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"probe\""), std::string::npos);
}

TEST(JsonWriter, ProducesExpectedDocument)
{
    JsonWriter w;
    w.beginObject();
    w.member("name", "x");
    w.member("count", std::uint64_t{3});
    w.member("ratio", 0.5);
    w.member("flag", true);
    w.key("list").beginArray();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{2});
    w.endArray();
    w.key("nested").beginObject();
    w.member("inner", "y");
    w.endObject();
    w.endObject();

    EXPECT_EQ(w.str(), "{\n"
                       "  \"name\": \"x\",\n"
                       "  \"count\": 3,\n"
                       "  \"ratio\": 0.5,\n"
                       "  \"flag\": true,\n"
                       "  \"list\": [\n"
                       "    1,\n"
                       "    2\n"
                       "  ],\n"
                       "  \"nested\": {\n"
                       "    \"inner\": \"y\"\n"
                       "  }\n"
                       "}");
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter w;
    w.beginObject();
    w.member("s", "a\"b\\c\nd");
    w.endObject();
    EXPECT_NE(w.str().find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.endArray();
    EXPECT_EQ(w.str(), "[\n  null,\n  null\n]");
}

TEST(Report, GeomeanIgnoresNonPositive)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 16.0}), 8.0);
    EXPECT_DOUBLE_EQ(geomean({4.0, 16.0, 0.0, -3.0}), 8.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Report, GeomeanStatsSurfacesDroppedEntries)
{
    // A zero/negative value is a broken run; it must not vanish silently
    // from a rollup.
    GeomeanStats s = geomeanStats({4.0, 16.0, 0.0, -3.0});
    EXPECT_DOUBLE_EQ(s.value, 8.0);
    EXPECT_EQ(s.used, 2u);
    EXPECT_EQ(s.dropped, 2u);

    s = geomeanStats({4.0, 16.0});
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(s.used, 2u);

    s = geomeanStats({});
    EXPECT_DOUBLE_EQ(s.value, 0.0);
    EXPECT_EQ(s.used, 0u);
    EXPECT_EQ(s.dropped, 0u);
}

TEST(Report, MarkdownTableRendersHeaderSeparator)
{
    std::string md = renderMarkdownTable(
        {{"a", "b"}, {"1", "2"}, {"3", "4"}});
    EXPECT_EQ(md, "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |\n");
    EXPECT_EQ(renderMarkdownTable({}), "");
}

TEST(Parsing, NamesRoundTrip)
{
    for (SystemKind k : allSystemKinds()) {
        SystemKind parsed;
        ASSERT_TRUE(systemKindFromName(systemKindName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    for (OpKind op : allOpKinds()) {
        OpKind parsed;
        ASSERT_TRUE(opKindFromName(opKindName(op), parsed));
        EXPECT_EQ(parsed, op);
    }
    SystemKind sink_s;
    OpKind sink_o;
    EXPECT_FALSE(systemKindFromName("gpu", sink_s));
    EXPECT_FALSE(systemKindFromName("nmp-rand", sink_s));
    EXPECT_FALSE(opKindFromName("union", sink_o));
}

// --- Resume cache: incremental reruns skip cached (config, workload)
// grid points and splice their results back byte-identically. ---

namespace {

CampaignGrid
resumeGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan), degenerateScenario(OpKind::kGroupBy)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    return grid;
}

} // namespace

TEST(Resume, CampaignJobKeyIsStableAndDiscriminating)
{
    CampaignJob base;
    base.scenario = degenerateScenario(OpKind::kJoin);
    const std::string h = campaignJobKey(base);
    EXPECT_EQ(h, campaignJobKey(base));
    // The identity is every coordinate's label at a fixed position, in
    // axis order, not a lossy digest.
    EXPECT_EQ(h, "cpu|join|15|42|4x16x8-8MiB-r256|base|0|none");

    // The geometry and exec labels are injective: every geometry field
    // and every exec-override knob distinguishes (one job per axis is
    // GridAxes.EachAxisIsValidatedLabeledAndKeyed).
    std::set<std::string> all{h};
    auto add = [&all, &base](auto mutate) {
        CampaignJob j = base;
        mutate(j);
        all.insert(campaignJobKey(j));
    };
    add([](CampaignJob &j) { j.geometry.numStacks = 2; });
    add([](CampaignJob &j) { j.geometry.vaultsPerStack = 8; });
    add([](CampaignJob &j) { j.geometry.banksPerVault = 4; });
    add([](CampaignJob &j) { j.geometry.rowBytes = 2048; });
    add([](CampaignJob &j) { j.geometry.vaultBytes = 256 * kKiB; });
    add([](CampaignJob &j) { j.exec.radixBits = 9; });
    add([](CampaignJob &j) { j.exec.readChunkBytes = 256; });
    add([](CampaignJob &j) { j.exec.tlbEntries = 16; });
    // A pipeline keys by its stage structure, not its name alone.
    add([](CampaignJob &j) {
        j.scenario.stages[0].input = StageInput::kPrevOutput;
    });
    EXPECT_EQ(all.size(), 10u); // every change distinguishes
}

TEST(Resume, FullyCachedRerunMatchesFreshReport)
{
    CampaignGrid grid = resumeGrid();
    CampaignReport fresh = CampaignRunner(grid).run(1);
    std::string fresh_json = campaignReportJson(fresh);

    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(fresh_json, err)) << err;
    EXPECT_EQ(cache.size(), grid.size());

    CampaignRunner resumed_runner(grid);
    resumed_runner.setResume(&cache);
    // No run may execute: the progress callback must never fire.
    resumed_runner.onRunDone(
        [](const CampaignRun &) { FAIL() << "cached run executed"; });
    CampaignReport resumed = resumed_runner.run(1);
    EXPECT_EQ(resumed.cachedRuns, grid.size());
    std::string resumed_json = campaignReportJson(resumed);

    // The splice contract: the runs subtree is byte-identical. (The
    // summary section is recomputed from 12-digit round-tripped values
    // and is only numerically — not bit — guaranteed; see campaign.hh.)
    auto runsSpan = [](const std::string &json) {
        JsonValue doc;
        std::string perr;
        EXPECT_TRUE(parseJson(json, doc, perr)) << perr;
        const JsonValue *runs = doc.find("runs");
        EXPECT_NE(runs, nullptr);
        return json.substr(runs->begin, runs->end - runs->begin);
    };
    EXPECT_EQ(runsSpan(resumed_json), runsSpan(fresh_json));

    ASSERT_EQ(resumed.summaries.size(), fresh.summaries.size());
    for (std::size_t i = 0; i < fresh.summaries.size(); ++i) {
        EXPECT_EQ(resumed.summaries[i].system, fresh.summaries[i].system);
        EXPECT_NEAR(resumed.summaries[i].geomeanSpeedup,
                    fresh.summaries[i].geomeanSpeedup,
                    fresh.summaries[i].geomeanSpeedup * 1e-9);
        EXPECT_NEAR(resumed.summaries[i].geomeanPerfPerWatt,
                    fresh.summaries[i].geomeanPerfPerWatt,
                    fresh.summaries[i].geomeanPerfPerWatt * 1e-9);
    }
}

TEST(Resume, SupersetGridRunsOnlyNewPoints)
{
    CampaignGrid small = resumeGrid();
    CampaignReport prior = CampaignRunner(small).run(1);
    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(campaignReportJson(prior), err)) << err;

    CampaignGrid big = small;
    big.systems.push_back(SystemKind::kNmp);
    CampaignRunner runner(big);
    runner.setResume(&cache);
    std::size_t executed = 0;
    runner.onRunDone([&executed](const CampaignRun &r) {
        ++executed;
        EXPECT_EQ(r.job.system, SystemKind::kNmp);
    });
    CampaignReport report = CampaignRunner(big).run(1); // reference
    CampaignReport resumed = runner.run(1);

    EXPECT_EQ(resumed.cachedRuns, small.size());
    EXPECT_EQ(executed, big.size() - small.size());
    // Cached and fresh points agree with an uncached full run.
    ASSERT_EQ(resumed.runs.size(), report.runs.size());
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        EXPECT_EQ(resumed.runs[i].result.totalTime,
                  report.runs[i].result.totalTime);
        EXPECT_EQ(resumed.runs[i].result.aggChecksum,
                  report.runs[i].result.aggChecksum);
    }
}

TEST(Resume, DifferentWorkloadIsNotReused)
{
    CampaignGrid grid = resumeGrid();
    CampaignReport prior = CampaignRunner(grid).run(1);
    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(campaignReportJson(prior), err)) << err;

    CampaignGrid other = grid;
    other.seeds = {7}; // different workload: nothing may be reused
    CampaignRunner runner(other);
    runner.setResume(&cache);
    CampaignReport report = runner.run(1);
    EXPECT_EQ(report.cachedRuns, 0u);

    CampaignGrid skewed = grid;
    skewed.zipfThetas = {0.5}; // same seeds, different keys: no reuse either
    CampaignRunner skew_runner(skewed);
    skew_runner.setResume(&cache);
    EXPECT_EQ(skew_runner.run(1).cachedRuns, 0u);

    CampaignGrid other_geo = grid;
    other_geo.geometries[0].vaultsPerStack = 8; // different machine: no reuse
    CampaignRunner geo_runner(other_geo);
    geo_runner.setResume(&cache);
    EXPECT_EQ(geo_runner.run(1).cachedRuns, 0u);

    CampaignGrid other_exec = grid;
    other_exec.execOverrides[0].readChunkBytes = 128; // ablated: no reuse
    CampaignRunner exec_runner(other_exec);
    exec_runner.setResume(&cache);
    EXPECT_EQ(exec_runner.run(1).cachedRuns, 0u);
}

TEST(Resume, SplicesAcrossAxisValues)
{
    // A partial sweep (one geometry) resumed into a multi-axis sweep must
    // splice the cached points and only run the new geometry's points.
    CampaignGrid one;
    one.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    one.scenarios = {degenerateScenario(OpKind::kScan)};
    one.log2Tuples = {8};
    one.seeds = {42};
    CampaignReport prior = CampaignRunner(one).run(1);
    ResumeCache cache;
    std::string err;
    ASSERT_TRUE(cache.load(campaignReportJson(prior), err)) << err;

    CampaignGrid sweep = one;
    MemGeometry narrow = defaultGeometry();
    narrow.vaultsPerStack = 8;
    sweep.geometries = {defaultGeometry(), narrow};

    CampaignRunner runner(sweep);
    runner.setResume(&cache);
    std::size_t executed = 0;
    runner.onRunDone([&executed, &narrow](const CampaignRun &r) {
        ++executed;
        EXPECT_EQ(geometryName(r.job.geometry), geometryName(narrow));
    });
    CampaignReport reference = CampaignRunner(sweep).run(1);
    CampaignReport resumed = runner.run(1);

    EXPECT_EQ(resumed.cachedRuns, one.size());
    EXPECT_EQ(executed, sweep.size() - one.size());
    EXPECT_EQ(campaignReportJson(resumed).find("\"cached\""),
              std::string::npos);
    // The spliced report's runs subtree is byte-identical to a fresh
    // full-sweep report.
    auto runsSpan = [](const std::string &json) {
        JsonValue doc;
        std::string perr;
        EXPECT_TRUE(parseJson(json, doc, perr)) << perr;
        const JsonValue *runs = doc.find("runs");
        EXPECT_NE(runs, nullptr);
        return json.substr(runs->begin, runs->end - runs->begin);
    };
    EXPECT_EQ(runsSpan(campaignReportJson(resumed)),
              runsSpan(campaignReportJson(reference)));
}

TEST(Resume, WrongTypedCoordinatesFailTheLoad)
{
    // A seed written as a string must not read as seed 0: the run would
    // be cached, and spliced, at the wrong grid point. The load fails,
    // naming the run and the member.
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    std::string json = campaignReportJson(CampaignRunner(grid).run(1));
    const std::string seed = "\"seed\": 42,";
    const std::size_t at = json.find(seed, json.find("\"runs\""));
    ASSERT_NE(at, std::string::npos);
    json.replace(at, seed.size(), "\"seed\": \"42\",");

    ResumeCache cache;
    std::string err;
    EXPECT_FALSE(cache.load(json, err));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_NE(err.find("run 0"), std::string::npos) << err;
    EXPECT_NE(err.find("\"seed\""), std::string::npos) << err;
}

namespace {

/** Mutable member lookup in a parsed document (nullptr when absent). */
JsonValue *
memberOf(JsonValue &obj, const std::string &key)
{
    for (auto &[name, value] : obj.members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

/** A grid exercising every axis, a pipeline and a traffic mix. */
CampaignGrid
richGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    Scenario chain;
    std::string err;
    EXPECT_TRUE(scenarioFromSpec("filter>reduceByKey", chain, err)) << err;
    grid.scenarios = {degenerateScenario(OpKind::kJoin), chain};
    grid.log2Tuples = {8, 9};
    grid.seeds = {42, 18446744073709551615ull};
    MemGeometry narrow = defaultGeometry();
    narrow.vaultsPerStack = 8;
    grid.geometries = {defaultGeometry(), narrow};
    ExecOverride radix;
    EXPECT_TRUE(parseExecOverride("radix=9+chunk=128", radix, err)) << err;
    grid.execOverrides = {ExecOverride{}, radix};
    grid.zipfThetas = {0.0, 0.1};
    TrafficSpec mix, fixed;
    EXPECT_TRUE(parseTrafficSpec(
        "lambda=1234.5,queries=8,warmup=2,mix=join:2+scan:1,mix-zipf=0.3",
        mix, err)) << err;
    EXPECT_TRUE(parseTrafficSpec("fixed,lambda=100,inflight=3,seed=9", fixed,
                                 err)) << err;
    grid.traffics = {TrafficSpec{}, mix, fixed};
    return grid;
}

/** The grid block of @p grid at exact doubles. */
std::string
gridBlockJson(const CampaignGrid &grid)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    writeCampaignGrid(w, grid);
    return w.str();
}

JsonValue
gridBlock(const CampaignGrid &grid)
{
    JsonValue block;
    std::string err;
    EXPECT_TRUE(parseJson(gridBlockJson(grid), block, err)) << err;
    return block;
}

} // namespace

TEST(CampaignGridBlock, RoundTripsEveryAxis)
{
    const CampaignGrid grid = richGrid();
    CampaignGrid parsed;
    std::string err;
    ASSERT_TRUE(readCampaignGrid(gridBlock(grid), parsed, err)) << err;
    ASSERT_TRUE(validateGrid(parsed, err)) << err;
    EXPECT_EQ(gridBlockJson(parsed), gridBlockJson(grid));
    // Scenarios come back from their stage lists, traffic doubles exactly.
    ASSERT_EQ(parsed.scenarios.size(), 2u);
    EXPECT_EQ(scenarioIdentity(parsed.scenarios[1]),
              scenarioIdentity(grid.scenarios[1]));
    EXPECT_EQ(parsed.traffics[1].lambdaQps, 1234.5);
    EXPECT_EQ(parsed.traffics[1].mixZipfTheta, 0.3);
    EXPECT_EQ(parsed.zipfThetas[1], 0.1);
    EXPECT_EQ(parsed.seeds[1], 18446744073709551615ull);
}

TEST(CampaignGridBlock, ReaderNamesTheAxisOfAWrongTypedMember)
{
    auto rejects = [](const std::string &axis, auto mutate) {
        JsonValue block = gridBlock(richGrid());
        mutate(block);
        CampaignGrid parsed;
        std::string err;
        EXPECT_FALSE(readCampaignGrid(block, parsed, err)) << axis;
        EXPECT_NE(err.find(axis), std::string::npos) << err;
        return err;
    };
    auto entry = [](JsonValue &block, const char *axis) -> JsonValue & {
        return memberOf(block, axis)->items.at(0);
    };

    // A string seed must not read as seed 0.
    rejects("\"seeds\" entry 0", [&](JsonValue &b) {
        entry(b, "seeds").kind = JsonValue::Kind::kString;
    });
    rejects("\"scenarios\" entry 0", [&](JsonValue &b) {
        auto &stage = memberOf(entry(b, "scenarios"), "stages")->items[0];
        stage.members.erase(stage.members.begin() + 1); // "op"
    });
    std::string err = rejects("\"scenarios\" entry 0", [&](JsonValue &b) {
        auto &stage = memberOf(entry(b, "scenarios"), "stages")->items[0];
        memberOf(stage, "input")->text = "elsewhere";
    });
    EXPECT_NE(err.find("stages[0].input"), std::string::npos) << err;
    rejects("\"log2_tuples\" entry 0", [&](JsonValue &b) {
        entry(b, "log2_tuples").text = "-1";
    });
    // The error names the system, e.g. the deleted nmp-rand of an old report.
    for (const char *name : {"gpu", "nmp-rand"}) {
        err = rejects("\"systems\" entry 0", [&](JsonValue &b) {
            entry(b, "systems").text = name;
        });
        EXPECT_NE(err.find(std::string("unknown system '") + name + "'"),
                  std::string::npos)
            << err;
    }
    // Each labeled entry must rebuild to its own label.
    err = rejects("\"geometries\" entry 0", [&](JsonValue &b) {
        memberOf(entry(b, "geometries"), "stacks")->text = "2";
    });
    EXPECT_NE(err.find("does not match"), std::string::npos) << err;
    rejects("\"exec_overrides\" entry 1", [&](JsonValue &b) {
        memberOf(memberOf(b, "exec_overrides")->items[1], "radix_bits")
            ->kind = JsonValue::Kind::kString;
    });
    rejects("\"traffics\" entry 1", [&](JsonValue &b) {
        memberOf(memberOf(b, "traffics")->items[1], "queries")->kind =
            JsonValue::Kind::kString;
    });
    rejects("\"traffics\" entry 1", [&](JsonValue &b) {
        memberOf(memberOf(b, "traffics")->items[1], "lambda_qps")->number =
            99.0;
    });
    rejects("\"zipf_thetas\"", [&](JsonValue &b) {
        memberOf(b, "zipf_thetas")->kind = JsonValue::Kind::kObject;
    });
    rejects("\"total_runs\"", [&](JsonValue &b) {
        memberOf(b, "total_runs")->text = "7";
    });
}

TEST(Resume, MalformedGridBlockFailsTheLoad)
{
    // A grid-table scenario without "op" fails the whole load, naming
    // the axis, instead of silently skipping every run that names it.
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    std::string json = campaignReportJson(CampaignRunner(grid).run(1));
    const std::string op = "\"op\": \"scan\",";
    const std::size_t at = json.find(op);
    ASSERT_LT(at, json.find("\"runs\""));
    json.erase(at, op.size());

    ResumeCache cache;
    std::string err;
    EXPECT_FALSE(cache.load(json, err));
    EXPECT_NE(err.find("grid axis \"scenarios\" entry 0"), std::string::npos)
        << err;
    EXPECT_NE(err.find("\"stages[0].op\""), std::string::npos) << err;
    EXPECT_EQ(cache.size(), 0u);
}

TEST(Campaign, BaselinePairingIsPerAxisPoint)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    MemGeometry narrow = defaultGeometry();
    narrow.vaultsPerStack = 8;
    grid.geometries = {defaultGeometry(), narrow};

    CampaignReport report = CampaignRunner(grid).run(1);
    auto base = baselineIndex(report.runs, SystemKind::kCpu);
    ASSERT_EQ(base.size(), 2u); // one cpu baseline per geometry point
    for (const auto &r : report.runs) {
        auto it = base.find(gridGroupKey(r));
        ASSERT_NE(it, base.end());
        EXPECT_EQ(geometryName(it->second->job.geometry),
                  geometryName(r.job.geometry));
    }
    // Summaries geomean across both geometry points.
    ASSERT_EQ(report.summaries.size(), 1u);
    EXPECT_EQ(report.summaries[0].runs, 2u);
}

TEST(Campaign, DryRunListsAxesWithoutSimulating)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    grid.zipfThetas = {0.0, 0.75};

    std::string listing = campaignDryRun(grid);
    EXPECT_NE(listing.find("4 runs"), std::string::npos);
    EXPECT_NE(listing.find("geo=4x16x8-8MiB-r256"), std::string::npos);
    EXPECT_NE(listing.find("exec=base"), std::string::npos);
    EXPECT_NE(listing.find("zipf=0.75"), std::string::npos);
    EXPECT_NE(listing.find("baseline"), std::string::npos);
    EXPECT_NE(listing.find("vs [0]"), std::string::npos);
    EXPECT_NE(listing.find("2 baseline-paired"), std::string::npos);

    CampaignGrid bad = grid;
    bad.scenarios.clear();
    EXPECT_THROW(campaignDryRun(bad), std::invalid_argument);
}

TEST(Resume, RejectsForeignDocuments)
{
    ResumeCache cache;
    std::string err;
    EXPECT_FALSE(cache.load("{\"schema\": \"something-else\"}", err));
    EXPECT_FALSE(cache.load("not json at all", err));
    EXPECT_FALSE(cache.load("", err));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.member("name", "x\"y\\z\n");
    w.member("count", std::uint64_t{18446744073709551615ull});
    w.member("ratio", -0.125);
    w.member("flag", true);
    w.key("list").beginArray();
    w.value(std::uint64_t{1});
    w.value("two");
    w.endArray();
    w.endObject();

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), doc, err)) << err;
    EXPECT_EQ(doc.find("name")->text, "x\"y\\z\n");
    std::uint64_t count = 0;
    EXPECT_TRUE(readUint(doc.find("count"), count));
    EXPECT_EQ(count, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(doc.find("ratio")->number, -0.125);
    EXPECT_TRUE(doc.find("flag")->boolean);
    ASSERT_TRUE(doc.find("list")->isArray());
    EXPECT_EQ(doc.find("list")->items.size(), 2u);
    // Spans reproduce the source text verbatim.
    const JsonValue *list = doc.find("list");
    EXPECT_EQ(w.str().substr(list->begin, list->end - list->begin),
              "[\n    1,\n    \"two\"\n  ]");
}

TEST(JsonParse, UnescapeDecodesUnicodeEscapes)
{
    std::string out, err;
    // BMP code points become UTF-8 (1/2/3-byte forms).
    ASSERT_TRUE(jsonUnescape("caf\\u00e9", out, err)) << err;
    EXPECT_EQ(out, "caf\xc3\xa9");
    ASSERT_TRUE(jsonUnescape("\\u0041\\u07ff\\uffff", out, err)) << err;
    EXPECT_EQ(out, "A\xdf\xbf\xef\xbf\xbf");
    // A surrogate pair is one supplementary code point (U+1F600).
    ASSERT_TRUE(jsonUnescape("\\ud83d\\ude00", out, err)) << err;
    EXPECT_EQ(out, "\xf0\x9f\x98\x80");

    EXPECT_FALSE(jsonUnescape("\\ud83d", out, err));   // unpaired high
    EXPECT_FALSE(jsonUnescape("\\ude00x", out, err));  // unpaired low
    EXPECT_FALSE(jsonUnescape("\\uZZZZ", out, err));   // bad hex
    EXPECT_FALSE(jsonUnescape("\\u00", out, err));     // short hex
    EXPECT_FALSE(jsonUnescape("\\q", out, err));       // unknown escape
    EXPECT_FALSE(jsonUnescape("\\", out, err));        // dangling
}

TEST(JsonParse, StringsRoundTripTheWriterEscaper)
{
    // Every escape JsonWriter emits — quotes, backslash, \n\t\r, and
    // \u00XX for other control codes — decodes back to the original
    // bytes, so report strings survive a write/parse cycle exactly.
    std::string original = "a\"b\\c\nd\te\rf";
    original += '\x01';
    original += '\x1f';
    JsonWriter w;
    w.beginObject();
    w.member("s", original);
    w.endObject();

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), doc, err)) << err;
    EXPECT_EQ(doc.find("s")->text, original);
}

TEST(JsonParse, DocumentsDecodeUnicodeEscapes)
{
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(
        parseJson("{\"k\": \"\\u00e9 \\ud83d\\ude00\"}", doc, err))
        << err;
    EXPECT_EQ(doc.find("k")->text, "\xc3\xa9 \xf0\x9f\x98\x80");
    // Malformed escapes now fail the parse instead of mangling bytes.
    EXPECT_FALSE(parseJson("{\"k\": \"\\ud800\"}", doc, err));
    EXPECT_FALSE(parseJson("{\"k\": \"\\uqqqq\"}", doc, err));
}
