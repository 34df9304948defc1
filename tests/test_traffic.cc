/** @file Open-loop traffic: specs, arrivals, served metrics, oracles. */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/stats.hh"
#include "system/campaign.hh"
#include "system/machine.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/traffic.hh"

#include <cmath>
#include <string>
#include <vector>

#include "malformed_numbers.hh"

using namespace mondrian;

namespace {

WorkloadConfig
smallWorkload()
{
    WorkloadConfig wl;
    wl.tuples = 1u << 10;
    wl.seed = 7;
    return wl;
}

/**
 * The single-query run replayed phase by phase, with no served
 * plumbing: prepare, Machine::runPhase per phase, then fold each stage
 * and finish.
 */
RunResult
replayPhaseByPhase(const WorkloadConfig &wl, const SystemConfig &sys,
                   const Scenario &scenario)
{
    MemoryPool pool(sys.geo);
    PreparedScenario ps = prepareScenario(pool, wl, sys, scenario);
    Machine machine(sys, pool);
    RunResult res;
    res.system = sys.name;
    res.op = scenario.name;
    const double vaults = static_cast<double>(sys.geo.totalVaults());
    EnergyBreakdown prev_energy;
    for (std::size_t i = 0; i < ps.execs.size(); ++i) {
        std::vector<PhaseResult> phases;
        for (const PhaseExec &phase : ps.execs[i].phases)
            phases.push_back(machine.runPhase(phase));
        accumulateStage(res, ps, i, std::move(phases), vaults,
                        machine.energy(), prev_energy);
    }
    finishRunResult(res, vaults, machine.energyActivity(), machine.energy());
    res.simEvents = machine.simEvents();
    return res;
}

TrafficSpec
parseOrDie(const std::string &spec)
{
    TrafficSpec t;
    std::string err;
    EXPECT_TRUE(parseTrafficSpec(spec, t, err)) << spec << ": " << err;
    EXPECT_EQ(validateTrafficSpec(t), "") << spec;
    return t;
}

} // namespace

TEST(TrafficSpec, ParseAndCanonicalName)
{
    TrafficSpec none = parseOrDie("none");
    EXPECT_TRUE(none.degenerate());
    EXPECT_EQ(none.name(), "none");

    TrafficSpec t = parseOrDie("poisson,lambda=2000,queries=32,seed=9");
    EXPECT_FALSE(t.degenerate());
    EXPECT_EQ(t.process, ArrivalProcess::kPoisson);
    EXPECT_DOUBLE_EQ(t.lambdaQps, 2000.0);
    EXPECT_EQ(t.queries, 32u);
    EXPECT_EQ(t.seed, 9u);
    EXPECT_EQ(t.name(), "poisson-l2000-q32-s9");

    TrafficSpec f =
        parseOrDie("fixed,lambda=500,queries=8,warmup=2,inflight=3");
    EXPECT_EQ(f.process, ArrivalProcess::kFixed);
    EXPECT_EQ(f.warmup, 2u);
    EXPECT_EQ(f.maxInFlight, 3u);
    EXPECT_EQ(f.name(), "fixed-l500-q8-w2-i3-s1");

    // The canonical name re-parses to the same spec (name is the resume
    // identity, so this round-trip is load-bearing).
    TrafficSpec f2 = parseOrDie(f.name().substr(0, 0) +
                                "fixed,lambda=500,queries=8,warmup=2,"
                                "inflight=3,seed=1");
    EXPECT_EQ(f2.name(), f.name());
}

TEST(TrafficSpec, ParseMixWithWeights)
{
    TrafficSpec t = parseOrDie(
        "poisson,lambda=1000,queries=16,mix=scan:3+join:1,mix-zipf=0.5");
    ASSERT_EQ(t.mix.size(), 2u);
    EXPECT_EQ(t.mix[0].scenario.name, "scan");
    EXPECT_DOUBLE_EQ(t.mix[0].weight, 3.0);
    EXPECT_EQ(t.mix[1].scenario.name, "join");
    EXPECT_DOUBLE_EQ(t.mix[1].weight, 1.0);
    EXPECT_DOUBLE_EQ(t.mixZipfTheta, 0.5);
    EXPECT_EQ(t.name(),
              "poisson-l1000-q16-s1-mix=scan:3+join:1-mz0.5");
}

TEST(TrafficSpec, RejectsMalformedSpecs)
{
    // parseTrafficSpec validates internally, so every malformed spec —
    // lexical or semantic — is rejected at parse time.
    TrafficSpec t;
    std::string err;
    EXPECT_FALSE(parseTrafficSpec("", t, err));
    EXPECT_FALSE(parseTrafficSpec("bogus", t, err));
    EXPECT_FALSE(parseTrafficSpec("lambda=abc", t, err));
    EXPECT_FALSE(parseTrafficSpec("mix=scan:0", t, err)) << err;
    EXPECT_FALSE(parseTrafficSpec("lambda=1000,queries=0", t, err));
    EXPECT_FALSE(parseTrafficSpec("lambda=1000,queries=4,warmup=4", t, err));
    EXPECT_FALSE(parseTrafficSpec("lambda=-5", t, err));
    // A spec that smuggles served knobs next to lambda=0 would silently
    // ignore them — rejected rather than misread.
    EXPECT_FALSE(parseTrafficSpec("lambda=0,inflight=4", t, err));
    // Integers are plain decimal digits in range: strtoull alone wraps
    // "-1", saturates an overflow and skips a leading blank. Doubles are
    // finite: NaN fails every comparison, so it passed the theta range.
    for (const char *bad :
         {"lambda=1000,queries=-1",
          "lambda=1000,queries=99999999999999999999999",
          "lambda=1000,inflight=-1", "lambda=1000,queries= 4",
          "lambda=1000,mix=scan:1+join:1,mix-zipf=nan",
          "lambda=nan", "lambda=1000,mix=scan:inf"})
        EXPECT_FALSE(parseTrafficSpec(bad, t, err)) << bad;
    // Every malformed form in every numeric slot, the error naming it.
    struct Slot
    {
        const char *name, *before, *good, *after;
        bool real;
    };
    for (const Slot &slot : std::vector<Slot>{
             {"lambda", "lambda=", "1000", ",queries=4", true},
             {"queries", "lambda=1000,queries=", "4", "", false},
             {"warmup", "lambda=1000,queries=4,warmup=", "1", "", false},
             {"inflight", "lambda=1000,inflight=", "2", "", false},
             {"seed", "lambda=1000,seed=", "3", "", false},
             {"mix", "lambda=1000,mix=scan:", "2", "+join:1", true},
             {"mix-zipf", "lambda=1000,mix=scan:1+join:1,mix-zipf=", "0.5",
              "", true}}) {
        const std::string good =
            std::string(slot.before) + slot.good + slot.after;
        EXPECT_TRUE(parseTrafficSpec(good, t, err)) << good << ": " << err;
        for (const std::string &value :
             malformedNumbers(slot.good, slot.real)) {
            const std::string spec = slot.before + value + slot.after;
            EXPECT_FALSE(parseTrafficSpec(spec, t, err)) << spec;
            EXPECT_NE(err.find(slot.name), std::string::npos) << err;
        }
    }

    // The arrival schedule is allocated whole before the run, so queries
    // is bounded at parse time rather than failing mid-campaign.
    EXPECT_TRUE(parseTrafficSpec("lambda=1000,queries=1048576", t, err))
        << err;
    for (const char *big : {"lambda=1000,queries=1048577",
                            "lambda=1000,queries=18446744073709551615"}) {
        EXPECT_FALSE(parseTrafficSpec(big, t, err)) << big;
        EXPECT_NE(err.find("queries"), std::string::npos) << err;
    }

    // A finite rate so low that the arrival schedule passes
    // kMaxArrivalTick (a gap of 1e-300 qps has no llround value at all)
    // is refused at parse time, naming lambda, not panicked on mid-run.
    for (const char *slow :
         {"lambda=1e-300,queries=2", "fixed,lambda=1e-7,queries=2",
          "fixed,lambda=2e-7,queries=2", "poisson,lambda=1e-9,queries=64"}) {
        EXPECT_FALSE(parseTrafficSpec(slow, t, err)) << slow;
        EXPECT_NE(err.find("lambda"), std::string::npos) << err;
    }
    // Fixed gaps of 0.95 * 2^61 ps: two fit under the limit, three do not.
    TrafficSpec edge;
    edge.process = ArrivalProcess::kFixed;
    edge.lambdaQps = static_cast<double>(kSecond) /
                     (0.95 * static_cast<double>(kMaxArrivalTick / 2));
    edge.queries = 2;
    EXPECT_EQ(validateTrafficSpec(edge), "");
    EXPECT_LE(generateArrivals(edge).back().at, kMaxArrivalTick);
    EXPECT_GT(generateArrivals(edge).back().at, kMaxArrivalTick / 2 * 3 / 2);
    edge.queries = 3;
    EXPECT_NE(validateTrafficSpec(edge).find("lambda"), std::string::npos);

    // validateTrafficSpec also works standalone on constructed specs.
    TrafficSpec bad;
    bad.lambdaQps = 1000.0;
    bad.queries = 4;
    bad.warmup = 4;
    EXPECT_NE(validateTrafficSpec(bad), "");
    bad = TrafficSpec{};
    bad.lambdaQps = 1000.0;
    bad.mix = parseOrDie("lambda=1000,mix=scan:1+join:1").mix;
    bad.mixZipfTheta = 2.5;
    EXPECT_EQ(validateTrafficSpec(bad), "traffic mix-zipf must be in [0, 2)");
    bad.mixZipfTheta = std::nan("");
    EXPECT_EQ(validateTrafficSpec(bad), "traffic mix-zipf must be in [0, 2)");
}

TEST(TrafficSpec, RejectsMixZipfWithoutMix)
{
    // With one scenario type no arrival draws a type, so the skew would
    // only relabel an identical point (and the grid block drops it).
    TrafficSpec t;
    std::string err;
    EXPECT_FALSE(parseTrafficSpec("lambda=1000,mix-zipf=0.5", t, err));
    EXPECT_EQ(err, "traffic mix-zipf needs a mix");
    parseOrDie("lambda=1000,mix=scan:1,mix-zipf=0.5");
}

TEST(Arrivals, DeterministicAndSeedSensitive)
{
    TrafficSpec t = parseOrDie("poisson,lambda=5000,queries=64,seed=3");
    std::vector<Arrival> a = generateArrivals(t);
    std::vector<Arrival> b = generateArrivals(t);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(b.size(), 64u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at) << i;
        EXPECT_EQ(a[i].type, b[i].type) << i;
    }
    // Arrival ticks are non-decreasing (gaps are non-negative).
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].at, a[i - 1].at) << i;

    TrafficSpec t2 = t;
    t2.seed = 4;
    std::vector<Arrival> c = generateArrivals(t2);
    bool any_differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_differs = any_differs || a[i].at != c[i].at;
    EXPECT_TRUE(any_differs);
}

TEST(Arrivals, FixedProcessHasExactGaps)
{
    // lambda = 1e6 QPS -> gap = 1 us = 1e6 ps exactly. Every arrival —
    // the first included — comes one gap after its predecessor, the
    // same gap-first draw order the Poisson process uses.
    TrafficSpec t = parseOrDie("fixed,lambda=1000000,queries=8");
    std::vector<Arrival> a = generateArrivals(t);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].at, (i + 1) * 1000000u) << i;
}

TEST(Arrivals, DegenerateIsOneArrivalAtZero)
{
    std::vector<Arrival> a = generateArrivals(TrafficSpec{});
    ASSERT_EQ(a.size(), 1u);
    EXPECT_EQ(a[0].at, 0u);
    EXPECT_EQ(a[0].type, 0u);
}

TEST(Arrivals, MixZipfSkewsTowardFirstEntry)
{
    // Equal declared weights, strong zipf skew: entry 0 must dominate.
    TrafficSpec t = parseOrDie(
        "poisson,lambda=1000,queries=512,mix=scan:1+join:1,mix-zipf=1.5");
    std::vector<Arrival> a = generateArrivals(t);
    std::size_t first = 0;
    for (const Arrival &ar : a)
        first += ar.type == 0 ? 1 : 0;
    EXPECT_GT(first, a.size() / 2);
    EXPECT_LT(first, a.size()); // but not exclusively entry 0
}

TEST(LatencySampleStats, NearestRankPercentiles)
{
    // Hand-computed nearest-rank fixture: N = 10 samples 10..100.
    LatencySample s;
    for (Tick v : {30u, 10u, 50u, 20u, 40u, 70u, 60u, 90u, 80u, 100u})
        s.record(v);
    EXPECT_EQ(s.count(), 10u);
    // rank = ceil(p/100 * 10): p50 -> 5th (50), p95 -> 10th (100),
    // p99 -> 10th (100), p10 -> 1st (10).
    EXPECT_EQ(s.percentile(50.0), 50u);
    EXPECT_EQ(s.percentile(95.0), 100u);
    EXPECT_EQ(s.percentile(99.0), 100u);
    EXPECT_EQ(s.percentile(10.0), 10u);
    EXPECT_EQ(s.max(), 100u);
    EXPECT_DOUBLE_EQ(s.mean(), 55.0);

    LatencySample one;
    one.record(42);
    EXPECT_EQ(one.percentile(50.0), 42u);
    EXPECT_EQ(one.percentile(99.0), 42u);
}

TEST(ServedRunner, DegenerateTrafficMatchesRunnerByteForByte)
{
    // THE correctness oracle: a single arrival at tick 0 through the
    // full served plumbing must reproduce a plain phase-by-phase replay
    // exactly — same simulated machine, same event order, same JSON
    // bytes.
    Scenario sessions;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("sessions", sessions, err)) << err;

    for (SystemKind k : {SystemKind::kCpu, SystemKind::kMondrian}) {
        RunResult direct =
            replayPhaseByPhase(smallWorkload(), makeSystem(k), sessions);

        ServedRunner served(smallWorkload());
        RunResult via_traffic = served.run(makeSystem(k), sessions);

        EXPECT_EQ(runResultJson(direct), runResultJson(via_traffic))
            << systemKindName(k);
        EXPECT_FALSE(via_traffic.served.valid);
    }
}

TEST(ServedRunner, OpenLoopAccountingAndDeterminism)
{
    Scenario scan;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("scan", scan, err)) << err;
    TrafficSpec t = parseOrDie("poisson,lambda=100000,queries=12,seed=5");

    ServedRunner served(smallWorkload(), t);
    RunResult a = served.run(makeSystem(SystemKind::kMondrian), scan);
    ASSERT_TRUE(a.served.valid);
    EXPECT_EQ(a.served.offered, 12u);
    EXPECT_EQ(a.served.admitted, 12u);
    EXPECT_EQ(a.served.rejected, 0u);
    EXPECT_EQ(a.served.completed, 12u);
    EXPECT_EQ(a.served.measuredCompleted, 12u);
    EXPECT_GT(a.served.sustainedQps, 0.0);
    EXPECT_GT(a.served.latencyP50, 0u);
    EXPECT_LE(a.served.latencyP50, a.served.latencyP95);
    EXPECT_LE(a.served.latencyP95, a.served.latencyP99);
    EXPECT_LE(a.served.latencyP99, a.served.latencyMax);
    EXPECT_GT(a.served.energyPerQueryJ, 0.0);

    // A served run is a pure function of (system, workload, traffic).
    ServedRunner served2(smallWorkload(), t);
    RunResult b = served2.run(makeSystem(SystemKind::kMondrian), scan);
    EXPECT_EQ(runResultJson(a), runResultJson(b));
}

TEST(ServedRunner, AdmissionCapRejectsAndBalances)
{
    Scenario join;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("join", join, err)) << err;
    // Absurdly high arrival rate + cap 1: all queries arrive while the
    // first is still running, so all but the admitted few are rejected.
    TrafficSpec t = parseOrDie(
        "poisson,lambda=100000000,queries=16,inflight=1,seed=2");

    ServedRunner served(smallWorkload(), t);
    RunResult r = served.run(makeSystem(SystemKind::kMondrian), join);
    ASSERT_TRUE(r.served.valid);
    EXPECT_EQ(r.served.offered, 16u);
    EXPECT_GT(r.served.rejected, 0u);
    EXPECT_EQ(r.served.admitted + r.served.rejected, r.served.offered);
    EXPECT_EQ(r.served.completed, r.served.admitted);
}

TEST(ServedRunner, WarmupExcludesEarlyQueries)
{
    Scenario scan;
    std::string err;
    ASSERT_TRUE(scenarioFromSpec("scan", scan, err)) << err;
    TrafficSpec t =
        parseOrDie("poisson,lambda=50000,queries=10,warmup=4,seed=1");

    ServedRunner served(smallWorkload(), t);
    RunResult r = served.run(makeSystem(SystemKind::kMondrian), scan);
    ASSERT_TRUE(r.served.valid);
    EXPECT_EQ(r.served.completed, 10u);
    EXPECT_EQ(r.served.measuredCompleted, 6u);
}

TEST(ServedReport, V4RoundTripThroughModelAndResume)
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    grid.traffics = {parseOrDie("poisson,lambda=200000,queries=6")};

    CampaignRunner campaign(grid);
    CampaignReport report = campaign.run(1);
    std::string json = campaignReportJson(report);
    EXPECT_NE(json.find("\"schema\": \"mondrian-campaign-v4\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traffics\""), std::string::npos);
    EXPECT_NE(json.find("\"served\""), std::string::npos);

    // Report round-trip: traffic points and served metrics survive.
    CampaignReport m;
    std::string err;
    ASSERT_TRUE(readCampaignReport(json, m, err)) << err;
    EXPECT_EQ(campaignReportJson(m), json);
    ASSERT_EQ(m.runs.size(), 2u);
    ASSERT_EQ(m.grid.traffics.size(), 1u);
    EXPECT_EQ(m.grid.traffics[0].name(), "poisson-l200000-q6-s1");
    for (const CampaignRun &r : m.runs) {
        EXPECT_EQ(r.job.traffic.name(), "poisson-l200000-q6-s1");
        EXPECT_TRUE(r.result.served.valid);
        EXPECT_EQ(r.result.served.offered, 6u);
    }

    // Resume round-trip: a served report fully caches its own grid.
    ResumeCache cache;
    ASSERT_TRUE(cache.load(json, err)) << err;
    EXPECT_EQ(cache.size(), 2u);
    CampaignRunner resumed(grid);
    resumed.setResume(&cache);
    CampaignReport again = resumed.run(1);
    EXPECT_EQ(again.cachedRuns, 2u);
}
