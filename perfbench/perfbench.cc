/**
 * @file
 * End-to-end benchmark of the Mondrian simulator, with a traced
 * per-layer split.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --worker-bin PATH/TO/mondrian_campaign [--setup-only 0|1]
 *
 * --trace 0 repeats the workload for S seconds and reports the end-to-end
 * metrics but setup_s (medians over the passes). --setup-only 1 measures
 * only set-up, in this fresh process, and prints {"setup_s": seconds};
 * run.py averages several such processes. --trace 1 runs the workload
 * untraced, then traced, and reports the per-layer metrics. Every
 * layer is timed from outside, around calls into its public functions;
 * nothing inside the library is instrumented. README.md in this directory
 * lists the workloads, the metrics and the committed baseline.
 *
 * Progress and a readable table go to stderr. The last stdout line is one
 * JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
 * is 1 when the output check failed and 2 on a usage or set-up error.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "engine/workload.hh"
#include "sim/thread_pool.hh"
#include "system/campaign.hh"
#include "system/coordinator.hh"
#include "system/machine.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** User plus system CPU seconds of this process so far. */
double
selfCpuSeconds()
{
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(self.ru_utime) + secs(self.ru_stime);
}

double
peakRssMb()
{
    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0)
        fatal("sched_getaffinity failed");
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    }
    return cpus;
}

/** Keep this process, and the processes it starts, on @p cpus. */
void
setAffinity(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    if (::sched_setaffinity(0, sizeof(set), &set) != 0)
        std::perror("perfbench: sched_setaffinity");
}

/** Keeps set-up results observable so the timed calls cannot be elided. */
volatile std::size_t g_sink = 0;

// ------------------------------------------------------------- workloads

// Sizes keep every pass of a workload at 1.2-2.5 s on a 4-vCPU x86-64 VM,
// so that a run's medians are over ten or more passes. Longer passes (2^20
// grids, 7,168 fleet jobs) left one or two passes per run and let the
// host's drift through.

/** log2 |S| of the smoke grid. */
constexpr unsigned kSmokeLog2 = 17;
/** log2 |S| of the mondrian pipelines. */
constexpr unsigned kPipelineLog2 = 18;
/** Pipe workers of the fleet workload; with the coordinator, 4 processes. */
constexpr unsigned kFleetWorkers = 3;
/** Workload seeds of the fleet grid (7 systems x 4 ops x this). */
constexpr std::uint64_t kFleetSeeds = 64;
/** Set-up samples per CPU; setup_s is the median over all CPUs. */
constexpr int kSetupSamples = 25;
/** A set-up sample repeats the set-up calls for at least this long. */
constexpr double kSetupSampleS = 2e-3;
/** Fleet worker start-up samples; setup_s adds their median. */
constexpr int kStartupSamples = 15;

struct Workload
{
    CampaignGrid grid;
    /** Run through CampaignCoordinator with local pipe workers instead of
     *  a serial in-process CampaignRunner. */
    bool fleet = false;
};

Scenario
scenarioOf(const std::string &spec)
{
    Scenario sc;
    std::string error;
    if (!scenarioFromSpec(spec, sc, error))
        fatal("scenario '%s': %s", spec.c_str(), error.c_str());
    return sc;
}

/** The grid of workload @p name; every input derives from @p seed. */
bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    if (name == "smoke17") {
        w.grid = smokeGrid();
        w.grid.log2Tuples = {kSmokeLog2};
        w.grid.seeds = {seed};
    } else if (name == "pipeline-mondrian") {
        w.grid.systems = {SystemKind::kMondrian};
        for (const char *s : {"sessions", "sort", "groupby", "join"})
            w.grid.scenarios.push_back(scenarioOf(s));
        w.grid.log2Tuples = {kPipelineLog2};
        w.grid.seeds = {seed};
    } else if (name == "served-mix") {
        w.grid.systems = {SystemKind::kMondrian};
        w.grid.scenarios = {scenarioOf("join")};
        w.grid.log2Tuples = {12};
        w.grid.seeds = {seed};
        // The arrival schedule (ticks and query types) keeps the spec's
        // default seed: with 32 queries, re-drawing the mix per seed
        // changed host time by up to 60%, so the seed varies the data.
        TrafficSpec traffic;
        std::string error;
        const std::string spec =
            "poisson,lambda=20000,queries=8,warmup=2,inflight=8,"
            "mix=join:2+scan:4+groupby:2+sessions:1,mix-zipf=0.5";
        if (!parseTrafficSpec(spec, traffic, error))
            fatal("traffic '%s': %s", spec.c_str(), error.c_str());
        w.grid.traffics = {traffic};
    } else if (name == "fleet") {
        w.grid = paperGrid(10);
        w.grid.seeds.clear();
        for (std::uint64_t i = 0; i < kFleetSeeds; ++i)
            w.grid.seeds.push_back(seed * kFleetSeeds + i);
        w.fleet = true;
    } else {
        return false;
    }
    return true;
}

// ---------------------------------------------------------- output check

/** Grid points checked and failed, over every pass of a run. */
struct Check
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    fail(std::size_t points, const std::string &why)
    {
        if (failed < 20)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
        failed += points;
    }
};

std::string
runLabel(const CampaignJob &job)
{
    return std::string(systemKindName(job.system)) + "/" + job.scenario.name +
           " seed " + std::to_string(job.seed);
}

using Functional = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                              std::uint64_t>;

Functional
functionalOf(const RunResult &r)
{
    return {r.scanMatches, r.joinMatches, r.groupCount, r.aggChecksum};
}

/**
 * Check one report: every grid point present and not in failed_runs, a
 * foreign-key join matches every probe tuple exactly once, all systems
 * of a grid point agree on the functional outputs, and the report bytes
 * equal @p reference (an earlier repetition, or the oracle's report).
 */
void
checkReport(const CampaignReport &rep, const std::string &json,
            const std::string &reference, Check &check)
{
    const std::size_t points = rep.grid.size();
    check.attempted += points;
    if (rep.runs.size() != points) {
        check.fail(points, "report holds " + std::to_string(rep.runs.size()) +
                               " of " + std::to_string(points) + " runs");
        return;
    }
    std::vector<std::string> bad(points);
    for (const FailedRun &f : rep.failedRuns) {
        if (f.index < points)
            bad[f.index] = "listed in failed_runs: " + f.error;
    }
    std::map<GridGroupKey, std::size_t> first;
    for (std::size_t i = 0; i < points; ++i) {
        const CampaignRun &run = rep.runs[i];
        if (run.failed) {
            bad[i] = "missing";
            continue;
        }
        const RunResult &r = run.result;
        const std::uint64_t s_tuples = std::uint64_t{1} << run.job.log2Tuples;
        if (run.job.traffic.degenerate() && run.job.scenario.degenerate() &&
            run.job.scenario.stages[0].op == OpKind::kJoin &&
            r.joinMatches != s_tuples)
            bad[i] = "join matches " + std::to_string(r.joinMatches) +
                     " != |S| " + std::to_string(s_tuples);
        for (const StageResult &st : r.stages) {
            if (st.op == "join" && st.joinMatches != st.inputTuples)
                bad[i] = "stage join matches != its input tuples";
        }
        const auto [it, inserted] = first.try_emplace(gridGroupKey(run), i);
        if (!inserted &&
            functionalOf(r) != functionalOf(rep.runs[it->second].result))
            bad[i] = "functional outputs differ from " +
                     runLabel(rep.runs[it->second].job);
    }
    if (json != reference) {
        check.fail(points, "report bytes differ from the reference report");
        return;
    }
    for (std::size_t i = 0; i < points; ++i) {
        if (!bad[i].empty())
            check.fail(1, runLabel(rep.runs[i].job) + ": " + bad[i]);
    }
}

/**
 * Served runs sum the functional outputs of each mix type once. Recompute
 * those sums with prepareScenario outside the ServedRunner, and check each
 * type's join stages against their probe-side tuple counts.
 */
void
checkServed(const CampaignReport &rep, Check &check)
{
    for (const CampaignRun &run : rep.runs) {
        if (run.failed || run.job.traffic.degenerate())
            continue;
        check.attempted++;
        const SystemConfig sys = run.job.systemConfig();
        const WorkloadConfig wl = run.job.workload();
        MemoryPool pool(sys.geo);
        RunResult expect;
        bool joins_ok = true;
        for (const TrafficMixEntry &e : run.job.traffic.mix) {
            const PreparedScenario ps =
                prepareScenario(pool, wl, sys, e.scenario);
            for (std::size_t i = 0; i < ps.execs.size(); ++i) {
                const OperatorExecution &ex = ps.execs[i];
                expect.scanMatches += ex.scanMatches;
                expect.joinMatches += ex.joinMatches;
                expect.groupCount += ex.groupCount;
                expect.aggChecksum += ex.aggChecksum;
                if (ps.scenario.stages[i].op == OpKind::kJoin &&
                    ex.joinMatches != ps.inputTuples[i])
                    joins_ok = false;
            }
        }
        if (!joins_ok)
            check.fail(1, runLabel(run.job) + ": served join matches != |S|");
        else if (functionalOf(expect) != functionalOf(run.result))
            check.fail(1, runLabel(run.job) +
                              ": served functional sums differ from the "
                              "prepared mix types");
    }
}

/** Simulated outputs; a pure performance change leaves them bit-identical. */
struct Model
{
    double simTimePs = 0.0;
    double energyJ = 0.0;
    double speedupJoin = 0.0; ///< cpu / mondrian total time, join runs
    double servedP50Us = 0.0;
    double servedP99Us = 0.0;
    double servedQps = 0.0;

    bool operator==(const Model &) const = default;
};

Model
modelOf(const CampaignReport &rep)
{
    Model m;
    double cpu_join = 0.0, mondrian_join = 0.0;
    for (const CampaignRun &run : rep.runs) {
        if (run.failed)
            continue;
        const RunResult &r = run.result;
        m.simTimePs += static_cast<double>(r.totalTime);
        m.energyJ += r.energy.total();
        if (run.job.scenario.name == "join" && run.job.traffic.degenerate()) {
            if (run.job.system == SystemKind::kCpu)
                cpu_join += static_cast<double>(r.totalTime);
            else if (run.job.system == SystemKind::kMondrian)
                mondrian_join += static_cast<double>(r.totalTime);
        }
        if (r.served.valid) {
            const double us = static_cast<double>(kMicrosecond);
            m.servedP50Us = static_cast<double>(r.served.latencyP50) / us;
            m.servedP99Us = static_cast<double>(r.served.latencyP99) / us;
            m.servedQps = r.served.sustainedQps;
        }
    }
    if (cpu_join > 0.0 && mondrian_join > 0.0)
        m.speedupJoin = cpu_join / mondrian_join;
    return m;
}

std::uint64_t
simEventsOf(const CampaignReport &rep)
{
    std::uint64_t events = 0;
    for (const CampaignRun &run : rep.runs)
        events += run.result.simEvents;
    return events;
}

// ------------------------------------------------------ untraced passes

/** One untraced execution of a workload's grid, report included. */
struct Pass
{
    CampaignReport report;
    std::string json;
    double wallS = 0.0;
    /** Fleet: gaps between consecutive results, in ms. */
    std::vector<double> resultGapsMs;
    /** Fleet: CPU seconds of the coordinator process itself. */
    double coordinatorCpuS = 0.0;
};

/** CampaignRunner::run(@p threads) plus the report. */
Pass
runnerPass(const CampaignGrid &grid, unsigned threads)
{
    Pass p;
    const auto t0 = Clock::now();
    p.report = CampaignRunner(grid).run(threads);
    p.json = campaignReportJson(p.report);
    p.wallS = secondsSince(t0);
    return p;
}

/** CampaignCoordinator::run with local pipe workers, plus the report. */
Pass
coordinatorPass(const CampaignGrid &grid, const std::string &worker_bin)
{
    Pass p;
    const double cpu0 = selfCpuSeconds();
    const auto t0 = Clock::now();
    CoordinatorConfig cfg;
    cfg.workers = kFleetWorkers;
    cfg.workerCommand = {worker_bin};
    CampaignCoordinator coord(grid, cfg);
    Clock::time_point last{};
    coord.onRunDone([&](const CampaignRun &) {
        const auto now = Clock::now();
        if (last != Clock::time_point{})
            p.resultGapsMs.push_back(
                std::chrono::duration<double, std::milli>(now - last).count());
        last = now;
    });
    p.report = coord.run();
    p.json = campaignReportJson(p.report);
    p.wallS = secondsSince(t0);
    p.coordinatorCpuS = selfCpuSeconds() - cpu0;
    return p;
}

/**
 * The public set-up calls a campaign makes before its first job: grid
 * validation and expansion, arrival generation, and the MemoryPool and
 * Machine of the first job. Returns their seconds, teardown excluded.
 */
double
setupOnce(const CampaignGrid &grid)
{
    const auto t0 = Clock::now();
    std::string error;
    if (!validateGrid(grid, error))
        fatal("invalid grid: %s", error.c_str());
    const std::vector<CampaignJob> jobs = expandGrid(grid);
    std::size_t arrivals = 0;
    for (const TrafficSpec &t : grid.traffics) {
        if (!t.degenerate())
            arrivals += generateArrivals(t).size();
    }
    const SystemConfig sys = jobs.front().systemConfig();
    MemoryPool pool(sys.geo);
    Machine machine(sys, pool);
    g_sink = jobs.size() + arrivals + machine.numVaults();
    return secondsSince(t0);
}

/**
 * Seconds of the fastest setupOnce among calls repeated for kSetupSampleS.
 * Off fleet a call takes about 10 us, so a single call reads interrupts
 * and the host's neighbours as much as the set-up itself.
 */
double
setupSample(const CampaignGrid &grid)
{
    const auto t0 = Clock::now();
    double fastest = 0.0;
    do {
        const double dt = setupOnce(grid);
        if (fastest == 0.0 || dt < fastest)
            fastest = dt;
    } while (secondsSince(t0) < kSetupSampleS);
    return fastest;
}

/**
 * Seconds from CampaignCoordinator::run() to the first result on a one-job
 * grid: spawning the pipe workers and their first job.
 */
double
startupSample(const CampaignGrid &grid, const std::string &worker_bin)
{
    CampaignGrid one = grid;
    one.systems.resize(1);
    one.scenarios.resize(1);
    one.seeds.resize(1);
    CoordinatorConfig cfg;
    cfg.workers = kFleetWorkers;
    cfg.workerCommand = {worker_bin};
    CampaignCoordinator coord(one, cfg);
    double first = 0.0;
    const auto t0 = Clock::now();
    coord.onRunDone([&](const CampaignRun &) { first = secondsSince(t0); });
    const CampaignReport rep = coord.run();
    if (rep.runs.size() != 1 || rep.runs[0].failed || first <= 0.0)
        fatal("worker start-up sample got no result");
    return first;
}

// -------------------------------------------------------- traced passes

/** Host time and work counts gathered around the layer calls of one job. */
struct Layers
{
    double gen = 0.0;     ///< WorkloadGenerator::make* (timed on a replica)
    double prepare = 0.0; ///< prepareScenario, generation included
    double build = 0.0;   ///< MemoryPool + Machine constructors
    double replay = 0.0;  ///< Machine::runPhase
    double partition = 0.0, probe = 0.0; ///< replay split by phase kind
    /** Harness-only work (replicas, counting), excluded from host time. */
    double harness = 0.0;

    double served = 0.0; ///< ServedRunner::run
    std::uint64_t queries = 0;
    std::uint64_t servedEvents = 0;

    std::uint64_t traceOps = 0, expandedOps = 0;
    std::uint64_t simEvents = 0, executed = 0, coalesced = 0, elided = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t dramReads = 0, dramWrites = 0, activations = 0, rowHits = 0;
    std::uint64_t packets = 0, meshBitHops = 0;

    Layers &
    operator+=(const Layers &o)
    {
        gen += o.gen;
        prepare += o.prepare;
        build += o.build;
        replay += o.replay;
        partition += o.partition;
        probe += o.probe;
        harness += o.harness;
        served += o.served;
        queries += o.queries;
        servedEvents += o.servedEvents;
        traceOps += o.traceOps;
        expandedOps += o.expandedOps;
        simEvents += o.simEvents;
        executed += o.executed;
        coalesced += o.coalesced;
        elided += o.elided;
        llcAccesses += o.llcAccesses;
        dramReads += o.dramReads;
        dramWrites += o.dramWrites;
        activations += o.activations;
        rowHits += o.rowHits;
        packets += o.packets;
        meshBitHops += o.meshBitHops;
        return *this;
    }
};

/**
 * Replay the WorkloadGenerator::make* calls prepareScenario makes for
 * @p sc (same generator, same order) on a scratch pool, and return their
 * host time. The generated data is identical; only the pool differs.
 */
double
timeGeneration(const WorkloadConfig &wl, const MemGeometry &geo,
               const Scenario &sc)
{
    MemoryPool pool(geo);
    WorkloadGenerator gen(wl);
    const bool needs_pair =
        std::any_of(sc.stages.begin(), sc.stages.end(),
                    [](const ScenarioStage &st) { return st.op == OpKind::kJoin; });
    double total = 0.0;
    for (const ScenarioStage &st : sc.stages) {
        if (st.input != StageInput::kGenerated)
            continue;
        const auto t0 = Clock::now();
        if (needs_pair)
            g_sink = gen.makeJoinPair(pool).s.totalTuples();
        else if (st.op == OpKind::kGroupBy)
            g_sink = gen.makeGroupBy(pool, wl.tuples).totalTuples();
        else
            g_sink = gen.makeUniform(pool, wl.tuples).totalTuples();
        total += secondsSince(t0);
    }
    return total;
}

void
countTraceOps(const PreparedScenario &ps, Layers &l)
{
    for (const OperatorExecution &ex : ps.execs) {
        for (const PhaseExec &ph : ex.phases) {
            for (const KernelTrace &tr : ph.traces) {
                l.traceOps += tr.size();
                l.expandedOps += tr.expandedSize();
            }
        }
    }
}

void
readCounters(const Machine &m, Layers &l)
{
    l.simEvents += m.simEvents();
    l.executed += m.eventsExecuted();
    l.coalesced += m.eventsCoalesced();
    l.elided += m.eventsElided();
    l.llcAccesses += m.llcAccesses();
    for (unsigned v = 0; v < m.numVaults(); ++v) {
        const VaultStats &s = m.vault(v).stats();
        l.dramReads += s.reads;
        l.dramWrites += s.writes;
        l.activations += s.rowActivations;
        l.rowHits += s.rowHits;
    }
    const NetworkStats ns = m.network().stats();
    l.packets += ns.packets;
    l.meshBitHops += ns.meshBitHops;
}

/** Runner::run, call by call, with each layer call timed. */
RunResult
tracedRun(const CampaignJob &job, Layers &l)
{
    const SystemConfig sys = job.systemConfig();
    const WorkloadConfig wl = job.workload();

    auto t = Clock::now();
    l.gen += timeGeneration(wl, sys.geo, job.scenario);
    l.harness += secondsSince(t);

    t = Clock::now();
    MemoryPool pool(sys.geo);
    l.build += secondsSince(t);

    t = Clock::now();
    PreparedScenario ps = prepareScenario(pool, wl, sys, job.scenario);
    l.prepare += secondsSince(t);

    t = Clock::now();
    countTraceOps(ps, l);
    l.harness += secondsSince(t);

    t = Clock::now();
    Machine machine(sys, pool);
    l.build += secondsSince(t);

    RunResult res;
    res.system = sys.name;
    res.op = job.scenario.name;
    const double vaults = static_cast<double>(sys.geo.totalVaults());
    EnergyBreakdown prev_energy;
    for (std::size_t i = 0; i < ps.execs.size(); ++i) {
        std::vector<PhaseResult> phases;
        phases.reserve(ps.execs[i].phases.size());
        for (const PhaseExec &phase : ps.execs[i].phases) {
            t = Clock::now();
            phases.push_back(machine.runPhase(phase));
            const double dt = secondsSince(t);
            l.replay += dt;
            (phase.kind == PhaseKind::kPartition ? l.partition : l.probe) += dt;
        }
        accumulateStage(res, ps, i, std::move(phases), vaults,
                        machine.energy(), prev_energy);
    }
    finishRunResult(res, vaults, machine.energyActivity(), machine.energy());
    res.simEvents = machine.simEvents();
    readCounters(machine, l);
    return res;
}

/**
 * ServedRunner::run timed as one call. Its set-up (arrival generation,
 * one prepareScenario per mix type, the MemoryPool and Machine) is timed
 * on a replica first; the rest of its wall is attributed to replay. Every
 * served workload has a mix (an empty mix would serve the job's scenario).
 */
RunResult
tracedServed(const CampaignJob &job, Layers &l)
{
    const SystemConfig sys = job.systemConfig();
    const WorkloadConfig wl = job.workload();
    const auto replica_start = Clock::now();
    double setup = 0.0;
    {
        auto t = Clock::now();
        g_sink = generateArrivals(job.traffic).size();
        setup += secondsSince(t);

        t = Clock::now();
        MemoryPool pool(sys.geo);
        double build = secondsSince(t);
        for (const TrafficMixEntry &e : job.traffic.mix) {
            l.gen += timeGeneration(wl, sys.geo, e.scenario);
            t = Clock::now();
            const PreparedScenario ps =
                prepareScenario(pool, wl, sys, e.scenario);
            const double prep = secondsSince(t);
            l.prepare += prep;
            setup += prep;
            countTraceOps(ps, l);
        }
        t = Clock::now();
        Machine machine(sys, pool);
        build += secondsSince(t);
        l.build += build;
        setup += build;
    }
    l.harness += secondsSince(replica_start);

    const auto t = Clock::now();
    RunResult res = ServedRunner(wl, job.traffic).run(sys, job.scenario);
    const double served = secondsSince(t);
    l.served += served;
    l.replay += std::max(0.0, served - setup);
    l.queries += job.traffic.queries;
    l.servedEvents += res.simEvents;
    return res;
}

/** A traced execution of a workload's grid. */
struct TracedPass
{
    CampaignReport report;
    std::vector<Layers> layers; ///< per grid index
    std::string json;
    double wallS = 0.0;
    double expandS = 0.0;
    double serializeS = 0.0;
};

/** CampaignRunner::run, call by call, with every job traced. */
TracedPass
runTracedPass(const CampaignGrid &grid, unsigned threads)
{
    TracedPass tp;
    const auto t0 = Clock::now();
    auto t = Clock::now();
    std::string error;
    if (!validateGrid(grid, error))
        fatal("invalid grid: %s", error.c_str());
    const std::vector<CampaignJob> jobs = expandGrid(grid);
    tp.expandS = secondsSince(t);

    tp.report.grid = grid;
    tp.report.runs.resize(jobs.size());
    tp.layers.resize(jobs.size());
    {
        ThreadPool pool(threads == 1 ? 0 : threads);
        for (const CampaignJob &job : jobs) {
            pool.submit([&tp, job] {
                CampaignRun &slot = tp.report.runs[job.index];
                Layers &l = tp.layers[job.index];
                slot.job = job;
                slot.result = job.traffic.degenerate() ? tracedRun(job, l)
                                                       : tracedServed(job, l);
            });
        }
        pool.wait();
    }
    // The first cpu system of the grid is the baseline (campaign.hh).
    for (SystemKind k : grid.systems) {
        if (k == SystemKind::kCpu) {
            tp.report.baseline = systemKindName(k);
            tp.report.summaries = summarizeRuns(grid, tp.report.runs, k);
            break;
        }
    }
    t = Clock::now();
    tp.json = campaignReportJson(tp.report);
    tp.serializeS = secondsSince(t);
    tp.wallS = secondsSince(t0);
    return tp;
}

// --------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-run replay metrics are emitted for these system.scenario runs. */
const std::vector<std::string> kReplayRuns = {
    "cpu.scan",          "cpu.join",     "nmp.scan",        "nmp.join",
    "mondrian.scan",     "mondrian.join", "mondrian.sessions",
    "mondrian.sort",     "mondrian.groupby"};

void
printResult(const Check &check, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
    std::fprintf(stderr, "  %-40s %16.6g ratio (%zu of %zu grid points)\n",
                 "failed_ratio",
                 check.attempted ? static_cast<double>(check.failed) /
                                       static_cast<double>(check.attempted)
                                 : 1.0,
                 check.failed, check.attempted);

    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("correct", check.failed == 0 && check.attempted > 0);
    w.member("attempted", std::uint64_t{check.attempted});
    w.member("failed", std::uint64_t{check.failed});
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.member("value", m.value);
        w.member("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", JsonWriter::compact(w.str()).c_str());
    std::fflush(stdout);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool setupOnly = false;
    std::string workerBin;
};

// ------------------------------------------------------------ the modes

/**
 * The in-process runner pass every run starts with. It is the reference
 * the other passes must match byte for byte (for fleet, the existing
 * oracle of the coordinator), and it warms the heap: a process's first
 * pass pays for fresh pages.
 */
Pass
warmUp(const Workload &w, Check &check)
{
    Pass p = runnerPass(w.grid, w.fleet ? kFleetWorkers : 1);
    checkReport(p.report, p.json, p.json, check);
    checkServed(p.report, check);
    std::fprintf(stderr, "perfbench: warm-up pass %.3f s\n", p.wallS);
    return p;
}

// Set-up and serial passes take the CPUs in turn. The vCPUs of a shared
// host run at different speeds that change over minutes (the same set-up
// call: 13 us on one, 20 us on another), and a process left to the
// scheduler stays on one of them, so its run read fast or slow by luck.
// Fleet's four processes spread over the CPUs anyway, and its workers
// inherit the affinity, so fleet keeps all of them.

/**
 * --setup-only 1: the set-up of a fresh process, as a campaign meets it
 * (sampled after a pass it read up to a third slower, by what the pass
 * had left in the heap). Prints {"setup_s": seconds}: the median sample
 * plus, on fleet, the median worker start-up. One process reads one of
 * a few levels (10 or 15 us on served-mix) by its randomized memory
 * layout, so run.py averages several such processes.
 */
void
runSetup(const Workload &w, const Options &o)
{
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> setup, startup;
    for (int c : cpus) {
        setAffinity({c});
        for (int i = 0; i < kSetupSamples; ++i)
            setup.push_back(setupSample(w.grid));
    }
    setAffinity(cpus);
    for (int i = 0; w.fleet && i < kStartupSamples; ++i)
        startup.push_back(startupSample(w.grid, o.workerBin));
    std::fprintf(stderr,
                 "perfbench: set-up %.4g s (median of %zu), worker start-up "
                 "%.4g s (median of %zu)\n",
                 median(setup), setup.size(), median(startup), startup.size());

    JsonWriter jw;
    jw.setPreciseDoubles(true);
    jw.beginObject();
    jw.member("setup_s", median(setup) + median(startup));
    jw.endObject();
    std::printf("%s\n", JsonWriter::compact(jw.str()).c_str());
    std::fflush(stdout);
}

/** Everything but setup_s, which run.py adds from runSetup processes. */
std::vector<Metric>
runUntraced(const Workload &w, const Options &o, Check &check)
{
    const auto start = Clock::now();
    const std::vector<int> cpus = allowedCpus();
    const Pass warm = warmUp(w, check);
    const Model model = modelOf(warm.report);

    std::vector<double> walls, rates;
    do {
        if (!w.fleet)
            setAffinity({cpus[walls.size() % cpus.size()]});
        const Pass p = w.fleet ? coordinatorPass(w.grid, o.workerBin)
                               : runnerPass(w.grid, 1);
        checkReport(p.report, p.json, warm.json, check);
        if (!(modelOf(p.report) == model))
            check.fail(p.report.grid.size(),
                       "model outputs differ between repetitions");
        walls.push_back(p.wallS);
        rates.push_back(static_cast<double>(simEventsOf(p.report)) / p.wallS);
        std::fprintf(stderr, "perfbench: pass %zu: %.3f s\n", walls.size(),
                     p.wallS);
    } while (secondsSince(start) + median(walls) <= o.seconds);

    std::fprintf(stderr,
                 "perfbench: model sim_time_ps %.17g energy_j %.17g "
                 "speedup_join %.17g served p50/p99 us %.17g/%.17g qps %.17g\n",
                 model.simTimePs, model.energyJ, model.speedupJoin,
                 model.servedP50Us, model.servedP99Us, model.servedQps);
    return {
        {"wall_s", median(walls), "s"},
        {"sim_events_per_s", median(rates), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
runTraced(const Workload &w, const Options &o, Check &check)
{
    // The untraced reference is the same runner, timed as a whole after
    // the warm-up. Fleet alternates coordinator and runner passes
    // (C R R C C R) so that the coordinator's overhead, a difference of
    // medians, does not follow the host's drift.
    const unsigned threads = w.fleet ? kFleetWorkers : 1;
    const Pass warm = warmUp(w, check);
    std::vector<double> coord_walls, coord_cpu, runner_walls, gaps;
    Pass ref;
    for (const char *c = w.fleet ? "CRRCCR" : "R"; *c; ++c) {
        Pass p = *c == 'C' ? coordinatorPass(w.grid, o.workerBin)
                           : runnerPass(w.grid, threads);
        checkReport(p.report, p.json, warm.json, check);
        std::fprintf(stderr, "perfbench: untraced %s pass %.3f s\n",
                     *c == 'C' ? "coordinator" : "runner", p.wallS);
        if (*c == 'C') {
            coord_walls.push_back(p.wallS);
            coord_cpu.push_back(p.coordinatorCpuS);
            gaps.insert(gaps.end(), p.resultGapsMs.begin(),
                        p.resultGapsMs.end());
        } else {
            runner_walls.push_back(p.wallS);
            ref = std::move(p);
        }
    }
    const double untraced = median(runner_walls);

    TracedPass tp = runTracedPass(w.grid, threads);
    std::fprintf(stderr, "perfbench: traced pass %.3f s\n", tp.wallS);

    // The split must measure the same program: run by run, the traced
    // results serialize exactly as the untraced ones.
    for (std::size_t i = 0; i < tp.report.runs.size(); ++i) {
        check.attempted++;
        if (i >= ref.report.runs.size() ||
            runResultJson(tp.report.runs[i].result) !=
                runResultJson(ref.report.runs[i].result))
            check.fail(1, runLabel(tp.report.runs[i].job) +
                              ": traced result differs from Runner::run");
    }
    checkReport(tp.report, tp.json, ref.json, check);

    Layers sum;
    std::map<std::string, std::pair<double, double>> per_run;
    for (std::size_t i = 0; i < tp.layers.size(); ++i) {
        const Layers &l = tp.layers[i];
        const CampaignJob &job = tp.report.runs[i].job;
        auto &pr = per_run[std::string(systemKindName(job.system)) + "." +
                           job.scenario.name];
        pr.first += l.partition;
        pr.second += l.probe;
        sum += l;
        if (tp.layers.size() <= 16)
            std::fprintf(stderr,
                         "  %-22s prepare %8.4f s (gen %.4f)  replay %8.4f s"
                         "  %llu sim events\n",
                         runLabel(job).c_str(), l.prepare, l.gen, l.replay,
                         static_cast<unsigned long long>(l.simEvents +
                                                         l.servedEvents));
    }

    // Host time of the program's own work: thread-seconds of the traced
    // pass minus the harness's replicas.
    const double host =
        static_cast<double>(threads) * tp.wallS - sum.harness;
    const double prepare_self = sum.prepare - sum.gen;
    const double other = host - sum.gen - prepare_self - sum.build -
                         sum.replay - tp.expandS - tp.serializeS;
    const double events = static_cast<double>(sum.simEvents + sum.servedEvents);
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const Model model = modelOf(ref.report);

    std::vector<Metric> m = {
        {"trace.wall_s", tp.wallS, "s"},
        {"trace.untraced_wall_s", untraced, "s"},
        {"trace.overhead_s", tp.wallS - untraced, "s"},
        {"host.s", host, "s"},
        {"engine.gen_s", sum.gen, "s"},
        {"engine.prepare_s", prepare_self, "s"},
        {"engine.gen_share", ratio(sum.gen, host), "ratio"},
        {"engine.prepare_share", ratio(prepare_self, host), "ratio"},
        {"engine.trace_ops", static_cast<double>(sum.traceOps), "count"},
        {"engine.expanded_ops", static_cast<double>(sum.expandedOps), "count"},
        {"machine.build_s", sum.build, "s"},
        {"machine.build_share", ratio(sum.build, host), "ratio"},
        {"replay.s", sum.replay, "s"},
        {"replay.share", ratio(sum.replay, host), "ratio"},
        {"replay.ns_per_sim_event", ratio(sum.replay * 1e9, events), "ns"},
        {"replay.sim_events_per_s", ratio(events, sum.replay), "1/s"},
    };
    for (const std::string &run : kReplayRuns) {
        const auto it = per_run.find(run);
        const auto pr = it == per_run.end() ? std::pair<double, double>{}
                                            : it->second;
        m.push_back({"replay." + run + ".partition_s", pr.first, "s"});
        m.push_back({"replay." + run + ".probe_s", pr.second, "s"});
    }
    const std::vector<Metric> rest = {
        {"sim.events", events, "count"},
        {"sim.executed", static_cast<double>(sum.executed), "count"},
        {"sim.coalesced", static_cast<double>(sum.coalesced), "count"},
        {"sim.elided", static_cast<double>(sum.elided), "count"},
        {"sim.pop_ratio",
         ratio(static_cast<double>(sum.executed),
               static_cast<double>(sum.simEvents)),
         "ratio"},
        {"core.llc_accesses", static_cast<double>(sum.llcAccesses), "count"},
        {"dram.reads", static_cast<double>(sum.dramReads), "count"},
        {"dram.writes", static_cast<double>(sum.dramWrites), "count"},
        {"dram.activations", static_cast<double>(sum.activations), "count"},
        {"dram.row_hit_rate",
         ratio(static_cast<double>(sum.rowHits),
               static_cast<double>(sum.rowHits + sum.activations)),
         "ratio"},
        {"noc.packets", static_cast<double>(sum.packets), "count"},
        {"noc.mesh_bit_hops", static_cast<double>(sum.meshBitHops), "count"},
        {"traffic.host_ms_per_query",
         ratio(sum.served * 1e3, static_cast<double>(sum.queries)), "ms"},
        {"traffic.sim_events_per_s",
         ratio(static_cast<double>(sum.servedEvents), sum.replay),
         "1/s"},
        {"campaign.expand_s", tp.expandS, "s"},
        {"report.serialize_s", tp.serializeS, "s"},
        {"report.bytes", static_cast<double>(tp.json.size()), "B"},
        {"other.s", other, "s"},
        {"coordinator.overhead_s",
         w.fleet ? median(coord_walls) - untraced : 0.0, "s"},
        {"coordinator.busy_s", median(coord_cpu), "s"},
        {"coordinator.result_gap_p50_ms", percentile(gaps, 50.0), "ms"},
        {"coordinator.result_gap_p99_ms", percentile(gaps, 99.0), "ms"},
        {"model.sim_time_ps", model.simTimePs, "ps"},
        {"model.energy_j", model.energyJ, "J"},
        {"model.speedup.mondrian_vs_cpu.join", model.speedupJoin, "x"},
        {"model.served_p50_us", model.servedP50Us, "us"},
        {"model.served_p99_us", model.servedP99Us, "us"},
        {"model.served_qps", model.servedQps, "1/s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());

    // The split, ranked by share of host time.
    std::vector<std::pair<double, const char *>> split = {
        {sum.gen, "engine.gen"},         {prepare_self, "engine.prepare"},
        {sum.build, "machine.build"},    {sum.replay, "replay"},
        {tp.expandS, "campaign.expand"}, {tp.serializeS, "report.serialize"},
        {other, "other"}};
    std::sort(split.rbegin(), split.rend());
    std::fprintf(stderr, "perfbench: split of %.3f host s (%u thread%s)\n",
                 host, threads, threads == 1 ? "" : "s");
    for (const auto &[s, name] : split)
        std::fprintf(stderr, "  %-20s %10.4f s %6.1f%%\n", name, s,
                     100.0 * ratio(s, host));
    return m;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload smoke17|pipeline-mondrian|"
                 "served-mix|fleet --seed N --seconds S --trace 0|1 "
                 "--worker-bin PATH [--setup-only 0|1]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = !val.empty() && *end == '\0' && val[0] != '-';
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            o.trace = val == "1";
            have_trace = true;
        } else if (arg == "--setup-only") {
            if (val != "0" && val != "1")
                usage("--setup-only must be 0 or 1");
            o.setupOnly = val == "1";
        } else if (arg == "--worker-bin") {
            o.workerBin = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || !(o.seconds > 0.0) ||
        !have_trace || o.workerBin.empty())
        usage("--workload, --seed, --seconds, --trace and --worker-bin are "
              "required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    Workload w;
    if (!makeWorkload(o.workload, o.seed, w))
        usage(("unknown workload " + o.workload).c_str());
    try {
        if (o.setupOnly) {
            runSetup(w, o);
            return 0;
        }
        Check check;
        const std::vector<Metric> metrics =
            o.trace ? runTraced(w, o, check) : runUntraced(w, o, check);
        printResult(check, metrics);
        return check.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
