/**
 * @file
 * The run model: what one run of a Scenario on one system measures, and
 * the steps every run is made of.
 *
 * A run simulates a whole analytics pipeline, not a single operator: ONE
 * memory pool and ONE wired Machine per run, the (seed-deterministic)
 * input workload generated into it, then the scenario's stages in
 * order. prepareScenario() is the functional half: each stage runs
 * through the simulated address space to obtain kernel traces, and
 * intermediate relations flow stage-to-stage: a stage bound to
 * kPrevOutput consumes its predecessor's output relation,
 * re-materialized in a canonical system-independent layout so every
 * evaluated system sees functionally identical inputs at every stage.
 * The timed half replays all stages back-to-back on the Machine's one
 * event queue, so cache, DRAM-bank and link state carry across stage
 * boundaries exactly as they would in hardware; accumulateStage() and
 * finishRunResult() fold the replayed phases into a RunResult.
 * ServedRunner (system/traffic.hh) is the one executor: a single query
 * at tick 0 (degenerate traffic) is the classic one-run measurement.
 *
 * RunResult keeps the classic aggregate view at the top level (total /
 * partition / probe time, energy, bandwidth, functional counts over the
 * whole pipeline) and adds one StageResult per stage with the same
 * breakdown scoped to that stage. Degenerate scenarios ("scan", "sort",
 * "groupby", "join") reduce to exactly the historical one-operator run:
 * same bytes in the report, no stage list.
 *
 * Fresh state per run keeps systems comparable: every configuration sees
 * the identical input data and the identical stage-to-stage dataflow.
 */

#ifndef MONDRIAN_SYSTEM_RUNNER_HH
#define MONDRIAN_SYSTEM_RUNNER_HH

#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "engine/operator.hh"
#include "engine/workload.hh"
#include "system/config.hh"
#include "system/machine.hh"
#include "system/scenario.hh"

namespace mondrian {

/** Everything measured in one stage of a scenario run. */
struct StageResult
{
    std::string stage; ///< canonical stage token (e.g. "filter")
    std::string op;    ///< basic operator it lowered onto
    std::string input; ///< "generated" or "prev"

    Tick partitionTime = 0;
    Tick probeTime = 0;
    Tick totalTime = 0;

    /** This stage's phases (names unprefixed, stage-local). */
    std::vector<PhaseResult> phases;
    /** Energy attributed to this stage (deltas of the machine's
     *  cumulative breakdown; stage energies sum to the run total). */
    EnergyBreakdown energy;

    double partitionVaultBWGBps = 0.0;
    double probeVaultBWGBps = 0.0;

    /** Tuples of the stage's input relation (the flowing side). */
    std::uint64_t inputTuples = 0;
    /** Tuples the stage hands to its successor. */
    std::uint64_t outputTuples = 0;

    // Stage-local functional outputs.
    std::uint64_t scanMatches = 0;
    std::uint64_t joinMatches = 0;
    std::uint64_t groupCount = 0;
    std::uint64_t aggChecksum = 0;
};

/**
 * Metrics of a served (open-loop traffic) run. Valid only when the run
 * was driven by a non-degenerate TrafficSpec; single-query runs leave it
 * invalid and their report JSON carries no served object at all.
 */
struct ServedMetrics
{
    bool valid = false;

    std::uint64_t offered = 0;   ///< arrivals generated
    std::uint64_t admitted = 0;  ///< arrivals accepted into the system
    std::uint64_t rejected = 0;  ///< arrivals refused by the in-flight cap
    std::uint64_t completed = 0; ///< queries that ran to completion
    /** Completions inside the measurement window (post-warmup). */
    std::uint64_t measuredCompleted = 0;

    /** Measurement window: first measured arrival to last measured
     *  completion. */
    Tick window = 0;
    /** measuredCompleted / window, in queries per second. */
    double sustainedQps = 0.0;

    // Nearest-rank latency percentiles over measured completions.
    Tick latencyP50 = 0;
    Tick latencyP95 = 0;
    Tick latencyP99 = 0;
    Tick latencyMax = 0;
    double latencyMeanPs = 0.0;

    /** Whole-run energy divided by completed queries (J/query). */
    double energyPerQueryJ = 0.0;
};

/** Everything measured in one run. */
struct RunResult
{
    std::string system;
    /** Scenario name; for degenerate scenarios this is the classic
     *  operator label ("scan"/"sort"/"groupby"/"join"). */
    std::string op;

    Tick partitionTime = 0; ///< sum of partition-kind phases
    Tick probeTime = 0;     ///< sum of probe-kind phases
    Tick totalTime = 0;

    /** All phases of the run; multi-stage scenarios prefix each phase
     *  name with its stage token ("filter.probe"). */
    std::vector<PhaseResult> phases;
    EnergyBreakdown energy;
    EnergyActivity activity;

    // Functional outputs for verification (summed across stages).
    std::uint64_t scanMatches = 0;
    std::uint64_t joinMatches = 0;
    std::uint64_t groupCount = 0;
    std::uint64_t aggChecksum = 0;

    /**
     * Per-stage sub-results. Empty for degenerate scenarios (the run IS
     * its single stage); one entry per stage otherwise.
     */
    std::vector<StageResult> stages;

    /** Mean per-vault DRAM bandwidth during partition phases (GB/s). */
    double partitionVaultBWGBps = 0.0;
    /** Mean per-vault DRAM bandwidth during probe phases (GB/s). */
    double probeVaultBWGBps = 0.0;

    /** Open-loop traffic metrics (ServedRunner, non-degenerate only). */
    ServedMetrics served;

    /**
     * Simulated events behind the run: queue pops + coalesced same-tick
     * completions (Machine::simEvents()). Invariant under the perf
     * shortcuts — the sum counts the logical event stream — which is
     * why it can live in the report without breaking the shortcuts-off
     * byte-identity oracle.
     */
    std::uint64_t simEvents = 0;

    double
    seconds() const
    {
        return ticksToSeconds(totalTime);
    }
};

/**
 * A scenario after its functional half: the workload has been generated,
 * every stage executed functionally (producing kernel traces and the
 * stage-to-stage dataflow), and the tuple counts recorded. What remains
 * is timed replay on a Machine, once per admitted query instance
 * (ServedRunner replays the shared traces).
 */
struct PreparedScenario
{
    Scenario scenario;
    bool multi = false; ///< !scenario.degenerate()
    std::vector<OperatorExecution> execs; ///< one per stage
    std::vector<std::uint64_t> inputTuples;
    std::vector<std::uint64_t> outputTuples;
};

/** Run the functional half of @p scenario inside @p pool. */
PreparedScenario prepareScenario(MemoryPool &pool,
                                 const WorkloadConfig &workload,
                                 const SystemConfig &sys,
                                 const Scenario &scenario);

/**
 * Fold stage @p i's finished phases into @p res: append the stage
 * record (multi-stage scenarios only), prefix and collect the phases,
 * and sum the functional outputs. @p now is the machine's cumulative
 * energy after the stage; @p prev is updated to it.
 */
void accumulateStage(RunResult &res, const PreparedScenario &ps,
                     std::size_t i, std::vector<PhaseResult> phases,
                     double vaults, const EnergyBreakdown &now,
                     EnergyBreakdown &prev);

/** Final aggregation over res.phases plus the machine snapshots. */
void finishRunResult(RunResult &res, double vaults,
                     const EnergyActivity &activity,
                     const EnergyBreakdown &energy);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_RUNNER_HH
