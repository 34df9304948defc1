/**
 * @file
 * CampaignRunner: parallel execution of a declarative simulation grid.
 *
 * The paper's evaluation (Figs. 6-9, Tables 1/5) is a cross-product of
 * {system, operator, scale, seed} runs at one fixed memory geometry and
 * one execution configuration per system. A CampaignGrid generalizes that
 * into an eight-axis design space:
 *
 *   {traffic x geometry x exec-override x zipf-theta x seed x scale x
 *    scenario x system}
 *
 * Geometry points are full MemGeometry variants (cubes, vaults/cube,
 * vault capacity, row-buffer size); exec overrides are named ExecConfig
 * deltas (radix bits, read chunk, TLB reach); zipf-theta sweeps key skew.
 * The scenario axis holds whole analytics pipelines (system/scenario.hh):
 * the four degenerate single-op scenarios reproduce the classic operator
 * runs byte-for-byte, and multi-stage scenarios ("sessions", arbitrary
 * `a>b>c` chains) run as one pipeline per grid point. The traffic axis
 * (system/traffic.hh) drives grid points as served open-loop workloads:
 * every grid point is one ServedRunner run, and a non-degenerate
 * TrafficSpec adds QPS/latency-percentile/energy-per-query metrics.
 * Every report is one schema, mondrian-campaign-v4 (docs/report-schema.md):
 * axis tables in the grid block, every run labeled with all eight of its
 * coordinates, pipeline runs carrying per-stage sub-results and served
 * runs a "served" object. campaignReportJson writes it and
 * readCampaignReport, its exact inverse, reads it back into the
 * CampaignReport that wrote it; ResumeCache and the analysis CLI both
 * load reports through it and reject any other schema. The grid block
 * has one writer and one reader (writeCampaignGrid/readCampaignGrid),
 * shared by the report and the worker spec (system/coordinator.hh).
 * expandGrid() flattens the cross-product into an ordered job list and
 * CampaignRunner executes the jobs on a thread pool. Each job builds a
 * fresh MemoryPool/Machine, so jobs share no mutable state and the
 * campaign is embarrassingly parallel.
 *
 * Determinism contract: results are aggregated by grid index, never by
 * completion order, and report JSON contains no wall-clock or host state.
 * A campaign run with --jobs N is therefore byte-identical to --jobs 1
 * for the same grid. CI enforces this (scripts/check_determinism.sh).
 */

#ifndef MONDRIAN_SYSTEM_CAMPAIGN_HH
#define MONDRIAN_SYSTEM_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "system/config.hh"
#include "system/runner.hh"
#include "system/traffic.hh"

namespace mondrian {

class JsonWriter;
struct JsonValue;

/** Declarative cross-product of runs. */
struct CampaignGrid
{
    /** Systems to evaluate; the first kCpu entry (if any) is the baseline. */
    std::vector<SystemKind> systems;
    /** Scenario axis; degenerate entries are the classic single ops. */
    std::vector<Scenario> scenarios;
    /** Scale factors: log2 of |S| tuples. */
    std::vector<unsigned> log2Tuples;
    std::vector<std::uint64_t> seeds;
    /** Memory geometry axis; labeled by geometryName() in reports. */
    std::vector<MemGeometry> geometries = {defaultGeometry()};
    /** Exec-config ablation axis; the default single point is "base". */
    std::vector<ExecOverride> execOverrides = {ExecOverride{}};
    /** Key-skew axis (0 = uniform, as in the paper). */
    std::vector<double> zipfThetas = {0.0};
    /** Open-loop traffic axis; the default single point is the
     *  degenerate "none" spec (one query: the classic single run). */
    std::vector<TrafficSpec> traffics = {TrafficSpec{}};

    /** Number of jobs the grid expands to. */
    std::size_t
    size() const
    {
        return systems.size() * scenarios.size() * log2Tuples.size() *
               seeds.size() * geometries.size() * execOverrides.size() *
               zipfThetas.size() * traffics.size();
    }
};

/**
 * Check that every axis is non-empty and every axis value is valid
 * (geometries pass validateGeometry(), no axis repeats a point: a
 * repeated system, scale or seed would run one grid point twice).
 * @return false with @p error naming the offending axis otherwise.
 */
bool validateGrid(const CampaignGrid &grid, std::string &error);

/** The paper's full evaluation grid (4 ops x 6 systems) at @p log2_tuples. */
CampaignGrid paperGrid(unsigned log2_tuples = 15);

/** Tiny grid for CI smoke runs: 3 systems x 2 ops at 2^10 tuples. */
CampaignGrid smokeGrid();

/** One expanded grid point. */
struct CampaignJob
{
    std::size_t index = 0; ///< position in grid order (aggregation key)
    SystemKind system = SystemKind::kCpu;
    Scenario scenario = degenerateScenario(OpKind::kScan);
    unsigned log2Tuples = 15;
    std::uint64_t seed = 42;
    MemGeometry geometry = defaultGeometry();
    ExecOverride exec;
    double zipfTheta = 0.0;
    /** Open-loop traffic; degenerate = classic single-query run. */
    TrafficSpec traffic;

    /** Workload this job runs. */
    WorkloadConfig workload() const;

    /** Preset for (system, geometry) with the exec override applied. */
    SystemConfig systemConfig() const;
};

/**
 * Flatten @p grid in deterministic order: traffics outermost, then
 * geometries, exec overrides, thetas, seeds, scales, scenarios, and
 * systems innermost — so one (traffic, geometry, exec, theta, seed,
 * scale, scenario) group's systems are contiguous and baseline
 * comparisons read naturally in the report.
 */
std::vector<CampaignJob> expandGrid(const CampaignGrid &grid);

/**
 * Execute one expanded grid point: one ServedRunner run under the job's
 * traffic (degenerate traffic is the classic single query). Shared by
 * the in-process executor (runCampaignJobs) and the distributed worker
 * loop, so the two can never diverge.
 */
RunResult executeCampaignJob(const CampaignJob &job);

/**
 * The injective identity key of a job's grid point — the
 * ResumeCache::gridPointHash of its fields. The single currency of every
 * result cache (the --resume journal cache and the worker-side
 * --worker-cache): two jobs share a key iff they are the same grid
 * point.
 */
std::string campaignJobKey(const CampaignJob &job);

/** One finished grid point. */
struct CampaignRun
{
    CampaignJob job;
    RunResult result;
    /**
     * When the run was satisfied from a resume cache, the prior report's
     * verbatim "result" JSON subtree; campaignReportJson splices it so a
     * resumed report is byte-identical to a fresh one. Empty for runs
     * executed in this campaign.
     */
    std::string rawResultJson;
    bool cached = false;
    /**
     * The run never produced a result: its job exhausted the
     * coordinator's retry budget, or the campaign was interrupted before
     * the job ran. Failed slots are excluded from the report's runs
     * array, the summaries and baseline pairing; permanently failed jobs
     * are listed in CampaignReport::failedRuns instead.
     */
    bool failed = false;
};

/** One grid point that exhausted its retry budget (coordinator mode). */
struct FailedRun
{
    std::size_t index = 0; ///< grid index of the job
    unsigned attempts = 0; ///< attempts made (1 + retries)
    std::string error;     ///< last failure observed
};

/**
 * Comparison group of a run: baseline matching is per (geometry, exec,
 * theta, seed, scale, scenario, traffic), so speedups always compare two
 * systems at the same axis point. Shared by the campaign summary and
 * table-rendering callers so the two never drift when the grid grows new
 * axes.
 */
using GridGroupKey = std::tuple<std::string, std::string, double,
                                std::uint64_t, unsigned, std::string,
                                std::string>;

GridGroupKey gridGroupKey(const CampaignJob &job);
GridGroupKey gridGroupKey(const CampaignRun &run);

/** Baseline run per comparison group (runs whose system == @p baseline). */
std::map<GridGroupKey, const CampaignRun *>
baselineIndex(const std::vector<CampaignRun> &runs, SystemKind baseline);

/** Campaign-level rollup for one system (vs. the baseline runs). */
struct SystemSummary
{
    std::string system;
    /**
     * Baseline-paired runs: grid points where both this system and the
     * baseline ran, i.e. the comparisons the geomeans are over. On a
     * full cross-product grid this equals totalRuns; on a partial or
     * resumed report it can be smaller.
     */
    std::size_t runs = 0;
    /** All runs of this system, paired or not. */
    std::size_t totalRuns = 0;
    /** Paired comparisons excluded from the speedup geomean because the
     *  speedup was non-positive (a broken run). */
    std::size_t droppedSpeedups = 0;
    /** Same, for the perf/W geomean. */
    std::size_t droppedPerfPerWatt = 0;
    /** Geomean of total-time speedup vs. baseline over paired runs. */
    double geomeanSpeedup = 0.0;
    /** Geomean of perf/W improvement vs. baseline (Fig. 9 rollup). */
    double geomeanPerfPerWatt = 0.0;
};

/**
 * Per-system geomean rollups of @p runs against the @p baseline system's
 * runs, pairing within comparison groups (gridGroupKey). The `runs`
 * column counts only paired runs — a grid point whose baseline is
 * missing (partial/resumed report) contributes to totalRuns but not to
 * runs or the geomeans.
 */
std::vector<SystemSummary>
summarizeRuns(const CampaignGrid &grid, const std::vector<CampaignRun> &runs,
              SystemKind baseline);

/**
 * The rollup of one system's comparisons against the baseline:
 * @p speedups and @p perf_per_watt hold its baseline-paired ratios,
 * @p total_runs counts all its runs, paired or not. summarizeRuns is
 * this over each system's runs.
 */
SystemSummary summarizeComparisons(const std::string &system,
                                   std::size_t total_runs,
                                   const std::vector<double> &speedups,
                                   const std::vector<double> &perf_per_watt);

/** Everything a campaign produced, in grid order. */
struct CampaignReport
{
    CampaignGrid grid;
    std::vector<CampaignRun> runs;          ///< ordered by job index
    std::string baseline;                   ///< "" when no baseline in grid
    std::vector<SystemSummary> summaries;   ///< empty when no baseline
    std::size_t cachedRuns = 0;             ///< grid points reused (resume)
    /** Jobs that exhausted their retry budget (coordinator mode);
     *  written to the report as a "failed_runs" array when non-empty. */
    std::vector<FailedRun> failedRuns;
    /** True when execution stopped early on an abort flag (SIGINT/
     *  SIGTERM); the report is partial and should not be written. */
    bool aborted = false;
    /**
     * Results that workers answered from their --worker-cache instead
     * of re-simulating (coordinator mode). Diagnostic only — NOT
     * serialized into the report JSON, which stays byte-identical
     * whether results were simulated or cache hits.
     */
    std::size_t workerCacheHits = 0;
};

/**
 * Cache of finished grid points loaded from a prior campaign report.
 *
 * Keyed by the (config, workload) identity hash of a grid point —
 * (system, scenario, log2 tuples, seed, zipf theta, memory geometry,
 * exec override) — which is everything that determines a run's result. The
 * hash input encodes every numeric geometry/override field at a fixed
 * position, so two distinct axis points can never collide by
 * construction. A CampaignRunner consults the cache before executing
 * each job and reuses the stored result for hits, so incremental reruns
 * only simulate new grid points (ROADMAP "incremental reruns"). Cached
 * run entries splice back into reports byte-identically (verbatim
 * subtree copy); the summary rollups are recomputed from values that
 * round-tripped the writer's 12-significant-digit encoding, so a
 * resumed summary could in principle differ from a fresh one in the
 * final printed digit of a geomean.
 *
 * Loads mondrian-campaign-v4 reports only, through readCampaignReport:
 * every run keys by campaignJobKey of its grid point, whose scenario
 * identity carries the stage structure (scenarioIdentity), so a renamed
 * or restructured pipeline never satisfies a stale entry.
 */
class ResumeCache
{
  public:
    /**
     * Load entries from a prior report's JSON text. Replaces the
     * current contents.
     * @return false with @p error set when readCampaignReport() rejects
     * the report: a truncated document, a malformed grid block or a
     * malformed run entry fails the whole load, so nothing is ever
     * cached as garbage or keyed at a wrong grid point.
     */
    bool load(const std::string &json_text, std::string &error);

    /**
     * Merge entries from a crash-safe campaign journal (newline-
     * delimited {"key", "index", "result"} lines as written by
     * campaignJournalLine()) into the cache. Existing contents are
     * kept; a key present in both is overwritten by the journal (the
     * journal is the fresher artifact). Torn or corrupt lines — the
     * expected artifact of a killed coordinator — are skipped with a
     * warn() naming the line and, when recoverable, its grid key.
     * @return the number of entries added or replaced.
     */
    std::size_t loadJournal(const std::string &text);

    std::size_t size() const { return entries_.size(); }

    /**
     * Canonical key identifying one (config, workload) grid point: the
     * injective delimited-field encoding of every axis coordinate (no
     * lossy digest — distinct points cannot collide). @p scenario is
     * the scenarioIdentity() string — the bare name for degenerate
     * scenarios and name + stage structure for pipelines, so a renamed
     * or restructured pipeline can never satisfy a stale cache entry.
     */
    static std::string gridPointHash(const std::string &system,
                                     const std::string &scenario,
                                     unsigned log2_tuples,
                                     std::uint64_t seed, double zipf_theta,
                                     const MemGeometry &geo,
                                     const ExecOverride &exec,
                                     const std::string &traffic);

    struct Entry
    {
        RunResult result;         ///< parsed (for summaries and progress)
        std::string rawResultJson; ///< verbatim subtree (for splicing)
    };

    /** Lookup by grid-point hash; nullptr on miss. */
    const Entry *find(const std::string &hash) const;

  private:
    std::map<std::string, Entry> entries_;
};

/**
 * Campaign set-up shared by CampaignRunner and CampaignCoordinator:
 * validate and expand @p grid into @p report (one slot per job, in grid
 * order) and splice the grid points @p resume (may be null) already
 * holds into their slots.
 * @return the jobs still to run, in grid order.
 * @throw std::invalid_argument when the grid fails validateGrid().
 */
std::vector<CampaignJob> beginCampaign(const CampaignGrid &grid,
                                       const ResumeCache *resume,
                                       CampaignReport &report);

/**
 * The in-process executor: run @p jobs into their slots of @p report on
 * @p threads threads (1 = serially on the calling thread; 0 = one per
 * hardware thread). @p progress (may be empty) sees each finished run,
 * serialized; once @p abort (may be null) reads true, unstarted jobs are
 * marked failed and the report aborted. CampaignRunner::run is this
 * call; the coordinator uses it when it has no workers or degrades.
 */
void runCampaignJobs(const std::vector<CampaignJob> &jobs, unsigned threads,
                     const std::function<void(const CampaignRun &)> &progress,
                     const std::atomic<bool> *abort, CampaignReport &report);

/** Fill the report's baseline and per-system summaries (the first kCpu
 *  system of the grid is the baseline; none = no summaries). */
void finishCampaign(CampaignReport &report);

/** Expands a grid and executes it on a thread pool. */
class CampaignRunner
{
  public:
    explicit CampaignRunner(const CampaignGrid &grid) : grid_(grid) {}

    /**
     * Execute the campaign on @p jobs worker threads (1 = serial on the
     * calling thread; 0 = one per hardware thread). Blocks until done.
     * @throw std::invalid_argument when the grid fails validateGrid().
     */
    CampaignReport run(unsigned jobs = 1);

    /**
     * Observe finished runs as they complete (any thread, serialized by
     * the runner). Completion order is nondeterministic — only use this
     * for progress output, never for aggregation.
     */
    void onRunDone(std::function<void(const CampaignRun &)> cb)
    {
        progress_ = std::move(cb);
    }

    const CampaignGrid &grid() const { return grid_; }

    /**
     * Reuse results from @p cache: grid points whose (config, workload)
     * hash is cached are not executed. The cache must outlive run().
     */
    void setResume(const ResumeCache *cache) { resume_ = cache; }

    /**
     * Cooperative cancellation (SIGINT/SIGTERM): once @p flag reads
     * true, jobs that have not started are skipped (marked failed) and
     * run() returns a partial report with aborted set. Jobs already
     * executing finish — a simulation cannot be interrupted midway.
     * The flag must outlive run().
     */
    void setAbort(const std::atomic<bool> *flag) { abort_ = flag; }

  private:
    CampaignGrid grid_;
    std::function<void(const CampaignRun &)> progress_;
    const ResumeCache *resume_ = nullptr;
    const std::atomic<bool> *abort_ = nullptr;
};

/**
 * One append-only journal line recording a completed run: compact JSON
 * {"key": <grid-point hash>, "index": N, "result": {...}} with a
 * trailing newline. Result doubles are written in exact shortest-
 * round-trip form so a journal-resumed report re-serializes
 * byte-identically to a fresh run (no splicing needed). Appended (and
 * flushed) after every fresh completion when --journal is active, so a
 * killed campaign loses at most the runs still in flight.
 */
std::string campaignJournalLine(const CampaignJob &job,
                                const RunResult &result);

/**
 * Read one campaignJournalLine() back: the grid key into @p key and the
 * exact result into @p result. The journal and the worker-side result
 * cache both store runs this way.
 * @return false with @p error set when the line does not parse, lacks a
 * string key or a result, or readRunResult refuses the result (the
 * error then names the bad member).
 */
bool readJournalLine(const std::string &line, std::string &key,
                     RunResult &result, std::string &error);

/** The one report schema: written by campaignReportJson, and the only
 *  one readCampaignReport accepts. */
inline constexpr const char *kCampaignReportSchema = "mondrian-campaign-v4";

/**
 * Render a campaign report as a deterministic schema
 * kCampaignReportSchema JSON document (the CI artifact). Same report,
 * same bytes, regardless of thread count.
 */
std::string campaignReportJson(const CampaignReport &report);

/**
 * The exact inverse of campaignReportJson: read a report back into the
 * CampaignReport that wrote it. The grid block is read and validated
 * (readCampaignGrid, validateGrid) and expanded; each "runs" entry goes
 * into the slot its "index" names, after its coordinate labels are
 * checked against that grid point's, with the verbatim "result" subtree
 * kept in rawResultJson so campaignReportJson rewrites the same bytes.
 * Slots without a runs entry stay failed; "failed_runs" and the stored
 * summary are read back as written.
 * @return false with @p error naming the fault (and the run entry, for
 * a malformed one) on any parse, schema, grid or run problem.
 */
bool readCampaignReport(const std::string &json_text, CampaignReport &out,
                        std::string &error);

/**
 * Write @p grid as the report's "grid" block: one table per axis in axis
 * order, each entry carrying its report label, then "total_runs". The
 * writer's double precision applies, so the worker spec (precise
 * doubles) and the report (12 digits) share this one encoding.
 */
void writeCampaignGrid(JsonWriter &w, const CampaignGrid &grid);

/**
 * The inverse of writeCampaignGrid. Every member is type-checked, as
 * readCampaignReport does for run coordinates, because the block may
 * arrive over the wire:
 * scenarios are rebuilt from their stage lists, and each labeled entry
 * must rebuild to its own label. Structural only — callers that expand
 * the grid still run validateGrid().
 * @return false with @p error naming the axis and entry at fault.
 */
bool readCampaignGrid(const JsonValue &block, CampaignGrid &out,
                      std::string &error);

/**
 * The grid's axis product as one line: "N runs (S systems x C scenarios
 * x ... x Z thetas[ x T traffics])". Shared by the campaign banner and
 * the --dry-run tail.
 */
std::string gridShape(const CampaignGrid &grid);

/**
 * Render the expanded job list without simulating anything (--dry-run):
 * one line per job with every axis value, the job's baseline pairing
 * (the cpu run of its comparison group, if any), whether a resume cache
 * would satisfy it, and a trailing count summary.
 * @throw std::invalid_argument when the grid fails validateGrid().
 */
std::string campaignDryRun(const CampaignGrid &grid,
                           const ResumeCache *resume = nullptr);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_CAMPAIGN_HH
