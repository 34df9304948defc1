#include "system/campaign.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/logging.hh"
#include "sim/thread_pool.hh"
#include "system/grid_axes.hh"
#include "system/report.hh"

namespace mondrian {

CampaignGrid
paperGrid(unsigned log2_tuples)
{
    CampaignGrid grid;
    grid.systems = allSystemKinds();
    for (OpKind op : allOpKinds())
        grid.scenarios.push_back(degenerateScenario(op));
    grid.log2Tuples = {log2_tuples};
    grid.seeds = {42};
    return grid;
}

CampaignGrid
smokeGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kNmp, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {10};
    grid.seeds = {42};
    return grid;
}

namespace {

/** True when @p grid sweeps any non-degenerate (served) traffic point. */
bool
gridHasTraffic(const CampaignGrid &grid)
{
    for (const TrafficSpec &t : grid.traffics) {
        if (!t.degenerate())
            return true;
    }
    return false;
}

} // namespace

std::size_t
CampaignGrid::size() const
{
    std::size_t n = 1;
    visitGridAxes([&](const auto &axis) {
        n *= (this->*axis.values).size();
        return true;
    });
    return n;
}

bool
validateGrid(const CampaignGrid &grid, std::string &error)
{
    // Every axis is compared by its report label: a repeated label runs
    // one grid point twice under one label (a repeated system: two
    // summary rows), and thetas equal at the report's 12 digits repeat.
    const bool axes_ok = visitGridAxes([&](const auto &axis) {
        const auto &values = grid.*axis.values;
        if (values.empty()) {
            error = std::string(axis.name) + " axis is empty";
            return false;
        }
        std::set<std::string> seen;
        for (const auto &v : values) {
            std::string label = axis.label(v);
            if (!seen.insert(label).second) {
                error = "duplicate " + std::string(axis.noun) + " '" +
                        label + "'";
                return false;
            }
        }
        return true;
    });
    if (!axes_ok)
        return false;
    for (const Scenario &sc : grid.scenarios) {
        if (sc.stages.empty()) {
            error = "scenario '" + sc.name + "' has no stages";
            return false;
        }
    }
    for (const TrafficSpec &t : grid.traffics) {
        std::string t_error = validateTrafficSpec(t);
        if (!t_error.empty()) {
            error = "invalid traffic point " + t.name() + ": " + t_error;
            return false;
        }
    }
    for (unsigned l : grid.log2Tuples) {
        if (l > 32) {
            error = "log2-tuples " + std::to_string(l) + " out of range";
            return false;
        }
    }
    for (double z : grid.zipfThetas) {
        // -0 would be a second point, labelled "-0", of the same input.
        if (!(z >= 0.0) || z >= 2.0 || std::signbit(z)) {
            error = "zipf theta must be in [0, 2)";
            return false;
        }
    }
    for (const MemGeometry &geo : grid.geometries) {
        std::string geo_error;
        if (!validateGeometry(geo, geo_error)) {
            error = "invalid geometry " + geometryName(geo) + ": " +
                    geo_error;
            return false;
        }
    }
    for (const ExecOverride &ov : grid.execOverrides) {
        std::string ov_error;
        if (!validateExecOverride(ov, ov_error)) {
            error = "invalid exec-ablation point " + ov.name() + ": " +
                    ov_error;
            return false;
        }
    }
    for (const MemGeometry &geo : grid.geometries) {
        // A stream fetch is served from one row activation, so a read
        // chunk wider than the row buffer is physically meaningless
        // (presets clamp to the row size; overrides must not un-clamp).
        for (const ExecOverride &ov : grid.execOverrides) {
            if (ov.readChunkBytes > 0 &&
                static_cast<std::uint64_t>(ov.readChunkBytes) >
                    geo.rowBytes) {
                error = "exec-ablation " + ov.name() + " read chunk "
                        "exceeds the " + std::to_string(geo.rowBytes) +
                        " B row buffer of geometry " + geometryName(geo);
                return false;
            }
        }
        // Fail fast on scales that cannot fit the swept pool instead of
        // aborting mid-campaign in the vault allocator. Heuristic upper
        // bound per stage on the footprint in units of the 16 B/tuple
        // input: scan reads in place (2x slack); sort adds a shuffled
        // copy with 1.7x headroom (4x); group-by/join add the R side,
        // hash tables and outputs (6x). Pipeline scenarios accumulate:
        // allocations are never freed within a run, so a scenario's
        // footprint is the SUM of its stage factors plus 2x per
        // materialized intermediate relation — scan stages are
        // pass-through and materialize nothing, and the final stage's
        // output is only counted, never materialized — plus the fixed
        // page-table/cursor blocks (~4 MiB). The allocator remains the
        // hard guard.
        auto scenario_factor = [](const Scenario &sc) {
            std::uint64_t f = 0;
            for (std::size_t i = 0; i < sc.stages.size(); ++i) {
                switch (sc.stages[i].op) {
                  case OpKind::kScan:
                    f += 2;
                    break;
                  case OpKind::kSort:
                    f += 4;
                    break;
                  case OpKind::kGroupBy:
                  case OpKind::kJoin:
                    f += 6;
                    break;
                }
                if (i + 1 < sc.stages.size() &&
                    sc.stages[i].op != OpKind::kScan)
                    f += 2; // materialized intermediate for the successor
            }
            return f;
        };
        std::uint64_t factor = 0;
        for (const Scenario &sc : grid.scenarios)
            factor = std::max(factor, scenario_factor(sc));
        // A served run with a traffic mix prepares EVERY mix scenario
        // into the one shared pool, so its footprint is the sum over the
        // mix, independent of the grid's scenario axis.
        for (const TrafficSpec &t : grid.traffics) {
            if (t.mix.empty())
                continue;
            std::uint64_t f = 0;
            for (const TrafficMixEntry &e : t.mix)
                f += scenario_factor(e.scenario);
            factor = std::max(factor, f);
        }
        for (unsigned l : grid.log2Tuples) {
            const std::uint64_t footprint =
                (std::uint64_t{1} << l) * 16 * factor + 4 * kMiB;
            if (footprint > geo.totalBytes()) {
                error = "scale 2^" + std::to_string(l) + " does not fit "
                        "geometry " + geometryName(geo) + " (needs ~" +
                        std::to_string(footprint / kMiB) + " MiB, pool is " +
                        std::to_string(geo.totalBytes() / kMiB) + " MiB)";
                return false;
            }
        }
    }
    return true;
}

WorkloadConfig
CampaignJob::workload() const
{
    if (log2Tuples > 32)
        fatal("log2Tuples %u out of range (max 32)", log2Tuples);
    WorkloadConfig wl;
    wl.tuples = std::uint64_t{1} << log2Tuples;
    wl.seed = seed;
    wl.zipfTheta = zipfTheta;
    return wl;
}

SystemConfig
CampaignJob::systemConfig() const
{
    SystemConfig cfg = makeSystem(system, geometry);
    exec.apply(cfg.exec);
    return cfg;
}

RunResult
executeCampaignJob(const CampaignJob &job)
{
    return ServedRunner(job.workload(), job.traffic)
        .run(job.systemConfig(), job.scenario);
}

std::vector<CampaignJob>
expandGrid(const CampaignGrid &grid)
{
    std::vector<CampaignJob> jobs;
    jobs.reserve(grid.size());
    for (const TrafficSpec &traffic : grid.traffics) {
        for (const MemGeometry &geo : grid.geometries) {
            for (const ExecOverride &exec : grid.execOverrides) {
                for (double theta : grid.zipfThetas) {
                    for (std::uint64_t seed : grid.seeds) {
                        for (unsigned log2 : grid.log2Tuples) {
                            for (const Scenario &sc : grid.scenarios) {
                                for (SystemKind sys : grid.systems)
                                    jobs.push_back({jobs.size(), sys, sc,
                                                    log2, seed, geo, exec,
                                                    theta, traffic});
                            }
                        }
                    }
                }
            }
        }
    }
    return jobs;
}

GridGroupKey
gridGroupKey(const CampaignJob &job)
{
    std::string key;
    visitGridAxes([&](const auto &axis) {
        using T = typename std::decay_t<decltype(axis)>::Value;
        if constexpr (!std::is_same_v<T, SystemKind>)
            key += axis.label(job.*axis.value) + "|";
        return true;
    });
    key.pop_back();
    return key;
}

GridGroupKey
gridGroupKey(const CampaignRun &run)
{
    // A result's system and op are its job's labels (the runner writes
    // them; checkResultShape holds loaded results to them), so keying by
    // the job alone is equivalent.
    return gridGroupKey(run.job);
}

std::map<GridGroupKey, const CampaignRun *>
baselineIndex(const std::vector<CampaignRun> &runs, SystemKind baseline)
{
    std::map<GridGroupKey, const CampaignRun *> base;
    for (const auto &r : runs) {
        if (!r.failed && r.job.system == baseline)
            base[gridGroupKey(r)] = &r;
    }
    return base;
}

namespace {

/** Baseline system for summaries: the first kCpu entry, if present. */
bool
findBaseline(const CampaignGrid &grid, SystemKind &out)
{
    for (SystemKind k : grid.systems) {
        if (k == SystemKind::kCpu) {
            out = k;
            return true;
        }
    }
    return false;
}

} // namespace

std::vector<SystemSummary>
summarizeRuns(const CampaignGrid &grid, const std::vector<CampaignRun> &runs,
              SystemKind baseline)
{
    auto base = baselineIndex(runs, baseline);

    std::vector<SystemSummary> out;
    for (SystemKind sys : grid.systems) {
        if (sys == baseline)
            continue;
        std::vector<double> speedups, perfPerWatt;
        std::size_t total = 0;
        for (const auto &r : runs) {
            if (r.failed || r.job.system != sys)
                continue;
            ++total;
            auto it = base.find(gridGroupKey(r));
            if (it == base.end())
                continue; // unpaired: no comparison to roll up
            speedups.push_back(overallSpeedup(it->second->result, r.result));
            perfPerWatt.push_back(
                efficiencyImprovement(it->second->result, r.result));
        }
        out.push_back(summarizeComparisons(systemKindName(sys), total,
                                           speedups, perfPerWatt));
    }
    return out;
}

SystemSummary
summarizeComparisons(const std::string &system, std::size_t total_runs,
                     const std::vector<double> &speedups,
                     const std::vector<double> &perf_per_watt)
{
    SystemSummary s;
    s.system = system;
    s.runs = speedups.size();
    s.totalRuns = total_runs;
    GeomeanStats sp = geomeanStats(speedups);
    GeomeanStats pw = geomeanStats(perf_per_watt);
    s.geomeanSpeedup = sp.value;
    s.geomeanPerfPerWatt = pw.value;
    s.droppedSpeedups = sp.dropped;
    s.droppedPerfPerWatt = pw.dropped;
    return s;
}

const ResumeCache::Entry *
ResumeCache::find(const CampaignJob &job) const
{
    auto it = entries_.find(campaignJobKey(job));
    if (it == entries_.end())
        return nullptr;
    std::string error;
    if (checkResultShape(job, it->second.result, error))
        return &it->second;
    warn("resume: re-simulating grid point %zu: its cached result %s",
         job.index, error.c_str());
    return nullptr;
}

bool
ResumeCache::load(const std::string &json_text, std::string &error)
{
    entries_.clear();
    CampaignReport report;
    if (!readCampaignReport(json_text, report, error))
        return false;
    for (CampaignRun &r : report.runs) {
        if (!r.failed)
            entries_[campaignJobKey(r.job)] = {std::move(r.result),
                                               std::move(r.rawResultJson)};
    }
    return true;
}

std::size_t
ResumeCache::loadJournal(const std::string &text)
{
    std::size_t added = 0, lineno = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool torn = nl == std::string::npos; // no trailing newline
        std::string line =
            text.substr(pos, torn ? std::string::npos : nl - pos);
        pos = torn ? text.size() : nl + 1;
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;

        // Best-effort grid key for warnings: the key member leads every
        // line, so even a torn tail usually names its grid point.
        auto key_hint = [&line]() {
            const std::string prefix = "{\"key\": \"";
            if (line.rfind(prefix, 0) != 0)
                return std::string();
            const std::size_t end = line.find('"', prefix.size());
            if (end == std::string::npos)
                return std::string();
            return " (grid key " +
                   line.substr(prefix.size(), end - prefix.size()) + ")";
        };

        std::string key, error;
        Entry e;
        if (!readJournalLine(line, key, e.result, error)) {
            // A torn final line is the expected artifact of a killed
            // writer; anything else is corruption. Either way: skip
            // loudly, never splice.
            warn("journal: skipping %s line %zu%s: %s",
                 torn ? "torn" : "corrupt", lineno, key_hint().c_str(),
                 error.c_str());
            continue;
        }
        // No rawResultJson: journal doubles are exact (shortest round
        // trip), so re-serializing through the canonical report writer
        // reproduces a fresh run's bytes — no splicing needed.
        entries_[key] = std::move(e);
        ++added;
    }
    return added;
}

std::string
campaignJobKey(const CampaignJob &job)
{
    // Every label at a fixed position; the scenario's identity adds its
    // stage structure, so a restructured pipeline misses.
    std::string key;
    visitGridAxes([&](const auto &axis) {
        using T = typename std::decay_t<decltype(axis)>::Value;
        if constexpr (std::is_same_v<T, Scenario>)
            key += scenarioIdentity(job.scenario) + "|";
        else
            key += axis.label(job.*axis.value) + "|";
        return true;
    });
    key.pop_back();
    return key;
}

std::string
campaignJournalLine(const CampaignJob &job, const RunResult &result)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("key", campaignJobKey(job));
    w.member("index", std::uint64_t{job.index});
    w.key("result");
    writeRunResult(w, result);
    w.endObject();
    return JsonWriter::compact(w.str()) + "\n";
}

bool
readJournalLine(const std::string &line, std::string &key,
                RunResult &result, std::string &error)
{
    JsonValue doc;
    MemberReader m{doc, error};
    if (!parseJson(line, doc, error) || !m.str("key", key))
        return false;
    const JsonValue *r = doc.find("result");
    return r ? readRunResult(*r, result, error) : m.fail("result");
}

bool
checkResultShape(const CampaignJob &job, const RunResult &result,
                 std::string &error)
{
    const std::string system = systemKindName(job.system);
    if (result.system != system || result.op != job.scenario.name) {
        error = "is of " + result.system + "/" + result.op +
                ", not of " + system + "/" + job.scenario.name;
        return false;
    }
    // A served run reports its "served" block and no stages; a single
    // query of a pipeline reports its "stages" (ServedRunner::run).
    const bool served = !job.traffic.degenerate();
    const bool staged = !served && !job.scenario.degenerate();
    auto present = [&](const char *block, bool want, bool has) {
        if (want != has)
            error = std::string(want ? "lacks" : "has") + " a \"" + block +
                    "\" block under traffic " + job.traffic.name() +
                    " and scenario " + job.scenario.name;
        return want == has;
    };
    return present("served", served, result.served.valid) &&
           present("stages", staged, !result.stages.empty());
}

std::vector<CampaignJob>
beginCampaign(const CampaignGrid &grid, const ResumeCache *resume,
              CampaignReport &report)
{
    std::string grid_error;
    if (!validateGrid(grid, grid_error))
        throw std::invalid_argument("invalid campaign grid: " + grid_error);

    std::vector<CampaignJob> todo;
    report = CampaignReport{};
    report.grid = grid;
    for (CampaignJob &job : expandGrid(grid)) {
        CampaignRun &slot = report.runs.emplace_back();
        slot.job = job;
        const ResumeCache::Entry *hit = resume ? resume->find(job) : nullptr;
        if (hit) {
            slot.result = hit->result;
            slot.rawResultJson = hit->rawResultJson;
            slot.cached = true;
            report.cachedRuns++;
            continue;
        }
        todo.push_back(std::move(job));
    }
    return todo;
}

void
runCampaignJobs(const std::vector<CampaignJob> &jobs, unsigned threads,
                const std::function<void(const CampaignRun &)> &progress,
                const std::atomic<bool> *abort, CampaignReport &report)
{
    // Each pool thread writes only its own grid slot; the mutex guards
    // the progress callback, not the results.
    std::mutex progress_mutex;
    {
        // threads == 1 -> inline execution on this thread (no workers).
        ThreadPool pool(threads == 1 ? 0
                                     : ThreadPool::resolveThreads(threads));
        for (const CampaignJob &job : jobs) {
            CampaignRun &slot = report.runs[job.index];
            if (abort && abort->load()) {
                // Interrupted: don't start new work; mark the slot so
                // the partial report never misreads it as a result.
                slot.failed = true;
                continue;
            }
            pool.submit([&slot, &progress, abort, &progress_mutex] {
                if (abort && abort->load()) {
                    slot.failed = true;
                    return;
                }
                slot.result = executeCampaignJob(slot.job);
                if (progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    progress(slot);
                }
            });
        }
        pool.wait();
    }
    if (abort && abort->load())
        report.aborted = true;
}

void
finishCampaign(CampaignReport &report)
{
    SystemKind baseline;
    if (findBaseline(report.grid, baseline)) {
        report.baseline = systemKindName(baseline);
        report.summaries = summarizeRuns(report.grid, report.runs, baseline);
    }
}

CampaignReport
CampaignRunner::run(unsigned jobs)
{
    CampaignReport report;
    const std::vector<CampaignJob> todo =
        beginCampaign(grid_, resume_, report);
    runCampaignJobs(todo, jobs, progress_, abort_, report);
    finishCampaign(report);
    return report;
}

namespace {

/** The coordinate members of one run entry; placeRunEntry reads them
 *  back. */
void
writeRunCoordinates(JsonWriter &w, const CampaignJob &job)
{
    w.member("index", std::uint64_t{job.index});
    visitGridAxes([&](const auto &axis) {
        const auto &v = job.*axis.value;
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
            w.member(axis.coordinate, v);
        else
            w.member(axis.coordinate, axis.label(v));
        return true;
    });
}

/** Check the "schema" member of a parsed report: false with @p error
 *  naming the document's schema unless it is kCampaignReportSchema. */
bool
checkReportSchema(const JsonValue &doc, std::string &error)
{
    std::string name;
    if (readString(doc.find("schema"), name) && name == kCampaignReportSchema)
        return true;
    error = "not a " + std::string(kCampaignReportSchema) +
            " report (schema '" + name + "')";
    return false;
}

/**
 * Read the coordinates of one "runs" or "failed_runs" entry and find the
 * slot of @p report they name. Each member is type-checked (a string
 * seed must not read as seed 0, another grid point), the index must be
 * in range and not given before (@p taken), and every label must equal
 * the grid point's.
 * @return nullptr with @p error naming the fault otherwise.
 */
CampaignRun *
placeRunEntry(const JsonValue &entry, CampaignReport &report,
              std::vector<bool> &taken, std::string &error)
{
    MemberReader m{entry, error};
    std::size_t index = 0;
    if (!m.uint("index", index))
        return nullptr;
    if (index >= report.runs.size()) {
        error = "index " + std::to_string(index) + " out of range (the "
                "grid has " + std::to_string(report.runs.size()) +
                " points)";
        return nullptr;
    }
    if (taken[index]) {
        error = "index " + std::to_string(index) + " given twice";
        return nullptr;
    }
    const CampaignJob &job = report.runs[index].job;
    const bool placed = visitGridAxes([&](const auto &axis) {
        using T = typename std::decay_t<decltype(axis)>::Value;
        std::string got;
        if constexpr (std::is_arithmetic_v<T>) {
            // Type-checked: a string seed must not read as seed 0.
            const JsonValue *v = entry.find(axis.coordinate);
            T value{};
            std::string what;
            if (!v || !axis.read(*v, value, what))
                return m.fail(axis.coordinate);
            got = axis.label(value);
        } else if (!m.str(axis.coordinate, got)) {
            return false;
        }
        const std::string want = axis.label(job.*axis.value);
        if (got != want)
            error = "\"" + std::string(axis.coordinate) + "\" is '" + got +
                    "' but grid point " + std::to_string(index) +
                    " has '" + want + "'";
        return got == want;
    });
    if (!placed)
        return nullptr;
    taken[index] = true;
    return &report.runs[index];
}

} // namespace

bool
readCampaignGrid(const JsonValue &block, CampaignGrid &out,
                 std::string &error)
{
    CampaignGrid g;
    const bool ok = visitGridAxes([&](const auto &axis) {
        const JsonValue *values = block.find(axis.block);
        if (!values || !values->isArray()) {
            error = std::string("grid axis \"") + axis.block +
                    "\" missing or not an array";
            return false;
        }
        auto &read = g.*axis.values;
        read.clear();
        for (std::size_t i = 0; i < values->items.size(); ++i) {
            std::string what;
            if (!axis.read(values->items[i], read.emplace_back(), what)) {
                error = std::string("grid axis \"") + axis.block +
                        "\" entry " + std::to_string(i) + ": " + what;
                return false;
            }
        }
        return true;
    });
    if (!ok)
        return false;
    std::uint64_t total = 0;
    if (!readUint(block.find("total_runs"), total) || total != g.size()) {
        error = "grid \"total_runs\" missing or not the product of the "
                "axis sizes (" + std::to_string(g.size()) + ")";
        return false;
    }
    out = std::move(g);
    return true;
}

bool
readCampaignReport(const std::string &json_text, CampaignReport &out,
                   std::string &error)
{
    JsonValue doc;
    if (!parseJson(json_text, doc, error) || !checkReportSchema(doc, error))
        return false;
    const JsonValue *block = doc.find("grid");
    if (!block) {
        error = "report has no grid block";
        return false;
    }
    CampaignReport report;
    if (!readCampaignGrid(*block, report.grid, error))
        return false;
    if (!validateGrid(report.grid, error)) {
        error = "invalid grid block: " + error;
        return false;
    }
    // Every slot starts failed: only a runs entry gives it a result.
    for (CampaignJob &job : expandGrid(report.grid)) {
        CampaignRun &slot = report.runs.emplace_back();
        slot.job = std::move(job);
        slot.failed = true;
    }
    std::vector<bool> taken(report.runs.size());

    const JsonValue *runs = doc.find("runs");
    if (!runs || !runs->isArray()) {
        error = "report has no runs array";
        return false;
    }
    for (std::size_t i = 0; i < runs->items.size(); ++i) {
        const JsonValue &entry = runs->items[i];
        const std::string where = "run " + std::to_string(i) + ": ";
        CampaignRun *slot = placeRunEntry(entry, report, taken, error);
        if (!slot) {
            error = where + error;
            return false;
        }
        const JsonValue *result = entry.find("result");
        if (!result || !readRunResult(*result, slot->result, error) ||
            !checkResultShape(slot->job, slot->result, error)) {
            error = where + "malformed result: " +
                    (result ? error : "missing");
            return false;
        }
        slot->rawResultJson =
            json_text.substr(result->begin, result->end - result->begin);
        slot->failed = false;
    }

    if (const JsonValue *failed = doc.find("failed_runs")) {
        if (!failed->isArray()) {
            error = "report \"failed_runs\" is not an array";
            return false;
        }
        for (std::size_t i = 0; i < failed->items.size(); ++i) {
            const JsonValue &entry = failed->items[i];
            FailedRun f;
            MemberReader m{entry, error};
            const CampaignRun *slot =
                placeRunEntry(entry, report, taken, error);
            if (!slot || !m.uint("attempts", f.attempts) ||
                !m.str("error", f.error)) {
                error = "failed run " + std::to_string(i) + ": " + error;
                return false;
            }
            f.index = slot->job.index;
            report.failedRuns.push_back(std::move(f));
        }
    }

    const JsonValue *summary = doc.find("summary");
    const JsonValue *systems = summary ? summary->find("systems") : nullptr;
    if (!summary ||
        !MemberReader{*summary, error}.str("baseline", report.baseline) ||
        !systems || !systems->isArray()) {
        error = "report summary block missing or malformed";
        return false;
    }
    for (std::size_t i = 0; i < systems->items.size(); ++i) {
        SystemSummary &s = report.summaries.emplace_back();
        MemberReader m{systems->items[i], error,
                       "summary.systems[" + std::to_string(i) + "]."};
        if (!m.str("system", s.system) || !m.uint("runs", s.runs))
            return false;
        // The writer omits the provenance members at their defaults.
        s.totalRuns = s.runs;
        if (!m.optUint("runs_total", s.totalRuns) ||
            !m.optUint("dropped_speedups", s.droppedSpeedups) ||
            !m.optUint("dropped_perf_per_watt", s.droppedPerfPerWatt) ||
            !m.number("geomean_speedup", s.geomeanSpeedup) ||
            !m.number("geomean_perf_per_watt", s.geomeanPerfPerWatt))
            return false;
    }
    out = std::move(report);
    return true;
}

void
writeCampaignGrid(JsonWriter &w, const CampaignGrid &grid)
{
    w.beginObject();
    visitGridAxes([&](const auto &axis) {
        w.key(axis.block).beginArray();
        for (const auto &v : grid.*axis.values)
            axis.write(w, v);
        w.endArray();
        return true;
    });
    w.member("total_runs", std::uint64_t{grid.size()});
    w.endObject();
}

std::string
campaignReportJson(const CampaignReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.member("schema", kCampaignReportSchema);
    w.member("paper", "conf_isca_DrumondDMUPFGP17");

    w.key("grid");
    writeCampaignGrid(w, report.grid);

    w.key("runs").beginArray();
    for (const auto &r : report.runs) {
        if (r.failed)
            continue; // no result to report; listed under failed_runs
        w.beginObject();
        writeRunCoordinates(w, r.job);
        w.key("result");
        // report-precision: canonical 12-digit (the committed report
        // format; IPC/journal writers use setPreciseDoubles instead).
        if (!r.rawResultJson.empty())
            w.rawValue(r.rawResultJson); // cached: splice byte-identically
        else
            writeRunResult(w, r.result);
        w.endObject();
    }
    w.endArray();

    // Only irregular (fault-afflicted) reports carry this block.
    if (!report.failedRuns.empty()) {
        w.key("failed_runs").beginArray();
        for (const FailedRun &f : report.failedRuns) {
            w.beginObject();
            writeRunCoordinates(w, report.runs[f.index].job);
            w.member("attempts", std::uint64_t{f.attempts});
            w.member("error", f.error);
            w.endObject();
        }
        w.endArray();
    }

    w.key("summary").beginObject();
    w.member("baseline", report.baseline);
    w.key("systems").beginArray();
    for (const auto &s : report.summaries) {
        w.beginObject();
        w.member("system", s.system);
        w.member("runs", std::uint64_t{s.runs});
        // Extra provenance appears only on irregular reports, so a full
        // cross-product grid's JSON is unchanged: "runs_total" when some
        // runs are unpaired (partial/resumed grids), "dropped_*" when a
        // non-positive comparison was excluded from a geomean.
        if (s.totalRuns != s.runs)
            w.member("runs_total", std::uint64_t{s.totalRuns});
        if (s.droppedSpeedups > 0)
            w.member("dropped_speedups", std::uint64_t{s.droppedSpeedups});
        if (s.droppedPerfPerWatt > 0)
            w.member("dropped_perf_per_watt",
                     std::uint64_t{s.droppedPerfPerWatt});
        w.member("geomean_speedup", s.geomeanSpeedup);
        w.member("geomean_perf_per_watt", s.geomeanPerfPerWatt);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
gridShape(const CampaignGrid &grid)
{
    std::string traffic_dim;
    if (gridHasTraffic(grid)) {
        traffic_dim =
            " x " + std::to_string(grid.traffics.size()) + " traffics";
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%zu runs (%zu systems x %zu scenarios x %zu scales x "
                  "%zu seeds x %zu geometries x %zu exec points x %zu "
                  "thetas%s)",
                  grid.size(), grid.systems.size(), grid.scenarios.size(),
                  grid.log2Tuples.size(), grid.seeds.size(),
                  grid.geometries.size(), grid.execOverrides.size(),
                  grid.zipfThetas.size(), traffic_dim.c_str());
    return line;
}

std::string
campaignDryRun(const CampaignGrid &grid, const ResumeCache *resume)
{
    std::string grid_error;
    if (!validateGrid(grid, grid_error))
        throw std::invalid_argument("invalid campaign grid: " + grid_error);

    const std::vector<CampaignJob> jobs = expandGrid(grid);
    const bool show_traffic = gridHasTraffic(grid);

    // Baseline pairing: index of the kCpu job in each comparison group.
    std::map<GridGroupKey, std::size_t> base;
    for (const CampaignJob &job : jobs) {
        if (job.system == SystemKind::kCpu)
            base[gridGroupKey(job)] = job.index;
    }

    std::string out;
    std::size_t cached = 0, paired = 0;
    for (const CampaignJob &job : jobs) {
        auto it = base.find(gridGroupKey(job));
        const bool is_baseline =
            it != base.end() && it->second == job.index;
        if (it != base.end() && !is_baseline)
            ++paired;

        bool hit = false;
        if (resume) {
            hit = resume->find(job) != nullptr;
            if (hit)
                ++cached;
        }

        std::string pairing = "no-baseline";
        if (is_baseline)
            pairing = "baseline";
        else if (it != base.end())
            pairing = "vs [" + std::to_string(it->second) + "]";

        std::string traffic_col;
        if (show_traffic)
            traffic_col = "traffic=" + job.traffic.name() + " ";

        char line[512];
        std::snprintf(line, sizeof(line),
                      "[%4zu] %-8s %-15s 2^%-2u seed=%-6llu geo=%-18s "
                      "exec=%-12s zipf=%-5g %s%s%s\n",
                      job.index, job.scenario.name.c_str(),
                      systemKindName(job.system), job.log2Tuples,
                      static_cast<unsigned long long>(job.seed),
                      geometryName(job.geometry).c_str(),
                      job.exec.name().c_str(), job.zipfTheta,
                      traffic_col.c_str(), pairing.c_str(),
                      hit ? " (cached)" : "");
        out += line;
    }
    out += gridShape(grid) + ", " + std::to_string(paired) +
           " baseline-paired, " + std::to_string(cached) + " cached\n";
    return out;
}

} // namespace mondrian
