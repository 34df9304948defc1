#include "system/campaign.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/logging.hh"
#include "sim/thread_pool.hh"
#include "system/report.hh"

namespace mondrian {

namespace {

/**
 * Render a double exactly as report JSON does (JsonWriter's canonical
 * 12-significant-digit encoding). Keying through this encoding makes a
 * theta parsed back from a report hash identically to the CLI-parsed
 * original; thetas that differ only beyond the report precision are
 * already indistinguishable in the report itself.
 */
void
appendDouble(std::string &key, double v)
{
    JsonWriter::appendDouble(key, v);
}

// Typed reads for the report readers: asU64()/asDouble() alone would read
// a wrong-typed member (a string seed) as 0, which is another grid point.
// Each is false when @p v is absent or of the wrong type.

bool
readString(const JsonValue *v, std::string &dst)
{
    if (!v || !v->isString())
        return false;
    dst = v->asString();
    return true;
}

/** A non-negative integer literal that fits @p dst's type. */
template <typename T>
bool
readUint(const JsonValue *v, T &dst)
{
    if (!v || !v->isNumber() || v->text.empty() ||
        v->text.find_first_not_of("0123456789") != std::string::npos ||
        v->asU64() > static_cast<std::uint64_t>(
                         std::numeric_limits<T>::max()))
        return false;
    dst = static_cast<T>(v->asU64());
    return true;
}

bool
readNumber(const JsonValue *v, double &dst)
{
    if (!v || !v->isNumber())
        return false;
    dst = v->asDouble();
    return true;
}

/** The first label @p label gives to two values of @p axis; nullopt when
 *  every label is distinct. */
template <typename T, typename Label>
std::optional<std::string>
repeatedLabel(const std::vector<T> &axis, Label label)
{
    std::set<std::string> seen;
    for (const T &v : axis) {
        std::string l = label(v);
        if (!seen.insert(l).second)
            return l;
    }
    return std::nullopt;
}

/** Typed member reads of one object; a failure names its member. */
struct MemberReader
{
    const JsonValue &obj;
    std::string &error;
    std::string prefix = ""; ///< names the object inside its parent

    bool
    fail(const std::string &member)
    {
        error = "missing or wrong-typed \"" + prefix + member + "\"";
        return false;
    }
    bool
    str(const char *member, std::string &dst)
    {
        return readString(obj.find(member), dst) || fail(member);
    }
    template <typename T>
    bool
    uint(const char *member, T &dst)
    {
        return readUint(obj.find(member), dst) || fail(member);
    }
    /** An optional unsigned member: absent leaves @p dst as it is. */
    template <typename T>
    bool
    optUint(const char *member, T &dst)
    {
        return !obj.find(member) || uint(member, dst);
    }
    bool
    number(const char *member, double &dst)
    {
        return readNumber(obj.find(member), dst) || fail(member);
    }
};

} // namespace

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

bool
validateGrid(const CampaignGrid &grid, std::string &error)
{
    if (grid.systems.empty()) {
        error = "systems axis is empty";
        return false;
    }
    if (grid.scenarios.empty()) {
        error = "scenario axis is empty";
        return false;
    }
    for (const Scenario &sc : grid.scenarios) {
        if (sc.stages.empty()) {
            error = "scenario '" + sc.name + "' has no stages";
            return false;
        }
    }
    if (grid.log2Tuples.empty()) {
        error = "log2-tuples axis is empty";
        return false;
    }
    if (grid.seeds.empty()) {
        error = "seeds axis is empty";
        return false;
    }
    if (grid.geometries.empty()) {
        error = "geometry axis is empty";
        return false;
    }
    if (grid.execOverrides.empty()) {
        error = "exec-ablation axis is empty";
        return false;
    }
    if (grid.zipfThetas.empty()) {
        error = "zipf-theta axis is empty";
        return false;
    }
    if (grid.traffics.empty()) {
        error = "traffic axis is empty";
        return false;
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
    std::set<std::string> theta_names;
    for (double z : grid.zipfThetas) {
        if (!(z >= 0.0) || z >= 2.0) {
            error = "zipf theta must be in [0, 2)";
            return false;
        }
        // Thetas are labeled (and resume-keyed) at the report's 12-digit
        // encoding; values identical at that precision would share one
        // axis label and cache identity, so reject them as duplicates.
        const std::string name = JsonWriter::doubleString(z);
        if (!theta_names.insert(name).second) {
            error = "duplicate zipf-theta axis value " + name +
                    " (identical at the report's 12-digit precision)";
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
    // A repeated axis point runs one grid point twice and writes two
    // runs (a repeated system: two summary rows) under one label. Each
    // axis is compared by its report label.
    const std::pair<const char *, std::optional<std::string>> repeats[] = {
        {"system", repeatedLabel(grid.systems, [](SystemKind k) {
             return std::string(systemKindName(k));
         })},
        {"scenario",
         repeatedLabel(grid.scenarios, [](const Scenario &sc) {
             return sc.name;
         })},
        {"log2-tuples value",
         repeatedLabel(grid.log2Tuples,
                       [](unsigned l) { return std::to_string(l); })},
        {"seed", repeatedLabel(grid.seeds, [](std::uint64_t seed) {
             return std::to_string(seed);
         })},
        {"geometry", repeatedLabel(grid.geometries, geometryName)},
        {"exec-ablation point",
         repeatedLabel(grid.execOverrides,
                       [](const ExecOverride &ov) { return ov.name(); })},
        {"traffic point",
         repeatedLabel(grid.traffics,
                       [](const TrafficSpec &t) { return t.name(); })},
    };
    for (const auto &[axis, label] : repeats) {
        if (label) {
            error = std::string("duplicate ") + axis + " '" + *label + "'";
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
                                for (SystemKind sys : grid.systems) {
                                    CampaignJob job;
                                    job.index = jobs.size();
                                    job.system = sys;
                                    job.scenario = sc;
                                    job.log2Tuples = log2;
                                    job.seed = seed;
                                    job.geometry = geo;
                                    job.exec = exec;
                                    job.zipfTheta = theta;
                                    job.traffic = traffic;
                                    jobs.push_back(job);
                                }
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
    return {geometryName(job.geometry), job.exec.name(), job.zipfTheta,
            job.seed, job.log2Tuples, job.scenario.name,
            job.traffic.name()};
}

GridGroupKey
gridGroupKey(const CampaignRun &run)
{
    // RunResult::op always equals job.scenario.name (the runner sets it
    // and the resume identity includes it), so keying by the job alone
    // is equivalent.
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

std::string
ResumeCache::gridPointHash(const std::string &system, const std::string &op,
                           unsigned log2_tuples, std::uint64_t seed,
                           double zipf_theta, const MemGeometry &geo,
                           const ExecOverride &exec,
                           const std::string &traffic)
{
    // Canonical identity string: every axis field at a fixed, delimited
    // position, so the key is injective over grid points — two distinct
    // axis points cannot collide by construction. The key itself is the
    // cache identity (no lossy digest in the identity path); theta is
    // canonicalized to the report's 12-digit encoding first (see
    // appendDouble).
    std::string key = system + "|" + op + "|" +
                      std::to_string(log2_tuples) + "|" +
                      std::to_string(seed) + "|";
    appendDouble(key, zipf_theta);
    key += "|" + std::to_string(geo.numStacks) + "|" +
           std::to_string(geo.vaultsPerStack) + "|" +
           std::to_string(geo.banksPerVault) + "|" +
           std::to_string(geo.rowBytes) + "|" +
           std::to_string(geo.vaultBytes) + "|" +
           std::to_string(exec.radixBits) + "|" +
           std::to_string(exec.readChunkBytes) + "|" +
           std::to_string(exec.tlbEntries) + "|" + traffic;
    return key;
}

const ResumeCache::Entry *
ResumeCache::find(const std::string &hash) const
{
    auto it = entries_.find(hash);
    return it == entries_.end() ? nullptr : &it->second;
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
    return ResumeCache::gridPointHash(
        systemKindName(job.system), scenarioIdentity(job.scenario),
        job.log2Tuples, job.seed, job.zipfTheta, job.geometry, job.exec,
        job.traffic.name());
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
    if (!parseJson(line, doc, error))
        return false;
    const JsonValue *k = doc.find("key");
    const JsonValue *r = doc.find("result");
    if (!k || !k->isString() || k->asString().empty() || !r) {
        error = "missing key or result";
        return false;
    }
    key = k->asString();
    if (!readRunResult(*r, result)) {
        error = "unreadable result";
        return false;
    }
    return true;
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
        const ResumeCache::Entry *hit =
            resume ? resume->find(campaignJobKey(job)) : nullptr;
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
    w.member("system", systemKindName(job.system));
    w.member("scenario", job.scenario.name);
    w.member("log2_tuples", std::uint64_t{job.log2Tuples});
    w.member("seed", job.seed);
    w.member("geometry", geometryName(job.geometry));
    w.member("exec", job.exec.name());
    w.member("zipf_theta", job.zipfTheta);
    w.member("traffic", job.traffic.name());
}

/** Check the "schema" member of a parsed report: false with @p error
 *  naming the document's schema unless it is kCampaignReportSchema. */
bool
checkReportSchema(const JsonValue &doc, std::string &error)
{
    const JsonValue *schema = doc.find("schema");
    const std::string name = schema ? schema->asString() : "";
    if (name == kCampaignReportSchema)
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
    unsigned log2 = 0;
    std::uint64_t seed = 0;
    double theta = 0.0;
    std::string system, scenario, geometry, exec, traffic;
    if (!m.uint("index", index) || !m.str("system", system) ||
        !m.str("scenario", scenario) || !m.uint("log2_tuples", log2) ||
        !m.uint("seed", seed) || !m.str("geometry", geometry) ||
        !m.str("exec", exec) || !m.number("zipf_theta", theta) ||
        !m.str("traffic", traffic))
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
    const std::pair<const char *, std::pair<std::string, std::string>>
        labels[] = {
            {"system", {system, systemKindName(job.system)}},
            {"scenario", {scenario, job.scenario.name}},
            {"log2_tuples",
             {std::to_string(log2), std::to_string(job.log2Tuples)}},
            {"seed", {std::to_string(seed), std::to_string(job.seed)}},
            {"geometry", {geometry, geometryName(job.geometry)}},
            {"exec", {exec, job.exec.name()}},
            {"zipf_theta",
             {JsonWriter::doubleString(theta),
              JsonWriter::doubleString(job.zipfTheta)}},
            {"traffic", {traffic, job.traffic.name()}},
        };
    for (const auto &[member, got_want] : labels) {
        if (got_want.first != got_want.second) {
            error = "\"" + std::string(member) + "\" is '" +
                    got_want.first + "' but grid point " +
                    std::to_string(index) + " has '" + got_want.second +
                    "'";
            return nullptr;
        }
    }
    taken[index] = true;
    return &report.runs[index];
}

/**
 * Read grid axis @p name of @p block, one entry at a time through
 * @p entry(value, what), which returns false with @p what describing
 * the fault.
 */
template <typename Entry>
bool
readGridAxis(const JsonValue &block, const char *name, Entry entry,
             std::string &error)
{
    const JsonValue *axis = block.find(name);
    if (!axis || !axis->isArray()) {
        error = std::string("grid axis \"") + name +
                "\" missing or not an array";
        return false;
    }
    for (std::size_t i = 0; i < axis->items.size(); ++i) {
        std::string what;
        if (!entry(axis->items[i], what)) {
            error = std::string("grid axis \"") + name + "\" entry " +
                    std::to_string(i) + ": " + what;
            return false;
        }
    }
    return true;
}

/** An entry's "name" member must equal the label its fields rebuild. */
bool
labelMatches(const JsonValue &v, const std::string &rebuilt,
             std::string &what)
{
    std::string name;
    if (!MemberReader{v, what}.str("name", name))
        return false;
    if (name != rebuilt)
        what = "label '" + name + "' does not match its fields ('" +
               rebuilt + "')";
    return name == rebuilt;
}

bool
readScenario(const JsonValue &v, Scenario &sc, std::string &what)
{
    MemberReader m{v, what};
    const JsonValue *stages = v.find("stages");
    if (!m.str("name", sc.name))
        return false;
    if (!stages || !stages->isArray())
        return m.fail("stages");
    for (std::size_t i = 0; i < stages->items.size(); ++i) {
        MemberReader st{stages->items[i], what,
                        "stages[" + std::to_string(i) + "]."};
        ScenarioStage &stage = sc.stages.emplace_back();
        std::string op, input;
        if (!st.str("stage", stage.spark) || !st.str("op", op) ||
            !st.str("input", input))
            return false;
        if (!opKindFromName(op, stage.op))
            return st.fail("op");
        if (input == stageInputName(StageInput::kPrevOutput))
            stage.input = StageInput::kPrevOutput;
        else if (input != stageInputName(StageInput::kGenerated))
            return st.fail("input");
    }
    return true;
}

bool
readTraffic(const JsonValue &v, TrafficSpec &t, std::string &what)
{
    MemberReader m{v, what};
    std::string name, process;
    if (!m.str("name", name))
        return false;
    // A degenerate point is written as its label alone.
    if (name == TrafficSpec{}.name())
        return true;
    if (!m.str("process", process))
        return false;
    if (process == arrivalProcessName(ArrivalProcess::kFixed))
        t.process = ArrivalProcess::kFixed;
    else if (process != arrivalProcessName(ArrivalProcess::kPoisson))
        return m.fail("process");
    if (!m.number("lambda_qps", t.lambdaQps) ||
        !m.uint("queries", t.queries) || !m.uint("warmup", t.warmup) ||
        !m.uint("max_in_flight", t.maxInFlight) || !m.uint("seed", t.seed))
        return false;
    if (const JsonValue *mix = v.find("mix")) {
        if (!mix->isArray())
            return m.fail("mix");
        for (std::size_t i = 0; i < mix->items.size(); ++i) {
            MemberReader e{mix->items[i], what,
                           "mix[" + std::to_string(i) + "]."};
            TrafficMixEntry &entry = t.mix.emplace_back();
            std::string spec, sc_error;
            if (!e.str("scenario", spec) ||
                !e.number("weight", entry.weight))
                return false;
            if (!scenarioFromSpec(spec, entry.scenario, sc_error))
                return e.fail("scenario");
        }
        if (!m.number("mix_zipf_theta", t.mixZipfTheta))
            return false;
    }
    return labelMatches(v, t.name(), what);
}

} // namespace

bool
readCampaignGrid(const JsonValue &block, CampaignGrid &out,
                 std::string &error)
{
    CampaignGrid g;
    g.geometries.clear();
    g.execOverrides.clear();
    g.zipfThetas.clear();
    g.traffics.clear();
    const bool ok =
        readGridAxis(block, "systems", [&](const JsonValue &v,
                                           std::string &what) {
            std::string name;
            const bool is_string = readString(&v, name);
            what = is_string ? "unknown system '" + name + "'"
                             : "not a system name";
            return is_string &&
                   systemKindFromName(name, g.systems.emplace_back());
        }, error) &&
        readGridAxis(block, "scenarios", [&](const JsonValue &v,
                                             std::string &what) {
            return readScenario(v, g.scenarios.emplace_back(), what);
        }, error) &&
        readGridAxis(block, "log2_tuples", [&](const JsonValue &v,
                                               std::string &what) {
            what = "not an unsigned integer";
            return readUint(&v, g.log2Tuples.emplace_back());
        }, error) &&
        readGridAxis(block, "seeds", [&](const JsonValue &v,
                                         std::string &what) {
            what = "not an unsigned integer";
            return readUint(&v, g.seeds.emplace_back());
        }, error) &&
        readGridAxis(block, "geometries", [&](const JsonValue &v,
                                              std::string &what) {
            MemGeometry &geo = g.geometries.emplace_back();
            MemberReader m{v, what};
            return m.uint("stacks", geo.numStacks) &&
                   m.uint("vaults_per_stack", geo.vaultsPerStack) &&
                   m.uint("banks_per_vault", geo.banksPerVault) &&
                   m.uint("row_bytes", geo.rowBytes) &&
                   m.uint("vault_bytes", geo.vaultBytes) &&
                   labelMatches(v, geometryName(geo), what);
        }, error) &&
        readGridAxis(block, "exec_overrides", [&](const JsonValue &v,
                                                  std::string &what) {
            // Absent knobs inherit the preset.
            ExecOverride &ov = g.execOverrides.emplace_back();
            MemberReader m{v, what};
            return m.optUint("radix_bits", ov.radixBits) &&
                   m.optUint("read_chunk_bytes", ov.readChunkBytes) &&
                   m.optUint("tlb_entries", ov.tlbEntries) &&
                   labelMatches(v, ov.name(), what);
        }, error) &&
        readGridAxis(block, "zipf_thetas", [&](const JsonValue &v,
                                               std::string &what) {
            what = "not a number";
            return readNumber(&v, g.zipfThetas.emplace_back());
        }, error) &&
        readGridAxis(block, "traffics", [&](const JsonValue &v,
                                            std::string &what) {
            return readTraffic(v, g.traffics.emplace_back(), what);
        }, error);
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
        if (!result || !readRunResult(*result, slot->result)) {
            error = where + "malformed result object";
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
    w.key("systems").beginArray();
    for (SystemKind k : grid.systems)
        w.value(systemKindName(k));
    w.endArray();
    w.key("scenarios").beginArray();
    for (const Scenario &sc : grid.scenarios) {
        w.beginObject();
        w.member("name", sc.name);
        w.key("stages").beginArray();
        for (const ScenarioStage &st : sc.stages) {
            w.beginObject();
            w.member("stage", st.spark);
            w.member("op", opKindName(st.op));
            w.member("input", stageInputName(st.input));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("log2_tuples").beginArray();
    for (unsigned l : grid.log2Tuples)
        w.value(std::uint64_t{l});
    w.endArray();
    w.key("seeds").beginArray();
    for (std::uint64_t s : grid.seeds)
        w.value(s);
    w.endArray();
    w.key("geometries").beginArray();
    for (const MemGeometry &geo : grid.geometries) {
        w.beginObject();
        w.member("name", geometryName(geo));
        w.member("stacks", std::uint64_t{geo.numStacks});
        w.member("vaults_per_stack", std::uint64_t{geo.vaultsPerStack});
        w.member("banks_per_vault", std::uint64_t{geo.banksPerVault});
        w.member("row_bytes", geo.rowBytes);
        w.member("vault_bytes", geo.vaultBytes);
        w.endObject();
    }
    w.endArray();
    w.key("exec_overrides").beginArray();
    for (const ExecOverride &ov : grid.execOverrides) {
        w.beginObject();
        w.member("name", ov.name());
        // Only overridden knobs appear; absent means "inherit preset".
        if (ov.radixBits >= 0)
            w.member("radix_bits", std::int64_t{ov.radixBits});
        if (ov.readChunkBytes >= 0)
            w.member("read_chunk_bytes", std::int64_t{ov.readChunkBytes});
        if (ov.tlbEntries >= 0)
            w.member("tlb_entries", std::int64_t{ov.tlbEntries});
        w.endObject();
    }
    w.endArray();
    w.key("zipf_thetas").beginArray();
    for (double z : grid.zipfThetas)
        w.value(z);
    w.endArray();
    w.key("traffics").beginArray();
    for (const TrafficSpec &t : grid.traffics) {
        w.beginObject();
        w.member("name", t.name());
        if (!t.degenerate()) {
            w.member("process", arrivalProcessName(t.process));
            w.member("lambda_qps", t.lambdaQps);
            w.member("queries", t.queries);
            w.member("warmup", t.warmup);
            w.member("max_in_flight", t.maxInFlight);
            w.member("seed", t.seed);
            if (!t.mix.empty()) {
                w.key("mix").beginArray();
                for (const TrafficMixEntry &m : t.mix) {
                    w.beginObject();
                    w.member("scenario", m.scenario.name);
                    w.member("weight", m.weight);
                    w.endObject();
                }
                w.endArray();
                w.member("mix_zipf_theta", t.mixZipfTheta);
            }
        }
        w.endObject();
    }
    w.endArray();
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
            hit = resume->find(campaignJobKey(job)) != nullptr;
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
