#include "system/report.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace mondrian {

namespace {

double
ratio(double base, double sys)
{
    return sys > 0.0 ? base / sys : 0.0;
}

} // namespace

double
overallSpeedup(const RunResult &base, const RunResult &sys)
{
    return ratio(static_cast<double>(base.totalTime),
                 static_cast<double>(sys.totalTime));
}

double
partitionSpeedup(const RunResult &base, const RunResult &sys)
{
    return ratio(static_cast<double>(base.partitionTime),
                 static_cast<double>(sys.partitionTime));
}

double
probeSpeedup(const RunResult &base, const RunResult &sys)
{
    return ratio(static_cast<double>(base.probeTime),
                 static_cast<double>(sys.probeTime));
}

double
efficiencyImprovement(const RunResult &base, const RunResult &sys)
{
    // perf/W = (1/T) / (E/T) = 1/E; both runs do identical work.
    return ratio(base.energy.total(), sys.energy.total());
}

EnergyShares
energyShares(const RunResult &run)
{
    EnergyShares s;
    double total = run.energy.total();
    if (total <= 0.0)
        return s;
    s.dramDynamic = run.energy.dramDynamic / total;
    s.dramStatic = run.energy.dramStatic / total;
    s.cores = run.energy.cores / total;
    s.network = run.energy.network / total;
    return s;
}

std::string
fmt(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
pairedCountLabel(std::size_t paired, std::size_t total)
{
    std::string out = std::to_string(paired);
    if (total != paired)
        out += "/" + std::to_string(total);
    return out;
}

std::string
geomeanCellLabel(double v, std::size_t dropped, int digits)
{
    std::string out = fmt(v, digits) + "x";
    if (dropped > 0)
        out += " (" + std::to_string(dropped) + " dropped)";
    return out;
}

std::string
renderMarkdownTable(const std::vector<std::vector<std::string>> &rows)
{
    if (rows.empty())
        return "";
    std::ostringstream out;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out << '|';
        for (const std::string &cell : rows[r])
            out << ' ' << cell << " |";
        out << '\n';
        if (r == 0) {
            out << '|';
            for (std::size_t c = 0; c < rows[0].size(); ++c)
                out << "---|";
            out << '\n';
        }
    }
    return out.str();
}

std::string
describeRun(const RunResult &run)
{
    std::ostringstream out;
    out << run.op << " on " << run.system << ": total "
        << fmt(ticksToSeconds(run.totalTime) * 1e3, 3) << " ms";
    if (run.partitionTime > 0) {
        out << " (partition "
            << fmt(ticksToSeconds(run.partitionTime) * 1e3, 3)
            << " ms @ " << fmt(run.partitionVaultBWGBps) << " GB/s/vault"
            << ", probe " << fmt(ticksToSeconds(run.probeTime) * 1e3, 3)
            << " ms @ " << fmt(run.probeVaultBWGBps) << " GB/s/vault)";
    }
    out << ", energy " << fmt(run.energy.total() * 1e3, 3) << " mJ";
    return out.str();
}

const char *
phaseKindName(PhaseKind kind)
{
    return kind == PhaseKind::kPartition ? "partition" : "probe";
}

namespace {

void
writeEnergy(JsonWriter &w, const EnergyBreakdown &e)
{
    w.key("energy_j").beginObject();
    w.member("dram_dynamic", e.dramDynamic);
    w.member("dram_static", e.dramStatic);
    w.member("cores", e.cores);
    w.member("network", e.network);
    w.member("total", e.total());
    w.endObject();
}

void
writePhases(JsonWriter &w, const std::vector<PhaseResult> &phases)
{
    w.key("phases").beginArray();
    for (const auto &p : phases) {
        w.beginObject();
        w.member("name", p.name);
        w.member("kind", phaseKindName(p.kind));
        w.member("time_ps", p.time);
        w.member("dram_bytes", p.dramBytes);
        w.member("activations", p.activations);
        w.member("avg_vault_bw_gbps", p.avgVaultBWGBps);
        w.member("core_utilization", p.coreUtilization);
        w.key("stalls").beginObject();
        w.member("store", p.stallStore);
        w.member("stream", p.stallStream);
        w.member("load", p.stallLoad);
        w.member("fence", p.stallFence);
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

} // namespace

void
writeRunResult(JsonWriter &w, const RunResult &run)
{
    w.beginObject();
    w.member("system", run.system);
    w.member("op", run.op);
    w.member("total_time_ps", run.totalTime);
    w.member("partition_time_ps", run.partitionTime);
    w.member("probe_time_ps", run.probeTime);
    w.member("seconds", run.seconds());
    w.member("partition_vault_bw_gbps", run.partitionVaultBWGBps);
    w.member("probe_vault_bw_gbps", run.probeVaultBWGBps);
    w.member("sim_events", run.simEvents);

    writeEnergy(w, run.energy);

    w.key("functional").beginObject();
    w.member("scan_matches", run.scanMatches);
    w.member("join_matches", run.joinMatches);
    w.member("group_count", run.groupCount);
    w.member("agg_checksum", run.aggChecksum);
    w.endObject();

    // Served metrics appear only on non-degenerate traffic runs, so
    // single-query run JSON is byte-identical to the pre-traffic writer.
    if (run.served.valid) {
        const ServedMetrics &s = run.served;
        w.key("served").beginObject();
        w.member("offered", s.offered);
        w.member("admitted", s.admitted);
        w.member("rejected", s.rejected);
        w.member("completed", s.completed);
        w.member("measured_completed", s.measuredCompleted);
        w.member("window_ps", s.window);
        w.member("sustained_qps", s.sustainedQps);
        w.member("latency_p50_ps", s.latencyP50);
        w.member("latency_p95_ps", s.latencyP95);
        w.member("latency_p99_ps", s.latencyP99);
        w.member("latency_max_ps", s.latencyMax);
        w.member("latency_mean_ps", s.latencyMeanPs);
        w.member("energy_per_query_j", s.energyPerQueryJ);
        w.endObject();
    }

    // Per-stage sub-results appear only on multi-stage scenario runs, so
    // classic single-op run JSON is byte-identical to the pre-scenario
    // writer.
    if (!run.stages.empty()) {
        w.key("stages").beginArray();
        for (const StageResult &s : run.stages) {
            w.beginObject();
            w.member("stage", s.stage);
            w.member("op", s.op);
            w.member("input", s.input);
            w.member("total_time_ps", s.totalTime);
            w.member("partition_time_ps", s.partitionTime);
            w.member("probe_time_ps", s.probeTime);
            w.member("partition_vault_bw_gbps", s.partitionVaultBWGBps);
            w.member("probe_vault_bw_gbps", s.probeVaultBWGBps);
            w.member("input_tuples", s.inputTuples);
            w.member("output_tuples", s.outputTuples);
            writeEnergy(w, s.energy);
            w.key("functional").beginObject();
            w.member("scan_matches", s.scanMatches);
            w.member("join_matches", s.joinMatches);
            w.member("group_count", s.groupCount);
            w.member("agg_checksum", s.aggChecksum);
            w.endObject();
            writePhases(w, s.phases);
            w.endObject();
        }
        w.endArray();
    }

    writePhases(w, run.phases);
    w.endObject();
}

namespace {

void
readU64(const JsonValue &obj, const char *k, std::uint64_t &dst)
{
    if (const JsonValue *p = obj.find(k))
        dst = p->asU64();
}

void
readDbl(const JsonValue &obj, const char *k, double &dst)
{
    if (const JsonValue *p = obj.find(k))
        dst = p->asDouble();
}

void
readEnergy(const JsonValue &v, EnergyBreakdown &out)
{
    if (const JsonValue *e = v.find("energy_j")) {
        readDbl(*e, "dram_dynamic", out.dramDynamic);
        readDbl(*e, "dram_static", out.dramStatic);
        readDbl(*e, "cores", out.cores);
        readDbl(*e, "network", out.network);
    }
}

void
readPhases(const JsonValue &v, std::vector<PhaseResult> &out)
{
    const JsonValue *phases = v.find("phases");
    if (!phases || !phases->isArray())
        return;
    for (const JsonValue &pv : phases->items) {
        PhaseResult ph;
        if (const JsonValue *p = pv.find("name"))
            ph.name = p->asString();
        if (const JsonValue *p = pv.find("kind")) {
            ph.kind = p->asString() == "partition" ? PhaseKind::kPartition
                                                   : PhaseKind::kProbe;
        }
        readU64(pv, "time_ps", ph.time);
        readU64(pv, "dram_bytes", ph.dramBytes);
        readU64(pv, "activations", ph.activations);
        readDbl(pv, "avg_vault_bw_gbps", ph.avgVaultBWGBps);
        readDbl(pv, "core_utilization", ph.coreUtilization);
        if (const JsonValue *s = pv.find("stalls")) {
            readDbl(*s, "store", ph.stallStore);
            readDbl(*s, "stream", ph.stallStream);
            readDbl(*s, "load", ph.stallLoad);
            readDbl(*s, "fence", ph.stallFence);
        }
        out.push_back(std::move(ph));
    }
}

} // namespace

bool
readRunResult(const JsonValue &v, RunResult &out)
{
    if (!v.isObject())
        return false;
    out = RunResult{};

    if (const JsonValue *p = v.find("system"))
        out.system = p->asString();
    if (const JsonValue *p = v.find("op"))
        out.op = p->asString();
    if (out.system.empty() || out.op.empty())
        return false;
    readU64(v, "total_time_ps", out.totalTime);
    readU64(v, "partition_time_ps", out.partitionTime);
    readU64(v, "probe_time_ps", out.probeTime);
    readDbl(v, "partition_vault_bw_gbps", out.partitionVaultBWGBps);
    readDbl(v, "probe_vault_bw_gbps", out.probeVaultBWGBps);
    readU64(v, "sim_events", out.simEvents); // absent pre-PR-8: stays 0
    readEnergy(v, out.energy);

    if (const JsonValue *f = v.find("functional")) {
        readU64(*f, "scan_matches", out.scanMatches);
        readU64(*f, "join_matches", out.joinMatches);
        readU64(*f, "group_count", out.groupCount);
        readU64(*f, "agg_checksum", out.aggChecksum);
    }
    if (const JsonValue *sv = v.find("served")) {
        ServedMetrics &s = out.served;
        s.valid = true;
        readU64(*sv, "offered", s.offered);
        readU64(*sv, "admitted", s.admitted);
        readU64(*sv, "rejected", s.rejected);
        readU64(*sv, "completed", s.completed);
        readU64(*sv, "measured_completed", s.measuredCompleted);
        readU64(*sv, "window_ps", s.window);
        readDbl(*sv, "sustained_qps", s.sustainedQps);
        readU64(*sv, "latency_p50_ps", s.latencyP50);
        readU64(*sv, "latency_p95_ps", s.latencyP95);
        readU64(*sv, "latency_p99_ps", s.latencyP99);
        readU64(*sv, "latency_max_ps", s.latencyMax);
        readDbl(*sv, "latency_mean_ps", s.latencyMeanPs);
        readDbl(*sv, "energy_per_query_j", s.energyPerQueryJ);
    }
    if (const JsonValue *stages = v.find("stages");
        stages && stages->isArray()) {
        for (const JsonValue &sv : stages->items) {
            StageResult s;
            if (const JsonValue *p = sv.find("stage"))
                s.stage = p->asString();
            if (const JsonValue *p = sv.find("op"))
                s.op = p->asString();
            if (const JsonValue *p = sv.find("input"))
                s.input = p->asString();
            readU64(sv, "total_time_ps", s.totalTime);
            readU64(sv, "partition_time_ps", s.partitionTime);
            readU64(sv, "probe_time_ps", s.probeTime);
            readDbl(sv, "partition_vault_bw_gbps", s.partitionVaultBWGBps);
            readDbl(sv, "probe_vault_bw_gbps", s.probeVaultBWGBps);
            readU64(sv, "input_tuples", s.inputTuples);
            readU64(sv, "output_tuples", s.outputTuples);
            readEnergy(sv, s.energy);
            if (const JsonValue *f = sv.find("functional")) {
                readU64(*f, "scan_matches", s.scanMatches);
                readU64(*f, "join_matches", s.joinMatches);
                readU64(*f, "group_count", s.groupCount);
                readU64(*f, "agg_checksum", s.aggChecksum);
            }
            readPhases(sv, s.phases);
            out.stages.push_back(std::move(s));
        }
    }
    readPhases(v, out.phases);
    return true;
}

std::string
runResultJson(const RunResult &run)
{
    JsonWriter w;
    // report-precision: canonical 12-digit (human-facing JSON helper).
    writeRunResult(w, run);
    return w.str();
}

GeomeanStats
geomeanStats(const std::vector<double> &values)
{
    GeomeanStats stats;
    double sum = 0.0;
    for (double v : values) {
        if (v > 0.0) {
            sum += std::log(v);
            ++stats.used;
        } else {
            ++stats.dropped;
        }
    }
    if (stats.used > 0)
        stats.value = std::exp(sum / static_cast<double>(stats.used));
    return stats;
}

double
geomean(const std::vector<double> &values)
{
    return geomeanStats(values).value;
}

} // namespace mondrian
