/**
 * @file
 * The one axis list of a campaign grid: the eight axes of CampaignGrid
 * named once, in report order. validateGrid, the report's grid block
 * (writeCampaignGrid/readCampaignGrid), the coordinates of each run
 * entry, gridGroupKey, campaignJobKey and the analysis CLI's run labels
 * are visitors over it.
 *
 * An axis with values of type T has:
 *   - a grid-block member, an array of one element per value, written
 *     and read by the axis's codec;
 *   - a run-coordinate member: the run's value itself when T is a number
 *     (an unsigned integer or a double, read back by the block codec),
 *     its label otherwise;
 *   - a label: the string reports print for a value. validateGrid
 *     rejects two values of one axis with one label, so the labels of a
 *     job are its grid point's identity.
 *
 * expandGrid's loop nest is not a visitor: its order (traffic outermost,
 * system innermost) fixes the job indices and so the report bytes.
 */

#ifndef MONDRIAN_SYSTEM_GRID_AXES_HH
#define MONDRIAN_SYSTEM_GRID_AXES_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "system/campaign.hh"

namespace mondrian {

/** One axis of CampaignGrid (see the file comment). */
template <typename T>
struct GridAxis
{
    using Value = T;
    const char *block;      ///< grid-block member, e.g. "systems"
    const char *coordinate; ///< run-coordinate member, e.g. "system"
    const char *name;       ///< validateGrid's name for the axis
    const char *noun;       ///< and for one of its values
    std::vector<T> CampaignGrid::*values;
    T CampaignJob::*value;
    std::string (*label)(const T &);
    /** The grid-block element codec; the reader sets @p what on a
     *  fault. */
    void (*write)(JsonWriter &w, const T &v);
    bool (*read)(const JsonValue &v, T &out, std::string &what);
};

// ------------------------------------------- grid-block element codecs

/** An entry's "name" member must equal the label its fields rebuild. */
inline bool
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

inline bool
readSystem(const JsonValue &v, SystemKind &k, std::string &what)
{
    std::string name;
    const bool is_string = readString(&v, name);
    what = is_string ? "unknown system '" + name + "'" : "not a system name";
    return is_string && systemKindFromName(name, k);
}

inline void
writeScenario(JsonWriter &w, const Scenario &sc)
{
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

inline bool
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

template <typename T>
bool
readUintEntry(const JsonValue &v, T &out, std::string &what)
{
    what = "not an unsigned integer";
    return readUint(&v, out);
}

inline void
writeGeometry(JsonWriter &w, const MemGeometry &geo)
{
    w.beginObject();
    w.member("name", geometryName(geo));
    w.member("stacks", std::uint64_t{geo.numStacks});
    w.member("vaults_per_stack", std::uint64_t{geo.vaultsPerStack});
    w.member("banks_per_vault", std::uint64_t{geo.banksPerVault});
    w.member("row_bytes", geo.rowBytes);
    w.member("vault_bytes", geo.vaultBytes);
    w.endObject();
}

inline bool
readGeometry(const JsonValue &v, MemGeometry &geo, std::string &what)
{
    MemberReader m{v, what};
    return m.uint("stacks", geo.numStacks) &&
           m.uint("vaults_per_stack", geo.vaultsPerStack) &&
           m.uint("banks_per_vault", geo.banksPerVault) &&
           m.uint("row_bytes", geo.rowBytes) &&
           m.uint("vault_bytes", geo.vaultBytes) &&
           labelMatches(v, geometryName(geo), what);
}

inline void
writeExec(JsonWriter &w, const ExecOverride &ov)
{
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

inline bool
readExec(const JsonValue &v, ExecOverride &ov, std::string &what)
{
    // Absent knobs inherit the preset.
    MemberReader m{v, what};
    return m.optUint("radix_bits", ov.radixBits) &&
           m.optUint("read_chunk_bytes", ov.readChunkBytes) &&
           m.optUint("tlb_entries", ov.tlbEntries) &&
           labelMatches(v, ov.name(), what);
}

inline void
writeTraffic(JsonWriter &w, const TrafficSpec &t)
{
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

inline bool
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

// ------------------------------------------------------------- the list

/**
 * Call @p v on each axis, in report order, until a call returns false.
 * @return true when every call returned true.
 */
template <typename V>
bool
visitGridAxes(V &&v)
{
    return v(GridAxis<SystemKind>{
               "systems", "system", "systems", "system",
               &CampaignGrid::systems, &CampaignJob::system,
               [](const auto &k) { return std::string(systemKindName(k)); },
               [](JsonWriter &w, const SystemKind &k) {
                   w.value(systemKindName(k));
               },
               readSystem}) &&
           v(GridAxis<Scenario>{
               "scenarios", "scenario", "scenario", "scenario",
               &CampaignGrid::scenarios, &CampaignJob::scenario,
               [](const Scenario &sc) { return sc.name; }, writeScenario,
               readScenario}) &&
           v(GridAxis<unsigned>{
               "log2_tuples", "log2_tuples", "log2-tuples",
               "log2-tuples value", &CampaignGrid::log2Tuples,
               &CampaignJob::log2Tuples,
               [](const unsigned &l) { return std::to_string(l); },
               [](JsonWriter &w, const unsigned &l) { w.value(l); },
               readUintEntry<unsigned>}) &&
           v(GridAxis<std::uint64_t>{
               "seeds", "seed", "seeds", "seed", &CampaignGrid::seeds,
               &CampaignJob::seed,
               [](const std::uint64_t &s) { return std::to_string(s); },
               [](JsonWriter &w, const std::uint64_t &s) { w.value(s); },
               readUintEntry<std::uint64_t>}) &&
           v(GridAxis<MemGeometry>{
               "geometries", "geometry", "geometry", "geometry",
               &CampaignGrid::geometries, &CampaignJob::geometry,
               geometryName, writeGeometry, readGeometry}) &&
           v(GridAxis<ExecOverride>{
               "exec_overrides", "exec", "exec-ablation",
               "exec-ablation point", &CampaignGrid::execOverrides,
               &CampaignJob::exec,
               [](const ExecOverride &ov) { return ov.name(); }, writeExec,
               readExec}) &&
           // Labeled at the report's 12 digits: thetas that differ only
           // beyond them are one grid point.
           v(GridAxis<double>{
               "zipf_thetas", "zipf_theta", "zipf-theta", "zipf-theta",
               &CampaignGrid::zipfThetas, &CampaignJob::zipfTheta,
               [](const double &z) { return JsonWriter::doubleString(z); },
               [](JsonWriter &w, const double &z) { w.value(z); },
               [](const JsonValue &e, double &z, std::string &what) {
                   what = "not a number";
                   return readNumber(&e, z);
               }}) &&
           v(GridAxis<TrafficSpec>{
               "traffics", "traffic", "traffic", "traffic point",
               &CampaignGrid::traffics, &CampaignJob::traffic,
               [](const TrafficSpec &t) { return t.name(); }, writeTraffic,
               readTraffic});
}

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_GRID_AXES_HH
