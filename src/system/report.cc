#include "system/report.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "system/result_fields.hh"

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

/** writeRunResult's visitor: every member of @c obj, in list order. */
template <typename S>
struct ResultWriter
{
    JsonWriter &w;
    const S &obj;

    template <typename T>
    static void
    write(JsonWriter &w, const T &o)
    {
        w.beginObject();
        ResultWriter<T> v{w, o};
        resultFields(v, std::type_identity<T>{});
        w.endObject();
    }

    void label(const char *name, std::string S::*m) { w.member(name, obj.*m); }
    void
    label(const char *name, PhaseKind S::*m)
    {
        w.member(name, phaseKindName(obj.*m));
    }
    template <typename M>
    void exact(const char *name, M S::*m) { w.member(name, obj.*m); }
    template <typename M>
    void approx(const char *name, M S::*m) { w.member(name, obj.*m); }
    void
    derived(const char *name, double (S::*f)() const)
    {
        w.member(name, (obj.*f)());
    }
    template <typename Fn>
    void
    group(const char *name, Fn fn)
    {
        w.key(name).beginObject();
        fn(*this);
        w.endObject();
    }
    template <typename T>
    void
    object(const char *name, T S::*m, bool T::*valid = nullptr)
    {
        if (!valid || (obj.*m).*valid)
            write(w.key(name), obj.*m);
    }
    template <typename T>
    void
    list(const char *name, std::vector<T> S::*m, Presence presence)
    {
        if (presence == Presence::kNonEmpty && (obj.*m).empty())
            return;
        w.key(name).beginArray();
        for (const T &e : obj.*m)
            write(w, e);
        w.endArray();
    }
};

/**
 * readRunResult's visitor: every listed member must be present and of
 * its writer's type. The first failure names its path in the error; the
 * rest of the visit is then a no-op.
 */
template <typename S>
struct ResultReader
{
    MemberReader m; ///< the object being read, and its path prefix
    S &obj;
    bool ok = true;

    void fail(const std::string &name) { ok = ok && m.fail(name); }
    void
    label(const char *name, std::string S::*f)
    {
        ok = ok && m.str(name, obj.*f) && (!(obj.*f).empty() || m.fail(name));
    }
    void
    label(const char *name, PhaseKind S::*f)
    {
        std::string kind;
        ok = ok && m.str(name, kind);
        if (kind == phaseKindName(PhaseKind::kPartition))
            obj.*f = PhaseKind::kPartition;
        else if (kind != phaseKindName(PhaseKind::kProbe))
            fail(name);
    }
    // A double may also be null, the writer's non-finite marker.
    void scalar(const char *n, std::uint64_t &v) { ok = ok && m.uint(n, v); }
    void scalar(const char *n, double &v) { ok = ok && m.number(n, v, true); }
    template <typename M>
    void exact(const char *name, M S::*f) { scalar(name, obj.*f); }
    template <typename M>
    void approx(const char *name, M S::*f) { scalar(name, obj.*f); }
    void
    derived(const char *name, double (S::*)() const)
    {
        double recomputed = 0.0;
        scalar(name, recomputed);
    }

    /** Read the object @p sub, member @p at, into @p o via @p fields. */
    template <typename T, typename Fields>
    void
    nested(const JsonValue *sub, const std::string &at, T &o, Fields fields)
    {
        if (!ok || !(sub && sub->isObject()))
            return fail(at);
        ResultReader<T> r{{*sub, m.error, m.prefix + at + "."}, o};
        fields(r);
        ok = r.ok;
    }
    template <typename T>
    static void
    allFields(ResultReader<T> &r)
    {
        resultFields(r, std::type_identity<T>{});
    }
    template <typename Fn>
    void
    group(const char *name, Fn fn)
    {
        nested(m.obj.find(name), name, obj, fn);
    }
    template <typename T>
    void
    object(const char *name, T S::*f, bool T::*valid = nullptr)
    {
        const JsonValue *sub = m.obj.find(name);
        if (valid && sub)
            (obj.*f).*valid = true;
        if (!valid || sub)
            nested(sub, name, obj.*f, allFields<T>);
    }
    template <typename T>
    void
    list(const char *name, std::vector<T> S::*f, Presence presence)
    {
        const JsonValue *arr = m.obj.find(name);
        if (!arr && presence == Presence::kNonEmpty)
            return;
        if (ok && !(arr && arr->isArray() &&
                    (!arr->items.empty() || presence == Presence::kAlways)))
            fail(name);
        for (std::size_t i = 0; ok && i < arr->items.size(); ++i)
            nested(&arr->items[i],
                   std::string(name) + "[" + std::to_string(i) + "]",
                   (obj.*f).emplace_back(), allFields<T>);
    }
};

} // namespace

void
writeRunResult(JsonWriter &w, const RunResult &run)
{
    ResultWriter<RunResult>::write(w, run);
}

bool
readRunResult(const JsonValue &v, RunResult &out, std::string &error)
{
    out = RunResult{};
    ResultReader<RunResult> r{{v, error}, out};
    resultFields(r, std::type_identity<RunResult>{});
    return r.ok;
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
