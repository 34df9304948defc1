/**
 * @file
 * The one field list of a run result's JSON form: each result struct
 * names its members once, in the writer's order, with the class the
 * report diff compares them by. writeRunResult, the strict
 * readRunResult (report.cc) and the per-run diff of diffReports
 * (analysis.cc) are visitors over it. A visitor of struct S has:
 *
 *   label(name, M S::*)      identity: a string or PhaseKind
 *   exact(name, M S::*)      integer; any difference is a mismatch
 *   approx(name, M S::*)     integer or double, compared within --rtol
 *   derived(name, double (S::*)() const)    written, never diffed
 *   group(name, fn)          a JSON object of more members of S
 *   object(name, T S::*[, bool T::*valid])  present only when valid
 *   list(name, std::vector<T> S::*, Presence)
 */

#ifndef MONDRIAN_SYSTEM_RESULT_FIELDS_HH
#define MONDRIAN_SYSTEM_RESULT_FIELDS_HH

#include <type_traits>

#include "system/runner.hh"

namespace mondrian {

/** An array is written always, or only when non-empty (and then is
 *  never read back empty). */
enum class Presence { kAlways, kNonEmpty };

/** The functional digests, one group in a run and in each stage. */
template <typename S, typename V>
void
functionalFields(V &v)
{
    v.group("functional", [](auto &g) {
        g.exact("scan_matches", &S::scanMatches);
        g.exact("join_matches", &S::joinMatches);
        g.exact("group_count", &S::groupCount);
        g.exact("agg_checksum", &S::aggChecksum);
    });
}

template <typename V>
void
resultFields(V &v, std::type_identity<PhaseResult>)
{
    using S = PhaseResult;
    v.label("name", &S::name);
    v.label("kind", &S::kind);
    v.approx("time_ps", &S::time);
    v.approx("dram_bytes", &S::dramBytes);
    v.approx("activations", &S::activations);
    v.approx("avg_vault_bw_gbps", &S::avgVaultBWGBps);
    v.approx("core_utilization", &S::coreUtilization);
    v.group("stalls", [](auto &g) {
        g.approx("store", &S::stallStore);
        g.approx("stream", &S::stallStream);
        g.approx("load", &S::stallLoad);
        g.approx("fence", &S::stallFence);
    });
}

template <typename V>
void
resultFields(V &v, std::type_identity<EnergyBreakdown>)
{
    using S = EnergyBreakdown;
    v.approx("dram_dynamic", &S::dramDynamic);
    v.approx("dram_static", &S::dramStatic);
    v.approx("cores", &S::cores);
    v.approx("network", &S::network);
    v.derived("total", &S::total);
}

template <typename V>
void
resultFields(V &v, std::type_identity<ServedMetrics>)
{
    using S = ServedMetrics;
    // Admission accounting is deterministic; rates, latencies and
    // energy compare at tolerance.
    v.exact("offered", &S::offered);
    v.exact("admitted", &S::admitted);
    v.exact("rejected", &S::rejected);
    v.exact("completed", &S::completed);
    v.exact("measured_completed", &S::measuredCompleted);
    v.approx("window_ps", &S::window);
    v.approx("sustained_qps", &S::sustainedQps);
    v.approx("latency_p50_ps", &S::latencyP50);
    v.approx("latency_p95_ps", &S::latencyP95);
    v.approx("latency_p99_ps", &S::latencyP99);
    v.approx("latency_max_ps", &S::latencyMax);
    v.approx("latency_mean_ps", &S::latencyMeanPs);
    v.approx("energy_per_query_j", &S::energyPerQueryJ);
}

template <typename V>
void
resultFields(V &v, std::type_identity<StageResult>)
{
    using S = StageResult;
    v.label("stage", &S::stage);
    v.label("op", &S::op);
    v.label("input", &S::input);
    v.approx("total_time_ps", &S::totalTime);
    v.approx("partition_time_ps", &S::partitionTime);
    v.approx("probe_time_ps", &S::probeTime);
    v.approx("partition_vault_bw_gbps", &S::partitionVaultBWGBps);
    v.approx("probe_vault_bw_gbps", &S::probeVaultBWGBps);
    v.exact("input_tuples", &S::inputTuples);
    v.exact("output_tuples", &S::outputTuples);
    v.object("energy_j", &S::energy);
    functionalFields<S>(v);
    v.list("phases", &S::phases, Presence::kAlways);
}

template <typename V>
void
resultFields(V &v, std::type_identity<RunResult>)
{
    using S = RunResult;
    v.label("system", &S::system);
    v.label("op", &S::op);
    v.approx("total_time_ps", &S::totalTime);
    v.approx("partition_time_ps", &S::partitionTime);
    v.approx("probe_time_ps", &S::probeTime);
    v.derived("seconds", &S::seconds);
    v.approx("partition_vault_bw_gbps", &S::partitionVaultBWGBps);
    v.approx("probe_vault_bw_gbps", &S::probeVaultBWGBps);
    // Exact by the output-identity contract: the perf transforms must
    // not move a single event.
    v.exact("sim_events", &S::simEvents);
    v.object("energy_j", &S::energy);
    functionalFields<S>(v);
    // The conditional blocks keep single-query, single-stage run JSON
    // byte-identical to the writer before traffic and stages.
    v.object("served", &S::served, &ServedMetrics::valid);
    v.list("stages", &S::stages, Presence::kNonEmpty);
    v.list("phases", &S::phases, Presence::kAlways);
}

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_RESULT_FIELDS_HH
