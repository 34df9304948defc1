/**
 * @file
 * The clickstream-sessions pipeline (filter events, join with the user
 * dimension, aggregate per user, rank) — now a thin driver over the
 * Scenario API: the "sessions" preset runs as one pipeline per system
 * through the ServedRunner (one query), so energy, per-vault bandwidth and per-stage
 * functional results come from the same machinery as every campaign run
 * instead of being hand-rolled (and partly dropped) here.
 *
 * Cross-system functional verification: every stage's functional
 * outputs (matches, groups, checksums, tuple flow) must be identical on
 * every system; the driver exits non-zero if they are not.
 *
 * Usage: analytics_pipeline [log2_events]   (default 15)
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "example_args.hh"

#include "common/logging.hh"
#include "system/report.hh"
#include "system/traffic.hh"

using namespace mondrian;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::uint64_t events =
        1ull << example_args::intArg(argc, argv, 1, "log2_events", 8, 24, 15);

    Scenario sessions;
    std::string error;
    if (!scenarioFromSpec("sessions", sessions, error)) {
        std::fprintf(stderr, "internal: %s\n", error.c_str());
        return 1;
    }

    std::string stages;
    for (const ScenarioStage &st : sessions.stages)
        stages += (stages.empty() ? "" : " -> ") + st.spark;
    std::printf("Clickstream pipeline '%s': %s over %llu events\n\n",
                sessions.name.c_str(), stages.c_str(),
                static_cast<unsigned long long>(events));

    WorkloadConfig wl;
    wl.tuples = events;
    wl.joinSmallRatio = 0.25; // users : events = 1 : 4
    ServedRunner runner(wl);

    const std::vector<SystemKind> systems = {
        SystemKind::kCpu, SystemKind::kNmp, SystemKind::kMondrian};
    std::vector<RunResult> results;
    for (SystemKind kind : systems) {
        RunResult res = runner.run(makeSystem(kind), sessions);
        std::printf("%s: total %s ms, energy %s mJ\n", res.system.c_str(),
                    fmt(res.seconds() * 1e3, 3).c_str(),
                    fmt(res.energy.total() * 1e3, 3).c_str());
        for (const StageResult &s : res.stages) {
            std::printf("  %-12s (%-7s) %8s ms  %8s mJ  %6s GB/s/vault  "
                        "%llu -> %llu tuples\n",
                        s.stage.c_str(), s.op.c_str(),
                        fmt(ticksToSeconds(s.totalTime) * 1e3, 3).c_str(),
                        fmt(s.energy.total() * 1e3, 3).c_str(),
                        fmt(s.probeVaultBWGBps, 2).c_str(),
                        static_cast<unsigned long long>(s.inputTuples),
                        static_cast<unsigned long long>(s.outputTuples));
        }
        std::printf("  filter->%llu matches  join->%llu matches  "
                    "reduce->%llu groups (checksum %llu)  sort->%llu "
                    "tuples\n\n",
                    static_cast<unsigned long long>(res.scanMatches),
                    static_cast<unsigned long long>(res.joinMatches),
                    static_cast<unsigned long long>(res.groupCount),
                    static_cast<unsigned long long>(res.aggChecksum),
                    static_cast<unsigned long long>(
                        res.stages.back().outputTuples));
        results.push_back(std::move(res));
    }

    // Functional verification: every stage must produce identical
    // results on every system.
    bool ok = true;
    const RunResult &ref = results.front();
    for (const RunResult &res : results) {
        for (std::size_t i = 0; i < ref.stages.size(); ++i) {
            const StageResult &a = ref.stages[i];
            const StageResult &b = res.stages[i];
            if (a.scanMatches != b.scanMatches ||
                a.joinMatches != b.joinMatches ||
                a.groupCount != b.groupCount ||
                a.aggChecksum != b.aggChecksum ||
                a.inputTuples != b.inputTuples ||
                a.outputTuples != b.outputTuples) {
                std::printf("FUNCTIONAL MISMATCH at stage %zu (%s): %s "
                            "vs %s\n",
                            i, a.stage.c_str(), ref.system.c_str(),
                            res.system.c_str());
                ok = false;
            }
        }
    }
    std::printf("functional cross-system check: %s\n",
                ok ? "PASS" : "FAIL");

    std::printf("\npipeline speedup vs CPU: NMP %sx, Mondrian %sx\n",
                fmt(overallSpeedup(results[0], results[1]), 1).c_str(),
                fmt(overallSpeedup(results[0], results[2]), 1).c_str());
    return ok ? 0 : 1;
}
