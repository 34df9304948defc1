/**
 * @file
 * Open-loop served workload: the sessions pipeline under Poisson query
 * arrivals on one simulated machine, swept across arrival rates.
 *
 * A single-query run answers "how fast is one query?"; open-loop
 * traffic answers the operator's question instead: at a given
 * offered load, what throughput does the machine sustain, what do the
 * latency percentiles look like once queries queue behind each other,
 * and what does each query cost in energy? This driver sweeps lambda
 * over a small range and prints the served table per system, showing
 * the classic open-loop behavior: flat latency while the machine keeps
 * up, then queueing delay blowing up the tail as the offered rate
 * approaches saturation.
 *
 * Usage: served_workload [log2_events]   (default 12)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "example_args.hh"

#include "common/logging.hh"
#include "system/traffic.hh"

using namespace mondrian;

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::uint64_t events =
        1ull << example_args::intArg(argc, argv, 1, "log2_events", 8, 20, 12);

    Scenario sessions;
    std::string error;
    if (!scenarioFromSpec("sessions", sessions, error)) {
        std::fprintf(stderr, "internal: %s\n", error.c_str());
        return 1;
    }

    WorkloadConfig wl;
    wl.tuples = events;
    wl.seed = 42;

    std::printf("Served '%s' pipeline over %llu events, Poisson "
                "arrivals, 24 queries per point\n\n",
                sessions.name.c_str(),
                static_cast<unsigned long long>(events));
    std::printf("%-10s %10s %12s %12s %12s %12s %12s\n", "system",
                "lambda", "sustained", "p50 us", "p95 us", "p99 us",
                "mJ/query");

    for (SystemKind k : {SystemKind::kCpu, SystemKind::kMondrian}) {
        for (double lambda : {500.0, 2000.0, 8000.0}) {
            TrafficSpec traffic;
            std::string spec = "poisson,lambda=" +
                               std::to_string(static_cast<long long>(lambda)) +
                               ",queries=24,seed=1";
            if (!parseTrafficSpec(spec, traffic, error)) {
                std::fprintf(stderr, "internal: %s\n", error.c_str());
                return 1;
            }

            ServedRunner runner(wl, traffic);
            RunResult r = runner.run(makeSystem(k), sessions);
            if (!r.served.valid || r.served.completed == 0) {
                std::fprintf(stderr, "%s: served run produced no "
                             "completed queries\n", systemKindName(k));
                return 1;
            }
            const ServedMetrics &s = r.served;
            std::printf("%-10s %10.0f %12.1f %12.3f %12.3f %12.3f %12.4f\n",
                        systemKindName(k), lambda, s.sustainedQps,
                        static_cast<double>(s.latencyP50) / 1e6,
                        static_cast<double>(s.latencyP95) / 1e6,
                        static_cast<double>(s.latencyP99) / 1e6,
                        s.energyPerQueryJ * 1e3);
        }
    }
    return 0;
}
