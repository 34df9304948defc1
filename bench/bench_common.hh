/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the paper's
 * tables and figures.
 *
 * Every bench accepts:
 *   argv[1] (optional): log2 of |S| tuples (default 16)
 *   argv[2] (optional): random seed (default 42)
 *   argv[3] (optional): path to dump the raw RunResults as JSON
 *
 * Benches print the paper-shaped table plus the measured raw numbers so
 * EXPERIMENTS.md can record paper-vs-measured side by side. The JSON dump
 * uses the campaign serializer (system/report.hh), so figure data and CI
 * campaign artifacts share one schema.
 */

#ifndef MONDRIAN_BENCH_BENCH_COMMON_HH
#define MONDRIAN_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "system/report.hh"
#include "system/traffic.hh"

namespace mondrian::bench {

/** Parse the standard bench command line. */
inline WorkloadConfig
parseArgs(int argc, char **argv, unsigned default_log2 = 16)
{
    setVerbose(false);
    WorkloadConfig wl;
    unsigned log2_tuples = default_log2;
    if (argc > 1)
        log2_tuples = static_cast<unsigned>(std::atoi(argv[1]));
    if (argc > 2)
        wl.seed = static_cast<std::uint64_t>(std::atoll(argv[2]));
    wl.tuples = 1ull << log2_tuples;
    return wl;
}

/** Print a standard bench banner. */
inline void
banner(const char *what, const WorkloadConfig &wl)
{
    std::printf("=== %s ===\n", what);
    std::printf("workload: %llu tuples (16 B each), seed %llu, "
                "scaled 64-vault system (see DESIGN.md section 5)\n\n",
                static_cast<unsigned long long>(wl.tuples),
                static_cast<unsigned long long>(wl.seed));
}

/** Dump raw run results as JSON when the bench got a path in argv[3]. */
inline void
maybeWriteJson(int argc, char **argv, const std::vector<RunResult> &runs)
{
    if (argc <= 3)
        return;
    std::ofstream out(argv[3], std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", argv[3]);
        std::exit(2);
    }
    out << runResultsJson(runs) << '\n';
    std::fprintf(stderr, "raw run data written to %s\n", argv[3]);
}

} // namespace mondrian::bench

#endif // MONDRIAN_BENCH_BENCH_COMMON_HH
