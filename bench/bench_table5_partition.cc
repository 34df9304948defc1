/**
 * @file
 * Regenerates Table 5: Join partitioning-phase speedup over the CPU
 * baseline, for NMP, NMP-perm, Mondrian-noperm and Mondrian, plus the
 * per-vault bandwidth utilization quoted in §7.1.
 *
 * Paper reference values: NMP 58x (1.0 GB/s/vault), NMP-perm 98x
 * (1.6 GB/s), Mondrian-noperm 142x (2.4 GB/s), Mondrian 273x (4.5 GB/s).
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Table 5: partitioning-phase speedup vs CPU (Join)", wl);

    ServedRunner runner(wl);
    RunResult cpu = runner.run(makeSystem(SystemKind::kCpu),
                               degenerateScenario(OpKind::kJoin));

    struct Row
    {
        SystemKind kind;
        const char *paperSpeedup;
        const char *paperBW;
    };
    const Row rows[] = {
        {SystemKind::kNmp, "58x", "1.0"},
        {SystemKind::kNmpPerm, "98x", "1.6"},
        {SystemKind::kMondrianNoperm, "142x", "2.4"},
        {SystemKind::kMondrian, "273x", "4.5"},
    };

    std::vector<RunResult> all{cpu};
    std::vector<std::vector<std::string>> table;
    table.push_back({"system", "partition speedup", "paper", "GB/s/vault",
                     "paper GB/s", "partition ms"});
    table.push_back(
        {"cpu", "1.0x", "1x", fmt(cpu.partitionVaultBWGBps), "-",
         fmt(ticksToSeconds(cpu.partitionTime) * 1e3, 3)});
    for (const Row &row : rows) {
        RunResult r = runner.run(makeSystem(row.kind),
                                 degenerateScenario(OpKind::kJoin));
        if (r.joinMatches != cpu.joinMatches)
            fatal("functional mismatch on %s", r.system.c_str());
        all.push_back(r);
        table.push_back({r.system, fmt(partitionSpeedup(cpu, r), 1) + "x",
                         row.paperSpeedup, fmt(r.partitionVaultBWGBps),
                         row.paperBW,
                         fmt(ticksToSeconds(r.partitionTime) * 1e3, 3)});
    }
    std::printf("%s\n", renderTable(table).c_str());
    maybeWriteJson(argc, argv, all);
    return 0;
}
