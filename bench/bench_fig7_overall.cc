/**
 * @file
 * Regenerates Fig. 7: overall (partition + probe) speedup over the CPU
 * baseline for NMP, NMP-perm and Mondrian, plus the Table 2 phase split.
 *
 * Paper shape: Mondrian peaks at 49x over CPU and 5x over the best NMP
 * baseline (NMP-perm partitioning + NMP-rand probe).
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Fig. 7: overall speedup vs CPU (log scale in the paper)", wl);

    ServedRunner runner(wl);
    const OpKind ops[] = {OpKind::kScan, OpKind::kSort, OpKind::kGroupBy,
                          OpKind::kJoin};

    std::vector<RunResult> all;
    std::vector<std::vector<std::string>> table;
    table.push_back({"operator", "nmp", "nmp-perm", "mondrian",
                     "mondrian/best-nmp", "cpu part ms", "cpu probe ms"});
    for (OpKind op : ops) {
        RunResult cpu = runner.run(makeSystem(SystemKind::kCpu),
                                   degenerateScenario(op));
        RunResult nmp = runner.run(makeSystem(SystemKind::kNmp),
                                   degenerateScenario(op));
        RunResult perm = runner.run(makeSystem(SystemKind::kNmpPerm),
                                    degenerateScenario(op));
        RunResult mon = runner.run(makeSystem(SystemKind::kMondrian),
                                   degenerateScenario(op));
        for (const RunResult &r : {cpu, nmp, perm, mon})
            all.push_back(r);
        double best_nmp = std::max(overallSpeedup(cpu, nmp),
                                   overallSpeedup(cpu, perm));
        table.push_back(
            {opKindName(op), fmt(overallSpeedup(cpu, nmp), 1) + "x",
             fmt(overallSpeedup(cpu, perm), 1) + "x",
             fmt(overallSpeedup(cpu, mon), 1) + "x",
             fmt(overallSpeedup(cpu, mon) / best_nmp, 1) + "x",
             fmt(ticksToSeconds(cpu.partitionTime) * 1e3, 3),
             fmt(ticksToSeconds(cpu.probeTime) * 1e3, 3)});
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper reference: Mondrian up to 49x vs CPU and 5x vs "
                "the best NMP baseline\n");
    maybeWriteJson(argc, argv, all);
    return 0;
}
