/**
 * @file
 * Regenerates Fig. 9: efficiency (performance per watt) improvement over
 * the CPU baseline for NMP, NMP-perm and Mondrian.
 *
 * Paper shape: efficiency follows the performance trends with smaller
 * gains (Mondrian draws more dynamic power for its bandwidth), peaking
 * at 28x over CPU and 5x over the best NMP baseline.
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Fig. 9: efficiency (perf/W) improvement vs CPU", wl);

    ServedRunner runner(wl);
    const OpKind ops[] = {OpKind::kScan, OpKind::kSort, OpKind::kGroupBy,
                          OpKind::kJoin};

    std::vector<RunResult> all;
    std::vector<std::vector<std::string>> table;
    table.push_back({"operator", "nmp", "nmp-perm", "mondrian",
                     "mondrian speedup", "note"});
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
        double eff = efficiencyImprovement(cpu, mon);
        double spd = overallSpeedup(cpu, mon);
        table.push_back(
            {opKindName(op), fmt(efficiencyImprovement(cpu, nmp), 1) + "x",
             fmt(efficiencyImprovement(cpu, perm), 1) + "x",
             fmt(eff, 1) + "x", fmt(spd, 1) + "x",
             eff < spd ? "gains < speedup (as in paper)" : ""});
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper reference: Mondrian up to 28x vs CPU, 5x vs the "
                "best NMP baseline\n");
    maybeWriteJson(argc, argv, all);
    return 0;
}
