/**
 * @file
 * Regenerates Fig. 8: energy breakdown (DRAM dynamic / DRAM static /
 * cores / SerDes+NOC) for CPU, NMP, NMP-perm and Mondrian across the four
 * operators.
 *
 * Paper shape: core energy dominates the CPU system; on the NMP systems
 * the probe phase dominates so NMP and NMP-perm look near-identical; and
 * Mondrian's aggressive bandwidth utilization shrinks the static-
 * dominated shares (DRAM static, SerDes idle).
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Fig. 8: energy breakdown (% of total)", wl);

    ServedRunner runner(wl);
    const OpKind ops[] = {OpKind::kScan, OpKind::kSort, OpKind::kGroupBy,
                          OpKind::kJoin};
    const SystemKind systems[] = {SystemKind::kCpu, SystemKind::kNmp,
                                  SystemKind::kNmpPerm,
                                  SystemKind::kMondrian};

    std::vector<RunResult> all;
    std::vector<std::vector<std::string>> table;
    table.push_back({"operator", "system", "DRAM dyn", "DRAM static",
                     "cores", "SerDes+NOC", "total mJ"});
    for (OpKind op : ops) {
        for (SystemKind k : systems) {
            RunResult r = runner.run(makeSystem(k), degenerateScenario(op));
            all.push_back(r);
            EnergyShares s = energyShares(r);
            table.push_back({opKindName(op), r.system,
                             fmt(100 * s.dramDynamic, 1) + "%",
                             fmt(100 * s.dramStatic, 1) + "%",
                             fmt(100 * s.cores, 1) + "%",
                             fmt(100 * s.network, 1) + "%",
                             fmt(r.energy.total() * 1e3, 3)});
        }
    }
    std::printf("%s", renderTable(table).c_str());
    maybeWriteJson(argc, argv, all);
    return 0;
}
