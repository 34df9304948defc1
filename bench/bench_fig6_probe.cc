/**
 * @file
 * Regenerates Fig. 6: probe-phase speedup over the CPU baseline (log
 * scale) for Scan, Sort, Group-by and Join on NMP-rand, NMP-seq and
 * Mondrian.
 *
 * Paper shape: Scan ~2.4x for both NMP variants (identical code) and
 * ~2.6x more for Mondrian; Sort widens both gaps; for Group-by and Join,
 * NMP-rand beats NMP-seq (the sequential algorithm's extra log n passes
 * outweigh its access pattern without SIMD), and Mondrian absorbs the
 * algorithmic complexity (up to 22x vs CPU).
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Fig. 6: probe-phase speedup vs CPU (log scale in the paper)",
           wl);

    ServedRunner runner(wl);
    const OpKind ops[] = {OpKind::kScan, OpKind::kSort, OpKind::kGroupBy,
                          OpKind::kJoin};
    const SystemKind systems[] = {SystemKind::kNmpRand, SystemKind::kNmpSeq,
                                  SystemKind::kMondrian};

    std::vector<RunResult> all;
    std::vector<std::vector<std::string>> table;
    table.push_back({"operator", "nmp-rand", "nmp-seq", "mondrian",
                     "cpu probe ms", "mondrian GB/s/vault"});
    for (OpKind op : ops) {
        RunResult cpu = runner.run(makeSystem(SystemKind::kCpu),
                                   degenerateScenario(op));
        all.push_back(cpu);
        std::vector<std::string> row{opKindName(op)};
        double mon_bw = 0.0;
        for (SystemKind k : systems) {
            if (op == OpKind::kScan && k == SystemKind::kNmpSeq) {
                // Scan has no sort/hash choice: NMP-seq == NMP-rand (§7.1).
                row.push_back(row.back());
                continue;
            }
            RunResult r = runner.run(makeSystem(k), degenerateScenario(op));
            all.push_back(r);
            row.push_back(fmt(probeSpeedup(cpu, r), 1) + "x");
            if (k == SystemKind::kMondrian)
                mon_bw = r.probeVaultBWGBps;
        }
        row.push_back(fmt(ticksToSeconds(cpu.probeTime) * 1e3, 3));
        row.push_back(fmt(mon_bw));
        table.push_back(row);
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper reference: Scan 2.4/2.4/~6x; Group-by & Join: "
                "NMP-rand > NMP-seq, Mondrian up to 22x\n");
    maybeWriteJson(argc, argv, all);
    return 0;
}
