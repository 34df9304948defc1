/**
 * @file
 * Design-choice ablation: how many stream buffers does the Mondrian tile
 * need? The paper provisions eight 384 B buffers (§5.2); this sweep shows
 * scan throughput saturating around that point.
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Ablation (§5.2): stream-buffer count sweep (Mondrian scan)",
           wl);

    ServedRunner runner(wl);
    std::vector<std::vector<std::string>> table;
    table.push_back({"stream buffers", "scan ms", "GB/s/vault"});
    for (unsigned depth : {1u, 2u, 4u, 8u, 16u}) {
        SystemConfig sys = makeSystem(SystemKind::kMondrian);
        sys.core.streamDepth = depth;
        sys.name = "mondrian-sb" + std::to_string(depth);
        RunResult r = runner.run(sys, degenerateScenario(OpKind::kScan));
        table.push_back({std::to_string(depth),
                         fmt(ticksToSeconds(r.totalTime) * 1e3, 3),
                         fmt(r.probeVaultBWGBps)});
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper choice: 8 buffers (saturation point under "
                "row-miss latency)\n");
    return 0;
}
