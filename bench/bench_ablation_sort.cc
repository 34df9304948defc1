/**
 * @file
 * Reproduces the §5.2 claim: the bitonic intra-stream first pass removes
 * four merge passes (~20% of the total at the paper's 32M-tuple vault
 * fill), and quantifies its runtime effect on the Sort probe phase.
 */

#include "bench_common.hh"
#include "engine/sort_algos.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Ablation (§5.2): bitonic first pass vs merge pass count", wl);

    std::vector<std::vector<std::string>> table;
    table.push_back({"tuples/vault", "passes (scalar)", "passes (bitonic)",
                     "saved", "saved %"});
    for (unsigned log2n : {12u, 16u, 20u, 25u}) {
        std::uint64_t n = 1ull << log2n;
        unsigned scalar = LocalSorter::mergePassCount(n, 1);
        unsigned simd = LocalSorter::mergePassCount(n, kBitonicGroup) + 1;
        table.push_back({std::to_string(n), std::to_string(scalar),
                         std::to_string(simd) + " (incl. bitonic)",
                         std::to_string(scalar - simd),
                         fmt(100.0 * (scalar - simd) / scalar, 0) + "%"});
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper reference: ~20%% fewer passes at 32M tuples "
                "(512 MB vault of 16 B tuples)\n\n");

    // Runtime effect: Mondrian sort probe with and without the bitonic
    // pass at the configured workload size.
    ServedRunner runner(wl);
    RunResult with_bitonic = runner.run(makeSystem(SystemKind::kMondrian),
                                        degenerateScenario(OpKind::kSort));
    SystemConfig no_bitonic = makeSystem(SystemKind::kMondrian);
    no_bitonic.exec.simd = false; // scalar run generation + merges
    no_bitonic.name = "mondrian-nobitonic";
    RunResult without = runner.run(no_bitonic,
                                   degenerateScenario(OpKind::kSort));
    std::printf("sort probe: %s ms with bitonic+SIMD, %s ms scalar "
                "(%sx)\n",
                fmt(ticksToSeconds(with_bitonic.probeTime) * 1e3, 3).c_str(),
                fmt(ticksToSeconds(without.probeTime) * 1e3, 3).c_str(),
                fmt(probeSpeedup(without, with_bitonic), 2).c_str());
    return 0;
}
