/**
 * @file
 * Design-choice ablation: SIMD width of the Mondrian tile. The paper
 * sizes the unit at 1024 bits (8 tuples) to process a tuple every ~4
 * cycles at the vault's bandwidth (§5.2). The sweep scales the
 * data-parallel kernel costs with width and reports the Join runtime.
 */

#include "bench_common.hh"

using namespace mondrian;
using namespace mondrian::bench;

int
main(int argc, char **argv)
{
    WorkloadConfig wl = parseArgs(argc, argv);
    banner("Ablation (§5.2): SIMD width sweep (Mondrian join)", wl);

    ServedRunner runner(wl);
    const KernelCosts base = mondrianKernelCosts();

    std::vector<std::vector<std::string>> table;
    table.push_back({"SIMD bits", "tuples/op", "join ms", "vs 1024-bit"});
    double t1024 = 0.0;
    std::vector<std::vector<std::string>> rows;
    for (unsigned bits : {128u, 256u, 512u, 1024u, 2048u}) {
        // Data-parallel kernel costs scale inversely with width relative
        // to the 1024-bit (8-tuple) baseline; scalar paths don't move.
        double scale = 1024.0 / bits;
        SystemConfig sys = makeSystem(SystemKind::kMondrian);
        sys.exec.costs.histogram = base.histogram * scale;
        sys.exec.costs.scatterCopy = base.scatterCopy * scale;
        sys.exec.costs.permutableAppend = base.permutableAppend * scale;
        sys.exec.costs.scan = base.scan * scale;
        sys.exec.costs.mergePass = base.mergePass * scale;
        sys.exec.costs.bitonicPass = base.bitonicPass * scale;
        sys.exec.costs.joinMerge = base.joinMerge * scale;
        sys.exec.costs.aggregate = base.aggregate * scale;
        sys.name = "mondrian-" + std::to_string(bits) + "b";
        RunResult r = runner.run(sys, degenerateScenario(OpKind::kJoin));
        double ms = ticksToSeconds(r.totalTime) * 1e3;
        if (bits == 1024)
            t1024 = ms;
        rows.push_back({std::to_string(bits),
                        std::to_string(bits / 128),
                        fmt(ms, 3), ""});
    }
    for (auto &row : rows) {
        double ms = std::stod(row[2]);
        row[3] = fmt(t1024 / ms, 2) + "x";
        table.push_back(row);
    }
    std::printf("%s", renderTable(table).c_str());
    std::printf("\npaper choice: 1024 bits -- wider SIMD shows diminishing "
                "returns once memory binds\n");
    return 0;
}
