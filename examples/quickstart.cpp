/**
 * @file
 * Quickstart: run one Join on the CPU baseline and the Mondrian Data
 * Engine and compare time, bandwidth and energy.
 *
 * Usage: quickstart [log2_tuples]   (default 16 -> 65536 tuples)
 */

#include <cstdio>
#include <cstdlib>

#include "example_args.hh"

#include "common/logging.hh"
#include "system/report.hh"
#include "system/traffic.hh"

using namespace mondrian;

int
main(int argc, char **argv)
{
    setVerbose(false);
    unsigned log2_tuples = static_cast<unsigned>(
        example_args::intArg(argc, argv, 1, "log2_tuples", 8, 24, 16));

    WorkloadConfig wl;
    wl.tuples = 1ull << log2_tuples;
    wl.seed = 42;

    ServedRunner runner(wl);
    const Scenario join = degenerateScenario(OpKind::kJoin);

    std::printf("Mondrian Data Engine quickstart: FK join, |S| = %llu, "
                "|R| = %llu\n\n",
                static_cast<unsigned long long>(wl.tuples),
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(wl.tuples *
                                               wl.joinSmallRatio)));

    RunResult cpu = runner.run(makeSystem(SystemKind::kCpu), join);
    std::printf("  %s\n", describeRun(cpu).c_str());

    RunResult nmp = runner.run(makeSystem(SystemKind::kNmp), join);
    std::printf("  %s\n", describeRun(nmp).c_str());

    RunResult mon = runner.run(makeSystem(SystemKind::kMondrian), join);
    std::printf("  %s\n\n", describeRun(mon).c_str());

    if (cpu.joinMatches != mon.joinMatches ||
        cpu.joinMatches != nmp.joinMatches) {
        std::printf("FUNCTIONAL MISMATCH: cpu=%llu nmp=%llu mondrian=%llu\n",
                    static_cast<unsigned long long>(cpu.joinMatches),
                    static_cast<unsigned long long>(nmp.joinMatches),
                    static_cast<unsigned long long>(mon.joinMatches));
        return 1;
    }
    std::printf("all styles agree on %llu join matches\n\n",
                static_cast<unsigned long long>(cpu.joinMatches));

    std::printf("speedup vs CPU:      NMP %sx, Mondrian %sx\n",
                fmt(overallSpeedup(cpu, nmp), 1).c_str(),
                fmt(overallSpeedup(cpu, mon), 1).c_str());
    std::printf("partition speedup:   NMP %sx, Mondrian %sx\n",
                fmt(partitionSpeedup(cpu, nmp), 1).c_str(),
                fmt(partitionSpeedup(cpu, mon), 1).c_str());
    std::printf("efficiency vs CPU:   NMP %sx, Mondrian %sx\n",
                fmt(efficiencyImprovement(cpu, nmp), 1).c_str(),
                fmt(efficiencyImprovement(cpu, mon), 1).c_str());
    return 0;
}
