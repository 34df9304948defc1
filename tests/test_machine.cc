/**
 * @file
 * Machine-level timing tests: phases run to completion, and the headline
 * architectural properties hold (permutability slashes row activations,
 * bandwidth never exceeds the peak, NMP beats the star topology on
 * shuffles).
 */

#include <gtest/gtest.h>

#include "engine/ops.hh"
#include "engine/workload.hh"
#include "system/machine.hh"

using namespace mondrian;

namespace {

MemGeometry
machineGeo()
{
    MemGeometry g;
    g.numStacks = 2;
    g.vaultsPerStack = 8;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 1 * kMiB;
    return g;
}

SystemConfig
sys(SystemKind kind)
{
    return makeSystem(kind, machineGeo());
}

struct JoinRun
{
    std::vector<PhaseResult> phases;
    EnergyActivity activity;
    EnergyBreakdown energy;
    std::uint64_t matches;
};

JoinRun
runJoinOn(SystemKind kind, std::uint64_t tuples)
{
    SystemConfig cfg = sys(kind);
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = tuples;
    WorkloadGenerator gen(wl);
    auto pair = gen.makeJoinPair(pool);
    auto exec = runJoin(pool, cfg.exec, pair.r, pair.s);
    Machine m(cfg, pool);
    JoinRun out;
    for (const PhaseExec &phase : exec.phases)
        out.phases.push_back(m.runPhase(phase));
    out.activity = m.energyActivity();
    out.energy = m.energy();
    out.matches = exec.joinMatches;
    return out;
}

} // namespace

TEST(Machine, PhasesCompleteWithPositiveTime)
{
    auto run = runJoinOn(SystemKind::kNmp, 4096);
    ASSERT_EQ(run.phases.size(), 3u);
    for (const auto &p : run.phases) {
        EXPECT_GT(p.time, 0u) << p.name;
        EXPECT_GT(p.dramBytes, 0u) << p.name;
        EXPECT_GE(p.coreUtilization, 0.0);
        EXPECT_LE(p.coreUtilization, 1.0);
    }
}

TEST(Machine, PermutabilityReducesActivations)
{
    auto exact = runJoinOn(SystemKind::kNmp, 4096);
    auto perm = runJoinOn(SystemKind::kNmpPerm, 4096);
    // Partition-phase activations must drop by at least 2x with the
    // append engine (the paper's entire §5.3 premise).
    std::uint64_t act_exact =
        exact.phases[0].activations + exact.phases[1].activations;
    std::uint64_t act_perm =
        perm.phases[0].activations + perm.phases[1].activations;
    EXPECT_LT(act_perm * 2, act_exact);
    EXPECT_EQ(exact.matches, perm.matches);
}

TEST(Machine, PermutabilityNotSlower)
{
    auto exact = runJoinOn(SystemKind::kNmp, 4096);
    auto perm = runJoinOn(SystemKind::kNmpPerm, 4096);
    Tick t_exact = exact.phases[0].time + exact.phases[1].time;
    Tick t_perm = perm.phases[0].time + perm.phases[1].time;
    EXPECT_LE(t_perm, t_exact);
}

TEST(Machine, VaultBandwidthBoundedByPeak)
{
    for (SystemKind k : {SystemKind::kCpu, SystemKind::kNmp,
                         SystemKind::kMondrian}) {
        auto run = runJoinOn(k, 4096);
        for (const auto &p : run.phases) {
            EXPECT_LE(p.avgVaultBWGBps, DramTiming{}.peakGBps() + 0.01)
                << systemKindName(k) << " " << p.name;
        }
    }
}

TEST(Machine, NmpShuffleFasterThanCpu)
{
    auto cpu = runJoinOn(SystemKind::kCpu, 4096);
    auto nmp = runJoinOn(SystemKind::kNmp, 4096);
    Tick t_cpu = cpu.phases[0].time + cpu.phases[1].time;
    Tick t_nmp = nmp.phases[0].time + nmp.phases[1].time;
    EXPECT_LT(t_nmp, t_cpu);
}

TEST(Machine, MondrianFastestPartition)
{
    auto nmp = runJoinOn(SystemKind::kNmp, 4096);
    auto mon = runJoinOn(SystemKind::kMondrian, 4096);
    EXPECT_LT(mon.phases[1].time, nmp.phases[1].time);
}

TEST(Machine, EnergyBreakdownConsistent)
{
    auto run = runJoinOn(SystemKind::kMondrian, 4096);
    EXPECT_GT(run.energy.dramDynamic, 0.0);
    EXPECT_GT(run.energy.dramStatic, 0.0);
    EXPECT_GT(run.energy.cores, 0.0);
    EXPECT_GT(run.energy.network, 0.0);
    EXPECT_NEAR(run.energy.total(),
                run.energy.dramDynamic + run.energy.dramStatic +
                    run.energy.cores + run.energy.network,
                1e-12);
}

TEST(Machine, ActivityCountsPopulated)
{
    auto run = runJoinOn(SystemKind::kCpu, 2048);
    EXPECT_GT(run.activity.elapsed, 0u);
    EXPECT_GT(run.activity.rowActivations, 0u);
    EXPECT_GT(run.activity.dramBitsMoved, 0u);
    EXPECT_GT(run.activity.serdesBusyBits, 0u); // star topology: all remote
    EXPECT_GT(run.activity.llcAccesses, 0u);
    EXPECT_TRUE(run.activity.hasLlc);
    EXPECT_GT(run.activity.coreUtilization, 0.0);
    EXPECT_LE(run.activity.coreUtilization, 1.0);
}

TEST(Machine, NmpHasNoLlc)
{
    auto run = runJoinOn(SystemKind::kNmp, 1024);
    EXPECT_FALSE(run.activity.hasLlc);
    EXPECT_EQ(run.activity.llcAccesses, 0u);
}

TEST(Machine, ScanSaturatesMondrianVaults)
{
    SystemConfig cfg = sys(SystemKind::kMondrian);
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = 65536;
    Relation rel = WorkloadGenerator(wl).makeUniform(pool, wl.tuples);
    auto exec = runScan(pool, cfg.exec, rel, 1);
    Machine m(cfg, pool);
    const PhaseResult probe = m.runPhase(exec.phases[0]);
    // Streaming scan should push each vault well past half its peak
    // bandwidth (the paper reports 6.7 of 8 GB/s).
    EXPECT_GT(probe.avgVaultBWGBps, 4.0);
}
