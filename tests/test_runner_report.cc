/** @file End-to-end single-query runs and report math. */

#include <gtest/gtest.h>

#include "system/report.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

WorkloadConfig
smallWorkload()
{
    WorkloadConfig wl;
    wl.tuples = 1u << 12;
    wl.seed = 7;
    return wl;
}

} // namespace

TEST(SingleQueryRun, ScanRunsOnAllSystems)
{
    ServedRunner runner(smallWorkload());
    for (SystemKind k : {SystemKind::kCpu, SystemKind::kNmp,
                         SystemKind::kMondrian}) {
        RunResult r = runner.run(makeSystem(k),
                                 degenerateScenario(OpKind::kScan));
        EXPECT_GT(r.totalTime, 0u) << systemKindName(k);
        EXPECT_EQ(r.partitionTime, 0u);
        EXPECT_GT(r.probeTime, 0u);
        EXPECT_GT(r.energy.total(), 0.0);
    }
}

TEST(SingleQueryRun, JoinFunctionalAgreementAcrossSystems)
{
    ServedRunner runner(smallWorkload());
    RunResult cpu = runner.run(makeSystem(SystemKind::kCpu),
                               degenerateScenario(OpKind::kJoin));
    RunResult mon = runner.run(makeSystem(SystemKind::kMondrian),
                               degenerateScenario(OpKind::kJoin));
    EXPECT_EQ(cpu.joinMatches, smallWorkload().tuples);
    EXPECT_EQ(mon.joinMatches, cpu.joinMatches);
}

TEST(SingleQueryRun, GroupByChecksumStableAcrossSystems)
{
    ServedRunner runner(smallWorkload());
    RunResult a = runner.run(makeSystem(SystemKind::kNmp),
                             degenerateScenario(OpKind::kGroupBy));
    RunResult b = runner.run(makeSystem(SystemKind::kMondrian),
                             degenerateScenario(OpKind::kGroupBy));
    EXPECT_EQ(a.aggChecksum, b.aggChecksum);
    EXPECT_EQ(a.groupCount, b.groupCount);
}

TEST(SingleQueryRun, PhaseTimesSumToTotal)
{
    ServedRunner runner(smallWorkload());
    RunResult r = runner.run(makeSystem(SystemKind::kNmp),
                             degenerateScenario(OpKind::kJoin));
    EXPECT_EQ(r.partitionTime + r.probeTime, r.totalTime);
    Tick sum = 0;
    for (const auto &p : r.phases)
        sum += p.time;
    EXPECT_EQ(sum, r.totalTime);
}

TEST(Report, SpeedupMath)
{
    RunResult base, sys;
    base.totalTime = 1000;
    base.partitionTime = 600;
    base.probeTime = 400;
    sys.totalTime = 100;
    sys.partitionTime = 50;
    sys.probeTime = 50;
    EXPECT_DOUBLE_EQ(overallSpeedup(base, sys), 10.0);
    EXPECT_DOUBLE_EQ(partitionSpeedup(base, sys), 12.0);
    EXPECT_DOUBLE_EQ(probeSpeedup(base, sys), 8.0);
}

TEST(Report, EfficiencyIsInverseEnergyRatio)
{
    RunResult base, sys;
    base.energy.cores = 2.0;
    sys.energy.cores = 0.5;
    EXPECT_DOUBLE_EQ(efficiencyImprovement(base, sys), 4.0);
}

TEST(Report, EnergySharesSumToOne)
{
    RunResult r;
    r.energy.dramDynamic = 1.0;
    r.energy.dramStatic = 2.0;
    r.energy.cores = 3.0;
    r.energy.network = 4.0;
    EnergyShares s = energyShares(r);
    EXPECT_NEAR(s.dramDynamic + s.dramStatic + s.cores + s.network, 1.0,
                1e-12);
    EXPECT_NEAR(s.network, 0.4, 1e-12);
}

TEST(Report, FormatsDigits)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.0, 0), "3");
}

TEST(Report, DescribeRunMentionsPhases)
{
    ServedRunner runner(smallWorkload());
    RunResult r = runner.run(makeSystem(SystemKind::kNmp),
                             degenerateScenario(OpKind::kJoin));
    std::string d = describeRun(r);
    EXPECT_NE(d.find("join"), std::string::npos);
    EXPECT_NE(d.find("partition"), std::string::npos);
    EXPECT_NE(d.find("GB/s/vault"), std::string::npos);
}

TEST(SystemConfig, PresetsMatchPaper)
{
    SystemConfig cpu = makeSystem(SystemKind::kCpu);
    EXPECT_EQ(cpu.topo, Topology::kStarCpu);
    EXPECT_EQ(cpu.exec.numUnits, 16u);
    EXPECT_TRUE(cpu.hasLlc);

    SystemConfig nmp = makeSystem(SystemKind::kNmp);
    EXPECT_EQ(nmp.topo, Topology::kFullyConnectedNmp);
    EXPECT_EQ(nmp.exec.numUnits, 64u);
    EXPECT_FALSE(nmp.hasLlc);
    EXPECT_FALSE(nmp.exec.permutable);

    SystemConfig perm = makeSystem(SystemKind::kNmpPerm);
    EXPECT_TRUE(perm.exec.permutable);
    EXPECT_FALSE(perm.exec.sortProbe);

    SystemConfig seq = makeSystem(SystemKind::kNmpSeq);
    EXPECT_TRUE(seq.exec.sortProbe);

    SystemConfig mon = makeSystem(SystemKind::kMondrian);
    EXPECT_TRUE(mon.exec.permutable);
    EXPECT_TRUE(mon.exec.sortProbe);
    EXPECT_TRUE(mon.exec.simd);
    EXPECT_EQ(mon.exec.readChunkBytes, 256u);
    EXPECT_FALSE(mon.hasL1);

    SystemConfig noperm = makeSystem(SystemKind::kMondrianNoperm);
    EXPECT_FALSE(noperm.exec.permutable);
    EXPECT_TRUE(noperm.exec.simd);
}

TEST(SystemConfig, DefaultGeometryMatchesMethodology)
{
    MemGeometry g = defaultGeometry();
    EXPECT_EQ(g.numStacks, 4u);       // four cubes (§6)
    EXPECT_EQ(g.vaultsPerStack, 16u); // 16 vaults per cube
    EXPECT_EQ(g.totalVaults(), 64u);
    EXPECT_EQ(g.rowBytes, 256u);      // HMC row buffer (§3.1)
}
