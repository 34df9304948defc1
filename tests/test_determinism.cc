/**
 * @file
 * Cross-cutting invariants: simulation determinism (identical seeds give
 * bit-identical timing, traffic and energy), monotone scaling, and
 * conservation properties that must hold across the whole stack.
 */

#include <gtest/gtest.h>

#include "system/report.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

RunResult
runOnce(SystemKind kind, OpKind op, std::uint64_t tuples,
        std::uint64_t seed)
{
    WorkloadConfig wl;
    wl.tuples = tuples;
    wl.seed = seed;
    return ServedRunner(wl).run(makeSystem(kind), degenerateScenario(op));
}

} // namespace

class DeterminismTest
    : public ::testing::TestWithParam<std::pair<SystemKind, OpKind>>
{};

TEST_P(DeterminismTest, IdenticalSeedsGiveIdenticalRuns)
{
    auto [kind, op] = GetParam();
    RunResult a = runOnce(kind, op, 1u << 12, 99);
    RunResult b = runOnce(kind, op, 1u << 12, 99);
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.partitionTime, b.partitionTime);
    EXPECT_EQ(a.probeTime, b.probeTime);
    EXPECT_EQ(a.activity.rowActivations, b.activity.rowActivations);
    EXPECT_EQ(a.activity.dramBitsMoved, b.activity.dramBitsMoved);
    EXPECT_EQ(a.activity.serdesBusyBits, b.activity.serdesBusyBits);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
    EXPECT_EQ(a.scanMatches, b.scanMatches);
    EXPECT_EQ(a.joinMatches, b.joinMatches);
    EXPECT_EQ(a.aggChecksum, b.aggChecksum);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsByOps, DeterminismTest,
    ::testing::Values(
        std::make_pair(SystemKind::kCpu, OpKind::kJoin),
        std::make_pair(SystemKind::kNmp, OpKind::kJoin),
        std::make_pair(SystemKind::kMondrian, OpKind::kJoin),
        std::make_pair(SystemKind::kMondrian, OpKind::kSort),
        std::make_pair(SystemKind::kNmpSeq, OpKind::kGroupBy),
        std::make_pair(SystemKind::kCpu, OpKind::kScan)));

TEST(Scaling, MoreTuplesTakeLonger)
{
    for (SystemKind k : {SystemKind::kCpu, SystemKind::kMondrian}) {
        RunResult small = runOnce(k, OpKind::kJoin, 1u << 11, 5);
        RunResult large = runOnce(k, OpKind::kJoin, 1u << 13, 5);
        EXPECT_GT(large.totalTime, small.totalTime) << systemKindName(k);
        EXPECT_GT(large.energy.total(), small.energy.total());
    }
}

TEST(Scaling, NearlyLinearInTuplesForStreamingOps)
{
    // Mondrian scan is bandwidth-bound: 4x the tuples ~= 4x the time.
    RunResult small = runOnce(SystemKind::kMondrian, OpKind::kScan,
                              1u << 14, 5);
    RunResult large = runOnce(SystemKind::kMondrian, OpKind::kScan,
                              1u << 16, 5);
    double ratio = static_cast<double>(large.totalTime) /
                   static_cast<double>(small.totalTime);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.5);
}

TEST(Conservation, DramTrafficCoversPayload)
{
    // Every shuffled byte must be read from and written to DRAM at least
    // once; row-granular transfers may move more, never less.
    std::uint64_t tuples = 1u << 12;
    RunResult r = runOnce(SystemKind::kNmpPerm, OpKind::kJoin, tuples, 42);
    std::uint64_t s_bytes = tuples * kTupleBytes;
    EXPECT_GT(r.activity.dramBitsMoved / 8, 2 * s_bytes);
}

TEST(Conservation, EnergyCategoriesNonNegative)
{
    for (SystemKind k : {SystemKind::kCpu, SystemKind::kNmp,
                         SystemKind::kMondrianNoperm,
                         SystemKind::kMondrian}) {
        RunResult r = runOnce(k, OpKind::kGroupBy, 1u << 12, 3);
        EXPECT_GE(r.energy.dramDynamic, 0.0);
        EXPECT_GE(r.energy.dramStatic, 0.0);
        EXPECT_GE(r.energy.cores, 0.0);
        EXPECT_GE(r.energy.network, 0.0);
        EXPECT_GT(r.energy.total(), 0.0);
    }
}

TEST(Ordering, HeadlineResultHolds)
{
    // The paper's headline, as a regression guard: CPU < NMP < NMP-perm
    // < Mondrian on the Join total, and Mondrian most efficient.
    RunResult cpu = runOnce(SystemKind::kCpu, OpKind::kJoin, 1u << 14, 42);
    RunResult nmp = runOnce(SystemKind::kNmp, OpKind::kJoin, 1u << 14, 42);
    RunResult perm = runOnce(SystemKind::kNmpPerm, OpKind::kJoin,
                             1u << 14, 42);
    RunResult mon = runOnce(SystemKind::kMondrian, OpKind::kJoin,
                            1u << 14, 42);
    EXPECT_LT(nmp.totalTime, cpu.totalTime);
    EXPECT_LT(perm.totalTime, nmp.totalTime);
    EXPECT_LT(mon.totalTime, nmp.totalTime);
    // Partitioning, the co-design's target, is strictly fastest on
    // Mondrian. (At very small per-vault fills the sort-based probe can
    // cost slightly more than NMP-perm's hash probe, so the total is
    // compared against NMP above.)
    EXPECT_LT(mon.partitionTime, perm.partitionTime);
    EXPECT_GT(efficiencyImprovement(cpu, mon),
              efficiencyImprovement(cpu, nmp));
}

TEST(Ordering, PermutabilityOrthogonalToProbe)
{
    // NMP and NMP-perm share the probe algorithm: probe times must be
    // close (identical traces, near-identical warm DRAM state).
    RunResult nmp = runOnce(SystemKind::kNmp, OpKind::kJoin, 1u << 13, 8);
    RunResult perm = runOnce(SystemKind::kNmpPerm, OpKind::kJoin,
                             1u << 13, 8);
    double ratio = static_cast<double>(nmp.probeTime) /
                   static_cast<double>(perm.probeTime);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}
