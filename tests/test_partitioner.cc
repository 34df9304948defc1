/** @file Tests for partition functions and the shuffle machinery. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "engine/partitioner.hh"
#include "engine/workload.hh"
#include "system/config.hh"

using namespace mondrian;

namespace {

MemGeometry
shuffleGeo()
{
    MemGeometry g;
    g.numStacks = 1;
    g.vaultsPerStack = 8;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 512 * kKiB;
    return g;
}

std::multiset<std::pair<std::uint64_t, std::uint64_t>>
asMultiset(const std::vector<Tuple> &tuples)
{
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> m;
    for (const Tuple &t : tuples)
        m.insert({t.key, t.payload});
    return m;
}

} // namespace

TEST(PartitionFn, LowBitsRadix)
{
    PartitionFn fn = PartitionFn::lowBits(8);
    EXPECT_EQ(fn(0), 0u);
    EXPECT_EQ(fn(7), 7u);
    EXPECT_EQ(fn(8), 0u);
    EXPECT_EQ(fn(0xffffffff), 7u);
}

TEST(PartitionFn, RangePreservesOrder)
{
    PartitionFn fn = PartitionFn::range(4, 1000);
    EXPECT_EQ(fn(0), 0u);
    EXPECT_EQ(fn(249), 0u);
    EXPECT_EQ(fn(250), 1u);
    EXPECT_EQ(fn(999), 3u);
    // Monotone: p(k1) <= p(k2) for k1 <= k2.
    unsigned prev = 0;
    for (std::uint64_t k = 0; k < 1000; k += 7) {
        unsigned p = fn(k);
        EXPECT_GE(p, prev);
        prev = p;
    }
}

class ShuffleTest : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        pool = std::make_unique<MemoryPool>(shuffleGeo());
        WorkloadConfig wcfg;
        wcfg.tuples = 2048;
        WorkloadGenerator gen(wcfg);
        input = gen.makeUniform(*pool, 2048);

        cfg = nmpExec(8, /*permutable=*/GetParam(), false);
    }

    std::unique_ptr<MemoryPool> pool;
    Relation input;
    ExecConfig cfg;
};

TEST_P(ShuffleTest, OutputIsPermutationOfInput)
{
    Partitioner part(*pool, cfg);
    std::vector<TraceRecorder> recs(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    Relation out = part.shuffleNmp(input, fn, recs, &arming);
    EXPECT_EQ(asMultiset(out.gatherAll(*pool)),
              asMultiset(input.gatherAll(*pool)));
}

TEST_P(ShuffleTest, TuplesLandInCorrectPartition)
{
    Partitioner part(*pool, cfg);
    std::vector<TraceRecorder> recs(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    Relation out = part.shuffleNmp(input, fn, recs, &arming);
    for (unsigned v = 0; v < 8; ++v)
        for (const Tuple &t : out.gather(*pool, v))
            EXPECT_EQ(fn(t.key), v);
}

TEST_P(ShuffleTest, ArmingMatchesMode)
{
    Partitioner part(*pool, cfg);
    std::vector<TraceRecorder> recs(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    part.shuffleNmp(input, fn, recs, &arming);
    if (GetParam()) {
        EXPECT_EQ(arming.size(), 8u);
        for (auto &[v, region] : arming)
            EXPECT_EQ(region.objectBytes, kTupleBytes);
    } else {
        EXPECT_TRUE(arming.empty());
    }
}

TEST_P(ShuffleTest, TraceStoreKindsMatchMode)
{
    Partitioner part(*pool, cfg);
    std::vector<TraceRecorder> recs(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    part.shuffleNmp(input, fn, recs, &arming);
    for (auto &rec : recs) {
        auto s = rec.trace().summarize();
        if (GetParam())
            EXPECT_EQ(s.permutableStores, input.totalTuples() / 8);
        else
            EXPECT_EQ(s.permutableStores, 0u);
        EXPECT_EQ(s.fences, 2u);
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, ShuffleTest, ::testing::Bool());

TEST(ShuffleModes, SamePerPartitionContent)
{
    // Permutable and exact shuffles must agree on each partition's
    // multiset of tuples -- permutability only relaxes ordering (§4.1.2).
    MemoryPool pool_a(shuffleGeo()), pool_b(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 2048;
    Relation in_a = WorkloadGenerator(wcfg).makeUniform(pool_a, 2048);
    Relation in_b = WorkloadGenerator(wcfg).makeUniform(pool_b, 2048);

    ExecConfig exact = nmpExec(8, false, false);
    ExecConfig perm = nmpExec(8, true, false);
    Partitioner pa(pool_a, exact), pb(pool_b, perm);
    std::vector<TraceRecorder> ra(8), rb(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    Relation out_a = pa.shuffleNmp(in_a, fn, ra, nullptr);
    Relation out_b = pb.shuffleNmp(in_b, fn, rb, &arming);

    for (unsigned v = 0; v < 8; ++v) {
        EXPECT_EQ(asMultiset(out_a.gather(pool_a, v)),
                  asMultiset(out_b.gather(pool_b, v)))
            << "partition " << v;
    }
}

class SkewedShuffleTest : public ::testing::TestWithParam<bool>
{};

TEST_P(SkewedShuffleTest, ZipfSkewDoesNotOverflow)
{
    // Regression: heavily skewed keys used to die with "shuffle
    // destination overflows" because destinations were sized by the flat
    // shuffleCapacityFactor. They are now sized per destination from the
    // exchanged histogram, so any theta works.
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 4096;
    wcfg.zipfTheta = 0.99; // hottest destination far beyond 1.7x average
    WorkloadGenerator gen(wcfg);
    Relation in = gen.makeGroupBy(pool, 4096);

    ExecConfig cfg = nmpExec(8, /*permutable=*/GetParam(), false);
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(8);
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    PartitionFn fn = PartitionFn::lowBits(8);
    Relation out = part.shuffleNmp(in, fn, recs, &arming);

    // No overflow, nothing lost, and the skew really was present.
    EXPECT_EQ(asMultiset(out.gatherAll(pool)), asMultiset(in.gatherAll(pool)));
    std::uint64_t max_part = 0;
    for (unsigned v = 0; v < 8; ++v) {
        EXPECT_LE(out.partition(v).count, out.partition(v).capacity);
        max_part = std::max(max_part, out.partition(v).count);
    }
    EXPECT_GT(max_part, (4096 / 8) * 17 / 10) << "workload was not skewed "
                                                 "enough to exercise the fix";
}

INSTANTIATE_TEST_SUITE_P(Modes, SkewedShuffleTest, ::testing::Bool());

TEST(PermutableShuffle, ZipfAddressesMatchThePerDestinationScan)
{
    // The permutable placement (round-robin arrival per destination) must
    // give every tuple the address a scan of every source per destination
    // gives it: the source FIFOs are built once, by counting sort, instead
    // of one pass over all sources per destination.
    for (double theta : {0.0, 0.99, 1.5}) {
        MemoryPool pool(shuffleGeo());
        WorkloadConfig wcfg;
        wcfg.tuples = 4096;
        wcfg.zipfTheta = theta;
        Relation in = WorkloadGenerator(wcfg).makeGroupBy(pool, 4096);

        ExecConfig cfg = nmpExec(8, /*permutable=*/true, false);
        Partitioner part(pool, cfg);
        std::vector<TraceRecorder> recs(8);
        std::vector<std::pair<unsigned, PermutableRegion>> arming;
        PartitionFn fn = PartitionFn::lowBits(8);
        Relation out = part.shuffleNmp(in, fn, recs, &arming);

        // Reference: the per-destination scan of every source's tuples.
        std::vector<std::vector<Tuple>> src(8);
        std::vector<std::vector<Addr>> want(8);
        for (unsigned sv = 0; sv < 8; ++sv) {
            src[sv] = in.gather(pool, sv);
            want[sv].resize(src[sv].size());
        }
        for (unsigned dv = 0; dv < 8; ++dv) {
            std::vector<std::vector<std::size_t>> fifo(8);
            for (unsigned sv = 0; sv < 8; ++sv)
                for (std::size_t j = 0; j < src[sv].size(); ++j)
                    if (fn(src[sv][j].key) == dv)
                        fifo[sv].push_back(j);
            std::vector<std::size_t> pos(8, 0);
            std::uint64_t arrival = 0;
            for (bool progress = true; progress;) {
                progress = false;
                for (unsigned sv = 0; sv < 8; ++sv) {
                    if (pos[sv] < fifo[sv].size()) {
                        want[sv][fifo[sv][pos[sv]++]] =
                            out.tupleAddr(dv, arrival++);
                        progress = true;
                    }
                }
            }
            EXPECT_EQ(arrival, out.partition(dv).count);
        }

        // Source sv's permutable stores, in order, are its tuples'
        // addresses; each holds that tuple.
        for (unsigned sv = 0; sv < 8; ++sv) {
            std::vector<Addr> got;
            for (const TraceOp &op : recs[sv].trace().expanded())
                if (op.kind == TraceOpKind::kPermutableStore)
                    got.push_back(op.addr);
            ASSERT_EQ(got, want[sv]) << "theta " << theta << " source "
                                     << sv;
            for (std::size_t j = 0; j < got.size(); ++j)
                ASSERT_EQ(pool.store().readValue<Tuple>(got[j]), src[sv][j]);
        }
    }
}

TEST(SkewedShuffle, UniformCapacityUnchanged)
{
    // The skew fix must not disturb uniform workloads: capacities stay at
    // the flat estimate, preserving memory layout (and byte-identical
    // campaign reports).
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 2048;
    Relation in = WorkloadGenerator(wcfg).makeUniform(pool, 2048);
    ExecConfig cfg = nmpExec(8, false, false);
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(8);
    PartitionFn fn = PartitionFn::lowBits(8);
    Relation out = part.shuffleNmp(in, fn, recs, nullptr);
    const std::uint64_t flat = static_cast<std::uint64_t>(
        (2048.0 / 8) * cfg.shuffleCapacityFactor) + 16;
    for (unsigned v = 0; v < 8; ++v)
        EXPECT_EQ(out.partition(v).capacity, flat);
}

TEST(CpuShuffle, BoundsPartitionTheGlobalArray)
{
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 2048;
    Relation in = WorkloadGenerator(wcfg).makeUniform(pool, 2048);
    ExecConfig cfg = cpuExec(8);
    cfg.numUnits = 4;
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(4);
    PartitionFn fn = PartitionFn::lowBits(16);
    auto res = part.shuffleCpu(in, fn, 16, recs);

    EXPECT_EQ(res.bounds.front(), 0u);
    EXPECT_EQ(res.bounds.back(), 2048u);
    // Every tuple sits in the partition its key hashes to.
    for (unsigned p = 0; p < 16; ++p) {
        for (std::uint64_t g = res.bounds[p]; g < res.bounds[p + 1]; ++g) {
            Tuple t = pool.store().readValue<Tuple>(
                Partitioner::globalTupleAddr(res.out, res.chunkTuples, g));
            EXPECT_EQ(fn(t.key), p);
        }
    }
}

TEST(CpuShuffle, PreservesMultiset)
{
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 1024;
    Relation in = WorkloadGenerator(wcfg).makeUniform(pool, 1024);
    ExecConfig cfg = cpuExec(8);
    cfg.numUnits = 4;
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(4);
    PartitionFn fn = PartitionFn::lowBits(8);
    auto res = part.shuffleCpu(in, fn, 8, recs);

    std::vector<Tuple> out;
    for (std::uint64_t g = 0; g < 1024; ++g)
        out.push_back(pool.store().readValue<Tuple>(
            Partitioner::globalTupleAddr(res.out, res.chunkTuples, g)));
    EXPECT_EQ(asMultiset(out), asMultiset(in.gatherAll(pool)));
}

TEST(CpuShuffle, TlbPressureEmitsPageWalks)
{
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 512;
    Relation in = WorkloadGenerator(wcfg).makeUniform(pool, 512);
    ExecConfig cfg = cpuExec(8);
    cfg.numUnits = 4;
    cfg.tlbEntries = 8;
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(4);
    auto res = part.shuffleCpu(in, PartitionFn::lowBits(16), 16, recs);
    (void)res;
    std::uint64_t blocking = 0;
    for (auto &rec : recs)
        for (const auto &op : rec.trace().ops())
            blocking += op.kind == TraceOpKind::kLoadBlocking ? 1 : 0;
    EXPECT_EQ(blocking, 3u * 512); // three-level walk per scattered store
}

TEST(CpuShuffle, NoWalksUnderTlbReach)
{
    MemoryPool pool(shuffleGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 512;
    Relation in = WorkloadGenerator(wcfg).makeUniform(pool, 512);
    ExecConfig cfg = cpuExec(8);
    cfg.numUnits = 4;
    cfg.tlbEntries = 64;
    Partitioner part(pool, cfg);
    std::vector<TraceRecorder> recs(4);
    part.shuffleCpu(in, PartitionFn::lowBits(16), 16, recs);
    for (auto &rec : recs)
        for (const auto &op : rec.trace().ops())
            EXPECT_NE(op.kind, TraceOpKind::kLoadBlocking);
}
