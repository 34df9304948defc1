/** @file Tests for the local sorters (mergesort, bitonic pass, quicksort). */

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/sort_algos.hh"
#include "engine/workload.hh"
#include "system/config.hh"

using namespace mondrian;

namespace {

MemGeometry
sortGeo()
{
    MemGeometry g;
    g.numStacks = 1;
    g.vaultsPerStack = 2;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 1 * kMiB;
    return g;
}

bool
isSortedByKey(const std::vector<Tuple> &tuples)
{
    return std::is_sorted(tuples.begin(), tuples.end(),
                          [](const Tuple &a, const Tuple &b) {
                              return a.key < b.key;
                          });
}

} // namespace

TEST(MergePassCount, Formula)
{
    EXPECT_EQ(LocalSorter::mergePassCount(1, 1), 0u);
    EXPECT_EQ(LocalSorter::mergePassCount(2, 1), 1u);
    EXPECT_EQ(LocalSorter::mergePassCount(1024, 1), 10u);
    EXPECT_EQ(LocalSorter::mergePassCount(1024, 16), 6u);
    EXPECT_EQ(LocalSorter::mergePassCount(1000, 16), 6u);
    EXPECT_EQ(LocalSorter::mergePassCount(8, 16), 0u);
}

/** §5.2: the bitonic first pass cuts log2(16) = 4 merge passes (~20% at
 *  the paper's vault fill of 32M tuples; exactly 4 at any size). */
TEST(MergePassCount, BitonicSavesFourPasses)
{
    for (std::uint64_t n : {1u << 10, 1u << 15, 1u << 20}) {
        EXPECT_EQ(LocalSorter::mergePassCount(n, 1) -
                      LocalSorter::mergePassCount(n, kBitonicGroup),
                  4u);
    }
}

class SorterStyleTest : public ::testing::TestWithParam<int>
{
  protected:
    ExecConfig
    styleConfig()
    {
        switch (GetParam()) {
          case 0:
            return nmpExec(2, false, true); // scalar mergesort
          case 1:
            return mondrianExec(2, true); // SIMD + bitonic
          default: {
            ExecConfig c = cpuExec(2);
            c.numUnits = 2;
            return c; // quicksort
          }
        }
    }
};

TEST_P(SorterStyleTest, SortsFunctionally)
{
    MemoryPool pool(sortGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 3000;
    Relation rel = WorkloadGenerator(wcfg).makeUniform(pool, 3000);
    ExecConfig cfg = styleConfig();
    LocalSorter sorter(pool, cfg);
    TraceRecorder rec;
    for (std::size_t p = 0; p < rel.numPartitions(); ++p) {
        sorter.sortPartition(rel, p, rec);
        EXPECT_TRUE(isSortedByKey(rel.gather(pool, p)));
    }
    EXPECT_GT(rec.trace().size(), 0u);
}

TEST_P(SorterStyleTest, SortIsStableOnEqualKeys)
{
    // The local sort is a stable key sort: equal keys keep their input
    // order. No report depends on that order (the paper14, served12 and
    // pipeline14 goldens read the same under an unstable sort and under
    // every equal-key run reversed); the test pins it so that a change
    // to it is deliberate.
    MemoryPool pool(sortGeo());
    Relation rel = Relation::alloc(pool, {0}, 3000);
    std::vector<Tuple> in;
    for (std::uint64_t i = 0; i < 3000; ++i)
        in.push_back(Tuple{(i * 7919 % 61) << (8 * (i % 8)), i});
    rel.scatter(pool, 0, in);
    rel.partition(0).count = in.size();
    ExecConfig cfg = styleConfig();
    TraceRecorder rec;
    LocalSorter(pool, cfg).sortPartition(rel, 0, rec);
    std::stable_sort(in.begin(), in.end(),
                     [](const Tuple &a, const Tuple &b) { return a.key < b.key; });
    EXPECT_EQ(rel.gather(pool, 0), in);
}

INSTANTIATE_TEST_SUITE_P(Styles, SorterStyleTest,
                         ::testing::Values(0, 1, 2));

TEST(RadixSortByKey, MatchesAStableSort)
{
    for (std::uint64_t n : {0, 1, 2, 17, 1000}) {
        std::vector<Tuple> in;
        std::uint64_t x = 0x243f6a8885a308d3ull;
        for (std::uint64_t i = 0; i < n; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // Full-width keys, many of them repeated.
            in.push_back(Tuple{i % 3 == 0 ? x : x % 7, i});
        }
        std::vector<Tuple> got = in;
        radixSortByKey(got);
        std::stable_sort(in.begin(), in.end(), [](const Tuple &a,
                                                  const Tuple &b) {
            return a.key < b.key;
        });
        EXPECT_EQ(got, in) << n;
    }
}

TEST(Sorter, MergesortPassAccounting)
{
    MemoryPool pool(sortGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 2048;
    Relation rel = WorkloadGenerator(wcfg).makeUniform(pool, 2048);
    // ~1024 tuples per partition.
    ExecConfig scalar = nmpExec(2, false, true);
    TraceRecorder rec;
    auto passes = LocalSorter(pool, scalar).sortPartition(rel, 0, rec);
    EXPECT_EQ(passes.bitonicPasses, 0u);
    EXPECT_EQ(passes.mergePasses,
              LocalSorter::mergePassCount(rel.partition(0).count, 1));

    ExecConfig simd = mondrianExec(2, true);
    TraceRecorder rec2;
    auto p2 = LocalSorter(pool, simd).sortPartition(rel, 1, rec2);
    EXPECT_EQ(p2.bitonicPasses, 1u);
    EXPECT_EQ(p2.mergePasses, passes.mergePasses - 4);
}

TEST(Sorter, MergesortTraceMovesWholePartitionPerPass)
{
    MemoryPool pool(sortGeo());
    WorkloadConfig wcfg;
    wcfg.tuples = 1024;
    Relation rel = WorkloadGenerator(wcfg).makeUniform(pool, 1024);
    ExecConfig scalar = nmpExec(2, false, true);
    TraceRecorder rec;
    auto passes = LocalSorter(pool, scalar).sortPartition(rel, 0, rec);
    auto s = rec.trace().summarize();
    std::uint64_t bytes = rel.partition(0).count * kTupleBytes;
    EXPECT_EQ(s.loadBytes, bytes * passes.mergePasses);
    EXPECT_EQ(s.storeBytes, bytes * passes.mergePasses);
}

TEST(Sorter, SortSegmentsAcrossChunks)
{
    MemoryPool pool(sortGeo());
    ExecConfig cfg = cpuExec(2);
    cfg.numUnits = 2;
    LocalSorter sorter(pool, cfg);
    // Two disjoint segments; sorted result spans them in order.
    Addr a = pool.allocBytes(0, 10 * kTupleBytes);
    Addr b = pool.allocBytes(1, 10 * kTupleBytes);
    for (std::uint64_t i = 0; i < 10; ++i) {
        pool.store().writeValue(a + i * kTupleBytes, Tuple{19 - i, i});
        pool.store().writeValue(b + i * kTupleBytes, Tuple{9 - i, i});
    }
    TraceRecorder rec;
    sorter.sortSegments({{a, 10}, {b, 10}}, rec);
    std::vector<Tuple> out;
    for (std::uint64_t i = 0; i < 10; ++i)
        out.push_back(pool.store().readValue<Tuple>(a + i * kTupleBytes));
    for (std::uint64_t i = 0; i < 10; ++i)
        out.push_back(pool.store().readValue<Tuple>(b + i * kTupleBytes));
    EXPECT_TRUE(isSortedByKey(out));
    EXPECT_EQ(out.front().key, 0u);
    EXPECT_EQ(out.back().key, 19u);
}

TEST(Sorter, EmptyAndSingleton)
{
    MemoryPool pool(sortGeo());
    ExecConfig cfg = nmpExec(2, false, true);
    LocalSorter sorter(pool, cfg);
    Relation rel = Relation::alloc(pool, {0}, 4);
    TraceRecorder rec;
    auto p0 = sorter.sortPartition(rel, 0, rec); // empty
    EXPECT_EQ(p0.mergePasses, 0u);
    rel.append(pool, 0, Tuple{5, 5});
    auto p1 = sorter.sortPartition(rel, 0, rec);
    EXPECT_EQ(p1.mergePasses, 0u);
    EXPECT_EQ(rel.readTuple(pool, 0, 0), (Tuple{5, 5}));
}
