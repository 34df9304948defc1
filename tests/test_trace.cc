/** @file Unit tests for kernel traces and the trace recorder. */

#include <gtest/gtest.h>

#include "core/trace.hh"
#include "engine/trace_recorder.hh"

using namespace mondrian;

TEST(KernelTrace, ComputeCoalesces)
{
    KernelTrace t;
    t.addCompute(5);
    t.addCompute(7);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.ops()[0].value, 12u);
}

TEST(KernelTrace, ComputeDoesNotCoalesceAcrossMemOps)
{
    KernelTrace t;
    t.addCompute(5);
    t.add(TraceOp::load(0, 64));
    t.addCompute(7);
    EXPECT_EQ(t.size(), 3u);
}

TEST(KernelTrace, HugeComputeSplits)
{
    KernelTrace t;
    t.addCompute(0x1'0000'0005ull);
    auto s = t.summarize();
    EXPECT_EQ(s.computeCycles, 0x1'0000'0005ull);
}

TEST(KernelTrace, SummaryCountsEverything)
{
    KernelTrace t;
    t.addCompute(10);
    t.add(TraceOp::load(0, 64));
    t.add(TraceOp::loadBlocking(64, 8));
    t.add(TraceOp::store(128, 16));
    t.add(TraceOp::permutableStore(256, 16));
    t.add(TraceOp::streamRead(512, 256));
    t.add(TraceOp::fence());
    auto s = t.summarize();
    EXPECT_EQ(s.computeCycles, 10u);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.loadBytes, 72u);
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.permutableStores, 1u);
    EXPECT_EQ(s.storeBytes, 32u);
    EXPECT_EQ(s.streamReads, 1u);
    EXPECT_EQ(s.streamBytes, 256u);
    EXPECT_EQ(s.fences, 1u);
}

TEST(TraceRecorder, FractionalCyclesAccumulate)
{
    TraceRecorder rec;
    for (int i = 0; i < 10; ++i)
        rec.compute(0.25);
    EXPECT_EQ(rec.trace().summarize().computeCycles, 2u); // floor(2.5)
    rec.compute(0.5);
    EXPECT_EQ(rec.trace().summarize().computeCycles, 3u);
}

TEST(TraceRecorder, ReadRangeChunks)
{
    TraceRecorder rec;
    rec.readRange(0, 200, 64, false);
    auto s = rec.trace().summarize();
    EXPECT_EQ(s.loads, 4u); // 64+64+64+8
    EXPECT_EQ(s.loadBytes, 200u);
}

// --- Run-length encoding: sequential sweeps must be recorded compactly
// and expand to exactly the per-chunk op sequence they replace. ---

TEST(TraceRle, ReadRangeEmitsOneRunPlusTail)
{
    TraceRecorder rec;
    rec.readRange(0x1000, 64 * 100 + 8, 64, false);
    const auto &ops = rec.trace().ops();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].kind, TraceOpKind::kLoadRun);
    EXPECT_EQ(ops[0].addr, 0x1000u);
    EXPECT_EQ(ops[0].value, 64u);
    EXPECT_EQ(ops[0].count, 100u);
    EXPECT_EQ(ops[1].kind, TraceOpKind::kLoad);
    EXPECT_EQ(ops[1].value, 8u);

    auto s = rec.trace().summarize();
    EXPECT_EQ(s.loads, 101u);
    EXPECT_EQ(s.loadBytes, 64u * 100 + 8);
}

TEST(TraceRle, WriteRangeEmitsStoreRun)
{
    TraceRecorder rec;
    rec.writeRange(0, 256 * 10, 256);
    const auto &ops = rec.trace().ops();
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, TraceOpKind::kStoreRun);
    EXPECT_EQ(ops[0].count, 10u);
    EXPECT_EQ(rec.trace().summarize().stores, 10u);
}

TEST(TraceRle, ExpansionMatchesRange)
{
    TraceRecorder rle, plain;
    rle.readRange(0, 64 * 7 + 16, 64, true);
    // Reference: the pre-RLE per-chunk emission.
    for (std::uint64_t off = 0; off < 64 * 7; off += 64)
        plain.streamRead(off, 64);
    plain.streamRead(64 * 7, 16);
    EXPECT_EQ(rle.trace().expanded(), plain.trace().ops());
    EXPECT_EQ(rle.trace().expandedSize(), plain.trace().size());
}

TEST(TraceRle, ScanFixedExpandsToScanEmit)
{
    // scanFixed must produce (after expansion) exactly what scanEmit with
    // a fixed per-tuple compute produces — including the fractional carry
    // pattern of a non-integral cost.
    for (double cost : {2.0, 1.25, 0.3, 7.0}) {
        TraceRecorder rle, plain;
        rle.scanFixed(0x2000, 1000, 16, 64, false, cost);
        scanEmit(plain, 0x2000, 1000, 16, 64, false,
                 [&](std::uint64_t) { plain.compute(cost); });
        EXPECT_EQ(rle.trace().expanded(), plain.trace().ops())
            << "cost " << cost;
        // And the RLE form must actually be compact for uniform costs.
        EXPECT_LT(rle.trace().size(), plain.trace().size());
    }
    // A full chunk reuses the previous full chunk's cycles and carry when
    // it starts from a bit-equal carry. Costs whose carry repeats (1.5,
    // 6.0) reuse it; costs whose carry drifts (0.1, 1/3, 7.3) never may.
    // Both chunk sizes, with and without a tail chunk, from a zero and a
    // nonzero starting carry, and as a stream.
    for (double cost : {1.5, 6.0, 0.1, 1.0 / 3.0, 7.3, 2.2}) {
        for (std::uint32_t chunk : {64u, 256u}) {
            for (std::uint64_t count : {0ull, 5ull, 16ull, 1024ull, 1037ull}) {
                for (double lead : {0.0, 0.7}) {
                    for (bool stream : {false, true}) {
                        TraceRecorder rle, plain;
                        rle.compute(lead);
                        plain.compute(lead);
                        rle.scanFixed(0x4000, count, 16, chunk, stream, cost);
                        scanEmit(plain, 0x4000, count, 16, chunk, stream,
                                 [&](std::uint64_t) { plain.compute(cost); });
                        rle.fence();
                        plain.fence();
                        rle.compute(0.9);
                        plain.compute(0.9);
                        EXPECT_EQ(rle.trace().expanded(),
                                  plain.trace().ops())
                            << "cost " << cost << " chunk " << chunk
                            << " count " << count << " lead " << lead
                            << " stream " << stream;
                    }
                }
            }
        }
    }
}

TEST(TraceRle, ScanFixedCarryContinuesAcrossCalls)
{
    // The fractional-cycle carry must continue across scanFixed and
    // compute() exactly as it would across scanEmit and compute().
    TraceRecorder rle, plain;
    rle.compute(0.7);
    rle.scanFixed(0, 10, 16, 64, false, 0.6);
    rle.store(0, 8);
    rle.compute(0.7);
    plain.compute(0.7);
    scanEmit(plain, 0, 10, 16, 64, false,
             [&](std::uint64_t) { plain.compute(0.6); });
    plain.store(0, 8);
    plain.compute(0.7);
    EXPECT_EQ(rle.trace().expanded(), plain.trace().ops());
}

TEST(TraceRecorder, WriteRangeChunks)
{
    TraceRecorder rec;
    rec.writeRange(0, 128, 256);
    auto s = rec.trace().summarize();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.storeBytes, 128u);
}

TEST(TraceRecorder, ScanEmitInterleaves)
{
    TraceRecorder rec;
    int tuples_seen = 0;
    scanEmit(rec, 0, 10, 16, 64, true,
             [&](std::uint64_t) { ++tuples_seen; });
    EXPECT_EQ(tuples_seen, 10);
    auto s = rec.trace().summarize();
    EXPECT_EQ(s.streamReads, 3u); // 4+4+2 tuples
    EXPECT_EQ(s.streamBytes, 160u);
}
