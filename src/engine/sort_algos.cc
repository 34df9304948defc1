#include "engine/sort_algos.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mondrian {

unsigned
LocalSorter::mergePassCount(std::uint64_t n, std::uint64_t initial_run)
{
    if (n <= initial_run)
        return 0;
    unsigned passes = 0;
    std::uint64_t run = initial_run;
    while (run < n) {
        run *= 2;
        ++passes;
    }
    return passes;
}

void
radixSortByKey(std::vector<Tuple> &tuples)
{
    if (tuples.size() < 2)
        return;
    std::uint64_t differ = 0; // key bits that are not the same in all
    for (const Tuple &t : tuples)
        differ |= t.key ^ tuples[0].key;
    std::vector<Tuple> buf(tuples.size());
    for (unsigned shift = 0; shift < 64; shift += 8) {
        if (((differ >> shift) & 0xff) == 0)
            continue;
        std::array<std::size_t, 256> at{};
        for (const Tuple &t : tuples)
            ++at[(t.key >> shift) & 0xff];
        std::size_t sum = 0;
        for (std::size_t &c : at)
            sum += std::exchange(c, sum);
        for (const Tuple &t : tuples)
            buf[at[(t.key >> shift) & 0xff]++] = t;
        tuples.swap(buf);
    }
}

Addr
LocalSorter::scratchFor(unsigned vault, std::uint64_t bytes)
{
    for (auto &s : scratch_) {
        if (s.vault == vault && s.bytes >= bytes)
            return s.base;
    }
    // Allocate with headroom so repeated sorts of similar sizes reuse it.
    std::uint64_t alloc = roundUp(bytes, 4 * kKiB);
    Addr base = pool_.allocBytes(vault, alloc, 256);
    scratch_.push_back(Scratch{vault, base, alloc});
    return base;
}

void
LocalSorter::functionalSort(Addr base, std::uint64_t count)
{
    if (count < 2)
        return;
    std::vector<Tuple> tuples(count);
    pool_.store().read(base, tuples.data(), count * kTupleBytes);
    radixSortByKey(tuples);
    pool_.store().write(base, tuples.data(), count * kTupleBytes);
}

void
LocalSorter::emitMergesort(Addr base, std::uint64_t count, unsigned vault,
                           TraceRecorder &rec, SortPasses &passes)
{
    if (count == 0)
        return;
    const KernelCosts &k = cfg_.costs;
    const std::uint64_t bytes = count * kTupleBytes;
    const Addr scratch = scratchFor(vault, bytes);

    std::uint64_t run = 1;
    if (cfg_.simd) {
        // Bitonic intra-stream pass: one streaming sweep sorts 16-tuple
        // groups in registers, cutting log2(16) = 4 merge passes (§5.2).
        passes.bitonicPasses = 1;
        rec.scanFixed(base, count, kTupleBytes, cfg_.readChunkBytes,
                      /*stream=*/true, k.bitonicPass);
        rec.writeRange(base, bytes, cfg_.readChunkBytes);
        rec.fence();
        run = kBitonicGroup;
    }

    // Bottom-up merge passes, ping-ponging between the partition buffer
    // and vault-local scratch. The trace reads the source sequentially
    // (two interleaved run streams -- still sequential per stream, which
    // is exactly what stream buffers are for) and writes the destination
    // sequentially.
    unsigned n_passes = mergePassCount(count, run);
    passes.mergePasses = n_passes;
    Addr src = base, dst = scratch;
    // Land the final pass in the partition buffer.
    if (n_passes % 2 == 1)
        std::swap(src, dst);
    for (unsigned pass = 0; pass < n_passes; ++pass) {
        rec.scanFixed(src, count, kTupleBytes, cfg_.readChunkBytes,
                      cfg_.simd, k.mergePass);
        rec.writeRange(dst, bytes, cfg_.readChunkBytes);
        rec.fence();
        std::swap(src, dst);
    }

    functionalSort(base, count);
}

void
LocalSorter::emitQuicksort(Addr base, std::uint64_t count,
                           TraceRecorder &rec, SortPasses &passes)
{
    if (count == 0)
        return;
    const KernelCosts &k = cfg_.costs;
    const std::uint64_t bytes = count * kTupleBytes;

    // Each quicksort level sweeps the (sub)partitions once: reads are
    // sequential-ish from both ends, writes are in-place swaps. We model a
    // level as a line-granular read sweep plus per-tuple compare/swap
    // work; deeper levels work on cache-resident fragments, which the
    // cache model captures naturally because the addresses repeat.
    unsigned levels = count <= 1 ? 0 : ceilLog2(count);
    passes.quicksortLevels = levels;
    for (unsigned level = 0; level < levels; ++level) {
        rec.scanFixed(base, count, kTupleBytes, cfg_.readChunkBytes,
                      /*stream=*/false, k.quicksortLevel);
        // In-place partitioning writes roughly half the tuples per level.
        rec.writeRange(base, bytes / 2, cfg_.readChunkBytes);
        rec.fence();
    }

    functionalSort(base, count);
}

SortPasses
LocalSorter::sortPartition(Relation &rel, std::size_t part,
                           TraceRecorder &rec)
{
    SortPasses passes;
    const auto &p = rel.partition(part);
    if (cfg_.cpuStyle)
        emitQuicksort(p.base, p.count, rec, passes);
    else
        emitMergesort(p.base, p.count, p.vault, rec, passes);
    return passes;
}

SortPasses
LocalSorter::sortRange(Addr base, std::uint64_t count, TraceRecorder &rec)
{
    SortPasses passes;
    sim_assert(cfg_.cpuStyle);
    emitQuicksort(base, count, rec, passes);
    return passes;
}

SortPasses
LocalSorter::sortSegments(
    const std::vector<std::pair<Addr, std::uint64_t>> &segments,
    TraceRecorder &rec)
{
    SortPasses passes;
    std::uint64_t count = 0;
    for (const auto &[base, n] : segments)
        count += n;
    if (count == 0)
        return passes;

    // Functional: gather across segments, sort, scatter back in order.
    std::vector<Tuple> tuples;
    tuples.reserve(count);
    for (const auto &[base, n] : segments) {
        std::size_t at = tuples.size();
        tuples.resize(at + n);
        pool_.store().read(base, tuples.data() + at, n * kTupleBytes);
    }
    radixSortByKey(tuples);
    std::size_t at = 0;
    for (const auto &[base, n] : segments) {
        pool_.store().write(base, tuples.data() + at, n * kTupleBytes);
        at += n;
    }

    // Trace: quicksort levels sweeping every segment.
    const KernelCosts &k = cfg_.costs;
    unsigned levels = count <= 1 ? 0 : ceilLog2(count);
    passes.quicksortLevels = levels;
    for (unsigned level = 0; level < levels; ++level) {
        for (const auto &[base, n] : segments) {
            rec.scanFixed(base, n, kTupleBytes, cfg_.readChunkBytes,
                          /*stream=*/false, k.quicksortLevel);
            rec.writeRange(base, n * kTupleBytes / 2, cfg_.readChunkBytes);
        }
        rec.fence();
    }
    return passes;
}

} // namespace mondrian
