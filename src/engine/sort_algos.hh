/**
 * @file
 * Local (per-partition) sorting: the probe-phase workhorses.
 *
 * Three styles from §4.1.1 / §5.2:
 *
 *  - mergesort (NMP-seq): bottom-up two-way merge; every pass streams the
 *    whole partition in and out sequentially. log2(n) passes.
 *  - SIMD mergesort (Mondrian): an initial bitonic pass sorts 16-tuple
 *    groups in registers (the intra-stream sorting of §5.2, saving four
 *    merge passes), then merge passes run on the 1024-bit SIMD unit while
 *    stream buffers feed the inputs.
 *  - quicksort (CPU): cache-friendly in-place sort; modeled as log2(n)
 *    levels each sweeping the partition through the cache hierarchy.
 *
 * All styles functionally sort through the simulated address space; the
 * differences are the emitted traces and pass counts.
 */

#ifndef MONDRIAN_ENGINE_SORT_ALGOS_HH
#define MONDRIAN_ENGINE_SORT_ALGOS_HH

#include <cstdint>
#include <vector>

#include "engine/exec_config.hh"
#include "engine/relation.hh"
#include "engine/trace_recorder.hh"

namespace mondrian {

/** Tuples per bitonic in-register group (16 x 16 B = 4 SIMD registers). */
constexpr std::uint64_t kBitonicGroup = 16;

/** Pass accounting returned by the sorters (checked by ablation tests). */
struct SortPasses
{
    unsigned bitonicPasses = 0;
    unsigned mergePasses = 0;
    unsigned quicksortLevels = 0;
};

/** Sorts relation partitions and records the kernel traces. */
class LocalSorter
{
  public:
    LocalSorter(MemoryPool &pool, const ExecConfig &cfg)
        : pool_(pool), cfg_(cfg)
    {}

    /**
     * Sort partition @p part of @p rel by key, in place (functionally).
     * Emits the style-appropriate trace into @p rec:
     * mergesort when !cfg.cpuStyle, SIMD mergesort when cfg.simd,
     * quicksort model when cfg.cpuStyle.
     */
    SortPasses sortPartition(Relation &rel, std::size_t part,
                             TraceRecorder &rec);

    /**
     * Sort an address range of @p count tuples at @p base (CPU global
     * arrays). Functional + quicksort trace.
     */
    SortPasses sortRange(Addr base, std::uint64_t count, TraceRecorder &rec);

    /**
     * Sort a logical partition scattered over several contiguous address
     * segments (CPU global arrays straddle vault chunks). Tuples are
     * ordered across segments in segment order.
     */
    SortPasses sortSegments(
        const std::vector<std::pair<Addr, std::uint64_t>> &segments,
        TraceRecorder &rec);

    /** Number of merge passes a mergesort of @p n tuples needs. */
    static unsigned mergePassCount(std::uint64_t n, std::uint64_t initial_run);

  private:
    /** Scratch buffer in @p vault big enough for @p bytes (cached). */
    Addr scratchFor(unsigned vault, std::uint64_t bytes);

    void emitMergesort(Addr base, std::uint64_t count, unsigned vault,
                       TraceRecorder &rec, SortPasses &passes);
    void emitQuicksort(Addr base, std::uint64_t count, TraceRecorder &rec,
                       SortPasses &passes);

    /** Functionally sort @p count tuples at @p base (stable, by key). */
    void functionalSort(Addr base, std::uint64_t count);

    MemoryPool &pool_;
    const ExecConfig &cfg_;

    struct Scratch
    {
        unsigned vault;
        Addr base;
        std::uint64_t bytes;
    };
    std::vector<Scratch> scratch_;
};

/**
 * Stable LSD radix sort of @p tuples by key, one pass per 8-bit digit
 * that not every key shares. Every functional key sort of the engine.
 */
void radixSortByKey(std::vector<Tuple> &tuples);

} // namespace mondrian

#endif // MONDRIAN_ENGINE_SORT_ALGOS_HH
