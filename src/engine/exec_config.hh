/**
 * @file
 * Execution-style configuration for operator implementations.
 *
 * One ExecConfig describes *how* the operators run: on CPU cores over the
 * star network or on per-vault NMP units; with exact-address scatter or
 * the permutable append engine during partitioning; with hash-based or
 * sort-based probe algorithms; with scalar loops or Mondrian's 1024-bit
 * SIMD streaming idiom. The six evaluated systems (§6 "Evaluated
 * configurations") are all combinations of these knobs.
 */

#ifndef MONDRIAN_ENGINE_EXEC_CONFIG_HH
#define MONDRIAN_ENGINE_EXEC_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engine/kernel_costs.hh"

namespace mondrian {

/** How operators execute on a given system. */
struct ExecConfig
{
    /** CPU-centric (16 cores, star) vs. near-memory (one unit per vault). */
    bool cpuStyle = false;
    /** Number of compute units emitting traces (16 CPU cores or 64 tiles). */
    unsigned numUnits = 64;
    /** Partitioning writes use the permutable append engine (§5.3). */
    bool permutable = false;
    /** Probe phase uses sort-based algorithms (sort-merge join, §4.1.1). */
    bool sortProbe = false;
    /** Mondrian idioms: stream-buffer reads, SIMD bitonic first pass. */
    bool simd = false;

    /** Sequential read granularity: 64 B cache lines or 256 B streams. */
    std::uint32_t readChunkBytes = 64;

    /**
     * Radix bits for CPU-style partitioning of Join/Group-by. The paper
     * uses the keys' 16 low-order bits at 32 GB scale; scaled runs shrink
     * this together with the caches and the TLB so both walls survive:
     * fanout > TLB reach (page walk per scattered store) and co-partition
     * size > L1 (probe runs out of LLC/DRAM). See DESIGN.md section 5.
     */
    unsigned cpuPartitionBits = 7;

    /** Headroom factor for shuffle destination buffers. */
    double shuffleCapacityFactor = 1.7;

    /**
     * TLB reach of the CPU cores in entries. Radix fanouts beyond this
     * incur a page walk per scattered store -- the classical fanout limit
     * of CPU partitioning (Kim et al. [38]). NMP units use physical
     * addresses (§5.1) and never translate.
     */
    unsigned tlbEntries = 64;

    /** Cycles-per-tuple cost table for this unit microarchitecture. */
    KernelCosts costs;

    /**
     * Event-count-reduction shortcuts (docs/perf.md). Each is
     * output-identical, so they are not model knobs: no campaign sets
     * them and no report names them. Off runs the general path, which
     * also runs whenever a shortcut does not apply; tests switch them
     * off to get the reference a shortcut must match byte for byte.
     */
    bool coalesceCompletions = true; ///< batch same-tick completion events
    bool rleRunBatching = true;      ///< closed-form RLE plain-hit prefixes
    bool eagerLocalIssue = true;     ///< local arrivals issue sans event

    /** Vaults owned by unit @p u out of @p total_vaults (data share). */
    std::vector<unsigned>
    unitVaults(unsigned u, unsigned total_vaults) const
    {
        std::vector<unsigned> v;
        unsigned per = total_vaults / numUnits;
        for (unsigned i = 0; i < per; ++i)
            v.push_back(u * per + i);
        return v;
    }
};

/** Execution-style presets for the evaluated systems (§6). */
ExecConfig cpuExec(unsigned total_vaults);
ExecConfig nmpExec(unsigned total_vaults, bool permutable, bool sort_probe);
ExecConfig mondrianExec(unsigned total_vaults, bool permutable);

/**
 * Named delta on top of a preset ExecConfig — the exec-ablation axis of a
 * design-space campaign. Each knob is an override when >= 0 and "inherit
 * the preset" when negative; the empty override is the "base" point.
 *
 * The knobs are the three sensitivity parameters of the paper's
 * CPU-vs-NMP partitioning story: the radix fanout (2^bits destinations),
 * the sequential read granularity, and the TLB reach that caps the
 * fanout CPU cores can scatter to without a page walk per store.
 */
struct ExecOverride
{
    int radixBits = -1;      ///< ExecConfig::cpuPartitionBits
    int readChunkBytes = -1; ///< ExecConfig::readChunkBytes
    int tlbEntries = -1;     ///< ExecConfig::tlbEntries

    bool isBase() const
    {
        return radixBits < 0 && readChunkBytes < 0 && tlbEntries < 0;
    }

    /**
     * Canonical name, e.g. "base" or "chunk=256+radix=9" (keys in fixed
     * chunk/radix/tlb order). Equal names imply equal deltas, so the name
     * doubles as the axis label in reports and the resume identity.
     */
    std::string name() const;

    /** Apply the set knobs to @p cfg. */
    void apply(ExecConfig &cfg) const;
};

/**
 * Parse an exec-ablation spec: "base" or '+'-joined knobs from
 * {radix=N, chunk=N, tlb=N}, e.g. "radix=9+tlb=16".
 * @return false with @p error set on unknown keys or out-of-range values.
 */
bool parseExecOverride(const std::string &spec, ExecOverride &out,
                       std::string &error);

/**
 * Range-check an override's set knobs (radix in [1,24], chunk a power of
 * two in [16,4096], tlb in [1,2^20]) — the same bounds parseExecOverride
 * enforces, for overrides built through the library API.
 * @return false with @p error set when a knob is out of range.
 */
bool validateExecOverride(const ExecOverride &ov, std::string &error);

} // namespace mondrian

#endif // MONDRIAN_ENGINE_EXEC_CONFIG_HH
