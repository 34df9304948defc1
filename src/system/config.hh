/**
 * @file
 * Full system configurations for the six evaluated machines (§6).
 *
 * A SystemConfig bundles the memory geometry, interconnect topology, core
 * microarchitecture, cache hierarchy and execution style. Presets mirror
 * Table 3:
 *
 *  - kCpu:            16 OoO A57 cores @ 2 GHz, L1 + shared LLC,
 *                     star-connected passive cubes (Fig. 5)
 *  - kNmp / kNmpPerm / kNmpSeq:
 *                     one Krait400-class OoO core per vault, L1 only,
 *                     fully connected active cubes; kNmp runs the hash
 *                     probe, so it is also Fig. 6's NMP-rand
 *  - kMondrianNoperm / kMondrian:
 *                     one A35+SIMD tile per vault with stream buffers
 *
 * Cache sizes scale with the memory geometry (DESIGN.md §5): the default
 * modeled pool is 512 MiB (64 x 8 MiB vaults) instead of 32 GB, and the
 * caches shrink so the dataset/cache ratios that drive the paper's
 * behavior are preserved. Sweeping the geometry axis (campaign
 * design-space exploration) re-derives the cache sizes from the same
 * ratios, so a 2x-capacity pool also doubles the caches.
 */

#ifndef MONDRIAN_SYSTEM_CONFIG_HH
#define MONDRIAN_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "core/cache.hh"
#include "core/core_model.hh"
#include "dram/timing.hh"
#include "engine/exec_config.hh"
#include "mem/address_map.hh"
#include "noc/network.hh"

namespace mondrian {

/** The evaluated system variants (§6, "Evaluated configurations"). */
enum class SystemKind
{
    kCpu,            ///< CPU-centric baseline
    kNmp,            ///< NMP baseline (exact shuffle + hash probe)
    kNmpPerm,        ///< NMP + permutable shuffle
    kNmpSeq,         ///< NMP with sort (sequential) probe
    kMondrianNoperm, ///< Mondrian tiles without permutability
    kMondrian        ///< the full Mondrian Data Engine
};

const char *systemKindName(SystemKind kind);

/** Parse a system name as printed by systemKindName(). */
bool systemKindFromName(const std::string &name, SystemKind &out);

/** All evaluated systems, in Table 3 order. */
const std::vector<SystemKind> &allSystemKinds();

/** Everything needed to build a Machine. */
struct SystemConfig
{
    std::string name;
    SystemKind kind = SystemKind::kMondrian;

    MemGeometry geo;
    Topology topo = Topology::kFullyConnectedNmp;
    DramTiming dram;
    unsigned vaultWindow = 16; ///< FR-FCFS scheduling window

    CoreConfig core;
    bool hasL1 = false;
    bool hasLlc = false;
    CacheConfig l1;
    CacheConfig llc;

    ExecConfig exec;
};

/** Default scaled memory geometry: 4 cubes x 16 vaults x 8 MiB. */
MemGeometry defaultGeometry();

/**
 * Canonical geometry label, e.g. "4x16x8-8MiB-r256" for the default
 * (stacks x vaults/stack x banks/vault - vault capacity - row bytes).
 * Bijective over valid geometries: equal names imply equal geometries, so
 * the name doubles as the axis label in campaign reports and the resume
 * identity.
 */
std::string geometryName(const MemGeometry &geo);

/**
 * Parse a geometry spec into @p out, starting from defaultGeometry().
 *
 * Spec grammar: "default", or "SxV[xB]" (stacks x vaults/stack
 * [x banks/vault], plain integers) optionally followed by ":"-separated
 * knobs "row=BYTES" and "vault=SIZE" (knob values accept KiB/MiB
 * suffixes). Examples: "2x8", "8x32", "4x16:row=2048",
 * "4x16:vault=256KiB".
 *
 * The result is validated with validateGeometry().
 * @return false with @p error set on malformed or invalid specs.
 */
bool parseGeometrySpec(const std::string &spec, MemGeometry &out,
                       std::string &error);

/** Build the preset configuration for @p kind over @p geo. */
SystemConfig makeSystem(SystemKind kind, const MemGeometry &geo);

/** Build with the default geometry. */
SystemConfig makeSystem(SystemKind kind);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_CONFIG_HH
