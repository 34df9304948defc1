#include "system/config.hh"

#include <algorithm>

#include "common/grammar.hh"
#include "common/intmath.hh"
#include "common/logging.hh"

namespace mondrian {

const char *
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::kCpu:
        return "cpu";
      case SystemKind::kNmp:
        return "nmp";
      case SystemKind::kNmpPerm:
        return "nmp-perm";
      case SystemKind::kNmpSeq:
        return "nmp-seq";
      case SystemKind::kMondrianNoperm:
        return "mondrian-noperm";
      case SystemKind::kMondrian:
        return "mondrian";
    }
    return "?";
}

bool
systemKindFromName(const std::string &name, SystemKind &out)
{
    for (SystemKind k : allSystemKinds()) {
        if (name == systemKindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const std::vector<SystemKind> &
allSystemKinds()
{
    static const std::vector<SystemKind> kinds = {
        SystemKind::kCpu,           SystemKind::kNmp,
        SystemKind::kNmpPerm,       SystemKind::kNmpSeq,
        SystemKind::kMondrianNoperm, SystemKind::kMondrian};
    return kinds;
}

MemGeometry
defaultGeometry()
{
    MemGeometry geo;
    geo.numStacks = 4;
    geo.vaultsPerStack = 16;
    geo.banksPerVault = 8;
    geo.rowBytes = 256;      // HMC row buffer (§3.1)
    geo.vaultBytes = 8 * kMiB; // scaled stand-in for 512 MB vaults
    return geo;
}

std::string
geometryName(const MemGeometry &geo)
{
    auto sizeLabel = [](std::uint64_t bytes) {
        if (bytes >= kMiB && bytes % kMiB == 0)
            return std::to_string(bytes / kMiB) + "MiB";
        if (bytes >= kKiB && bytes % kKiB == 0)
            return std::to_string(bytes / kKiB) + "KiB";
        return std::to_string(bytes) + "B";
    };
    return std::to_string(geo.numStacks) + "x" +
           std::to_string(geo.vaultsPerStack) + "x" +
           std::to_string(geo.banksPerVault) + "-" +
           sizeLabel(geo.vaultBytes) + "-r" + std::to_string(geo.rowBytes);
}

bool
parseGeometrySpec(const std::string &spec, MemGeometry &out, std::string &error)
{
    out = defaultGeometry();
    if (spec == "default")
        return true;
    if (spec.empty()) {
        error = "empty geometry spec";
        return false;
    }

    // Leading "SxV[xB]" shape, then ":"-separated knobs.
    const std::vector<std::string> parts = splitOn(spec, ':');
    const std::string &shape = parts[0];
    std::vector<std::uint64_t> dims;
    for (const std::string &tok : splitOn(shape, 'x')) {
        std::uint64_t v = 0;
        if (!parseUint(tok, std::uint64_t{1} << 20, v) || v == 0) {
            error = "geometry shape '" + shape + "' is not SxV[xB]";
            return false;
        }
        dims.push_back(v);
    }
    if (dims.size() < 2 || dims.size() > 3) {
        error = "geometry shape '" + shape + "' is not SxV[xB]";
        return false;
    }
    out.numStacks = static_cast<unsigned>(dims[0]);
    out.vaultsPerStack = static_cast<unsigned>(dims[1]);
    if (dims.size() == 3)
        out.banksPerVault = static_cast<unsigned>(dims[2]);

    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &knob = parts[i];
        const std::size_t eq = knob.find('=');
        const std::string key = knob.substr(0, eq);
        std::string num = eq == std::string::npos ? "" : knob.substr(eq + 1);
        std::uint64_t scale = 1;
        if (num.ends_with("KiB"))
            scale = kKiB;
        else if (num.ends_with("MiB"))
            scale = kMiB;
        if (scale != 1)
            num.resize(num.size() - 3);
        // Cap before scaling so a suffix cannot overflow the multiply.
        std::uint64_t v = 0;
        if (!parseUint(num, 64 * kGiB, v) || v == 0 ||
            v * scale > 64 * kGiB) {
            error = "geometry knob '" + knob + "' is not row=N or vault=N "
                    "in (0, 64 GiB]";
            return false;
        }
        v *= scale;
        if (key == "row")
            out.rowBytes = v;
        else if (key == "vault")
            out.vaultBytes = v;
        else {
            error = "unknown geometry knob '" + key +
                    "' (expected row/vault)";
            return false;
        }
    }
    return validateGeometry(out, error);
}

namespace {

/** Largest power of two <= @p v, clamped to [@p lo, @p hi]. */
std::uint64_t
pow2Clamp(std::uint64_t v, std::uint64_t lo, std::uint64_t hi)
{
    v = std::max(v, std::uint64_t{1});
    return std::clamp(std::uint64_t{1} << floorLog2(v), lo, hi);
}

/**
 * Scaled private L1: preserves "working sets exceed the L1" ratios by
 * scaling with per-vault capacity (default 8 MiB vault -> 4 KiB L1).
 */
CacheConfig
scaledL1(const MemGeometry &geo)
{
    CacheConfig l1;
    l1.sizeBytes = pow2Clamp(geo.vaultBytes / 2048, kKiB, 64 * kKiB);
    l1.associativity = 2;
    l1.lineBytes = 64;
    l1.hitLatency = 2;
    l1.prefetchDepth = 3; // next-line prefetcher, 3 lines (§6)
    return l1;
}

/**
 * Scaled shared LLC (CPU-centric only): scales with total pool capacity
 * (default 512 MiB pool -> 64 KiB LLC).
 */
CacheConfig
scaledLlc(const MemGeometry &geo)
{
    CacheConfig llc;
    llc.sizeBytes = pow2Clamp(geo.totalBytes() / 8192, 16 * kKiB, 8 * kMiB);
    llc.associativity = 16;
    llc.lineBytes = 64;
    llc.hitLatency = 24; // 4-cycle bank + NUCA mesh hops
    llc.prefetchDepth = 0;
    return llc;
}

} // namespace

SystemConfig
makeSystem(SystemKind kind, const MemGeometry &geo)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.name = systemKindName(kind);
    cfg.geo = geo;
    const unsigned vaults = geo.totalVaults();

    switch (kind) {
      case SystemKind::kCpu:
        cfg.topo = Topology::kStarCpu;
        cfg.core = cortexA57();
        cfg.hasL1 = true;
        cfg.hasLlc = true;
        cfg.l1 = scaledL1(geo);
        cfg.llc = scaledLlc(geo);
        cfg.exec = cpuExec(vaults);
        break;

      case SystemKind::kNmp:
      case SystemKind::kNmpPerm:
      case SystemKind::kNmpSeq:
        cfg.topo = Topology::kFullyConnectedNmp;
        cfg.core = krait400();
        cfg.hasL1 = true;
        cfg.l1 = scaledL1(geo);
        cfg.exec = nmpExec(vaults, kind == SystemKind::kNmpPerm,
                           kind == SystemKind::kNmpSeq);
        break;

      case SystemKind::kMondrianNoperm:
      case SystemKind::kMondrian:
        cfg.topo = Topology::kFullyConnectedNmp;
        cfg.core = cortexA35Simd();
        cfg.exec = mondrianExec(vaults, kind == SystemKind::kMondrian);
        break;
    }
    // Mondrian's stream-buffer fetch granularity is row-sized; geometries
    // with rows narrower than the 256 B preset fetch whole rows instead.
    if (cfg.exec.readChunkBytes > geo.rowBytes)
        cfg.exec.readChunkBytes = static_cast<std::uint32_t>(geo.rowBytes);
    return cfg;
}

SystemConfig
makeSystem(SystemKind kind)
{
    return makeSystem(kind, defaultGeometry());
}

} // namespace mondrian
