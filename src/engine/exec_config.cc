#include "engine/exec_config.hh"

#include "common/grammar.hh"
#include "common/intmath.hh"

namespace mondrian {

ExecConfig
cpuExec(unsigned total_vaults)
{
    ExecConfig c;
    c.cpuStyle = true;
    // The paper's CPU system: 16 cores for a 32 GB pool (2 GB/core).
    c.numUnits = total_vaults >= 16 ? 16 : total_vaults;
    c.permutable = false;
    c.sortProbe = false;
    c.simd = false;
    c.readChunkBytes = 64; // cache-line granularity
    c.costs = cpuKernelCosts();
    return c;
}

ExecConfig
nmpExec(unsigned total_vaults, bool permutable, bool sort_probe)
{
    ExecConfig c;
    c.cpuStyle = false;
    c.numUnits = total_vaults;
    c.permutable = permutable;
    c.sortProbe = sort_probe;
    c.simd = false;
    c.readChunkBytes = 64;
    c.costs = nmpKernelCosts();
    return c;
}

ExecConfig
mondrianExec(unsigned total_vaults, bool permutable)
{
    ExecConfig c;
    c.cpuStyle = false;
    c.numUnits = total_vaults;
    c.permutable = permutable;
    c.sortProbe = true; // Mondrian always favors sequential algorithms
    c.simd = true;
    c.readChunkBytes = 256; // stream-buffer fetch granularity (row-sized)
    c.costs = mondrianKernelCosts();
    return c;
}

std::string
ExecOverride::name() const
{
    std::string n;
    auto add = [&n](const char *key, int v) {
        if (v < 0)
            return;
        if (!n.empty())
            n += '+';
        n += key;
        n += '=';
        n += std::to_string(v);
    };
    add("chunk", readChunkBytes);
    add("radix", radixBits);
    add("tlb", tlbEntries);
    return n.empty() ? "base" : n;
}

void
ExecOverride::apply(ExecConfig &cfg) const
{
    if (radixBits >= 0)
        cfg.cpuPartitionBits = static_cast<unsigned>(radixBits);
    if (readChunkBytes >= 0)
        cfg.readChunkBytes = static_cast<std::uint32_t>(readChunkBytes);
    if (tlbEntries >= 0)
        cfg.tlbEntries = static_cast<unsigned>(tlbEntries);
}

bool
validateExecOverride(const ExecOverride &ov, std::string &error)
{
    if (ov.radixBits >= 0 && (ov.radixBits < 1 || ov.radixBits > 24)) {
        error = "radix bits must be in [1, 24]";
        return false;
    }
    if (ov.readChunkBytes >= 0 &&
        (ov.readChunkBytes < 16 || ov.readChunkBytes > 4096 ||
         !isPowerOf2(static_cast<std::uint64_t>(ov.readChunkBytes)))) {
        error = "read chunk must be a power of two in [16, 4096]";
        return false;
    }
    if (ov.tlbEntries >= 0 && (ov.tlbEntries < 1 || ov.tlbEntries > 1 << 20)) {
        error = "tlb entries must be in [1, 2^20]";
        return false;
    }
    return true;
}

bool
parseExecOverride(const std::string &spec, ExecOverride &out, std::string &error)
{
    out = ExecOverride{};
    if (spec == "base")
        return true;
    if (spec.empty()) {
        error = "empty exec-ablation spec";
        return false;
    }
    for (const std::string &knob : splitOn(spec, '+')) {
        std::size_t eq = knob.find('=');
        if (eq == std::string::npos) {
            error = "exec-ablation knob '" + knob + "' is not key=value";
            return false;
        }
        std::string key = knob.substr(0, eq);
        std::string val = knob.substr(eq + 1);
        std::uint64_t v = 0;
        if (!parseUint(val, 1 << 20, v)) {
            error = "exec-ablation value '" + val + "' is not an integer "
                    "in [0, 2^20]";
            return false;
        }
        int *slot = nullptr;
        if (key == "radix") {
            slot = &out.radixBits;
        } else if (key == "chunk") {
            slot = &out.readChunkBytes;
        } else if (key == "tlb") {
            slot = &out.tlbEntries;
        } else {
            error = "unknown exec-ablation knob '" + key +
                    "' (expected radix/chunk/tlb)";
            return false;
        }
        if (*slot >= 0) {
            error = "exec-ablation knob '" + key + "' given twice";
            return false;
        }
        *slot = static_cast<int>(v);
    }
    return validateExecOverride(out, error);
}

} // namespace mondrian
