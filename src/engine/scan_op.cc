#include "engine/ops.hh"

#include "common/logging.hh"
#include "engine/trace_recorder.hh"

namespace mondrian {

OperatorExecution
runScan(MemoryPool &pool, const ExecConfig &cfg, const Relation &rel,
        std::uint64_t probe_key)
{
    const unsigned vaults = pool.geometry().totalVaults();
    OperatorExecution exec;
    exec.op = "scan";

    PhaseExec probe;
    probe.name = "probe";
    probe.kind = PhaseKind::kProbe;

    std::vector<TraceRecorder> recs(cfg.numUnits);
    std::uint64_t matches = 0;

    for (unsigned u = 0; u < cfg.numUnits; ++u) {
        TraceRecorder &rec = recs[u];
        for (unsigned v : cfg.unitVaults(u, vaults)) {
            const auto &part = rel.partition(v);
            // Functional: evaluate the predicate.
            for (const Tuple &t : rel.gather(pool, v))
                matches += (t.key == probe_key) ? 1 : 0;
            // Trace: one sequential sweep, one compare per tuple (RLE).
            rec.scanFixed(part.base, part.count, kTupleBytes,
                          cfg.readChunkBytes, cfg.simd, cfg.costs.scan);
        }
        rec.fence();
    }

    for (auto &rec : recs)
        probe.traces.push_back(rec.take());
    exec.phases.push_back(std::move(probe));
    exec.scanMatches = matches;
    return exec;
}

} // namespace mondrian
