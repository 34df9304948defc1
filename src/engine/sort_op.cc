#include "engine/ops.hh"

#include "common/logging.hh"
#include "engine/op_helpers.hh"
#include "engine/partitioner.hh"
#include "engine/sort_algos.hh"
#include "engine/trace_recorder.hh"

namespace mondrian {

OperatorExecution
runSort(MemoryPool &pool, const ExecConfig &cfg, const Relation &rel)
{
    const unsigned vaults = pool.geometry().totalVaults();
    OperatorExecution exec;
    exec.op = "sort";

    Partitioner partitioner(pool, cfg);
    LocalSorter sorter(pool, cfg);

    // Sort range-partitions on the high-order key bits (Table 2) so that
    // partition i holds keys strictly below partition i+1's. The CPU uses
    // the same fanout as its radix partitioning ("the partitioning phase
    // for all operators is almost identical", §7.1); NMP uses one
    // partition per vault.
    const std::uint64_t key_space = keySpaceOf(pool, rel);

    PhaseExec part_phase;
    part_phase.name = "partition";
    part_phase.kind = PhaseKind::kPartition;
    part_phase.barriers = 2;

    PhaseExec probe_phase;
    probe_phase.name = "probe";
    probe_phase.kind = PhaseKind::kProbe;

    std::vector<TraceRecorder> part_recs(cfg.numUnits);
    std::vector<TraceRecorder> probe_recs(cfg.numUnits);

    if (cfg.cpuStyle) {
        // CPU: range partition at radix fanout, then quicksort each
        // partition (§6: "quicksort, in the case of CPU").
        const unsigned P = 1u << cfg.cpuPartitionBits;
        PartitionFn fn = PartitionFn::range(P, key_space);
        auto res = partitioner.shuffleCpu(rel, fn, P, part_recs);
        for (unsigned p = 0; p < P; ++p) {
            unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
            auto segs = cpuRangeSegments(res, res.bounds[p],
                                         res.bounds[p + 1]);
            sorter.sortSegments(segs, probe_recs[u]);
        }
        exec.output = res.out;
    } else {
        PartitionFn fn = PartitionFn::range(vaults, key_space);
        Relation out = partitioner.shuffleNmp(rel, fn, part_recs,
                                              &part_phase.arming);
        for (unsigned v = 0; v < vaults; ++v)
            sorter.sortPartition(out, v, probe_recs[v]);
        exec.output = out;
    }

    for (auto &rec : part_recs)
        part_phase.traces.push_back(rec.take());
    for (auto &rec : probe_recs)
        probe_phase.traces.push_back(rec.take());
    exec.phases.push_back(std::move(part_phase));
    exec.phases.push_back(std::move(probe_phase));
    return exec;
}

} // namespace mondrian
