#include "engine/ops.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/op_helpers.hh"
#include "engine/partitioner.hh"
#include "engine/sort_algos.hh"
#include "engine/trace_recorder.hh"

namespace mondrian {

namespace {

constexpr std::uint32_t kGroupRecBytes = sizeof(GroupRecord);

/**
 * Aggregate @p tuples into per-key records, in key order: a key sort,
 * then one fold per run of equal keys. Every field folds commutatively
 * (sums wrap mod 2^64), so the records do not depend on the order in
 * which a key's tuples arrive.
 */
std::vector<GroupRecord>
aggregate(std::vector<Tuple> tuples)
{
    radixSortByKey(tuples);
    std::vector<GroupRecord> groups;
    for (const Tuple &t : tuples) {
        if (groups.empty() || groups.back().key != t.key) {
            groups.emplace_back();
            groups.back().key = t.key;
        }
        GroupRecord &g = groups.back();
        g.count++;
        g.sum += t.payload;
        g.min = std::min(g.min, t.payload);
        g.max = std::max(g.max, t.payload);
        g.sumsq += t.payload * t.payload;
    }
    for (GroupRecord &g : groups)
        g.avg = static_cast<double>(g.sum) / static_cast<double>(g.count);
    return groups;
}

} // namespace

OperatorExecution
runGroupBy(MemoryPool &pool, const ExecConfig &cfg, const Relation &rel)
{
    const unsigned vaults = pool.geometry().totalVaults();
    OperatorExecution exec;
    exec.op = "groupby";

    Partitioner partitioner(pool, cfg);
    LocalSorter sorter(pool, cfg);
    const KernelCosts &k = cfg.costs;

    PhaseExec part_phase;
    part_phase.name = "partition";
    part_phase.kind = PhaseKind::kPartition;
    part_phase.barriers = 2;
    PhaseExec probe_phase;
    probe_phase.name = "probe";
    probe_phase.kind = PhaseKind::kProbe;

    std::vector<TraceRecorder> part_recs(cfg.numUnits);
    std::vector<TraceRecorder> probe_recs(cfg.numUnits);

    std::uint64_t group_total = 0;
    std::uint64_t checksum = 0;

    if (cfg.cpuStyle) {
        // --- CPU: radix partition into 2^bits partitions, then hash
        // aggregation per (cache-sized) partition.
        const unsigned P = 1u << cfg.cpuPartitionBits;
        PartitionFn fn = PartitionFn::lowBits(P);
        auto res = partitioner.shuffleCpu(rel, fn, P, part_recs);

        // One reusable hash-table region per core, sized for the largest
        // partition it handles (stays cache-resident across partitions).
        std::vector<std::uint64_t> max_part(cfg.numUnits, 0);
        for (unsigned p = 0; p < P; ++p) {
            unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
            max_part[u] = std::max(max_part[u],
                                   res.bounds[p + 1] - res.bounds[p]);
        }
        std::vector<Addr> ht(cfg.numUnits);
        std::vector<std::uint64_t> ht_slots(cfg.numUnits);
        std::vector<Addr> out_base(cfg.numUnits);
        std::vector<std::uint64_t> out_cursor(cfg.numUnits, 0);

        // Output region sizing needs group counts; aggregate functionally
        // first, per partition.
        std::vector<std::uint64_t> unit_groups(cfg.numUnits, 0);
        std::vector<std::vector<GroupRecord>> agg(P);
        for (unsigned p = 0; p < P; ++p) {
            std::vector<Tuple> tuples;
            for (auto &[base, n] : cpuRangeSegments(res, res.bounds[p],
                                                    res.bounds[p + 1])) {
                std::size_t at = tuples.size();
                tuples.resize(at + n);
                pool.store().read(base, tuples.data() + at, n * kTupleBytes);
            }
            agg[p] = aggregate(std::move(tuples));
            unit_groups[cpuUnitOfPartition(p, P, cfg.numUnits)] +=
                agg[p].size();
        }
        for (unsigned u = 0; u < cfg.numUnits; ++u) {
            unsigned home = cfg.unitVaults(u, vaults).front();
            ht_slots[u] = nextPow2(2 * std::max<std::uint64_t>(1,
                                                               max_part[u]));
            ht[u] = pool.allocBytes(home, ht_slots[u] * kGroupRecBytes, 64);
            out_base[u] = pool.allocBytes(
                home, std::max<std::uint64_t>(1, unit_groups[u]) *
                          kGroupRecBytes,
                64);
        }

        // One cardinality-based reservation per core: ~3 ops per tuple of
        // hash aggregation plus two per emitted group.
        {
            std::vector<std::uint64_t> unit_tuples(cfg.numUnits, 0);
            for (unsigned p = 0; p < P; ++p) {
                unit_tuples[cpuUnitOfPartition(p, P, cfg.numUnits)] +=
                    res.bounds[p + 1] - res.bounds[p];
            }
            for (unsigned u = 0; u < cfg.numUnits; ++u) {
                probe_recs[u].reserveMore(3 * unit_tuples[u] +
                                          2 * unit_groups[u] + 2 * P);
            }
        }

        for (unsigned p = 0; p < P; ++p) {
            unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
            TraceRecorder &rec = probe_recs[u];
            auto segs = cpuRangeSegments(res, res.bounds[p],
                                         res.bounds[p + 1]);
            // Hash aggregation: per tuple, probe/update the record.
            for (auto &[base, n] : segs) {
                std::vector<Tuple> tuples(n);
                pool.store().read(base, tuples.data(), n * kTupleBytes);
                scanEmit(rec, base, n, kTupleBytes, cfg.readChunkBytes,
                         false, [&](std::uint64_t j) {
                             std::uint64_t slot = hashKey(tuples[j].key) &
                                                  (ht_slots[u] - 1);
                             Addr sa = ht[u] + slot * kGroupRecBytes;
                             // Dependent read-modify-write of the record
                             // (cache hits don't stall).
                             rec.loadBlocking(sa, kGroupRecBytes);
                             rec.compute(k.aggregate);
                             rec.store(sa, kGroupRecBytes);
                         });
            }
            // Emit the finished records and write them out functionally.
            pool.store().write(out_base[u] + out_cursor[u] * kGroupRecBytes,
                               agg[p].data(), agg[p].size() * kGroupRecBytes);
            for (const GroupRecord &g : agg[p]) {
                Addr oa = out_base[u] + out_cursor[u]++ * kGroupRecBytes;
                rec.store(oa, kGroupRecBytes);
                rec.compute(2.0);
                checksum += g.digest();
            }
            group_total += agg[p].size();
            rec.fence();
        }
        for (unsigned u = 0; u < cfg.numUnits; ++u)
            exec.outputRegions.emplace_back(out_base[u],
                                            out_cursor[u] * kGroupRecBytes);
    } else {
        // --- NMP variants: radix partition one-per-vault, then either
        // hash aggregation (NMP-rand) or sort + sequential sweep
        // (NMP-seq, Mondrian).
        PartitionFn fn = PartitionFn::lowBits(vaults);
        Relation out = partitioner.shuffleNmp(rel, fn, part_recs,
                                              &part_phase.arming);

        for (unsigned v = 0; v < vaults; ++v) {
            TraceRecorder &rec = probe_recs[v];
            const auto &part = out.partition(v);
            auto tuples = out.gather(pool, v);
            auto groups = aggregate(tuples);
            group_total += groups.size();

            // Hash aggregation emits ~3 ops per tuple plus a store per
            // emitted group; the sorted sweep is RLE and needs the tail.
            rec.reserveMore((cfg.sortProbe ? 1 : 3) * part.count +
                            groups.size() + 16);

            Addr out_addr = pool.allocBytes(
                v, std::max<std::uint64_t>(1, groups.size()) *
                       kGroupRecBytes,
                64);
            exec.outputRegions.emplace_back(out_addr,
                                            groups.size() * kGroupRecBytes);

            if (!cfg.sortProbe) {
                // Hash aggregation in vault-local DRAM: the table exceeds
                // the tile's small cache, so every update is a dependent
                // random read-modify-write (the paper's NMP-rand, IPC
                // ~0.24).
                std::uint64_t slots =
                    nextPow2(2 * std::max<std::uint64_t>(1, groups.size()));
                Addr ht = pool.allocBytes(v, slots * kGroupRecBytes, 64);
                scanEmit(rec, part.base, part.count, kTupleBytes,
                         cfg.readChunkBytes, false, [&](std::uint64_t j) {
                             std::uint64_t slot =
                                 hashKey(tuples[j].key) & (slots - 1);
                             Addr sa = ht + slot * kGroupRecBytes;
                             rec.loadBlocking(sa, kGroupRecBytes);
                             rec.compute(k.aggregate);
                             rec.store(sa, kGroupRecBytes);
                         });
            } else {
                // Sort then sweep: groups come out contiguous, the sweep
                // is one sequential pass with a store per group boundary.
                sorter.sortPartition(out, v, rec);
                rec.scanFixed(part.base, part.count, kTupleBytes,
                              cfg.readChunkBytes, cfg.simd, k.aggregate);
            }
            pool.store().write(out_addr, groups.data(),
                               groups.size() * kGroupRecBytes);
            std::uint64_t g_idx = 0;
            for (const GroupRecord &g : groups) {
                Addr oa = out_addr + g_idx++ * kGroupRecBytes;
                rec.store(oa, kGroupRecBytes);
                checksum += g.digest();
            }
            rec.fence();
        }
        exec.output = out;
    }

    for (auto &rec : part_recs)
        part_phase.traces.push_back(rec.take());
    for (auto &rec : probe_recs)
        probe_phase.traces.push_back(rec.take());
    exec.phases.push_back(std::move(part_phase));
    exec.phases.push_back(std::move(probe_phase));
    exec.groupCount = group_total;
    exec.aggChecksum = checksum;
    return exec;
}

} // namespace mondrian
