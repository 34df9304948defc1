#include "engine/ops.hh"

#include <unordered_map>

#include "common/logging.hh"
#include "engine/op_helpers.hh"
#include "engine/partitioner.hh"
#include "engine/sort_algos.hh"
#include "engine/trace_recorder.hh"

namespace mondrian {

namespace {

/** Functional hash join of one co-partition (FK: R keys unique). */
std::vector<Tuple>
joinPartition(const std::vector<Tuple> &r, const std::vector<Tuple> &s)
{
    std::unordered_map<std::uint64_t, std::uint64_t> build;
    build.reserve(r.size() * 2);
    for (const Tuple &t : r)
        build[t.key] = t.payload;
    std::vector<Tuple> out;
    out.reserve(s.size());
    for (const Tuple &t : s) {
        auto it = build.find(t.key);
        if (it != build.end())
            out.push_back(Tuple{t.key, t.payload + it->second});
    }
    return out;
}

} // namespace

OperatorExecution
runJoin(MemoryPool &pool, const ExecConfig &cfg, const Relation &r,
        const Relation &s)
{
    const unsigned vaults = pool.geometry().totalVaults();
    OperatorExecution exec;
    exec.op = "join";

    Partitioner partitioner(pool, cfg);
    LocalSorter sorter(pool, cfg);
    const KernelCosts &k = cfg.costs;

    // Both relations are partitioned with the same function so matching
    // keys land in the same co-partition. Each shuffle is its own timed
    // phase: with permutability, the vault controllers re-arm between the
    // R and S destination buffers.
    PhaseExec part_r, part_s, probe_phase;
    part_r.name = "partition-R";
    part_r.kind = PhaseKind::kPartition;
    part_r.barriers = 2;
    part_s.name = "partition-S";
    part_s.kind = PhaseKind::kPartition;
    part_s.barriers = 2;
    probe_phase.name = "probe";
    probe_phase.kind = PhaseKind::kProbe;

    std::vector<TraceRecorder> r_recs(cfg.numUnits), s_recs(cfg.numUnits),
        probe_recs(cfg.numUnits);

    std::uint64_t matches = 0;

    if (cfg.cpuStyle) {
        // --- CPU radix hash join (Kim et al. [38], Balkesen et al. [10]).
        const unsigned P = 1u << cfg.cpuPartitionBits;
        PartitionFn fn = PartitionFn::lowBits(P);
        auto r_res = partitioner.shuffleCpu(r, fn, P, r_recs);
        auto s_res = partitioner.shuffleCpu(s, fn, P, s_recs);

        // Functional probe + output sizing.
        std::vector<std::vector<Tuple>> out_parts(P);
        std::vector<std::uint64_t> unit_matches(cfg.numUnits, 0);
        std::vector<std::uint64_t> max_r(cfg.numUnits, 0);
        for (unsigned p = 0; p < P; ++p) {
            unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
            std::vector<Tuple> rp, sp;
            for (auto &[base, n] : cpuRangeSegments(r_res, r_res.bounds[p],
                                                    r_res.bounds[p + 1])) {
                std::size_t at = rp.size();
                rp.resize(at + n);
                pool.store().read(base, rp.data() + at, n * kTupleBytes);
            }
            for (auto &[base, n] : cpuRangeSegments(s_res, s_res.bounds[p],
                                                    s_res.bounds[p + 1])) {
                std::size_t at = sp.size();
                sp.resize(at + n);
                pool.store().read(base, sp.data() + at, n * kTupleBytes);
            }
            out_parts[p] = joinPartition(rp, sp);
            unit_matches[u] += out_parts[p].size();
            max_r[u] = std::max<std::uint64_t>(max_r[u], rp.size());
        }

        // Per-core reusable hash-table region + output buffer.
        std::vector<Addr> ht(cfg.numUnits), out_base(cfg.numUnits);
        std::vector<std::uint64_t> ht_slots(cfg.numUnits),
            out_cursor(cfg.numUnits, 0);
        for (unsigned u = 0; u < cfg.numUnits; ++u) {
            unsigned home = cfg.unitVaults(u, vaults).front();
            ht_slots[u] =
                nextPow2(2 * std::max<std::uint64_t>(1, max_r[u]));
            ht[u] = pool.allocBytes(home, ht_slots[u] * kTupleBytes, 64);
            out_base[u] = pool.allocBytes(
                home,
                std::max<std::uint64_t>(1, unit_matches[u]) * kTupleBytes,
                64);
        }

        // One cardinality-based reservation per core: ~2 ops per build
        // tuple and ~4 per probe tuple.
        {
            std::vector<std::uint64_t> r_n(cfg.numUnits, 0),
                s_n(cfg.numUnits, 0);
            for (unsigned p = 0; p < P; ++p) {
                unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
                r_n[u] += r_res.bounds[p + 1] - r_res.bounds[p];
                s_n[u] += s_res.bounds[p + 1] - s_res.bounds[p];
            }
            for (unsigned u = 0; u < cfg.numUnits; ++u)
                probe_recs[u].reserveMore(2 * r_n[u] + 4 * s_n[u] + 2 * P);
        }

        for (unsigned p = 0; p < P; ++p) {
            unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
            TraceRecorder &rec = probe_recs[u];

            // Build over R co-partition (second hashing of §6's probe
            // description: group R keys into contiguous index ranges).
            for (auto &[base, n] : cpuRangeSegments(r_res, r_res.bounds[p],
                                                    r_res.bounds[p + 1])) {
                std::vector<Tuple> rp(n);
                pool.store().read(base, rp.data(), n * kTupleBytes);
                scanEmit(rec, base, n, kTupleBytes, cfg.readChunkBytes,
                         false, [&](std::uint64_t j) {
                             std::uint64_t slot = hashKey(rp[j].key) &
                                                  (ht_slots[u] - 1);
                             rec.compute(k.hashBuild);
                             rec.store(ht[u] + slot * kTupleBytes,
                                       kTupleBytes);
                         });
            }
            // Probe with S co-partition; matches stream to the output.
            // Two dependent accesses per probe (§6): the hash-index
            // lookup, then the matching tuple inside R's index range.
            auto r_segs = cpuRangeSegments(r_res, r_res.bounds[p],
                                           r_res.bounds[p + 1]);
            std::uint64_t r_count = r_res.bounds[p + 1] - r_res.bounds[p];
            auto r_tuple_addr = [&](std::uint64_t idx) {
                for (auto &[rb, rn] : r_segs) {
                    if (idx < rn)
                        return rb + idx * kTupleBytes;
                    idx -= rn;
                }
                return r_segs.empty() ? ht[u] : r_segs.front().first;
            };
            for (auto &[base, n] : cpuRangeSegments(s_res, s_res.bounds[p],
                                                    s_res.bounds[p + 1])) {
                std::vector<Tuple> sp(n);
                pool.store().read(base, sp.data(), n * kTupleBytes);
                scanEmit(rec, base, n, kTupleBytes, cfg.readChunkBytes,
                         false, [&](std::uint64_t j) {
                             std::uint64_t h = hashKey(sp[j].key);
                             std::uint64_t slot = h & (ht_slots[u] - 1);
                             // Dependent bucket lookup, then the index
                             // range entry it points at (cache hits
                             // don't stall).
                             rec.loadBlocking(ht[u] + slot * kTupleBytes,
                                              kTupleBytes);
                             if (r_count > 0) {
                                 rec.loadBlocking(
                                     r_tuple_addr((h >> 7) % r_count),
                                     kTupleBytes);
                             }
                             rec.compute(k.hashProbe);
                             Addr oa = out_base[u] +
                                       out_cursor[u] * kTupleBytes;
                             rec.store(oa, kTupleBytes);
                             out_cursor[u]++;
                         });
            }
            // Functional output write.
            rec.fence();
        }
        // Write functional outputs into each unit's buffer in order.
        {
            std::vector<std::uint64_t> w(cfg.numUnits, 0);
            for (unsigned p = 0; p < P; ++p) {
                unsigned u = cpuUnitOfPartition(p, P, cfg.numUnits);
                pool.store().write(out_base[u] + w[u] * kTupleBytes,
                                   out_parts[p].data(),
                                   out_parts[p].size() * kTupleBytes);
                w[u] += out_parts[p].size();
            }
            for (unsigned u = 0; u < cfg.numUnits; ++u)
                exec.outputRegions.emplace_back(out_base[u],
                                                w[u] * kTupleBytes);
        }
        for (unsigned p = 0; p < P; ++p)
            matches += out_parts[p].size();
    } else {
        // --- NMP variants: co-partition one-per-vault.
        PartitionFn fn = PartitionFn::lowBits(vaults);
        Relation r_out = partitioner.shuffleNmp(r, fn, r_recs,
                                                &part_r.arming);
        Relation s_out = partitioner.shuffleNmp(s, fn, s_recs,
                                                &part_s.arming);

        for (unsigned v = 0; v < vaults; ++v) {
            TraceRecorder &rec = probe_recs[v];
            auto rp = r_out.gather(pool, v);
            auto sp = s_out.gather(pool, v);
            auto out_tuples = joinPartition(rp, sp);

            // Probe traces are per-tuple: ~2 ops per build tuple and ~3
            // per probe tuple (hash path); the sort path needs far less.
            rec.reserveMore(2 * rp.size() + 3 * sp.size() + 16);

            Addr out_addr = pool.allocBytes(
                v,
                std::max<std::uint64_t>(1, out_tuples.size()) * kTupleBytes,
                64);
            exec.outputRegions.emplace_back(
                out_addr, out_tuples.size() * kTupleBytes);

            const auto &r_part = r_out.partition(v);
            const auto &s_part = s_out.partition(v);

            if (!cfg.sortProbe) {
                // NMP-rand: hash join against vault DRAM (the 8 KB tile
                // cache cannot hold the table): dependent random loads.
                std::uint64_t slots = nextPow2(
                    2 * std::max<std::uint64_t>(1, rp.size()));
                Addr ht = pool.allocBytes(v, slots * kTupleBytes, 64);
                scanEmit(rec, r_part.base, r_part.count, kTupleBytes,
                         cfg.readChunkBytes, false, [&](std::uint64_t j) {
                             std::uint64_t slot =
                                 hashKey(rp[j].key) & (slots - 1);
                             rec.compute(k.hashBuild);
                             rec.store(ht + slot * kTupleBytes,
                                       kTupleBytes);
                         });
                std::uint64_t oc = 0;
                scanEmit(rec, s_part.base, s_part.count, kTupleBytes,
                         cfg.readChunkBytes, false, [&](std::uint64_t j) {
                             std::uint64_t slot =
                                 hashKey(sp[j].key) & (slots - 1);
                             rec.loadBlocking(ht + slot * kTupleBytes,
                                              kTupleBytes);
                             rec.compute(k.hashProbe);
                             rec.store(out_addr + oc * kTupleBytes,
                                       kTupleBytes);
                             ++oc;
                         });
            } else {
                // NMP-seq / Mondrian: sort-merge join. Sort both inputs,
                // then a single sequential merge pass joins them.
                sorter.sortPartition(r_out, v, rec);
                sorter.sortPartition(s_out, v, rec);
                rec.scanFixed(r_part.base, r_part.count, kTupleBytes,
                              cfg.readChunkBytes, cfg.simd, k.joinMerge);
                std::uint64_t oc = 0;
                scanEmit(rec, s_part.base, s_part.count, kTupleBytes,
                         cfg.readChunkBytes, cfg.simd,
                         [&](std::uint64_t) {
                             rec.compute(k.joinMerge);
                             rec.store(out_addr + oc * kTupleBytes,
                                       kTupleBytes);
                             ++oc;
                         });
            }
            // Functional output write.
            pool.store().write(out_addr, out_tuples.data(),
                               out_tuples.size() * kTupleBytes);
            matches += out_tuples.size();
            rec.fence();
        }
    }

    for (auto &rec : r_recs)
        part_r.traces.push_back(rec.take());
    for (auto &rec : s_recs)
        part_s.traces.push_back(rec.take());
    for (auto &rec : probe_recs)
        probe_phase.traces.push_back(rec.take());
    exec.phases.push_back(std::move(part_r));
    exec.phases.push_back(std::move(part_s));
    exec.phases.push_back(std::move(probe_phase));
    exec.joinMatches = matches;
    return exec;
}

} // namespace mondrian
