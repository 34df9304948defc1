#include "engine/partitioner.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mondrian {

PartitionFn
PartitionFn::lowBits(unsigned num_partitions)
{
    sim_assert(isPowerOf2(num_partitions));
    return PartitionFn(num_partitions, false, 0);
}

PartitionFn
PartitionFn::range(unsigned num_partitions, std::uint64_t key_space)
{
    sim_assert(key_space > 0);
    return PartitionFn(num_partitions, true, key_space);
}

unsigned
PartitionFn::operator()(std::uint64_t key) const
{
    if (range_) {
        // High-order bits: contiguous key ranges per partition (Sort).
        auto p = static_cast<unsigned>(
            (static_cast<__uint128_t>(key) * num_) / keySpace_);
        return p >= num_ ? num_ - 1 : p;
    }
    // Low-order bits: radix partitioning (Join, Group-by).
    return static_cast<unsigned>(key & (num_ - 1));
}

Relation
Partitioner::shuffleNmp(
    const Relation &in, const PartitionFn &fn,
    std::vector<TraceRecorder> &recs,
    std::vector<std::pair<unsigned, PermutableRegion>> *arming)
{
    const unsigned vaults = pool_.geometry().totalVaults();
    sim_assert(fn.numPartitions() == vaults);
    sim_assert(recs.size() == vaults);
    sim_assert(in.numPartitions() == vaults);

    const std::uint64_t total = in.totalTuples();

    // --- Functional: gather sources, classify destinations. -------------
    std::vector<std::vector<Tuple>> src(vaults);
    std::vector<std::vector<unsigned>> dest(vaults);
    std::vector<std::vector<std::uint64_t>> counts(
        vaults, std::vector<std::uint64_t>(vaults, 0));
    for (unsigned sv = 0; sv < vaults; ++sv) {
        src[sv] = in.gather(pool_, sv);
        sim_assert(src[sv].size() <= UINT32_MAX); // FIFO index width
        dest[sv].resize(src[sv].size());
        for (std::size_t j = 0; j < src[sv].size(); ++j) {
            unsigned dv = fn(src[sv][j].key);
            dest[sv][j] = dv;
            counts[sv][dv]++;
        }
    }

    // Destination buffers: the flat shuffleCapacityFactor headroom covers
    // uniform keys (§5.3's overprovisioning); skewed keys (Zipf studies)
    // can exceed any flat factor, so each destination is additionally
    // sized from the exchanged histogram — exactly the per-destination
    // counts every vault already computes before distribution. Uniform
    // workloads keep the flat capacity (and therefore an identical memory
    // layout); only destinations the histogram proves hotter grow.
    const std::uint64_t flat_cap =
        static_cast<std::uint64_t>(
            static_cast<double>(divCeil(total, vaults)) *
            cfg_.shuffleCapacityFactor) +
        16;
    std::vector<std::uint64_t> inbound(vaults, 0);
    for (unsigned dv = 0; dv < vaults; ++dv)
        for (unsigned sv = 0; sv < vaults; ++sv)
            inbound[dv] += counts[sv][dv];

    std::vector<unsigned> all(vaults);
    std::vector<std::uint64_t> caps(vaults);
    for (unsigned v = 0; v < vaults; ++v) {
        all[v] = v;
        caps[v] = std::max(flat_cap, inbound[v]);
    }
    Relation out = Relation::alloc(pool_, all, caps);

    // --- Placement. ------------------------------------------------------
    // addrOf[sv][j]: final address of source sv's j-th tuple.
    std::vector<std::vector<Addr>> addrOf(vaults);
    for (unsigned sv = 0; sv < vaults; ++sv)
        addrOf[sv].resize(src[sv].size());

    if (!cfg_.permutable) {
        // Exact placement from exchanged histogram prefix sums:
        // source sv's block within dv starts after all lower sources'.
        std::vector<std::vector<std::uint64_t>> off(
            vaults, std::vector<std::uint64_t>(vaults, 0));
        for (unsigned dv = 0; dv < vaults; ++dv) {
            std::uint64_t run = 0;
            for (unsigned sv = 0; sv < vaults; ++sv) {
                off[dv][sv] = run;
                run += counts[sv][dv];
            }
        }
        std::vector<std::vector<std::uint64_t>> cursor(
            vaults, std::vector<std::uint64_t>(vaults, 0));
        for (unsigned sv = 0; sv < vaults; ++sv) {
            for (std::size_t j = 0; j < src[sv].size(); ++j) {
                unsigned dv = dest[sv][j];
                std::uint64_t idx = off[dv][sv] + cursor[sv][dv]++;
                addrOf[sv][j] = out.tupleAddr(dv, idx);
                out.writeTuple(pool_, dv, idx, src[sv][j]);
            }
        }
    } else {
        // Permutable placement: the destination vault controller appends
        // objects in arrival order. We model arrival as a round-robin
        // interleave of the source streams -- messages from concurrently
        // shuffling sources interleave in the memory network (Fig. 2).
        // Any permutation is functionally correct; this one is
        // deterministic.
        //
        // The per-source FIFOs of every destination are one flat index
        // array, filled by a counting-sort pass: FIFO (dv, sv) holds
        // source sv's tuple indices for dv in source order, between
        // head[dv * vaults + sv] and tail[dv * vaults + sv].
        std::vector<std::uint64_t> head(std::size_t{vaults} * vaults);
        std::uint64_t run = 0;
        for (unsigned dv = 0; dv < vaults; ++dv)
            for (unsigned sv = 0; sv < vaults; ++sv) {
                head[std::size_t{dv} * vaults + sv] = run;
                run += counts[sv][dv];
            }
        std::vector<std::uint64_t> tail = head;
        std::vector<std::uint32_t> fifo(total);
        for (unsigned sv = 0; sv < vaults; ++sv)
            for (std::size_t j = 0; j < dest[sv].size(); ++j)
                fifo[tail[std::size_t{dest[sv][j]} * vaults + sv]++] =
                    static_cast<std::uint32_t>(j);
        // One destination at a time, in arrival order; a source leaves
        // the round robin once its FIFO is drained.
        std::vector<Tuple> arrived;
        std::vector<unsigned> active;
        for (unsigned dv = 0; dv < vaults; ++dv) {
            std::uint64_t *next = &head[std::size_t{dv} * vaults];
            const std::uint64_t *end = &tail[std::size_t{dv} * vaults];
            active.clear();
            for (unsigned sv = 0; sv < vaults; ++sv)
                if (next[sv] < end[sv])
                    active.push_back(sv);
            arrived.clear();
            while (!active.empty()) {
                std::size_t keep = 0;
                for (unsigned sv : active) {
                    std::uint32_t j = fifo[next[sv]++];
                    addrOf[sv][j] = out.tupleAddr(dv, arrived.size());
                    arrived.push_back(src[sv][j]);
                    if (next[sv] < end[sv])
                        active[keep++] = sv;
                }
                active.resize(keep);
            }
            sim_assert(arrived.size() == inbound[dv]);
            out.scatter(pool_, dv, arrived);
        }
        if (arming) {
            for (unsigned dv = 0; dv < vaults; ++dv) {
                arming->emplace_back(
                    dv, PermutableRegion{out.partition(dv).base,
                                         caps[dv] * kTupleBytes,
                                         kTupleBytes});
            }
        }
    }
    for (unsigned dv = 0; dv < vaults; ++dv)
        out.partition(dv).count = inbound[dv];

    // --- Histogram-exchange scratch (predefined remote locations). ------
    if (exchangeBlocks_.empty()) {
        exchangeBlocks_.resize(vaults);
        for (unsigned v = 0; v < vaults; ++v)
            exchangeBlocks_[v] = pool_.allocBytes(v, vaults * 8);
    }

    // --- Traces. ----------------------------------------------------------
    const KernelCosts &k = cfg_.costs;
    const std::uint64_t per_chunk =
        std::max<std::uint64_t>(1, cfg_.readChunkBytes / kTupleBytes);
    for (unsigned sv = 0; sv < vaults; ++sv) {
        TraceRecorder &rec = recs[sv];
        const auto &part = in.partition(sv);

        // Size the trace once from the known cardinality: the scatter
        // loop below emits two ops per tuple plus a read per chunk.
        rec.reserveMore(2 * part.count + part.count / per_chunk + vaults +
                        8);

        // Histogram build: sequential scan + hash/count per tuple. The
        // 64-entry histogram lives in registers/L1 on an NMP unit.
        rec.scanFixed(part.base, part.count, kTupleBytes,
                      cfg_.readChunkBytes, cfg_.simd, k.histogram);
        // Exchange: write own counts to every vault's predefined slot.
        for (unsigned dv = 0; dv < vaults; ++dv)
            rec.store(exchangeBlocks_[dv] + sv * 8, 8);
        rec.fence();

        // Data distribution: re-scan and store each tuple to its target.
        scanEmit(rec, part.base, part.count, kTupleBytes,
                 cfg_.readChunkBytes, cfg_.simd, [&](std::uint64_t j) {
                     if (cfg_.permutable) {
                         rec.compute(k.permutableAppend);
                         rec.permutableStore(addrOf[sv][j], kTupleBytes);
                     } else {
                         rec.compute(k.scatterAddr + k.scatterCopy);
                         rec.store(addrOf[sv][j], kTupleBytes);
                     }
                 });
        rec.fence();
    }
    return out;
}

Addr
Partitioner::globalTupleAddr(const Relation &rel, std::uint64_t chunk,
                             std::uint64_t g)
{
    return rel.tupleAddr(g / chunk, g % chunk);
}

Partitioner::CpuResult
Partitioner::shuffleCpu(const Relation &in, const PartitionFn &fn,
                        unsigned num_partitions,
                        std::vector<TraceRecorder> &recs)
{
    const unsigned vaults = pool_.geometry().totalVaults();
    const unsigned units = cfg_.numUnits;
    sim_assert(recs.size() == units);
    const std::uint64_t total = in.totalTuples();
    const unsigned P = num_partitions;

    // --- Functional: per-unit histograms over their vault shares. -------
    std::vector<std::vector<Tuple>> src(units);
    std::vector<std::vector<unsigned>> dst(units);
    std::vector<std::vector<std::uint64_t>> counts(
        units, std::vector<std::uint64_t>(P, 0));
    for (unsigned u = 0; u < units; ++u) {
        for (unsigned v : cfg_.unitVaults(u, vaults)) {
            auto tuples = in.gather(pool_, v);
            for (const Tuple &t : tuples) {
                unsigned p = fn(t.key);
                counts[u][p]++;
                src[u].push_back(t);
                dst[u].push_back(p);
            }
        }
    }

    // Global bounds and per-(unit, partition) exact offsets -- the
    // standard parallel radix layout with private output blocks.
    CpuResult res;
    res.bounds.assign(P + 1, 0);
    for (unsigned p = 0; p < P; ++p) {
        std::uint64_t c = 0;
        for (unsigned u = 0; u < units; ++u)
            c += counts[u][p];
        res.bounds[p + 1] = res.bounds[p] + c;
    }
    std::vector<std::vector<std::uint64_t>> off(
        units, std::vector<std::uint64_t>(P, 0));
    for (unsigned p = 0; p < P; ++p) {
        std::uint64_t run = res.bounds[p];
        for (unsigned u = 0; u < units; ++u) {
            off[u][p] = run;
            run += counts[u][p];
        }
    }

    // Output: a global array carved into per-vault chunks.
    res.chunkTuples = divCeil(total, vaults);
    std::vector<unsigned> all(vaults);
    for (unsigned v = 0; v < vaults; ++v)
        all[v] = v;
    res.out = Relation::alloc(pool_, all, res.chunkTuples);
    for (unsigned v = 0; v < vaults; ++v) {
        std::uint64_t start = std::uint64_t{v} * res.chunkTuples;
        res.out.partition(v).count =
            start >= total ? 0
                           : std::min(res.chunkTuples, total - start);
    }

    // Functional placement.
    {
        std::vector<std::vector<std::uint64_t>> cursor(
            units, std::vector<std::uint64_t>(P, 0));
        for (unsigned u = 0; u < units; ++u) {
            for (std::size_t j = 0; j < src[u].size(); ++j) {
                unsigned p = dst[u][j];
                std::uint64_t g = off[u][p] + cursor[u][p]++;
                pool_.store().writeValue(
                    globalTupleAddr(res.out, res.chunkTuples, g), src[u][j]);
            }
        }
    }

    // --- Model state: private cursor arrays and page-table footprint. ---
    if (cursorBlocks_.size() != units) {
        cursorBlocks_.assign(units, 0);
        for (unsigned u = 0; u < units; ++u) {
            unsigned home = cfg_.unitVaults(u, vaults).front();
            cursorBlocks_[u] = pool_.allocBytes(home, std::uint64_t{P} * 8);
        }
    }
    const bool tlb_pressure = P > cfg_.tlbEntries;
    if (tlb_pressure && pageTableBytes_ == 0) {
        // Leaf page-table working set for the scattered output pages. The
        // walker touches last-level PTE cache lines scattered over the
        // OS's page-table pages; the footprint comfortably exceeds the
        // LLC once the fanout exceeds the TLB (the radix-partitioning
        // fanout wall of Kim et al. [38]). Spread across vaults like the
        // OS's physically scattered page-table pages.
        pageTableBytes_ =
            std::max<std::uint64_t>(std::uint64_t{P} * 512, 2 * kMiB);
        pageTableBlockBytes_ = divCeil(pageTableBytes_, vaults);
        pageTableBlocks_.resize(vaults);
        for (unsigned v = 0; v < vaults; ++v)
            pageTableBlocks_[v] = pool_.allocBytes(v, pageTableBlockBytes_);
    }
    auto pt_addr = [&](Addr out_addr) {
        std::uint64_t page = out_addr >> 12;
        std::uint64_t h = hashKey(page);
        unsigned v = static_cast<unsigned>(h % vaults);
        std::uint64_t slot = (h / vaults) % (pageTableBlockBytes_ / 8);
        return pageTableBlocks_[v] + slot * 8;
    };

    // --- Traces. ----------------------------------------------------------
    const KernelCosts &k = cfg_.costs;
    const std::uint64_t per_chunk =
        std::max<std::uint64_t>(1, cfg_.readChunkBytes / kTupleBytes);
    for (unsigned u = 0; u < units; ++u) {
        TraceRecorder &rec = recs[u];

        // Cardinality-based sizing: histogram emits 2 ops/tuple, the
        // scatter 3 (plus 3 page-walk loads under TLB pressure), and each
        // chunked sweep adds a read per chunk.
        const std::uint64_t n_u = src[u].size();
        rec.reserveMore((tlb_pressure ? 8 : 5) * n_u +
                        2 * (n_u / per_chunk) + 16);

        // Histogram step: scan own share; count into the private array
        // (P entries; modeled as a load per tuple through the caches).
        std::uint64_t j_base = 0;
        for (unsigned v : cfg_.unitVaults(u, vaults)) {
            const auto &part = in.partition(v);
            scanEmit(rec, part.base, part.count, kTupleBytes,
                     cfg_.readChunkBytes, false, [&](std::uint64_t j) {
                         unsigned p = dst[u][j_base + j];
                         rec.load(cursorBlocks_[u] + std::uint64_t{p} * 8, 8);
                         rec.compute(k.histogram);
                     });
            j_base += part.count;
        }
        // Prefix-sum across units (tiny) + barrier.
        rec.compute(2.0 * P);
        rec.fence();

        // Scatter step: re-scan; cursor chain + page walk + store.
        std::vector<std::uint64_t> cursor(P, 0);
        j_base = 0;
        for (unsigned v : cfg_.unitVaults(u, vaults)) {
            const auto &part = in.partition(v);
            scanEmit(rec, part.base, part.count, kTupleBytes,
                     cfg_.readChunkBytes, false, [&](std::uint64_t j) {
                         unsigned p = dst[u][j_base + j];
                         std::uint64_t g = off[u][p] + cursor[p]++;
                         Addr out_addr =
                             globalTupleAddr(res.out, res.chunkTuples, g);
                         rec.load(cursorBlocks_[u] + std::uint64_t{p} * 8, 8);
                         if (tlb_pressure) {
                             // TLB miss: a dependent multi-level walk.
                             // With 64K+ scattered destinations the
                             // walker caches thrash along with the TLB,
                             // leaving ~3 serialized memory accesses per
                             // translation (Kim et al. [38] identify this
                             // fanout wall; §5.1 notes NMP units use
                             // physical addresses and never pay it).
                             rec.loadBlocking(
                                 pt_addr(out_addr ^ 0xbf58476d1ce4e5b9ull),
                                 8);
                             rec.loadBlocking(
                                 pt_addr(out_addr ^ 0x5851f42dull), 8);
                             rec.loadBlocking(pt_addr(out_addr), 8);
                         }
                         rec.compute(k.scatterAddr + k.scatterCopy);
                         rec.store(out_addr, kTupleBytes);
                     });
            j_base += part.count;
        }
        rec.fence();
    }
    return res;
}

} // namespace mondrian
