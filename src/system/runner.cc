#include "system/runner.hh"

#include <algorithm>

#include "common/logging.hh"
#include "engine/ops.hh"
#include "engine/sort_algos.hh"
#include "engine/spark.hh"

namespace mondrian {

namespace {

/** Probe key for scan/filter stages: the generator draws keys from a
 *  space larger than the tuple count, so key 1 is almost surely present
 *  but selectivity is tiny — a needle-in-haystack scan. */
constexpr std::uint64_t kScanProbeKey = 1;

EnergyBreakdown
energyDelta(const EnergyBreakdown &now, const EnergyBreakdown &prev)
{
    EnergyBreakdown d;
    d.dramDynamic = now.dramDynamic - prev.dramDynamic;
    d.dramStatic = now.dramStatic - prev.dramStatic;
    d.cores = now.cores - prev.cores;
    d.network = now.network - prev.network;
    return d;
}

/** Sum @p phases into partition/probe buckets and derive per-vault BW. */
void
aggregatePhases(const std::vector<PhaseResult> &phases, double vaults,
                Tick &partition, Tick &probe, Tick &total,
                double &part_bw, double &probe_bw)
{
    std::uint64_t part_bytes = 0, probe_bytes = 0;
    for (const auto &p : phases) {
        total += p.time;
        if (p.kind == PhaseKind::kPartition) {
            partition += p.time;
            part_bytes += p.dramBytes;
        } else {
            probe += p.time;
            probe_bytes += p.dramBytes;
        }
    }
    if (partition > 0) {
        part_bw = bytesPerTickToGBps(
            static_cast<double>(part_bytes) / vaults, partition);
    }
    if (probe > 0) {
        probe_bw = bytesPerTickToGBps(
            static_cast<double>(probe_bytes) / vaults, probe);
    }
}

/**
 * Collect a finished stage's output tuples in a canonical order. The
 * canonical order (key, then payload) is system-independent, so the next
 * stage's input — and therefore its functional results — are identical
 * on every evaluated system even when execution styles emit their
 * outputs in different partition orders.
 */
std::vector<Tuple>
stageOutputTuples(MemoryPool &pool, const OperatorExecution &exec,
                  OpKind op)
{
    std::vector<Tuple> out;
    switch (op) {
      case OpKind::kScan:
        // Scan models predicate evaluation over the flowing relation;
        // the surviving relation is the input itself (pass-through).
        break;
      case OpKind::kSort:
        out = exec.output.gatherAll(pool);
        break;
      case OpKind::kJoin:
        // Join match tuples are materialized in the output regions.
        for (const auto &[addr, bytes] : exec.outputRegions) {
            const std::size_t at = out.size();
            out.resize(at + bytes / kTupleBytes);
            pool.store().read(addr, out.data() + at,
                              (out.size() - at) * kTupleBytes);
        }
        break;
      case OpKind::kGroupBy:
        // Group records (64 B) flow onward as (group key, sum) tuples.
        for (const auto &[addr, bytes] : exec.outputRegions) {
            std::vector<GroupRecord> groups(bytes / sizeof(GroupRecord));
            pool.store().read(addr, groups.data(),
                              groups.size() * sizeof(GroupRecord));
            for (const GroupRecord &g : groups)
                out.push_back(Tuple{g.key, g.sum});
        }
        break;
    }
    // (key, payload) is a total order on distinct tuples, so any sort
    // gives these bytes: by key, then each run of equal keys by payload.
    radixSortByKey(out);
    for (auto run = out.begin(); run != out.end();) {
        auto end = std::find_if(run, out.end(), [&](const Tuple &t) {
            return t.key != run->key;
        });
        std::sort(run, end, [](const Tuple &a, const Tuple &b) {
            return a.payload < b.payload;
        });
        run = end;
    }
    return out;
}

/** Count a stage's output tuples from sizes alone (no data reads) —
 *  for final stages, whose output nothing consumes. */
std::uint64_t
countOutputTuples(const OperatorExecution &exec, OpKind op)
{
    std::uint64_t bytes = 0;
    switch (op) {
      case OpKind::kScan:
        return 0; // handled by the pass-through path
      case OpKind::kSort:
        return exec.output.totalTuples();
      case OpKind::kJoin:
        for (const auto &[addr, region_bytes] : exec.outputRegions)
            bytes += region_bytes;
        return bytes / kTupleBytes;
      case OpKind::kGroupBy:
        for (const auto &[addr, region_bytes] : exec.outputRegions)
            bytes += region_bytes;
        return bytes / sizeof(GroupRecord);
    }
    return 0;
}

/** Materialize @p tuples as a fresh relation, round-robin across all
 *  vaults (the same canonical layout the workload generator uses). */
Relation
materializeRelation(MemoryPool &pool, const std::vector<Tuple> &tuples)
{
    const unsigned vaults = pool.geometry().totalVaults();
    Relation rel =
        Relation::allocAcrossAll(pool, tuples.size() + vaults);
    std::vector<std::vector<Tuple>> buckets(rel.numPartitions());
    for (std::size_t i = 0; i < tuples.size(); ++i)
        buckets[i % buckets.size()].push_back(tuples[i]);
    for (std::size_t p = 0; p < buckets.size(); ++p)
        rel.scatter(pool, p, buckets[p]);
    return rel;
}

} // namespace

PreparedScenario
prepareScenario(MemoryPool &pool, const WorkloadConfig &workload,
                const SystemConfig &sys, const Scenario &scenario)
{
    if (scenario.stages.empty())
        fatal("scenario '%s' has no stages", scenario.name.c_str());

    WorkloadGenerator gen(workload);
    SparkContext ctx(pool, sys.exec);

    PreparedScenario ps;
    ps.scenario = scenario;
    ps.multi = !scenario.degenerate();

    // A chain with a join stage anywhere runs over a generated join
    // pair: the R side is the scenario's dimension relation, the S side
    // seeds the flowing relation.
    bool needs_pair = false;
    for (const ScenarioStage &st : scenario.stages)
        needs_pair = needs_pair || st.op == OpKind::kJoin;

    // Functional execution + trace recording, stage by stage. The
    // flowing relation chains each stage to its predecessor's output.
    Relation dim;     ///< join build side (valid when needs_pair)
    Relation current; ///< the flowing relation
    ps.execs.reserve(scenario.stages.size());

    for (std::size_t i = 0; i < scenario.stages.size(); ++i) {
        const ScenarioStage &stage = scenario.stages[i];
        if (stage.input == StageInput::kGenerated) {
            if (needs_pair) {
                auto pair = gen.makeJoinPair(pool);
                dim = pair.r;
                current = pair.s;
            } else if (stage.op == OpKind::kGroupBy) {
                current = gen.makeGroupBy(pool, workload.tuples);
            } else {
                current = gen.makeUniform(pool, workload.tuples);
            }
        }
        ps.inputTuples.push_back(current.totalTuples());

        SparkContext::Lowered lowered;
        switch (stage.op) {
          case OpKind::kScan:
            lowered = ctx.filter(current, kScanProbeKey);
            break;
          case OpKind::kSort:
            lowered = ctx.sortByKey(current);
            break;
          case OpKind::kGroupBy:
            lowered = ctx.reduceByKey(current);
            break;
          case OpKind::kJoin:
            lowered = ctx.join(dim, current);
            break;
        }

        // Chain the output forward when a successor consumes it.
        const bool has_successor = i + 1 < scenario.stages.size();
        if (stage.op == OpKind::kScan) {
            // Pass-through: the surviving relation is the input.
            ps.outputTuples.push_back(current.totalTuples());
        } else if (ps.multi && has_successor) {
            std::vector<Tuple> out =
                stageOutputTuples(pool, lowered.exec, stage.op);
            ps.outputTuples.push_back(out.size());
            current = materializeRelation(pool, out);
        } else if (ps.multi) {
            // Final stage: the count is derivable from sizes alone —
            // skip the full-output gather and canonical sort.
            ps.outputTuples.push_back(
                countOutputTuples(lowered.exec, stage.op));
        } else {
            // Degenerate run: nothing consumes the output and no stage
            // record reports it — skip the gather.
            ps.outputTuples.push_back(0);
        }
        ps.execs.push_back(std::move(lowered.exec));
    }
    return ps;
}

void
accumulateStage(RunResult &res, const PreparedScenario &ps, std::size_t i,
                std::vector<PhaseResult> phases, double vaults,
                const EnergyBreakdown &now, EnergyBreakdown &prev)
{
    const ScenarioStage &stage = ps.scenario.stages[i];
    if (ps.multi) {
        StageResult sr;
        sr.stage = stage.spark;
        sr.op = opKindName(stage.op);
        sr.input = stageInputName(stage.input);
        sr.phases = phases;
        sr.energy = energyDelta(now, prev);
        sr.inputTuples = ps.inputTuples[i];
        sr.outputTuples = ps.outputTuples[i];
        sr.scanMatches = ps.execs[i].scanMatches;
        sr.joinMatches = ps.execs[i].joinMatches;
        sr.groupCount = ps.execs[i].groupCount;
        sr.aggChecksum = ps.execs[i].aggChecksum;
        aggregatePhases(phases, vaults, sr.partitionTime, sr.probeTime,
                        sr.totalTime, sr.partitionVaultBWGBps,
                        sr.probeVaultBWGBps);
        res.stages.push_back(std::move(sr));
        // Top-level phases carry their stage token so a flat phase
        // list still reads as a pipeline.
        for (PhaseResult &p : phases)
            p.name = stage.spark + "." + p.name;
    }
    prev = now;

    res.scanMatches += ps.execs[i].scanMatches;
    res.joinMatches += ps.execs[i].joinMatches;
    res.groupCount += ps.execs[i].groupCount;
    res.aggChecksum += ps.execs[i].aggChecksum;
    for (PhaseResult &p : phases)
        res.phases.push_back(std::move(p));
}

void
finishRunResult(RunResult &res, double vaults,
                const EnergyActivity &activity,
                const EnergyBreakdown &energy)
{
    aggregatePhases(res.phases, vaults, res.partitionTime, res.probeTime,
                    res.totalTime, res.partitionVaultBWGBps,
                    res.probeVaultBWGBps);
    res.activity = activity;
    res.energy = energy;
}

} // namespace mondrian
