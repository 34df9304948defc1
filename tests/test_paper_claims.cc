/**
 * @file
 * The paper's reference points, checked: one table row per claim.
 *
 * Figure and table rows (Fig. 6-9, Table 5) read the committed paper
 * grid, scripts/golden/paper14-report.json (2^14 tuples, seed 42).
 * Ablation rows (§3.1, §3.2, §5.2) run small simulations or the
 * analytic pass counts. Every ratio is taken from unrounded values.
 *
 * A row the model reproduces asserts the ordering or band the paper
 * states. A row it does not reproduce is a `deviates` row: it asserts
 * that the claim still fails and pins the measured value, so a model
 * change that fixes or moves it fails this test by name. A deviates row
 * is never dropped, loosened, or made to pass by regenerating the
 * golden. When a model change makes one hold, turn it into a holds row
 * and update README.md's "Paper reference points" list.
 *
 * Table 1 (the Spark operator mapping) has no row here:
 * Spark.EveryTableEntryLowers in test_spark.cc runs every entry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/file_io.hh"
#include "common/intmath.hh"
#include "common/random.hh"
#include "dram/vault.hh"
#include "engine/kernel_costs.hh"
#include "engine/sort_algos.hh"
#include "sim/event_queue.hh"
#include "system/campaign.hh"
#include "system/machine.hh"
#include "system/report.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

/**
 * A paper magnitude X ("~X", "up to X") is reproduced when the
 * measurement lies within this relative band of X.
 */
constexpr double kBand = 0.15;

/**
 * A deviates row pins its measured value to the 3 significant digits it
 * was recorded with; this tolerance covers that rounding.
 */
constexpr double kPinTolerance = 0.01;

bool
within(double measured, double paper)
{
    return std::fabs(measured / paper - 1.0) <= kBand;
}

/** What a check measured: the verdict, its headline value, the shown text. */
struct Outcome
{
    bool holds = false;
    double value = 0.0;
    std::string measured;
};

struct Claim
{
    const char *name;  ///< gtest-safe row id
    const char *claim; ///< what the paper states
    const char *paper; ///< the paper's value
    /** Set on a `deviates` row: the value the model measured. */
    std::optional<double> deviates;
    std::function<Outcome()> check;
};

std::string
num(double v, const char *unit = "")
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%#.3g%s", v, unit);
    return buf;
}

// ------------------------------------------------------ golden paper grid

const CampaignReport &
golden()
{
    static const CampaignReport report = [] {
        std::string text, err;
        CampaignReport r;
        if (!readTextFile(std::string(MONDRIAN_SOURCE_DIR) +
                              "/scripts/golden/paper14-report.json",
                          text, err) ||
            !readCampaignReport(text, r, err))
            throw std::runtime_error("paper14 golden: " + err);
        return r;
    }();
    return report;
}

const RunResult &
run(SystemKind system, OpKind op)
{
    for (const CampaignRun &r : golden().runs) {
        if (r.job.system == system && r.job.scenario.name == opKindName(op))
            return r.result;
    }
    throw std::runtime_error(std::string("paper14 golden has no run ") +
                             systemKindName(system) + "/" + opKindName(op));
}

const OpKind kOps[] = {OpKind::kScan, OpKind::kSort, OpKind::kGroupBy,
                       OpKind::kJoin};
const OpKind kShuffleOps[] = {OpKind::kGroupBy, OpKind::kJoin};

double
probeVsCpu(SystemKind system, OpKind op)
{
    return probeSpeedup(run(SystemKind::kCpu, op), run(system, op));
}

double
overallVsCpu(SystemKind system, OpKind op)
{
    return overallSpeedup(run(SystemKind::kCpu, op), run(system, op));
}

double
perfPerWattVsCpu(SystemKind system, OpKind op)
{
    return efficiencyImprovement(run(SystemKind::kCpu, op), run(system, op));
}

/** Peak of @p metric over the four operators, with the op it peaks on. */
Outcome
peakOverOps(const std::function<double(OpKind)> &metric, double paper,
            const char *unit)
{
    Outcome o;
    OpKind at = OpKind::kScan;
    for (OpKind op : kOps) {
        if (metric(op) > o.value) {
            o.value = metric(op);
            at = op;
        }
    }
    o.holds = within(o.value, paper);
    o.measured = num(o.value, unit) + " (" + opKindName(at) + ")";
    return o;
}

/** Best NMP baseline: the faster (or more efficient) of NMP, NMP-perm. */
double
bestNmp(const std::function<double(SystemKind)> &metric)
{
    return std::max(metric(SystemKind::kNmp), metric(SystemKind::kNmpPerm));
}

/** "op value, op value, ..." of @p metric over @p ops. */
std::string
perOp(const std::function<double(OpKind)> &metric, std::span<const OpKind> ops,
      const char *unit)
{
    std::string out;
    for (OpKind op : ops) {
        if (!out.empty())
            out += ", ";
        out += opKindName(op);
        out += " " + num(metric(op), unit);
    }
    return out;
}

/** Share of @p run's energy in the static-dominated DRAM + SerDes/NoC. */
double
staticShare(const RunResult &r)
{
    const EnergyShares s = energyShares(r);
    return s.dramStatic + s.network;
}

/** Table 5: @p system's join partition-phase speedup over CPU. */
double
partitionVsCpu(SystemKind system)
{
    return partitionSpeedup(run(SystemKind::kCpu, OpKind::kJoin),
                            run(system, OpKind::kJoin));
}

Outcome
table5Speedup(SystemKind system, double paper)
{
    const double v = partitionVsCpu(system);
    return {within(v, paper), v, num(v, "x")};
}

Outcome
table5VaultBandwidth(SystemKind system, double paper)
{
    const double v = run(system, OpKind::kJoin).partitionVaultBWGBps;
    return {within(v, paper), v, num(v, " GB/s")};
}

// ------------------------------------------------------------- ablations

/**
 * §3.1: the row-activation share of one vault's dynamic DRAM energy,
 * simulated over 512 random 8 B reads or 512 sequential 256 B reads.
 */
double
activationShare(bool sequential)
{
    const DramEnergy e{};
    const MemGeometry geo = defaultGeometry();
    AddressMap map(geo);
    EventQueue eq;
    VaultController vault(eq, map, 0, DramTiming{}, 16);
    Random rng(1);
    for (unsigned i = 0; i < 512; ++i) {
        MemRequest r;
        if (sequential) {
            r.addr = Addr{i} * 256;
            r.size = 256;
        } else {
            r.addr = roundDown(rng.nextBounded(geo.vaultBytes - 8), 8);
            r.size = 8;
        }
        vault.enqueue(std::move(r));
    }
    eq.run();
    const double act_nj =
        static_cast<double>(vault.stats().rowActivations) *
        e.activationNanojoule;
    const double xfer_nj = static_cast<double>(vault.stats().bytesRead) * 8 *
                           e.accessPicojoulePerBit * 1e-3;
    return act_nj / (act_nj + xfer_nj);
}

/**
 * §3.2: one NMP unit's vault bandwidth with @p window outstanding
 * accesses, for random 8 B loads (8 useful bytes each) or 256 B streams.
 */
double
mlpBandwidth(unsigned window, bool random)
{
    SystemConfig sys = makeSystem(SystemKind::kNmp);
    sys.hasL1 = false; // raw MLP vs DRAM, no cache help
    sys.exec.numUnits = sys.geo.totalVaults();
    sys.core.maxOutstandingLoads = window;
    sys.core.streamDepth = window;

    MemoryPool pool(sys.geo);
    Random rng(7);
    PhaseExec phase;
    phase.name = "mlp";
    phase.traces.resize(sys.exec.numUnits);
    // One active unit keeps the measurement clean.
    KernelTrace &t = phase.traces[0];
    std::uint64_t bytes = 0;
    const std::uint64_t accesses = random ? 4096 : 1024;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        if (random) {
            Addr a = roundDown(rng.nextBounded(sys.geo.vaultBytes - 64), 8);
            t.add(TraceOp::load(a, 8));
            bytes += 8;
        } else {
            t.add(TraceOp::streamRead((i * 256) % sys.geo.vaultBytes, 256));
            bytes += 256;
        }
    }
    Machine m(sys, pool);
    return bytesPerTickToGBps(static_cast<double>(bytes),
                              m.runPhase(phase).time);
}

/** The ablation runs' workload: 2^16 tuples, seed 42. */
WorkloadConfig
ablationWorkload()
{
    WorkloadConfig wl;
    wl.tuples = 1ull << 16;
    return wl;
}

/** Mondrian scan's probe bandwidth per vault with @p depth stream buffers. */
double
scanBandwidth(unsigned depth)
{
    SystemConfig sys = makeSystem(SystemKind::kMondrian);
    sys.core.streamDepth = depth;
    return ServedRunner(ablationWorkload())
        .run(sys, degenerateScenario(OpKind::kScan))
        .probeVaultBWGBps;
}

/**
 * Mondrian join's total time with a @p bits-wide SIMD unit: the
 * data-parallel kernel costs scale inversely with width relative to the
 * paper's 1024-bit (8-tuple) unit; scalar paths don't move.
 */
Tick
joinTime(unsigned bits)
{
    const double scale = 1024.0 / bits;
    const KernelCosts base = mondrianKernelCosts();
    SystemConfig sys = makeSystem(SystemKind::kMondrian);
    sys.exec.costs.histogram = base.histogram * scale;
    sys.exec.costs.scatterCopy = base.scatterCopy * scale;
    sys.exec.costs.permutableAppend = base.permutableAppend * scale;
    sys.exec.costs.scan = base.scan * scale;
    sys.exec.costs.mergePass = base.mergePass * scale;
    sys.exec.costs.bitonicPass = base.bitonicPass * scale;
    sys.exec.costs.joinMerge = base.joinMerge * scale;
    sys.exec.costs.aggregate = base.aggregate * scale;
    return ServedRunner(ablationWorkload())
        .run(sys, degenerateScenario(OpKind::kJoin))
        .totalTime;
}

/** §5.2: tuples per vault at the paper's 512 MB vault of 16 B tuples. */
constexpr std::uint64_t kPaperVaultTuples = 1ull << 25;

// ------------------------------------------------------------ the table

std::vector<Claim>
claims()
{
    using K = SystemKind;
    std::vector<Claim> t;

    // Fig. 6: probe-phase speedup over CPU.
    t.push_back({"Fig6_ScanNmpRandEqualsNmpSeq",
                 "Fig. 6: on scan NMP-rand and NMP-seq run the same code",
                 "equal", std::nullopt, [] {
                     const double v = probeVsCpu(K::kNmp, OpKind::kScan) /
                                      probeVsCpu(K::kNmpSeq, OpKind::kScan);
                     return Outcome{v == 1.0, v,
                                    "rand/seq " + num(v, "x")};
                 }});
    t.push_back({"Fig6_ScanNmp2_4x", "Fig. 6: NMP scan probe ~2.4x over CPU",
                 "2.4x", std::nullopt, [] {
                     const double v = probeVsCpu(K::kNmp, OpKind::kScan);
                     return Outcome{within(v, 2.4), v, num(v, "x")};
                 }});
    t.push_back({"Fig6_ScanMondrian6x",
                 "Fig. 6: Mondrian scan probe ~6x over CPU", "~6x", 9.05,
                 [] {
                     const double v = probeVsCpu(K::kMondrian, OpKind::kScan);
                     return Outcome{within(v, 6.0), v, num(v, "x")};
                 }});
    t.push_back({"Fig6_NmpRandBeatsNmpSeq",
                 "Fig. 6: NMP-rand probe beats NMP-seq on group-by and join",
                 "rand > seq", std::nullopt, [] {
                     auto ratio = [](OpKind op) {
                         return probeVsCpu(K::kNmp, op) /
                                probeVsCpu(K::kNmpSeq, op);
                     };
                     const double v = std::min(ratio(OpKind::kGroupBy),
                                               ratio(OpKind::kJoin));
                     return Outcome{v > 1.0, v,
                                    "rand/seq " +
                                        perOp(ratio, kShuffleOps, "x")};
                 }});
    t.push_back({"Fig6_MondrianUpTo22x",
                 "Fig. 6: Mondrian probe up to 22x over CPU", "22x", 9.05,
                 [] {
                     return peakOverOps(
                         [](OpKind op) { return probeVsCpu(K::kMondrian, op); },
                         22.0, "x");
                 }});
    t.push_back({"Fig6_MondrianProbeBeatsNmpRand",
                 "Fig. 6: Mondrian's probe beats NMP-rand on group-by and "
                 "join (absorbs the algorithmic complexity)",
                 "mondrian > nmp-rand", 0.600, [] {
                     auto ratio = [](OpKind op) {
                         return probeVsCpu(K::kMondrian, op) /
                                probeVsCpu(K::kNmp, op);
                     };
                     const double v = std::min(ratio(OpKind::kGroupBy),
                                               ratio(OpKind::kJoin));
                     return Outcome{v > 1.0, v,
                                    "mondrian/nmp-rand " +
                                        perOp(ratio, kShuffleOps, "x")};
                 }});

    // Fig. 7: overall (partition + probe) speedup over CPU.
    auto mondrianVsBestNmp = [](OpKind op) {
        return overallVsCpu(K::kMondrian, op) /
               bestNmp([op](K k) { return overallVsCpu(k, op); });
    };
    t.push_back({"Fig7_MondrianUpTo49x",
                 "Fig. 7: Mondrian up to 49x over CPU", "49x", 26.0, [] {
                     return peakOverOps(
                         [](OpKind op) {
                             return overallVsCpu(K::kMondrian, op);
                         },
                         49.0, "x");
                 }});
    t.push_back({"Fig7_MondrianUpTo5xOverBestNmp",
                 "Fig. 7: Mondrian up to 5x over the best NMP baseline", "5x",
                 3.33, [mondrianVsBestNmp] {
                     return peakOverOps(mondrianVsBestNmp, 5.0, "x");
                 }});
    t.push_back({"Fig7_MondrianBeatsBestNmpEverywhere",
                 "Fig. 7: Mondrian beats the best NMP baseline on every "
                 "operator",
                 "mondrian > best NMP", 0.946, [mondrianVsBestNmp] {
                     double v = mondrianVsBestNmp(OpKind::kScan);
                     for (OpKind op : kOps)
                         v = std::min(v, mondrianVsBestNmp(op));
                     return Outcome{v > 1.0, v,
                                    "mondrian/best-nmp " +
                                        perOp(mondrianVsBestNmp, kOps, "x")};
                 }});

    // Fig. 8: energy breakdown.
    t.push_back({"Fig8_CoreEnergyDominatesCpu",
                 "Fig. 8: core energy dominates the CPU system",
                 "cores largest share", std::nullopt, [] {
                     bool holds = true;
                     double lo = 1.0, hi = 0.0;
                     for (OpKind op : kOps) {
                         const EnergyShares s =
                             energyShares(run(K::kCpu, op));
                         holds = holds && s.cores > s.dramDynamic &&
                                 s.cores > s.dramStatic &&
                                 s.cores > s.network;
                         lo = std::min(lo, s.cores);
                         hi = std::max(hi, s.cores);
                     }
                     return Outcome{holds, lo,
                                    "cores " + num(100 * lo, "%") + " to " +
                                        num(100 * hi, "%")};
                 }});
    t.push_back({"Fig8_MondrianShrinksStaticShares",
                 "Fig. 8: Mondrian's bandwidth shrinks the static-dominated "
                 "shares (DRAM static + SerDes/NoC) vs NMP",
                 "mondrian < nmp", 1.40, [] {
                     auto ratio = [](OpKind op) {
                         return staticShare(run(K::kMondrian, op)) /
                                staticShare(run(K::kNmp, op));
                     };
                     double v = 0.0;
                     for (OpKind op : kOps)
                         v = std::max(v, ratio(op));
                     return Outcome{v < 1.0, v,
                                    "mondrian/nmp " +
                                        perOp(ratio, kOps, "x")};
                 }});

    // Fig. 9: efficiency (perf/W) over CPU.
    t.push_back({"Fig9_GainsBelowSpeedup",
                 "Fig. 9: Mondrian's perf/W gains are smaller than its "
                 "speedup",
                 "perf/W < speedup", 1.33, [] {
                     auto ratio = [](OpKind op) {
                         return perfPerWattVsCpu(K::kMondrian, op) /
                                overallVsCpu(K::kMondrian, op);
                     };
                     double v = 0.0;
                     for (OpKind op : kOps)
                         v = std::max(v, ratio(op));
                     return Outcome{v < 1.0, v,
                                    "perf-W/speedup " +
                                        perOp(ratio, kOps, "x")};
                 }});
    t.push_back({"Fig9_MondrianUpTo28x",
                 "Fig. 9: Mondrian perf/W up to 28x over CPU", "28x",
                 std::nullopt, [] {
                     return peakOverOps(
                         [](OpKind op) {
                             return perfPerWattVsCpu(K::kMondrian, op);
                         },
                         28.0, "x");
                 }});
    t.push_back({"Fig9_MondrianUpTo5xOverBestNmp",
                 "Fig. 9: Mondrian perf/W up to 5x over the best NMP "
                 "baseline",
                 "5x", 4.11, [] {
                     return peakOverOps(
                         [](OpKind op) {
                             return perfPerWattVsCpu(K::kMondrian, op) /
                                    bestNmp([op](K k) {
                                        return perfPerWattVsCpu(k, op);
                                    });
                         },
                         5.0, "x");
                 }});

    // Table 5: join partition-phase speedup over CPU, and §7.1's
    // partition bandwidth per vault.
    t.push_back({"Table5_PartitionSpeedupOrder",
                 "Table 5: partition speedup NMP < NMP-perm < "
                 "Mondrian-noperm < Mondrian",
                 "58x < 98x < 142x < 273x", std::nullopt, [] {
                     const K order[] = {K::kNmp, K::kNmpPerm,
                                        K::kMondrianNoperm, K::kMondrian};
                     Outcome o{true, 0.0, ""};
                     double prev = 0.0;
                     for (K k : order) {
                         const double v = partitionVsCpu(k);
                         o.holds = o.holds && v > prev;
                         o.measured += (prev > 0.0 ? " < " : "") + num(v, "x");
                         prev = v;
                     }
                     return o;
                 }});
    t.push_back({"Table5_Nmp58x", "Table 5: NMP partition 58x over CPU",
                 "58x", 26.2, [] { return table5Speedup(K::kNmp, 58.0); }});
    t.push_back({"Table5_NmpPerm98x",
                 "Table 5: NMP-perm partition 98x over CPU", "98x", 44.8,
                 [] { return table5Speedup(K::kNmpPerm, 98.0); }});
    t.push_back({"Table5_MondrianNoperm142x",
                 "Table 5: Mondrian-noperm partition 142x over CPU", "142x",
                 60.2,
                 [] { return table5Speedup(K::kMondrianNoperm, 142.0); }});
    t.push_back({"Table5_Mondrian273x",
                 "Table 5: Mondrian partition 273x over CPU", "273x", 73.9,
                 [] { return table5Speedup(K::kMondrian, 273.0); }});
    t.push_back({"Table5_NmpVaultBandwidth",
                 "§7.1: NMP partitions at 1.0 GB/s per vault", "1.0 GB/s",
                 std::nullopt,
                 [] { return table5VaultBandwidth(K::kNmp, 1.0); }});
    t.push_back({"Table5_NmpPermVaultBandwidth",
                 "§7.1: NMP-perm partitions at 1.6 GB/s per vault",
                 "1.6 GB/s", std::nullopt,
                 [] { return table5VaultBandwidth(K::kNmpPerm, 1.6); }});
    t.push_back({"Table5_MondrianNopermVaultBandwidth",
                 "§7.1: Mondrian-noperm partitions at 2.4 GB/s per vault",
                 "2.4 GB/s", std::nullopt, [] {
                     return table5VaultBandwidth(K::kMondrianNoperm, 2.4);
                 }});
    t.push_back({"Table5_MondrianVaultBandwidth",
                 "§7.1: Mondrian partitions at 4.5 GB/s per vault",
                 "4.5 GB/s", 3.22,
                 [] { return table5VaultBandwidth(K::kMondrian, 4.5); }});

    // §3.1: row activations dominate fine-grained access energy.
    t.push_back({"Sec3_1_ActivationShare8B",
                 "§3.1: row activation is ~80% of the energy of 8 B "
                 "accesses",
                 "~80%", std::nullopt, [] {
                     const double v = activationShare(false);
                     return Outcome{within(v, 0.80), v, num(100 * v, "%")};
                 }});
    t.push_back({"Sec3_1_ActivationShare256B",
                 "§3.1: row activation is ~14% of the energy when a whole "
                 "256 B row is consumed",
                 "~14%", std::nullopt, [] {
                     const double v = activationShare(true);
                     return Outcome{within(v, 0.14), v, num(100 * v, "%")};
                 }});

    // §3.2: memory-level parallelism vs one vault's bandwidth.
    t.push_back({"Sec3_2_RandomAccessAt20Outstanding",
                 "§3.2: ~20 outstanding random accesses reach ~5.3 GB/s of "
                 "a vault (counting 8 useful bytes per access)",
                 "~5.3 GB/s", 1.26, [] {
                     const double v = mlpBandwidth(20, true);
                     return Outcome{within(v, 5.3), v, num(v, " GB/s")};
                 }});
    t.push_back({"Sec3_2_StreamsSaturateBy8Outstanding",
                 "§3.2: streams saturate a vault's 8 GB/s with ~8 "
                 "outstanding fetches",
                 "8 GB/s", std::nullopt, [] {
                     const double v = mlpBandwidth(8, false);
                     return Outcome{within(v, 8.0), v, num(v, " GB/s")};
                 }});

    // §5.2: the bitonic intra-stream first pass.
    t.push_back({"Sec5_2_BitonicRemovesFourMergePasses",
                 "§5.2: the bitonic first pass removes four merge passes at "
                 "32M tuples per vault",
                 "4 passes", std::nullopt, [] {
                     const unsigned removed =
                         LocalSorter::mergePassCount(kPaperVaultTuples, 1) -
                         LocalSorter::mergePassCount(kPaperVaultTuples,
                                                     kBitonicGroup);
                     return Outcome{removed == 4,
                                    static_cast<double>(removed),
                                    std::to_string(removed) + " passes"};
                 }});
    t.push_back({"Sec5_2_BitonicSaves20PercentOfPasses",
                 "§5.2: the bitonic first pass saves ~20% of the passes at "
                 "32M tuples per vault (net of the bitonic pass itself)",
                 "~20%", 0.12, [] {
                     const unsigned scalar =
                         LocalSorter::mergePassCount(kPaperVaultTuples, 1);
                     const unsigned simd =
                         LocalSorter::mergePassCount(kPaperVaultTuples,
                                                     kBitonicGroup) +
                         1;
                     const double v = static_cast<double>(scalar - simd) /
                                      static_cast<double>(scalar);
                     return Outcome{within(v, 0.20), v,
                                    num(100 * v, "%") + " (" +
                                        std::to_string(scalar) + " -> " +
                                        std::to_string(simd) + " passes)"};
                 }});

    // §5.2 design choices: stream-buffer count and SIMD width.
    t.push_back({"Sec5_2_EightStreamBuffersSaturateScan",
                 "§5.2: eight stream buffers reach saturated scan bandwidth",
                 "8 buffers", std::nullopt, [] {
                     const double b8 = scanBandwidth(8);
                     const double b16 = scanBandwidth(16);
                     const double v = b8 / b16;
                     return Outcome{within(v, 1.0), v,
                                    num(b8, " GB/s") + " at 8 vs " +
                                        num(b16, " GB/s") + " at 16"};
                 }});
    t.push_back({"Sec5_2_Simd2048GainsAbout1x",
                 "§5.2: SIMD wider than 1024 bits gains ~1.0x once memory "
                 "binds",
                 "~1.0x", std::nullopt, [] {
                     const double v = static_cast<double>(joinTime(1024)) /
                                      static_cast<double>(joinTime(2048));
                     return Outcome{within(v, 1.0), v,
                                    "2048-bit " + num(v, "x") +
                                        " over 1024-bit"};
                 }});
    return t;
}

class PaperClaim : public ::testing::TestWithParam<Claim>
{};

void
PrintTo(const Claim &c, std::ostream *os)
{
    *os << c.name;
}

} // namespace

TEST_P(PaperClaim, Verdict)
{
    const Claim &c = GetParam();
    const Outcome o = c.check();
    std::printf("[%s] %s\n    paper %s, measured %s\n",
                c.deviates ? "deviates" : "holds", c.claim, c.paper,
                o.measured.c_str());
    if (!c.deviates) {
        EXPECT_TRUE(o.holds) << c.claim << " no longer holds: paper "
                             << c.paper << ", measured " << o.measured;
        return;
    }
    EXPECT_FALSE(o.holds)
        << c.claim << " now holds (paper " << c.paper << ", measured "
        << o.measured << "): make it a holds row and update README.md";
    EXPECT_NEAR(o.value, *c.deviates, *c.deviates * kPinTolerance)
        << c.claim << " moved: recorded " << *c.deviates << ", measured "
        << o.measured;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperClaim, ::testing::ValuesIn(claims()),
    [](const ::testing::TestParamInfo<Claim> &info) {
        return std::string(info.param.name);
    });
