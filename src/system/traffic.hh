/**
 * @file
 * Open-loop traffic simulation: served workloads.
 *
 * A TrafficSpec turns the single-query run into a served system:
 * queries arrive at a configured rate (Poisson or fixed interval),
 * independent of completion — the open-loop model — and the
 * ServedRunner keeps every admitted query in flight on ONE simulated
 * machine and ONE event queue, interleaving instances at phase
 * granularity. The report gains sustained QPS, nearest-rank latency
 * percentiles and energy per query.
 *
 * Spec grammar (CLI `--traffic`, campaign axis labels):
 *
 *   traffic  := "none" | item ("," item)*
 *   item     := "poisson" | "fixed"          (arrival process; default
 *               poisson)
 *             | "lambda=" RATE                (arrivals per second; > 0)
 *             | "queries=" N                  (arrivals to generate;
 *                                               at most 2^20)
 *             | "warmup=" N                   (first N queries excluded
 *               from the measurement window)
 *             | "inflight=" N                 (admission cap; arrivals
 *               beyond N concurrent queries are rejected; 0 = unlimited)
 *             | "seed=" N                     (arrival-process RNG seed)
 *             | "mix=" name ":" W ("+" name ":" W)*
 *               (scenario mix with popularity weights; names are
 *               scenario specs without ':' or ',' — presets and basic
 *               ops)
 *             | "mix-zipf=" T                 (skew the mix weights:
 *               entry r's weight is scaled by 1/(r+1)^T; needs a mix)
 *
 * N is plain decimal digits, RATE, W and T one finite decimal number
 * each (parseUint/parseReal, common/grammar.hh); empty items are
 * skipped.
 *
 * "none" (or lambda absent/0) is the degenerate spec: exactly one query
 * arriving at tick 0 — the classic single-query run, and the one every
 * campaign job without a traffic axis makes. The ServedRunner routes it
 * through the full served plumbing — arrival event, admission, ready
 * queue, phase chain — and still produces a RunResult byte-identical to
 * a plain phase-by-phase replay of the scenario (Machine::runPhase per
 * phase), which is the correctness oracle for the whole layer.
 *
 * Determinism: the arrival schedule (ticks AND scenario types) is
 * precomputed from the spec's own seed before simulation starts, so a
 * served run is a pure function of (system, workload, spec) and is
 * identical across --jobs settings.
 */

#ifndef MONDRIAN_SYSTEM_TRAFFIC_HH
#define MONDRIAN_SYSTEM_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "system/runner.hh"
#include "system/scenario.hh"

namespace mondrian {

/** Open-loop arrival process. */
enum class ArrivalProcess
{
    kPoisson, ///< exponential inter-arrival gaps with rate lambda
    kFixed    ///< constant inter-arrival gap of 1/lambda
};

const char *arrivalProcessName(ArrivalProcess p);

/** One scenario type in a traffic mix, with its popularity weight. */
struct TrafficMixEntry
{
    Scenario scenario;
    double weight = 1.0;
};

/** Upper bound on TrafficSpec::queries: the whole arrival schedule is
 *  allocated before the run starts. */
inline constexpr std::uint64_t kMaxTrafficQueries = std::uint64_t{1} << 20;

/** Declarative open-loop traffic configuration — a campaign axis. */
struct TrafficSpec
{
    ArrivalProcess process = ArrivalProcess::kPoisson;
    /** Arrival rate in queries per second; 0 = degenerate (one query). */
    double lambdaQps = 0.0;
    std::uint64_t queries = 64; ///< arrivals to generate
    std::uint64_t warmup = 0;   ///< arrivals excluded from measurement
    /** Admission cap on concurrent queries; 0 = unlimited. */
    std::uint64_t maxInFlight = 0;
    std::uint64_t seed = 1; ///< arrival-process RNG seed
    /** Scenario mix; empty = every arrival runs the job's scenario. */
    std::vector<TrafficMixEntry> mix;
    /** Zipf skew over the mix entries (0 = weights used as given). */
    double mixZipfTheta = 0.0;

    bool degenerate() const { return lambdaQps == 0.0; }

    /**
     * Canonical label: the axis value in campaign reports and the
     * traffic component of the resume identity. "none" for degenerate
     * specs; otherwise injective over CLI-expressible specs (every
     * non-default field appears, doubles in canonical 12-digit form).
     */
    std::string name() const;
};

/**
 * Parse a traffic spec (grammar above) into @p out.
 * @return false with a human-readable @p error on malformed specs.
 */
bool parseTrafficSpec(const std::string &spec, TrafficSpec &out,
                      std::string &error);

/**
 * Latest tick an arrival may take (2^62 ps, about 53 simulated days), so
 * the runs the last arrivals start stay far from the end of the clock.
 */
constexpr Tick kMaxArrivalTick = Tick{1} << 62;

/**
 * Validate a parsed spec; empty string when OK. A spec whose arrival
 * schedule passes kMaxArrivalTick is refused, naming its lambda.
 */
std::string validateTrafficSpec(const TrafficSpec &traffic);

/** One precomputed arrival. */
struct Arrival
{
    Tick at = 0;          ///< arrival tick
    std::size_t type = 0; ///< index into the resolved scenario types
};

/**
 * The deterministic arrival schedule of @p traffic: ticks are strictly
 * derived from (process, lambda, seed); types from (mix weights,
 * mix-zipf, seed). Exposed so tests can pin the schedule independently
 * of the simulation. Degenerate specs yield one arrival at tick 0.
 *
 * Draw order per arrival: the inter-arrival gap first (Poisson only —
 * fixed gaps consume no randomness), then the scenario type (only when
 * the mix has two or more entries).
 */
std::vector<Arrival> generateArrivals(const TrafficSpec &traffic);

/**
 * Executes a scenario under open-loop traffic on one simulated machine —
 * the one run path: degenerate traffic (the default) is a single query.
 *
 * Each distinct scenario type is prepared once (functional execution +
 * traces); admitted query instances replay the shared traces with a
 * per-instance (stage, phase) cursor. One phase is active at a time;
 * ready instances round-robin at phase granularity through the
 * machine's single event queue, so cache, DRAM-bank and link state
 * carry across interleaved queries exactly as they would in hardware.
 */
class ServedRunner
{
  public:
    explicit ServedRunner(const WorkloadConfig &workload,
                          const TrafficSpec &traffic = TrafficSpec{})
        : workload_(workload), traffic_(traffic)
    {}

    /** Run @p scenario (the mix's default type) under the traffic. */
    RunResult run(const SystemConfig &sys, const Scenario &scenario);

    const TrafficSpec &traffic() const { return traffic_; }

  private:
    WorkloadConfig workload_;
    TrafficSpec traffic_;
};

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_TRAFFIC_HH
