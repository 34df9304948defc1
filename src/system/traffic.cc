#include "system/traffic.hh"

#include <cmath>
#include <deque>

#include "common/grammar.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/stats.hh"

namespace mondrian {

const char *
arrivalProcessName(ArrivalProcess p)
{
    switch (p) {
      case ArrivalProcess::kPoisson: return "poisson";
      case ArrivalProcess::kFixed: return "fixed";
    }
    return "?";
}

std::string
TrafficSpec::name() const
{
    if (degenerate())
        return "none";
    std::string n = arrivalProcessName(process);
    n += "-l";
    n += JsonWriter::doubleString(lambdaQps);
    n += "-q" + std::to_string(queries);
    if (warmup > 0)
        n += "-w" + std::to_string(warmup);
    if (maxInFlight > 0)
        n += "-i" + std::to_string(maxInFlight);
    n += "-s" + std::to_string(seed);
    if (!mix.empty()) {
        n += "-mix=";
        for (std::size_t i = 0; i < mix.size(); ++i) {
            if (i > 0)
                n += "+";
            n += mix[i].scenario.name + ":" +
                 JsonWriter::doubleString(mix[i].weight);
        }
    }
    if (mixZipfTheta != 0.0) {
        n += "-mz";
        n += JsonWriter::doubleString(mixZipfTheta);
    }
    return n;
}

namespace {

bool
parseMix(const std::string &val, std::vector<TrafficMixEntry> &out,
         std::string &error)
{
    for (const std::string &item : splitOn(val, '+')) {
        if (item.empty())
            continue;
        // name[:weight] — the weight is numeric after the last ':', so
        // mix names themselves may not contain ':' (presets and basic
        // ops never do).
        TrafficMixEntry entry;
        std::string name = item;
        std::size_t colon = item.rfind(':');
        if (colon != std::string::npos) {
            if (!parseReal(item.substr(colon + 1), entry.weight)) {
                error = "traffic mix entry '" + item +
                        "': malformed weight";
                return false;
            }
            name = item.substr(0, colon);
        }
        if (!scenarioFromSpec(name, entry.scenario, error)) {
            error = "traffic mix entry '" + item + "': " + error;
            return false;
        }
        out.push_back(std::move(entry));
    }
    if (out.empty()) {
        error = "traffic mix is empty";
        return false;
    }
    return true;
}

} // namespace

bool
parseTrafficSpec(const std::string &spec, TrafficSpec &out,
                 std::string &error)
{
    out = TrafficSpec{};
    if (spec == "none")
        return true;
    if (spec.empty()) {
        error = "empty traffic spec";
        return false;
    }
    for (const std::string &item : splitOn(spec, ',')) {
        if (item.empty())
            continue;
        std::size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (item == "poisson") {
                out.process = ArrivalProcess::kPoisson;
            } else if (item == "fixed") {
                out.process = ArrivalProcess::kFixed;
            } else {
                error = "unknown traffic token '" + item +
                        "' (expected poisson, fixed or key=value)";
                return false;
            }
            continue;
        }
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        bool ok = true;
        if (key == "lambda") {
            ok = parseReal(val, out.lambdaQps);
        } else if (key == "queries") {
            ok = parseUint(val, UINT64_MAX, out.queries);
        } else if (key == "warmup") {
            ok = parseUint(val, UINT64_MAX, out.warmup);
        } else if (key == "inflight") {
            ok = parseUint(val, UINT64_MAX, out.maxInFlight);
        } else if (key == "seed") {
            ok = parseUint(val, UINT64_MAX, out.seed);
        } else if (key == "mix") {
            if (!parseMix(val, out.mix, error))
                return false;
        } else if (key == "mix-zipf") {
            ok = parseReal(val, out.mixZipfTheta);
        } else {
            error = "unknown traffic key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "malformed traffic value '" + item + "'";
            return false;
        }
    }
    error = validateTrafficSpec(out);
    return error.empty();
}

namespace {

/**
 * Draw @p traffic's arrival schedule into @p out (when not null).
 * @return false once an arrival would land after kMaxArrivalTick.
 */
bool
walkArrivals(const TrafficSpec &traffic, std::vector<Arrival> *out)
{
    if (traffic.degenerate()) {
        if (out)
            *out = {Arrival{0, 0}};
        return true;
    }

    const std::size_t num_types =
        traffic.mix.empty() ? 1 : traffic.mix.size();
    // Effective popularity of mix entry r: its weight scaled by the
    // Zipf rank factor 1/(r+1)^theta.
    std::vector<double> weights(num_types, 1.0);
    double total_weight = 0.0;
    for (std::size_t r = 0; r < num_types; ++r) {
        if (!traffic.mix.empty())
            weights[r] = traffic.mix[r].weight;
        weights[r] /= std::pow(static_cast<double>(r + 1),
                               traffic.mixZipfTheta);
        total_weight += weights[r];
    }

    Random rng(traffic.seed);
    if (out)
        out->reserve(traffic.queries);
    Tick t = 0;
    for (std::uint64_t i = 0; i < traffic.queries; ++i) {
        double gap_s;
        if (traffic.process == ArrivalProcess::kPoisson) {
            // Exponential gap: -ln(1-u)/lambda, u in [0,1).
            gap_s = -std::log(1.0 - rng.nextDouble()) / traffic.lambdaQps;
        } else {
            gap_s = 1.0 / traffic.lambdaQps;
        }
        // Range-checked before llround, which has no value past 2^63.
        const double gap_ps = gap_s * static_cast<double>(kSecond);
        if (!(gap_ps <= static_cast<double>(kMaxArrivalTick - t)))
            return false;
        const auto gap = static_cast<Tick>(std::llround(gap_ps));
        if (gap > kMaxArrivalTick - t)
            return false;
        t += gap;

        std::size_t type = 0;
        if (num_types > 1) {
            double u = rng.nextDouble() * total_weight;
            while (type + 1 < num_types && u >= weights[type])
                u -= weights[type++];
        }
        if (out)
            out->push_back(Arrival{t, type});
    }
    return true;
}

} // namespace

std::string
validateTrafficSpec(const TrafficSpec &traffic)
{
    if (traffic.degenerate()) {
        // The degenerate spec is exactly the default: anything else
        // combined with lambda=0 would silently be ignored.
        if (!traffic.mix.empty() || traffic.warmup != 0 ||
            traffic.maxInFlight != 0 || traffic.mixZipfTheta != 0.0)
            return "traffic without lambda> 0 must be plain 'none'";
        return "";
    }
    if (traffic.lambdaQps < 0.0 || !std::isfinite(traffic.lambdaQps))
        return "traffic lambda must be a finite rate > 0";
    if (traffic.queries == 0 || traffic.queries > kMaxTrafficQueries)
        return "traffic queries must be in [1, 2^20]";
    if (traffic.warmup >= traffic.queries)
        return "traffic warmup must leave at least one measured query";
    if (!(traffic.mixZipfTheta >= 0.0 && traffic.mixZipfTheta < 2.0))
        return "traffic mix-zipf must be in [0, 2)";
    // With one scenario type no arrival draws a type, so the skew would
    // change only the label and grid key of an otherwise identical point.
    if (traffic.mixZipfTheta != 0.0 && traffic.mix.empty())
        return "traffic mix-zipf needs a mix";
    for (const TrafficMixEntry &e : traffic.mix) {
        if (!(e.weight > 0.0) || !std::isfinite(e.weight))
            return "traffic mix weight for '" + e.scenario.name +
                   "' must be > 0";
    }
    if (!walkArrivals(traffic, nullptr))
        return "traffic lambda " +
               JsonWriter::doubleString(traffic.lambdaQps) +
               " is too low: the arrival schedule passes 2^62 ps";
    return "";
}

std::vector<Arrival>
generateArrivals(const TrafficSpec &traffic)
{
    std::vector<Arrival> out;
    if (!walkArrivals(traffic, &out))
        panic("traffic %s: arrival schedule passes kMaxArrivalTick",
              traffic.name().c_str());
    return out;
}

namespace {

/** One admitted query working through its scenario's phases. */
struct Instance
{
    std::size_t type = 0;     ///< index into the prepared types
    std::uint64_t query = 0;  ///< arrival index (warmup accounting)
    Tick arrivedAt = 0;
    std::size_t stage = 0; ///< next stage to run
    std::size_t phase = 0; ///< next phase within that stage
};

/**
 * Event-driven state of one served run. Lives on ServedRunner::run's
 * stack; event closures capture only its pointer.
 */
struct ServedDriver
{
    Machine &machine;
    const std::vector<PreparedScenario> &prepared;
    const TrafficSpec &traffic;
    std::vector<Arrival> arrivals{};

    std::size_t scheduled = 0; ///< arrivals scheduled so far
    std::size_t processed = 0; ///< arrival events executed
    std::deque<Instance> ready{};
    bool phaseActive = false;
    Instance current{}; ///< valid while phaseActive

    std::uint64_t inFlight = 0;
    ServedMetrics m{};
    LatencySample latency{};
    bool windowOpen = false;
    Tick windowStart = 0;
    Tick windowEnd = 0;

    // Aggregates for the RunResult (served runs keep no phase list).
    Tick partitionBusy = 0, probeBusy = 0;
    std::uint64_t partitionBytes = 0, probeBytes = 0;

    // Degenerate-path state: per-stage phase collection so the single
    // instance assembles the classic single-query RunResult.
    bool degenerate = false;
    RunResult *res = nullptr;
    std::vector<PhaseResult> stagePhases{};
    EnergyBreakdown prevEnergy{};
    double vaults = 0.0;

    bool finished = false;
    Tick makespan = 0;
    EnergyActivity finalActivity{};
    EnergyBreakdown finalEnergy{};

    void
    scheduleNextArrival()
    {
        if (scheduled >= arrivals.size())
            return;
        const std::size_t i = scheduled++;
        ServedDriver *d = this;
        auto arrive = [d, i]() { d->onArrival(i); };
        machine.eq().schedule(arrivals[i].at, std::move(arrive));
    }

    void
    onArrival(std::size_t i)
    {
        // Chain the next arrival first: arrival ticks are monotone, so
        // scheduling from here never lands in the past.
        scheduleNextArrival();
        ++processed;
        ++m.offered;
        const Tick now = machine.eq().now();
        if (!windowOpen && i >= traffic.warmup) {
            windowOpen = true;
            windowStart = now;
        }
        if (traffic.maxInFlight > 0 && inFlight >= traffic.maxInFlight) {
            ++m.rejected;
            maybeFinish();
            return;
        }
        ++m.admitted;
        ++inFlight;
        Instance inst;
        inst.type = arrivals[i].type;
        inst.query = i;
        inst.arrivedAt = now;
        ready.push_back(inst);
        if (!phaseActive)
            dispatch();
    }

    void
    dispatch()
    {
        sim_assert(!phaseActive && !ready.empty());
        current = ready.front();
        ready.pop_front();
        phaseActive = true;
        const PreparedScenario &ps = prepared[current.type];
        const PhaseExec &phase =
            ps.execs[current.stage].phases[current.phase];
        ServedDriver *d = this;
        machine.beginPhase(
            phase, [d](const PhaseResult &r) { d->onPhaseDone(r); });
    }

    void
    onPhaseDone(const PhaseResult &r)
    {
        phaseActive = false;
        if (r.kind == PhaseKind::kPartition) {
            partitionBusy += r.time;
            partitionBytes += r.dramBytes;
        } else {
            probeBusy += r.time;
            probeBytes += r.dramBytes;
        }

        const PreparedScenario &ps = prepared[current.type];
        if (degenerate)
            stagePhases.push_back(r);
        ++current.phase;
        const bool stage_done =
            current.phase >= ps.execs[current.stage].phases.size();
        if (stage_done) {
            if (degenerate) {
                accumulateStage(*res, ps, current.stage,
                                std::move(stagePhases), vaults,
                                machine.energy(), prevEnergy);
                stagePhases.clear();
            }
            ++current.stage;
            current.phase = 0;
        }

        if (current.stage >= ps.execs.size()) {
            completeInstance();
        } else {
            // Round-robin at phase granularity: the instance rejoins
            // the back of the ready queue after every phase.
            ready.push_back(current);
        }

        if (!ready.empty())
            dispatch();
        else
            maybeFinish();
    }

    void
    completeInstance()
    {
        --inFlight;
        ++m.completed;
        const Tick now = machine.eq().now();
        if (current.query >= traffic.warmup) {
            ++m.measuredCompleted;
            latency.record(now - current.arrivedAt);
            windowEnd = now;
        }
    }

    void
    maybeFinish()
    {
        if (finished || phaseActive || !ready.empty() || inFlight > 0 ||
            processed < arrivals.size())
            return;
        finished = true;
        // Snapshot here, inside the event that completed the run: any
        // trailing permutable-flush completions still pending would
        // otherwise advance now() past the last completion.
        makespan = machine.eq().now();
        finalActivity = machine.energyActivity();
        finalEnergy = machine.energy();
        machine.eq().requestStop();
    }
};

} // namespace

RunResult
ServedRunner::run(const SystemConfig &sys, const Scenario &scenario)
{
    const bool degenerate = traffic_.degenerate();

    // Resolve the scenario types: the mix when given, else every
    // arrival runs the job's own scenario. Degenerate traffic has no
    // mix by construction.
    std::vector<Scenario> types;
    if (traffic_.mix.empty() || degenerate) {
        types.push_back(scenario);
    } else {
        for (const TrafficMixEntry &e : traffic_.mix)
            types.push_back(e.scenario);
    }

    // One pool, each type prepared once; instances replay the shared
    // traces. The prepare order is the mix order, so the functional
    // data layout — and therefore the timing — is spec-deterministic.
    MemoryPool pool(sys.geo);
    std::vector<PreparedScenario> prepared;
    prepared.reserve(types.size());
    for (const Scenario &t : types)
        prepared.push_back(prepareScenario(pool, workload_, sys, t));

    Machine machine(sys, pool);
    RunResult res;
    res.system = sys.name;
    res.op = scenario.name;

    ServedDriver d{machine, prepared, traffic_};
    d.arrivals = generateArrivals(traffic_);
    d.degenerate = degenerate;
    d.res = &res;
    d.vaults = static_cast<double>(sys.geo.totalVaults());

    d.scheduleNextArrival();
    machine.eq().run();

    if (!d.finished)
        panic("served run '%s': deadlock with %llu queries in flight",
              scenario.name.c_str(),
              static_cast<unsigned long long>(d.inFlight));

    if (degenerate) {
        // The single instance flowed through the full served plumbing;
        // its result must be byte-identical to a plain phase-by-phase
        // replay (the layer's correctness oracle), so it is assembled
        // the same way and no served metrics are attached.
        // sim_events counts machine work only: the driver's arrival
        // events are harness bookkeeping, subtracted so this path stays
        // byte-identical to a replay that schedules no arrivals.
        finishRunResult(res, d.vaults, d.finalActivity, d.finalEnergy);
        res.simEvents = machine.simEvents() - d.processed;
        return res;
    }

    // Served runs report the open-loop aggregate: makespan as total
    // time, machine-busy sums per phase kind, and the served metrics.
    // The per-query phase lists are deliberately not retained.
    res.totalTime = d.makespan;
    res.partitionTime = d.partitionBusy;
    res.probeTime = d.probeBusy;
    if (d.partitionBusy > 0) {
        res.partitionVaultBWGBps = bytesPerTickToGBps(
            static_cast<double>(d.partitionBytes) / d.vaults,
            d.partitionBusy);
    }
    if (d.probeBusy > 0) {
        res.probeVaultBWGBps = bytesPerTickToGBps(
            static_cast<double>(d.probeBytes) / d.vaults, d.probeBusy);
    }
    // Functional sums cover each distinct type once (instances replay
    // identical traces; repeating them would just scale the counts).
    for (const PreparedScenario &ps : prepared) {
        for (const OperatorExecution &exec : ps.execs) {
            res.scanMatches += exec.scanMatches;
            res.joinMatches += exec.joinMatches;
            res.groupCount += exec.groupCount;
            res.aggChecksum += exec.aggChecksum;
        }
    }
    res.activity = d.finalActivity;
    res.energy = d.finalEnergy;
    res.simEvents = machine.simEvents() - d.processed;

    ServedMetrics &sm = res.served;
    sm = d.m;
    sm.valid = true;
    if (sm.measuredCompleted > 0) {
        sm.window = d.windowEnd - d.windowStart;
        if (sm.window > 0) {
            sm.sustainedQps =
                static_cast<double>(sm.measuredCompleted) /
                ticksToSeconds(sm.window);
        }
        sm.latencyP50 = d.latency.percentile(50.0);
        sm.latencyP95 = d.latency.percentile(95.0);
        sm.latencyP99 = d.latency.percentile(99.0);
        sm.latencyMax = d.latency.max();
        sm.latencyMeanPs = d.latency.mean();
    }
    if (sm.completed > 0) {
        sm.energyPerQueryJ =
            res.energy.total() / static_cast<double>(sm.completed);
    }
    return res;
}

} // namespace mondrian
