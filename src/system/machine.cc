#include "system/machine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mondrian {

/**
 * Per-unit memory path: caches (when configured) in front of the
 * network + vault controllers.
 *
 * Cacheability: CPU cores cache everything (one coherent hierarchy).
 * NMP units cache only their local vault -- remote vaults are accessed
 * uncached, which sidesteps inter-tile coherence exactly as the paper's
 * partitioned execution model does. Permutable stores always bypass the
 * caches (they are destined for the remote append engine).
 */
class Machine::Path : public MemoryPath
{
  public:
    Path(Machine &m, unsigned unit) : m_(m), unit_(unit) {}

    Result
    request(Tick when, Addr addr, std::uint32_t size, bool is_write,
            bool sequential, bool permutable, DoneFn done) override
    {
        (void)sequential;
        const unsigned home = m_.nodeOfUnit(unit_);
        const unsigned target = m_.pool_.map().vaultOf(addr);
        Cache *l1 = unit_ < m_.l1s_.size() ? m_.l1s_[unit_].get() : nullptr;

        const bool cacheable =
            !permutable && l1 &&
            (m_.cfg_.exec.cpuStyle || target == unit_);

        if (!cacheable) {
            // Uncached: straight to the target vault through the network.
            m_.issueDram(when, home, addr, size, is_write,
                         /*need_response=*/!is_write, std::move(done));
            return Result{false, 0};
        }

        const unsigned line = l1->config().lineBytes;
        auto r1 = l1->access(addr, is_write);

        // Next-line prefetches triggered by this access.
        for (Addr pf : r1.prefetchFills) {
            if (pf >= m_.pool_.store().capacity())
                continue;
            if (!l1->insertPrefetch(pf))
                continue; // already resident: no fill traffic
            if (m_.llc_) {
                auto rp = m_.llc_->access(pf, false);
                if (rp.writebackAddr)
                    m_.asyncDram(when, home, *rp.writebackAddr, line, true);
                if (rp.hit)
                    continue; // fill served on-chip
            }
            m_.asyncDram(when, home, pf, line, false);
        }

        if (r1.hit) {
            // A rolling prefetch stream lands lines before the demand
            // touch; charge a short in-flight allowance over the L1 hit.
            Cycles lat = r1.prefetchHit
                             ? Cycles{5}
                             : l1->config().hitLatency;
            return Result{true, lat, !r1.prefetchHit};
        }

        // L1 miss: dirty victim spills to the next level.
        if (r1.writebackAddr) {
            if (m_.llc_) {
                auto rw = m_.llc_->access(*r1.writebackAddr, true);
                if (rw.writebackAddr)
                    m_.asyncDram(when, home, *rw.writebackAddr, line, true);
            } else {
                m_.asyncDram(when, home, *r1.writebackAddr, line, true);
            }
        }

        if (m_.llc_) {
            auto r2 = m_.llc_->access(addr, false);
            if (r2.writebackAddr)
                m_.asyncDram(when, home, *r2.writebackAddr, line, true);
            if (r2.hit)
                return Result{true, m_.llc_->config().hitLatency};
        }

        // Full miss: fetch the line from DRAM (read-for-ownership covers
        // store misses too; the dirty data leaves later as a writeback).
        Addr line_addr = addr & ~static_cast<Addr>(line - 1);
        m_.issueDram(when, home, line_addr, line, /*is_write=*/false,
                     /*need_response=*/true, std::move(done));
        return Result{false, 0};
    }

    RunHits
    requestRun(Tick when, Addr addr, std::uint32_t size, std::uint32_t n,
               bool is_write, bool sequential, bool permutable) override
    {
        (void)when;
        (void)sequential;
        Cache *l1 = unit_ < m_.l1s_.size() ? m_.l1s_[unit_].get() : nullptr;
        if (permutable || !l1)
            return RunHits{}; // uncacheable: per-access path models it
        // NMP units cache only their local vault; batch only the prefix
        // of accesses homed there (CPU-style paths cache everything).
        // Vault ranges are contiguous, so the prefix ends at the vault
        // boundary: count the starts below it instead of probing the
        // address map per element.
        std::uint32_t limit = n;
        if (!m_.cfg_.exec.cpuStyle) {
            const AddressMap &map = m_.pool_.map();
            if (map.vaultOf(addr) != unit_)
                return RunHits{};
            const Addr vend = map.vaultBase(unit_) +
                              map.geometry().vaultBytes;
            const Addr fit = (vend - addr + size - 1) / size;
            if (fit < limit)
                limit = static_cast<std::uint32_t>(fit);
            if (limit == 0)
                return RunHits{};
        }
        RunHits rh;
        rh.consumed = l1->accessRun(addr, size, limit, is_write);
        rh.latency = l1->config().hitLatency;
        return rh;
    }

  private:
    Machine &m_;
    unsigned unit_;
};

Machine::Machine(const SystemConfig &cfg, MemoryPool &pool)
    : cfg_(cfg), pool_(pool)
{
    // Event-count-reduction shortcuts (docs/perf.md): each is
    // output-identical, so these only select the fast or the reference
    // execution strategy for the same event stream.
    eq_.setCoalescing(cfg_.exec.coalesceCompletions);
    cfg_.core.rleRunBatching = cfg_.exec.rleRunBatching;

    pendingArrivals_.assign(cfg_.geo.totalVaults(), 0);

    net_ = std::make_unique<Network>(cfg_.geo, cfg_.topo);

    const unsigned vaults = cfg_.geo.totalVaults();
    vaults_.reserve(vaults);
    for (unsigned v = 0; v < vaults; ++v) {
        vaults_.push_back(std::make_unique<VaultController>(
            eq_, pool_.map(), v, cfg_.dram, cfg_.vaultWindow));
    }

    if (cfg_.hasL1) {
        for (unsigned u = 0; u < cfg_.exec.numUnits; ++u)
            l1s_.push_back(std::make_unique<Cache>(cfg_.l1));
    }
    if (cfg_.hasLlc)
        llc_ = std::make_unique<Cache>(cfg_.llc);

    for (unsigned u = 0; u < cfg_.exec.numUnits; ++u)
        paths_.push_back(std::make_unique<Path>(*this, u));

    // Permutable-append row flushes carry no completion callback; the
    // vault's drain hook is how the phase logic sees their retirement.
    auto drained = [this]() { checkPhaseQuiesce(); };
    for (auto &v : vaults_)
        v->onDrained = drained;
}

Machine::~Machine() = default;

unsigned
Machine::nodeOfUnit(unsigned unit) const
{
    return cfg_.exec.cpuStyle ? Network::kCpuNode : unit;
}

Machine::Flight *
Machine::allocFlight()
{
    ++flightsInAir_;
    if (freeFlight_) {
        Flight *f = freeFlight_;
        freeFlight_ = f->nextFree;
        return f;
    }
    flightArena_.emplace_back();
    return &flightArena_.back();
}

void
Machine::freeFlight(Flight *f)
{
    --flightsInAir_;
    f->done = nullptr;
    f->nextFree = freeFlight_;
    freeFlight_ = f;
}

void
Machine::deliverFlight(Flight *f)
{
    MemRequest req;
    req.addr = f->addr;
    req.size = f->size;
    req.isWrite = f->isWrite;
    auto on_complete = [f](Tick t) { f->m->completeFlight(f, t); };
    req.onComplete = std::move(on_complete);
    vaults_[f->dv]->enqueue(std::move(req));
}

void
Machine::completeFlight(Flight *f, Tick t)
{
    if (!f->done) { // fire-and-forget traffic: nothing to notify
        freeFlight(f);
        checkPhaseQuiesce();
        return;
    }
    if (!f->needResponse || f->local) {
        MemoryPath::DoneFn done = std::move(f->done);
        freeFlight(f);
        done(t);
        checkPhaseQuiesce();
        return;
    }
    // Response payload crosses the network back to the requester. Routed
    // through the coalescer: responses released by one burst share a tick.
    Tick back = net_->delay(f->dv, f->srcNode, f->size, t);
    auto respond = [f, back]() {
        Machine *m = f->m;
        MemoryPath::DoneFn done = std::move(f->done);
        m->freeFlight(f);
        done(back);
        m->checkPhaseQuiesce();
    };
    eq_.scheduleCoalesced(back, std::move(respond));
}

void
Machine::issueDram(Tick when, unsigned src_node, Addr addr,
                   std::uint32_t size, bool is_write, bool need_response,
                   MemoryPath::DoneFn done)
{
    const unsigned dv = pool_.map().vaultOf(addr);
    const bool local = src_node == dv;
    // Request message: stores carry the payload, loads just the header.
    Tick arrive = local
                      ? when
                      : net_->delay(src_node, dv, is_write ? size : 0, when);
    Flight *f = allocFlight();
    f->m = this;
    f->addr = addr;
    f->size = size;
    f->dv = dv;
    f->srcNode = src_node;
    f->isWrite = is_write;
    f->needResponse = need_response;
    f->local = local;
    f->done = std::move(done);
    // Eager local issue: a local request that would arrive "now" at an
    // idle vault skips its arrival event and delivers synchronously.
    // This is exact — the arrival event's only effect is enqueue(), and
    // under the guard nothing that runs between this call and that event
    // could interact with the vault: pending arrivals are excluded by
    // the counter (an earlier-sequence arrival issues first and issue
    // order fixes bank/bus state), pending completions never touch bank
    // or bus state, and events scheduled after this call sort after the
    // elided arrival anyway. One queue event per local request gone;
    // cfg_.exec.eagerLocalIssue switches it off for the reference run.
    if (local && cfg_.exec.eagerLocalIssue && arrive <= eq_.now() &&
        pendingArrivals_[dv] == 0 &&
        vaults_[dv]->readyForImmediateIssue()) {
        ++eagerIssues_;
        deliverFlight(f);
        return;
    }
    ++pendingArrivals_[dv];
    auto arrival = [f]() {
        Machine *m = f->m;
        --m->pendingArrivals_[f->dv];
        m->deliverFlight(f);
    };
    eq_.schedule(std::max(arrive, eq_.now()), std::move(arrival));
}

void
Machine::asyncDram(Tick when, unsigned src_node, Addr addr,
                   std::uint32_t size, bool is_write)
{
    // Fire-and-forget traffic reserves the request's network path and
    // its vault. Nothing comes back: completeFlight recycles a flight
    // without a callback at the vault, so a read's response (a prefetch
    // fill's line) never crosses the network or the SerDes links.
    issueDram(when, src_node, addr, size, is_write, /*need_response=*/false,
              MemoryPath::DoneFn{});
}

std::uint64_t
Machine::totalActivations() const
{
    std::uint64_t n = 0;
    for (const auto &v : vaults_)
        n += v->stats().rowActivations;
    return n;
}

std::uint64_t
Machine::totalDramBytes() const
{
    std::uint64_t n = 0;
    for (const auto &v : vaults_)
        n += v->stats().bytesRead + v->stats().bytesWritten;
    return n;
}

std::uint64_t
Machine::llcAccesses() const
{
    return llc_ ? llc_->stats().accesses : 0;
}

void
Machine::beginPhase(const PhaseExec &phase, PhaseDoneFn done)
{
    sim_assert(phase.traces.size() == cfg_.exec.numUnits);
    sim_assert(phaseStage_ == PhaseStage::kIdle);

    phase_ = &phase;
    phaseDone_ = std::move(done);
    phaseStart_ = eq_.now();
    phaseAct0_ = totalActivations();
    phaseBytes0_ = totalDramBytes();
    barrierFired_ = false;

    for (const auto &[v, region] : phase.arming)
        vaults_[v]->armPermutable(region);

    if (cores_.empty()) {
        cores_.reserve(cfg_.exec.numUnits);
        for (unsigned u = 0; u < cfg_.exec.numUnits; ++u) {
            auto core = std::make_unique<TraceCore>(eq_, cfg_.core,
                                                    *paths_[u], u);
            core->onFinish = [this](unsigned, Tick) {
                ++finished_;
                checkPhaseQuiesce();
            };
            cores_.push_back(std::move(core));
        }
    }
    finished_ = 0;
    for (unsigned u = 0; u < phase.traces.size(); ++u)
        cores_[u]->setTrace(&phase.traces[u]);
    phaseStage_ = PhaseStage::kRunning;
    for (auto &core : cores_)
        core->start();
    // onFinish is always delivered through a scheduled event, so the
    // phase cannot complete before control returns to the event loop.
}

void
Machine::checkPhaseQuiesce()
{
    if (phaseStage_ == PhaseStage::kIdle)
        return;

    if (phaseStage_ == PhaseStage::kRunning) {
        if (finished_ != cores_.size() || flightsInAir_ != 0)
            return;
        for (const auto &v : vaults_)
            if (v->outstanding() != 0)
                return;
        // Every unit finished and no request is queued, issued or on the
        // network: this tick is exactly where the historical
        // drain-to-empty loop stopped.
        const PhaseExec &phase = *phase_;
        for (const auto &[v, region] : phase.arming)
            vaults_[v]->disarmPermutable();
        if (phase.barriers > 0) {
            // Global barriers (histogram exchange, shuffle-end MSI): one
            // all-to-all notification round each (§5.4: expensive but
            // amortized over long phases). The phase ends once the
            // barrier has fired AND the disarm's trailing row flushes
            // have drained, whichever is later.
            Tick barrier = net_->baseLatency(
                0, cfg_.geo.totalVaults() - 1, 8);
            phaseStage_ = PhaseStage::kBarrier;
            auto fire = [this]() {
                barrierFired_ = true;
                checkPhaseQuiesce();
            };
            eq_.schedule(eq_.now() + phase.barriers * 2 * barrier,
                         std::move(fire));
            return;
        }
        // No barrier: the phase result is computed before the disarm's
        // flush traffic retires (it was scheduled just now, above); the
        // trailing completions bill to whatever runs next, as they
        // always have.
        finalizePhase();
        return;
    }

    // kBarrier: wait for the barrier event and the flush drain.
    if (!barrierFired_ || flightsInAir_ != 0)
        return;
    for (const auto &v : vaults_)
        if (v->outstanding() != 0)
            return;
    finalizePhase();
}

void
Machine::finalizePhase()
{
    const PhaseExec &phase = *phase_;

    PhaseResult res;
    res.name = phase.name;
    res.kind = phase.kind;
    res.time = eq_.now() - phaseStart_;
    res.activations = totalActivations() - phaseAct0_;
    res.dramBytes = totalDramBytes() - phaseBytes0_;
    if (res.time > 0) {
        res.avgVaultBWGBps =
            bytesPerTickToGBps(static_cast<double>(res.dramBytes) /
                                   static_cast<double>(vaults_.size()),
                               res.time);
    }

    double util_sum = 0.0, st_store = 0.0, st_stream = 0.0, st_load = 0.0,
           st_fence = 0.0;
    for (const auto &core : cores_) {
        const auto &s = core->stats();
        Tick span = s.finishedAt > phaseStart_ ? s.finishedAt - phaseStart_
                                               : 0;
        coreBusyTicks_ += s.computeTicks;
        if (span > 0) {
            double d = static_cast<double>(span);
            util_sum += static_cast<double>(s.computeTicks) / d;
            st_store += static_cast<double>(s.stallStoreTicks) / d;
            st_stream += static_cast<double>(s.stallStreamTicks) / d;
            st_load += static_cast<double>(s.stallLoadTicks) / d;
            st_fence += static_cast<double>(s.stallFenceTicks) / d;
        }
    }
    if (!cores_.empty()) {
        double n = static_cast<double>(cores_.size());
        res.coreUtilization = util_sum / n;
        res.stallStore = st_store / n;
        res.stallStream = st_stream / n;
        res.stallLoad = st_load / n;
        res.stallFence = st_fence / n;
    }

    // Reset the phase state before invoking the callback: it may begin
    // the next phase at this very tick.
    PhaseDoneFn done = std::move(phaseDone_);
    phase_ = nullptr;
    phaseDone_ = nullptr;
    phaseStage_ = PhaseStage::kIdle;
    done(res);
}

PhaseResult
Machine::runPhase(const PhaseExec &phase)
{
    PhaseResult result;
    bool got = false;
    beginPhase(phase, [this, &result, &got](const PhaseResult &r) {
        result = r;
        got = true;
        // Stop the loop here, leaving any trailing flush completions
        // pending for the next phase — the historical stop point.
        eq_.requestStop();
    });
    eq_.run();

    if (!got)
        panic("phase '%s': %u of %zu units deadlocked", phase.name.c_str(),
              static_cast<unsigned>(cores_.size() - finished_),
              cores_.size());
    return result;
}

EnergyActivity
Machine::energyActivity() const
{
    EnergyActivity a;
    a.elapsed = eq_.now();
    a.numCubes = cfg_.geo.numStacks;
    a.numSerdesLinks = net_->serdesLinkCount();
    a.numCores = cfg_.exec.numUnits;
    a.rowActivations = totalActivations();
    a.dramBitsMoved = totalDramBytes() * 8;
    auto ns = net_->stats();
    a.serdesBusyBits = ns.serdesBusyBits;
    a.meshBitHops = ns.meshBitHops;
    a.llcAccesses = llcAccesses();
    a.hasLlc = llc_ != nullptr;
    a.corePeakWattsEach = cfg_.core.peakPowerWatts;
    if (a.elapsed > 0 && a.numCores > 0) {
        a.coreUtilization =
            static_cast<double>(coreBusyTicks_) /
            (static_cast<double>(a.elapsed) *
             static_cast<double>(a.numCores));
    }
    return a;
}

EnergyBreakdown
Machine::energy() const
{
    return EnergyModel{}.compute(energyActivity());
}

} // namespace mondrian
