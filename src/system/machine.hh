/**
 * @file
 * Machine: one fully wired system instance (cores + caches + network +
 * vault controllers) that replays operator phases.
 *
 * The machine owns the timing state; the functional data lives in the
 * MemoryPool shared with the engine. Phases run back-to-back on the same
 * event queue, so DRAM bank state, cache contents and link reservations
 * carry over between phases exactly as they would in hardware.
 */

#ifndef MONDRIAN_SYSTEM_MACHINE_HH
#define MONDRIAN_SYSTEM_MACHINE_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cache.hh"
#include "core/core_model.hh"
#include "dram/vault.hh"
#include "energy/energy_model.hh"
#include "engine/operator.hh"
#include "engine/relation.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace mondrian {

/** Timing outcome of one phase. */
struct PhaseResult
{
    std::string name;
    PhaseKind kind = PhaseKind::kProbe;
    Tick time = 0;                 ///< wall-clock ticks for the phase
    std::uint64_t dramBytes = 0;   ///< bytes moved at the row buffers
    std::uint64_t activations = 0; ///< row activations during the phase
    double avgVaultBWGBps = 0.0;   ///< mean per-vault bus bandwidth
    double coreUtilization = 0.0;  ///< mean compute fraction across units
    /** Mean stall fractions across units, by cause. */
    double stallStore = 0.0;
    double stallStream = 0.0;
    double stallLoad = 0.0;
    double stallFence = 0.0;
};

/** A wired system instance. */
class Machine
{
  public:
    Machine(const SystemConfig &cfg, MemoryPool &pool);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Phase-completion callback for beginPhase(). */
    using PhaseDoneFn = std::function<void(const PhaseResult &)>;

    /**
     * Start replaying one phase without driving the event loop. The
     * machine detects quiescence (all units finished, no requests in
     * flight, every vault drained) from within the event stream, models
     * the phase's global barriers, and invokes @p done with the timing
     * result inside the event that completes the phase — at exactly the
     * tick the historical drain-to-empty runPhase() observed.
     *
     * The caller drives eq() — either to quiescence (runPhase) or
     * continuously with other work interleaved (ServedRunner, which
     * begins the next phase of another scenario instance from inside
     * @p done). Only one phase can be active at a time; @p done may
     * start the next one.
     */
    void beginPhase(const PhaseExec &phase, PhaseDoneFn done);

    /** Replay one phase to quiescence; returns its timing result. */
    PhaseResult runPhase(const PhaseExec &phase);

    /** The machine's event queue (drivers of beginPhase() run it). */
    EventQueue &eq() { return eq_; }

    /** Aggregate energy activity since construction. */
    EnergyActivity energyActivity() const;

    /** Energy breakdown for everything run so far. */
    EnergyBreakdown energy() const;

    const SystemConfig &config() const { return cfg_; }
    const Network &network() const { return *net_; }
    const VaultController &vault(unsigned v) const { return *vaults_[v]; }
    unsigned numVaults() const { return static_cast<unsigned>(vaults_.size()); }

    /** Sum of row activations across vaults. */
    std::uint64_t totalActivations() const;

    /** Sum of bytes read+written at the vaults' row buffers. */
    std::uint64_t totalDramBytes() const;

    /** LLC accesses (0 when the system has no LLC). */
    std::uint64_t llcAccesses() const;

    /** Events popped from the queue since construction. */
    std::uint64_t eventsExecuted() const { return eq_.executed(); }

    /** Completion callbacks absorbed into same-tick batches. */
    std::uint64_t eventsCoalesced() const { return eq_.coalesced(); }

    /** Local request arrivals issued synchronously (no arrival event). */
    std::uint64_t eventsElided() const { return eagerIssues_; }

    /**
     * Simulated-event count: queue pops, plus coalesced completions,
     * plus eagerly issued local arrivals. Each transform trades a queue
     * pop for one unit of the other two counters (a coalesced batch of k
     * is 1 executed event + k-1 coalesced; an eager local issue is the
     * arrival event that never got scheduled), so this sum is invariant
     * under every perf shortcut — it counts the logical event stream,
     * not the physical one, which is what lets it live in the report
     * without breaking the shortcuts-off byte-identity oracle.
     */
    std::uint64_t simEvents() const
    {
        return eq_.executed() + eq_.coalesced() + eagerIssues_;
    }

  private:
    class Path; // per-core MemoryPath implementation
    friend class Path;

    /**
     * One DRAM request in flight. All routing context and the completion
     * callback live here, pooled and recycled, so the event closures along
     * the request's path capture a single pointer — the hot path performs
     * no per-request allocation and events stay small.
     */
    struct Flight
    {
        Machine *m = nullptr;
        Addr addr = 0;
        std::uint32_t size = 0;
        unsigned dv = 0;
        unsigned srcNode = 0;
        bool isWrite = false;
        bool needResponse = false;
        bool local = false;
        MemoryPath::DoneFn done;
        Flight *nextFree = nullptr;
    };

    Flight *allocFlight();
    void freeFlight(Flight *f);
    /** Present the flight's request to its vault (arrival tick). */
    void deliverFlight(Flight *f);
    /** Vault finished the burst at @p t: respond / complete / recycle. */
    void completeFlight(Flight *f, Tick t);

    /** Route a request to its vault; optional response and completion. */
    void issueDram(Tick when, unsigned src_node, Addr addr,
                   std::uint32_t size, bool is_write, bool need_response,
                   MemoryPath::DoneFn done);

    /** Issue a fire-and-forget DRAM access (prefetch fill, writeback). */
    void asyncDram(Tick when, unsigned src_node, Addr addr,
                   std::uint32_t size, bool is_write);

    /** Home network node of unit @p unit. */
    unsigned nodeOfUnit(unsigned unit) const;

    /**
     * Re-evaluate the active phase's quiescence / barrier-drain
     * condition. Called from every event that can retire the last piece
     * of in-flight work: core finish, flight completion, vault drain and
     * the barrier event.
     */
    void checkPhaseQuiesce();

    /** Compute the active phase's result and hand it to the callback. */
    void finalizePhase();

    SystemConfig cfg_;
    MemoryPool &pool_;
    EventQueue eq_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<VaultController>> vaults_;
    std::vector<std::unique_ptr<Cache>> l1s_; ///< per unit, if configured
    std::unique_ptr<Cache> llc_;              ///< shared, CPU only
    std::vector<std::unique_ptr<Path>> paths_;

    std::deque<Flight> flightArena_; ///< stable storage for the pool
    Flight *freeFlight_ = nullptr;   ///< intrusive free list

    /**
     * Arrival events in flight per vault. Nonzero blocks the eager
     * local-issue shortcut: a pending arrival with a smaller sequence
     * number would issue first in event order, and issue order is what
     * determines bank and bus state.
     */
    std::vector<std::uint32_t> pendingArrivals_;
    /** Local arrivals issued synchronously instead of via an event. */
    std::uint64_t eagerIssues_ = 0;

    // Cumulative activity for the energy model.
    Tick coreBusyTicks_ = 0;  ///< sum over units of compute ticks
    unsigned finished_ = 0;

    /**
     * Persistent trace cores, one per unit, created on the first
     * beginPhase() and re-armed with setTrace() each phase. Reuse (vs.
     * the historical fresh-cores-per-phase) keeps the per-phase closure
     * wiring out of the phase loop and gives callback-driven execution a
     * stable object to finish into.
     */
    std::vector<std::unique_ptr<TraceCore>> cores_;

    /** DRAM requests allocated but not yet recycled (any kind). */
    std::uint64_t flightsInAir_ = 0;

    /** Active-phase bookkeeping (one phase at a time). */
    enum class PhaseStage
    {
        kIdle,    ///< no phase active
        kRunning, ///< cores executing / draining
        kBarrier  ///< post-quiesce barrier + disarm-flush drain
    };
    PhaseStage phaseStage_ = PhaseStage::kIdle;
    const PhaseExec *phase_ = nullptr;
    PhaseDoneFn phaseDone_;
    Tick phaseStart_ = 0;
    std::uint64_t phaseAct0_ = 0;
    std::uint64_t phaseBytes0_ = 0;
    bool barrierFired_ = false;
};

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_MACHINE_HH
