/**
 * @file
 * Window-limited core timing model.
 *
 * A TraceCore replays a KernelTrace against a MemoryPath. The model
 * captures the first-order microarchitectural effects the paper's analysis
 * (§3.2) builds on:
 *
 *  - compute bursts advance core-local time at the core's clock;
 *  - random-access loads overlap up to maxOutstandingLoads (the ROB/MSHR
 *    limit of an OoO window, ~20 for an A57, ~8 for a Krait400);
 *  - blocking loads model pointer-chase-style dependences (hash probes);
 *  - sequential stream reads overlap up to streamDepth (stream buffers on
 *    Mondrian, next-line prefetcher + MSHRs on the baselines);
 *  - stores are posted through a finite store buffer;
 *  - fences drain everything (shuffle_end, phase boundaries).
 *
 * The same engine models all three machines; they differ in configuration
 * (clock, windows) and in the MemoryPath behind them (caches or not).
 */

#ifndef MONDRIAN_CORE_CORE_MODEL_HH
#define MONDRIAN_CORE_CORE_MODEL_HH

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hh"
#include "core/trace.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

namespace mondrian {

/** Core microarchitecture parameters. */
struct CoreConfig
{
    std::string name = "core";
    Tick period = 1000;               ///< clock period (ps); 1 GHz default
    unsigned maxOutstandingLoads = 8; ///< random-access MLP window
    unsigned maxOutstandingStores = 16; ///< store buffer entries
    unsigned streamDepth = 8;         ///< sequential fetch overlap
    double peakPowerWatts = 0.312;    ///< for the energy model
    /**
     * Consume the plain-hit prefix of an RLE run in closed form via
     * MemoryPath::requestRun instead of expanding every access (docs/
     * perf.md). Output-identical: the batch replicates the per-access
     * bookkeeping exactly and falls back at any boundary condition.
     */
    bool rleRunBatching = true;
};

/** Preset matching the paper's CPU core (Table 3: ARM Cortex-A57 @ 2 GHz). */
CoreConfig cortexA57();

/** Preset matching the NMP baseline core (Qualcomm Krait400 @ 1 GHz). */
CoreConfig krait400();

/** Preset matching the Mondrian tile (Cortex-A35 + 1024-bit SIMD @ 1 GHz). */
CoreConfig cortexA35Simd();

/**
 * Abstract memory system seen by one core (caches + NoC + DRAM are wired
 * behind this by the Machine).
 */
class MemoryPath
{
  public:
    virtual ~MemoryPath() = default;

    /**
     * Completion callback type. Holds up to 16 capture bytes — enough
     * for every completion closure in the build; a larger one does not
     * compile.
     */
    using DoneFn = InlineFunction<void(Tick), 16>;

    /** Outcome of a request: either satisfied immediately (cache hit)... */
    struct Result
    {
        bool immediate = false;
        Cycles latency = 0; ///< cycles to charge when immediate
        /**
         * Immediate via a plain cache hit — the only outcome
         * requestRun() can consume. Immediate results that carry side
         * effects (prefetch-stream hits and their fill traffic, LLC
         * hits) leave this false so a run core does not re-arm its
         * batch probe just to have it fail on the next access.
         */
        bool batchable = false;
    };

    /**
     * Issue a request at core-local time @p when.
     *
     * @param sequential hint that this access is part of a stream
     * @param permutable store may be reordered by the destination vault
     * @param done invoked at completion when not immediate
     */
    virtual Result request(Tick when, Addr addr, std::uint32_t size,
                           bool is_write, bool sequential, bool permutable,
                           DoneFn done) = 0;

    /** Outcome of requestRun(): a prefix of immediate plain hits. */
    struct RunHits
    {
        std::uint32_t consumed = 0; ///< leading accesses satisfied
        Cycles latency = 0;         ///< per-access cost of each of them
    };

    /**
     * Batched form of request() for an RLE run: accesses k = 0..n-1 at
     * @p addr + k * @p size. Consumes the maximal leading prefix that
     * request() would satisfy immediately as plain cache hits — no
     * prefetch conversion, no fills, no events — and reports their
     * uniform per-access latency. Any boundary access (miss, prefetch
     * hit, uncacheable) is left for the caller's per-access path, so a
     * path that cannot batch simply returns zero consumed (the default:
     * fixed-latency paths and tests never see a behavior change).
     */
    virtual RunHits
    requestRun(Tick when, Addr addr, std::uint32_t size, std::uint32_t n,
               bool is_write, bool sequential, bool permutable)
    {
        (void)when;
        (void)addr;
        (void)size;
        (void)n;
        (void)is_write;
        (void)sequential;
        (void)permutable;
        return RunHits{};
    }
};

/** Statistics of one core's trace replay. */
struct CoreStats
{
    Tick finishedAt = 0;
    Tick computeTicks = 0;   ///< time advancing due to kCompute / cache hits
    Tick stallTicks = 0;     ///< time blocked on memory
    Tick stallStoreTicks = 0;  ///< stalled with a full store buffer
    Tick stallStreamTicks = 0; ///< stalled with full stream-fetch window
    Tick stallLoadTicks = 0;   ///< stalled on loads (window or dependence)
    Tick stallFenceTicks = 0;  ///< draining at fences
    std::uint64_t memOps = 0;
    std::uint64_t bytesFromMem = 0;
    std::uint64_t bytesToMem = 0;
};

/** Replays one kernel trace with windowed memory-level parallelism. */
class TraceCore
{
  public:
    TraceCore(EventQueue &eq, const CoreConfig &cfg, MemoryPath &path,
              unsigned core_id);

    /** Bind the trace to replay; resets progress. */
    void setTrace(const KernelTrace *trace);

    /** Begin execution at the current simulation time. */
    void start();

    bool finished() const { return finished_; }
    const CoreStats &stats() const { return stats_; }
    const CoreConfig &config() const { return cfg_; }
    unsigned id() const { return id_; }

    /** Called once when the trace completes and all memory has drained. */
    std::function<void(unsigned core_id, Tick when)> onFinish;

    /** Fraction of elapsed time spent computing (for core energy). */
    double utilization() const;

  private:
    void advance();
    /** @return true when the op went outstanding (miss), false on a hit. */
    bool issueMemOp(TraceOpKind kind, Addr addr, std::uint32_t size);
    void completion(Tick t, TraceOpKind kind);
    void maybeFinish();
    bool finishedTraceButDraining() const;

    EventQueue &eq_;
    CoreConfig cfg_;
    MemoryPath &path_;
    unsigned id_;

    const KernelTrace *trace_ = nullptr;
    std::size_t cursor_ = 0;
    std::uint32_t runPos_ = 0; ///< accesses already issued of a run op
    /**
     * Whether the next run access should attempt the closed-form batch
     * (cfg_.rleRunBatching). Armed at every run start and by every
     * synchronous *plain* hit (Result::batchable); a failed batch probe
     * disarms it, so miss- or prefetch-dominated runs pay the redundant
     * probe once per boundary cluster instead of once per access. Purely
     * a probe-retry policy: which accesses the batch consumes — and
     * therefore every modeled result — is unchanged.
     */
    bool runBatchArmed_ = true;
    bool lastHitBatchable_ = false; ///< last sync hit was plain (batch re-arm)
    Tick time_ = 0; ///< core-local clock (>= eq.now() at wake points)

    unsigned outLoads_ = 0;
    unsigned outStreams_ = 0;
    unsigned outStores_ = 0;
    bool blocked_ = false;  ///< waiting on a blocking load (kLoadBlocking)
    TraceOpKind stallKind_ = TraceOpKind::kFence; ///< what caused the stall
    bool waiting_ = false;  ///< waiting for any completion (window full)
    bool fencing_ = false;  ///< draining at a fence
    bool started_ = false;
    bool finished_ = false;

    CoreStats stats_;
};

} // namespace mondrian

#endif // MONDRIAN_CORE_CORE_MODEL_HH
