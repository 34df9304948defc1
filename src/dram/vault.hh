/**
 * @file
 * Vault memory controller: FR-FCFS scheduling over the vault's banks, a
 * shared data bus at the vault's peak bandwidth, and the Mondrian
 * permutable-write append engine (§5.3 of the paper).
 *
 * When a permutable region is armed and a write request lands inside it,
 * the controller ignores the request's target address and appends the
 * object at its own sequential cursor. Interleaved writes arriving from
 * many source partitions therefore fill rows in order, activating every
 * row buffer exactly once instead of once per object.
 */

#ifndef MONDRIAN_DRAM_VAULT_HH
#define MONDRIAN_DRAM_VAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/timing.hh"
#include "mem/address_map.hh"
#include "mem/allocator.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"

namespace mondrian {

/** One memory access presented to a vault controller. */
struct MemRequest
{
    /**
     * Inline capacity sized for the machine's pointer-sized completion
     * closure, the widest the build gives it; a larger one does not
     * compile.
     */
    using Callback = InlineFunction<void(Tick), 8>;

    Addr addr = 0;
    std::uint32_t size = 0;
    bool isWrite = false;
    /**
     * Cached (bank, row) of addr, filled by the vault on acceptance so
     * the FR-FCFS scan — which revisits queued requests many times —
     * never re-decodes the address.
     */
    std::uint32_t bank = 0;
    std::uint32_t row = 0;
    /** Completion callback, invoked at the tick the data burst finishes. */
    Callback onComplete;
};

/** Per-vault statistics snapshot. */
struct VaultStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t rowActivations = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t permutableWrites = 0;
    Tick busBusy = 0;
};

/**
 * Timing model of one vault: banks + scheduler + bus + append engine.
 */
class VaultController
{
  public:
    /**
     * @param eq          simulation event queue
     * @param map         system address map
     * @param global_vault this vault's global index
     * @param timing      DRAM timing parameters
     * @param window      FR-FCFS scheduling window (max outstanding)
     */
    VaultController(EventQueue &eq, const AddressMap &map,
                    unsigned global_vault, const DramTiming &timing,
                    unsigned window = 16);

    /** Present a request at the current tick. */
    void enqueue(MemRequest &&req);

    /** Arm the permutable append engine over @p region (shuffle_begin). */
    void armPermutable(const PermutableRegion &region);

    /** Disarm the append engine (shuffle_end). @return bytes appended. */
    std::uint64_t disarmPermutable();

    bool permutableArmed() const { return permArmed_; }

    /** Bytes appended so far in the armed region. */
    std::uint64_t permutableCursor() const { return permCursor_; }

    const VaultStats &stats() const { return stats_; }

    /** Row-buffer hit rate over all accesses so far. */
    double rowHitRate() const;

    unsigned globalVault() const { return vault_; }

    /** Number of requests accepted but not yet completed. */
    unsigned outstanding() const { return issued_ + static_cast<unsigned>(live_); }

    /**
     * True when a request presented right now would issue immediately
     * and deterministically: nothing queued ahead of it and a free
     * window entry. This is the vault-side half of the machine's eager
     * local-issue condition (Machine::issueDram) — under it, enqueue()
     * reduces to exactly one issue() whose bank/bus interactions depend
     * only on state already committed, so delivering the request via an
     * arrival event and delivering it synchronously are
     * indistinguishable.
     */
    bool readyForImmediateIssue() const { return live_ == 0 && issued_ < window_; }

    /**
     * Invoked (when set) at the end of a completion event that leaves the
     * controller with no issued or queued requests. Callback-driven phase
     * execution (Machine::beginPhase) uses it to detect quiescence of
     * traffic that carries no completion callback of its own — the
     * permutable append engine's row flushes can be the chronologically
     * last events of a phase.
     */
    using DrainFn = InlineFunction<void(), 8>;
    DrainFn onDrained;

  private:
    void trySchedule();
    void issue(MemRequest &&req);

    EventQueue &eq_;
    const AddressMap &map_;
    unsigned vault_;
    DramTiming timing_;
    unsigned window_;

    std::vector<Bank> banks_;
    /**
     * FR-FCFS queue as a vector ring: entries [head_, size) are the
     * waiting requests in arrival order; picked entries tombstone
     * (size == 0) in place and pop cheaply once they reach head_.
     */
    std::vector<MemRequest> queue_;
    std::size_t head_ = 0; ///< index of the oldest entry
    std::size_t live_ = 0; ///< non-tombstone entries in queue_
    unsigned issued_ = 0;
    Tick busFreeAt_ = 0;

    /** Flush coalesced append bytes up to the current cursor. */
    void flushAppendRows(bool final_flush);

    bool permArmed_ = false;
    PermutableRegion permRegion_{};
    std::uint64_t permCursor_ = 0;
    std::uint64_t permFlushed_ = 0; ///< bytes already issued to DRAM

    VaultStats stats_;
};

} // namespace mondrian

#endif // MONDRIAN_DRAM_VAULT_HH
