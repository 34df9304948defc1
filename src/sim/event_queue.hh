/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-order event queue drives every timing model in the
 * simulator. Events are arbitrary callables scheduled at an absolute tick;
 * ties are broken by insertion order so simulation is deterministic.
 *
 * The queue is built for the simulator's dominant pattern — millions of
 * near-now events (bank timings, bus bursts, completion callbacks landing
 * nanoseconds ahead) — and is allocation-free on that path:
 *
 *  - callbacks are InlineFunction, not std::function, so every capture
 *    lives inside the event (no per-event new; a capture larger than
 *    Callback::kInlineBytes does not compile);
 *  - every callback lives in a chunked, pointer-stable slot arena and
 *    executes in place — an event is never moved or copied between its
 *    schedule and its invocation;
 *  - a calendar (bucketed) front-end covers a sliding window of
 *    kHorizon ticks in kWidth-tick buckets; a bucket holds only compact
 *    24-byte ordering keys, sorted lazily when the window reaches it, so
 *    popping is a cursor increment — no per-pop min-scan, no tombstones,
 *    no compaction;
 *  - an occupancy bitmap with a one-word summary lets the window skip
 *    runs of empty buckets in one rotate-and-count;
 *  - the rare far-future event files its ordering key in an overflow
 *    binary heap, and the key migrates into the calendar when the window
 *    reaches it;
 *  - same-tick completion bursts coalesce: scheduleCoalesced() appends a
 *    callback to the previously scheduled event as a "follower" when
 *    that is provably order-preserving, eliding the queue insert and pop
 *    entirely (see the member comment for the exactness condition).
 *
 * Ordering is exactly (tick, insertion seq) — the same total order as the
 * previous std::function/priority_queue kernel, so replacing the queue
 * changes no simulation result, only its speed.
 */

#ifndef MONDRIAN_SIM_EVENT_QUEUE_HH
#define MONDRIAN_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/inline_function.hh"

namespace mondrian {

/** Calendar queue of timed callbacks; the heart of the simulator. */
class EventQueue
{
  public:
    /**
     * Inline capacity covers every closure the build schedules (the
     * widest is a vault completion carrying a MemRequest::Callback, 32
     * bytes); a larger one does not compile.
     */
    using Callback = InlineFunction<void(), 32>;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when (>= now). The
     * callable is constructed directly in queue storage — no intermediate
     * Callback object, no per-event allocation.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        place(when, std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F &&cb)
    {
        schedule(now_ + delta, std::forward<F>(cb));
    }

    /**
     * Schedule @p cb at @p when, coalescing it into the most recently
     * scheduled event when that is provably order-preserving. A coalesced
     * callback becomes a "follower" of that event: it runs inside the
     * event's pop, after the event's own callback (and its earlier
     * followers), and costs no queue insert, no ordering key and no pop.
     *
     * The exactness condition, and why the result is output-identical:
     * events order by (tick, insertion seq). Callback @p cb may join
     * event E only while (a) it targets E's tick, (b) no schedule() call
     * has happened since E was scheduled, and (c) E has not yet executed.
     * Under (b), no event in the system holds a sequence number between
     * E and the would-be position of @p cb, so running @p cb inside E's
     * pop — after E and E's earlier followers — occupies exactly the
     * global-order slot direct scheduling would have given it. Any
     * intervening schedule() breaks (b) and the callback schedules
     * normally, itself becoming the next coalescing candidate. (c) is
     * decided by comparing E's (tick, seq) against the event currently
     * executing: the queue pops in global order, so E is still pending
     * iff its key is lexicographically greater. E may lie beyond the
     * calendar window: its key then waits in the overflow heap, while
     * its slot, and so its followers, stay in the arena.
     *
     * The simulator routes completion traffic here: bursts of requests
     * acknowledged at one tick (permutable-store acks, network responses
     * released together) each land while the previous ack is the last
     * scheduled event, and collapse into one real event. With coalescing
     * toggled off this is plain schedule().
     */
    template <typename F>
    void
    scheduleCoalesced(Tick when, F &&cb)
    {
        if (coalesceOn_ && coalSlot_ != kNilSlot && when == coalWhen_ &&
            nextSeq_ == coalStamp_ &&
            (when > now_ || (when == now_ && coalSeq_ > curSeq_))) {
            appendFollower(std::forward<F>(cb));
            return;
        }
        const std::uint32_t si = place(when, std::forward<F>(cb));
        if (coalesceOn_) {
            coalSlot_ = si;
            coalWhen_ = when;
            coalSeq_ = nextSeq_ - 1;
            coalStamp_ = nextSeq_;
        }
    }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events (followers count toward it). */
    std::size_t pending() const { return size_ + pendingFollowers_; }

    /** Events popped from the queue since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Keys handed to the lazy bucket sort since construction: the sort's
     * total input, one add per sort call. On a healthy schedule it stays
     * a small multiple of executed(); a bucket re-sorting its whole
     * pending tail after every append makes it grow quadratically.
     */
    std::uint64_t sortedKeys() const { return sortedKeys_; }

    /** Callbacks absorbed as followers (queue events *not* created). */
    std::uint64_t coalesced() const { return coalesced_; }

    /**
     * Toggle completion coalescing; off, scheduleCoalesced() degrades to
     * schedule(). Output-identical either way (see scheduleCoalesced());
     * executed() + coalesced() is invariant under the toggle.
     */
    void setCoalescing(bool on) { coalesceOn_ = on; }

    /**
     * Run until the queue drains or stop is requested. Returns the final
     * tick. Callbacks run in place (no event is moved or copied);
     * destroying or resetting the queue from inside a callback is not
     * supported.
     */
    Tick run();

    /**
     * Ask run() to return after the event currently executing completes,
     * leaving any remaining events pending. Used by callback-driven phase
     * execution (Machine::beginPhase) to stop the loop at phase
     * quiescence exactly where the old drain-to-empty loop stopped — the
     * trailing events (e.g. permutable flush completions) stay queued
     * for the next phase, as before. The request is consumed by the
     * run() that observes it.
     */
    void requestStop() { stopRequested_ = true; }

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** No-slot sentinel (slot indices are arena offsets). */
    static constexpr std::uint32_t kNilSlot = ~std::uint32_t{0};

    /**
     * One arena slot: the callback plus the follower chain built by
     * scheduleCoalesced(). For an event slot, head/tail delimit its
     * follower list; for a follower slot, head links the next follower.
     * Slots are pointer-stable (chunked arena), so callbacks execute in
     * place even when their own execution schedules and grows the arena.
     */
    struct alignas(64) Slot
    {
        Callback cb;
        std::uint32_t head = kNilSlot;
        std::uint32_t tail = kNilSlot;
    };

    static constexpr unsigned kChunkBits = 9; ///< 512 slots per chunk
    static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;

    /**
     * One calendar bucket: compact ordering keys only (the callbacks live
     * in the slot arena). keys[0..cursor) are executed; keys[cursor..)
     * are pending, and sorted by (when, seq) once `sorted` catches up to
     * keys.size() — the sort runs lazily when the window pops the
     * bucket, so schedule() is a plain append.
     *
     * Aligned to its 32 bytes so no bucket straddles a cache line.
     * Unaligned, the calendar's construction took twice as long (about
     * 6 us instead of 3 us) whenever malloc happened to place the array
     * at 16 mod 64, which made Machine set-up time depend on what the
     * process had allocated before.
     */
    struct alignas(32) Bucket
    {
        struct Key
        {
            Tick when;
            std::uint64_t seq;
            std::uint32_t slot;
        };
        std::vector<Key> keys;
        std::uint32_t cursor = 0; ///< executed prefix
        std::uint32_t sorted = 0; ///< keys[0..sorted) in (when,seq) order

        bool live() const { return cursor < keys.size(); }
        void
        clear()
        {
            keys.clear();
            cursor = 0;
            sorted = 0;
        }
    };

    // Geometry tuned on the paper-grid profile: buckets narrow enough
    // that each holds a handful of events, a window wide enough
    // (~0.5 us) that DRAM/NoC latencies land inside the calendar.
    static constexpr unsigned kBucketBits = 12; ///< 4096 buckets
    static constexpr std::size_t kNumBuckets = std::size_t{1} << kBucketBits;
    static constexpr unsigned kWidthBits = 7; ///< 128 ticks (ps) each
    static constexpr Tick kWidth = Tick{1} << kWidthBits;
    /** Window the calendar covers ahead of base_ (~0.5 us). */
    static constexpr Tick kHorizon = kWidth * kNumBuckets;

    // Invariant (scripts/check_invariants.sh): bucket count and window
    // width are powers of two — bucketIndexOf masks instead of dividing,
    // and the occupancy bitmap's word math assumes it.
    static_assert(kNumBuckets > 0 && (kNumBuckets & (kNumBuckets - 1)) == 0,
                  "calendar bucket count must be a power of two");
    static_assert(kWidth > 0 && (kWidth & (kWidth - 1)) == 0,
                  "calendar bucket width must be a power of two");

    static std::size_t bucketIndexOf(Tick t)
    {
        return static_cast<std::size_t>(t >> kWidthBits) & (kNumBuckets - 1);
    }

    [[noreturn]] void schedulePastPanic(Tick when) const;

    Slot &
    slot(std::uint32_t i)
    {
        // Nearly every live slot index is small (LIFO freelist reuse), so
        // the first chunk gets a cached direct pointer.
        if (i < kChunkSlots) [[likely]]
            return chunk0_[i];
        return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
    }

    /**
     * Allocate an arena slot holding @p cb. Free slots chain through
     * their `head` field (intrusive LIFO freelist), so allocation is two
     * loads and release is two stores — no side structure.
     */
    template <typename F>
    std::uint32_t
    allocSlot(F &&cb)
    {
        std::uint32_t i = freeHead_;
        if (i != kNilSlot) {
            freeHead_ = slot(i).head;
        } else {
            if ((slotCount_ & (kChunkSlots - 1)) == 0)
                growArena();
            i = static_cast<std::uint32_t>(slotCount_++);
        }
        Slot &s = slot(i);
        s.cb.emplace(std::forward<F>(cb));
        // head doubles as the freelist link; reset it. tail needs no
        // reset: appendFollower writes it before the first read.
        s.head = kNilSlot;
        return i;
    }

    void growArena();

    /**
     * schedule(): put @p cb in an arena slot and file its key into its
     * bucket, or into the overflow heap when it lies beyond the window.
     * @return the slot.
     */
    template <typename F>
    std::uint32_t
    place(Tick when, F &&cb)
    {
        if (when < now_)
            schedulePastPanic(when);
        const Bucket::Key k{when, nextSeq_++, allocSlot(std::forward<F>(cb))};
        ++size_;
        // The window's first bucket holds now() (the window only moves
        // to pop), so when >= now() >= base_ and rel cannot wrap.
        const std::uint64_t rel =
            (when >> kWidthBits) - (base_ >> kWidthBits);
        if (rel >= kNumBuckets)
            placeOverflow(k);
        else
            fileKey(k);
        return k.slot;
    }

    /** Append @p k to its bucket, which must lie inside the window. */
    void
    fileKey(const Bucket::Key &k)
    {
        const std::size_t idx = bucketIndexOf(k.when);
        buckets_[idx].keys.push_back(k);
        if (occupied_[idx >> 6] == 0)
            summary_ |= std::uint64_t{1} << (idx >> 6);
        occupied_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    /** Chain @p cb onto the current coalescing candidate's slot. */
    template <typename F>
    void
    appendFollower(F &&cb)
    {
        std::uint32_t fi = allocSlot(std::forward<F>(cb));
        Slot &head = slot(coalSlot_);
        if (head.head == kNilSlot)
            head.head = fi;
        else
            slot(head.tail).head = fi;
        head.tail = fi;
        ++coalesced_;
        ++pendingFollowers_;
    }

    void placeOverflow(const Bucket::Key &k);

    /** Migrate overflow keys that now fall inside the window. */
    void pullOverflow();

    /** Advance base_ to the first bucket with live events. */
    void advanceToOccupied();

    /**
     * Position the window on the bucket holding the minimal pending
     * event and return it, tail-sorted so keys[cursor] is that minimum.
     * Queue must not be empty.
     */
    Bucket &currentBucket();

    /** Release slot @p i back to the freelist. */
    void
    freeSlot(std::uint32_t i)
    {
        // The stale callback stays in the slot; allocSlot's emplace
        // destroys it on reuse, and reset()/teardown destroy the rest.
        slot(i).head = freeHead_;
        freeHead_ = i;
    }

    // The two-level occupancy index: occupied_ has one bit per bucket,
    // summary_ one bit per occupied_ word. 4096 buckets / 64 buckets per
    // word = exactly one summary word, which is what makes the scan for
    // the next occupied bucket a single rotate-and-count.
    static_assert(kNumBuckets / 64 <= 64,
                  "summary_ holds one bit per occupancy word");

    std::vector<Bucket> buckets_;         ///< kNumBuckets rings
    std::vector<std::uint64_t> occupied_; ///< bitmap over buckets
    std::uint64_t summary_ = 0; ///< bit w set iff occupied_[w] != 0
    std::vector<Bucket::Key> overflow_;   ///< min-heap beyond horizon
    /** Pointer-stable callback arena; keys reference slots by index. */
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    Slot *chunk0_ = nullptr; ///< chunks_[0].get() (hot-path shortcut)
    std::uint32_t freeHead_ = kNilSlot; ///< intrusive slot freelist
    std::size_t slotCount_ = 0; ///< arena high-water mark
    Tick base_ = 0;           ///< start tick of the current bucket
    std::size_t size_ = 0;      ///< total pending events
    std::size_t pendingFollowers_ = 0; ///< coalesced, not yet run
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t sortedKeys_ = 0;
    /** Seq of the event currently (or last) executed — with now_, the
     *  "has the coalescing candidate already run" comparison point. */
    std::uint64_t curSeq_ = ~std::uint64_t{0};
    // Coalescing candidate: the last scheduleCoalesced()-scheduled event.
    std::uint32_t coalSlot_ = kNilSlot;
    Tick coalWhen_ = 0;
    std::uint64_t coalSeq_ = 0;
    std::uint64_t coalStamp_ = 0;
    bool stopRequested_ = false;
    bool coalesceOn_ = false;
};

/**
 * A clock domain converts between cycles and ticks for a component running
 * at a fixed frequency (CPU 2 GHz, NMP cores 1 GHz, DRAM 625 MHz, ...).
 */
class ClockDomain
{
  public:
    /** @param period_ticks clock period in ticks (ps). */
    explicit ClockDomain(Tick period_ticks) : period_(period_ticks) {}

    Tick period() const { return period_; }

    /** Ticks covering @p cycles whole cycles. */
    Tick cyclesToTicks(Cycles cycles) const { return cycles * period_; }

    /** Whole cycles elapsed by @p t (floor). */
    Cycles ticksToCycles(Tick t) const { return t / period_; }

    /** Next clock edge at or after @p t. */
    Tick
    nextEdge(Tick t) const
    {
        Tick rem = t % period_;
        return rem == 0 ? t : t + (period_ - rem);
    }

  private:
    Tick period_;
};

} // namespace mondrian

#endif // MONDRIAN_SIM_EVENT_QUEUE_HH
