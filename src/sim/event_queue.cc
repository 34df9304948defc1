#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mondrian {

namespace {

/** Key order within a bucket: (when, seq) ascending. */
struct EarlierKey
{
    template <typename K>
    bool
    operator()(const K &a, const K &b) const
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }
};

/** Heap comparator: orders the earliest key to the front. */
struct LaterKey
{
    template <typename K>
    bool
    operator()(const K &a, const K &b) const
    {
        return EarlierKey{}(b, a);
    }
};

} // namespace

EventQueue::EventQueue()
    : buckets_(kNumBuckets), occupied_(kNumBuckets / 64, 0)
{}

void
EventQueue::schedulePastPanic(Tick when) const
{
    panic("scheduling event in the past (when=%llu now=%llu)",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(now_));
}

void
EventQueue::growArena()
{
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    chunk0_ = chunks_.front().get();
}

void
EventQueue::placeOverflow(const Bucket::Key &k)
{
    overflow_.push_back(k);
    std::push_heap(overflow_.begin(), overflow_.end(), LaterKey{});
}

void
EventQueue::pullOverflow()
{
    while (!overflow_.empty() && overflow_.front().when < base_ + kHorizon) {
        std::pop_heap(overflow_.begin(), overflow_.end(), LaterKey{});
        fileKey(overflow_.back());
        overflow_.pop_back();
    }
}

void
EventQueue::advanceToOccupied()
{
    // Only called with the current bucket drained, so its occupancy bit
    // is clear and the scan starts at the bucket after it.
    std::size_t cur = bucketIndexOf(base_);
    std::size_t idx = (cur + 1) & (kNumBuckets - 1);
    std::size_t word = idx >> 6;
    std::uint64_t mask = occupied_[word] & (~std::uint64_t{0} << (idx & 63));
    // Rotate the one-word summary so the word after `word` lands at bit
    // 0 and count straight to the next non-empty word: a run of
    // thousands of empty buckets (sparse schedules, long DRAM gaps)
    // costs one shift+countr_zero.
    if (mask == 0) {
        sim_assert(summary_ != 0); // a bucket event exists
        const std::uint64_t after = summary_ >> 1 >> word;
        word = after != 0
                   ? word + 1 +
                         static_cast<std::size_t>(std::countr_zero(after))
                   : static_cast<std::size_t>(std::countr_zero(summary_));
        mask = occupied_[word];
    }
    const std::size_t found =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(mask));
    const std::size_t steps = (found - cur) & (kNumBuckets - 1);
    base_ += static_cast<Tick>(steps) * kWidth;
    // The window moved forward; overflow events may have entered it. They
    // are all beyond the old horizon, hence strictly beyond the bucket
    // just found (the window advances at most kNumBuckets-1 buckets), so
    // the minimum stays where we found it.
    pullOverflow();
}

EventQueue::Bucket &
EventQueue::currentBucket()
{
    sim_assert(size_ > 0);
    Bucket *b = &buckets_[bucketIndexOf(base_)];
    if (!b->live()) {
        if (size_ == overflow_.size()) {
            // Only far-future events remain: jump the window to the
            // earliest.
            base_ = overflow_.front().when & ~(kWidth - 1);
            pullOverflow();
            b = &buckets_[bucketIndexOf(base_)];
        }
        if (!b->live()) {
            advanceToOccupied();
            b = &buckets_[bucketIndexOf(base_)];
        }
    }
    // Lazy sort: keys appended since the last pop/peek join the order
    // here, once, instead of a min-scan on every pop.
    if (b->sorted < b->keys.size()) {
        auto first = b->keys.begin() + b->cursor;
        auto last = b->keys.end();
        const std::ptrdiff_t n = last - first;
        sortedKeys_ += static_cast<std::uint64_t>(n);
        if (n <= 8) {
            // Buckets typically hold a handful of keys; a branch-light
            // insertion sort beats the std::sort call for these.
            for (std::ptrdiff_t i = 1; i < n; ++i) {
                Bucket::Key k = first[i];
                std::ptrdiff_t j = i;
                for (; j > 0 && EarlierKey{}(k, first[j - 1]); --j)
                    first[j] = first[j - 1];
                first[j] = k;
            }
        } else {
            std::sort(first, last, EarlierKey{});
        }
        b->sorted = static_cast<std::uint32_t>(b->keys.size());
    }
    sim_assert(b->live());
    return *b;
}

Tick
EventQueue::run()
{
    while (size_ > 0) {
        Bucket &b = currentBucket();
        while (true) {
            const Bucket::Key k = b.keys[b.cursor++];
            now_ = k.when;
            curSeq_ = k.seq;
            ++executed_;
            --size_;
            const bool drained = !b.live();
            if (drained) {
                // Recycle the bucket *before* the callback runs: it may
                // immediately schedule back into it.
                b.clear();
                const std::size_t idx = bucketIndexOf(base_);
                occupied_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
                if (occupied_[idx >> 6] == 0)
                    summary_ &= ~(std::uint64_t{1} << (idx >> 6));
            }
            // Callbacks run in place: the slot arena is pointer-stable,
            // so a callback scheduling new events (growing the arena)
            // cannot move the closure out from under itself. The
            // follower chain is walked after the event's own callback;
            // scheduleCoalesced() guarantees nothing can append to an
            // event once it starts executing.
            Slot &s = slot(k.slot);
            s.cb();
            std::uint32_t fi = s.head;
            freeSlot(k.slot);
            while (fi != kNilSlot) {
                Slot &f = slot(fi);
                const std::uint32_t next = f.head;
                f.cb();
                --pendingFollowers_;
                freeSlot(fi);
                fi = next;
            }
            if (stopRequested_) {
                stopRequested_ = false;
                return now_;
            }
            if (drained || b.sorted < b.keys.size() || !b.live())
                break;
        }
    }
    return now_;
}

void
EventQueue::reset()
{
    for (auto &bucket : buckets_)
        bucket.clear();
    std::fill(occupied_.begin(), occupied_.end(), 0);
    summary_ = 0;
    overflow_.clear();
    chunks_.clear();
    chunk0_ = nullptr;
    freeHead_ = kNilSlot;
    slotCount_ = 0;
    base_ = 0;
    size_ = 0;
    pendingFollowers_ = 0;
    now_ = 0;
    nextSeq_ = 0;
    executed_ = 0;
    coalesced_ = 0;
    sortedKeys_ = 0;
    curSeq_ = ~std::uint64_t{0};
    coalSlot_ = kNilSlot;
    stopRequested_ = false;
}

} // namespace mondrian
