/** @file Unit tests for the event queue and clock domains. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace mondrian;

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, ExecutedCount)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, ResetClearsState)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// --- Calendar-queue specifics: the bucketed front-end must preserve the
// exact (tick, insertion-seq) total order of the plain priority queue. ---

TEST(EventQueue, RandomizedOrderMatchesReference)
{
    // Pseudo-random ticks spanning buckets, bucket boundaries, ties and
    // far-future overflow territory; compare execution order against a
    // stable sort by (tick, insertion index).
    EventQueue eq;
    std::uint64_t lcg = 12345;
    std::vector<Tick> when;
    std::vector<int> order;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        Tick t;
        switch ((lcg >> 33) % 4) {
          case 0: // near now, heavy ties
            t = (lcg >> 40) % 64;
            break;
          case 1: // within the calendar window
            t = (lcg >> 35) % 100000;
            break;
          case 2: // bucket-width multiples (boundary ticks)
            t = ((lcg >> 40) % 128) * 2048;
            break;
          default: // far future: overflow heap
            t = 10'000'000 + (lcg >> 35) % 100'000'000;
            break;
        }
        when.push_back(t);
        eq.schedule(t, [&order, i] { order.push_back(i); });
    }
    std::vector<int> expect(n);
    for (int i = 0; i < n; ++i)
        expect[i] = i;
    std::stable_sort(expect.begin(), expect.end(),
                     [&](int a, int b) { return when[a] < when[b]; });
    eq.run();
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.executed(), static_cast<std::uint64_t>(n));
}

TEST(EventQueue, EventsScheduledDuringDrainKeepOrder)
{
    // Callbacks scheduling at the current tick and slightly ahead, into
    // the bucket currently being drained.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(10, [&] { order.push_back(2); }); // same tick: after 1
        eq.schedule(11, [&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(12, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, FarFutureEventsMigrateFromOverflow)
{
    // Events far beyond the calendar window must still run in order, and
    // scheduling near-now events after a far jump must work.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1, [&] { order.push_back(0); });
    eq.schedule(100'000'000, [&] {
        order.push_back(2);
        eq.scheduleIn(5, [&] { order.push_back(3); });
    });
    eq.schedule(50'000'000, [&] { order.push_back(1); });
    eq.schedule(200'000'000, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 200'000'000u);
}

TEST(EventQueue, ScheduleAfterStopKeepsOrder)
{
    // Machine::beginPhase stops run() at phase quiescence with events
    // still pending (one far beyond the window), then schedules the next
    // phase at and just after now(): those join the window's first
    // bucket in (tick, seq) order with the leftovers.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.requestStop();
    });
    eq.schedule(10, [&] { order.push_back(3); });
    eq.schedule(90'000'000, [&] { order.push_back(5); });
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 2u);
    eq.schedule(11, [&] { order.push_back(4); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2, 4, 5}));
}

TEST(EventQueue, MoveOnlyCallbacks)
{
    // InlineFunction carries move-only captures (std::function could not).
    EventQueue eq;
    auto payload = std::make_unique<int>(7);
    int seen = 0;
    eq.schedule(1, [p = std::move(payload), &seen] { seen = *p; });
    eq.run();
    EXPECT_EQ(seen, 7);
}

TEST(EventQueue, ResetAfterMixedScheduling)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(static_cast<Tick>(i) * 4096, [] {});
    eq.schedule(500'000'000, [] {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    // Queue is fully usable after reset.
    int fired = 0;
    eq.schedule(3, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
}

namespace {

// The open-loop served shape: a callback running on an otherwise empty
// queue schedules the next arrival ~50 us ahead, then dispatches a phase
// of near-now event chains.
constexpr Tick kBurstStart = 1000;
constexpr Tick kNextArrival = kBurstStart + 50'000'000; // 50 us in ps
constexpr int kChains = 100;
constexpr int kSteps = 100;
constexpr int kArrivalLabel = -1;

/** Gap before step @p s + 1 of chain @p c: 1..50,000 ticks, so the
 *  chains spread over a few hundred calendar buckets. */
Tick
chainGap(int c, int s)
{
    return static_cast<Tick>((c * 7919 + s * 104729) % 50000 + 1);
}

/**
 * The burst as a script over labelled events: `schedule(when, label)`
 * files an event, fire() runs one and `fired` records labels in
 * execution order. The same script drives the queue under test and the
 * reference.
 */
struct Burst
{
    std::function<void(Tick, int)> schedule;
    std::vector<int> fired;

    void
    start(Tick now)
    {
        schedule(kNextArrival, kArrivalLabel);
        for (int c = 0; c < kChains; ++c)
            schedule(now + chainGap(c, 0), c * kSteps);
    }

    void
    fire(Tick now, int label)
    {
        fired.push_back(label);
        if (label == kArrivalLabel)
            return;
        const int c = label / kSteps;
        const int s = label % kSteps;
        if (s + 1 < kSteps)
            schedule(now + chainGap(c, s + 1), label + 1);
    }
};

} // namespace

TEST(EventQueue, IdleFarEventKeepsNearNowBucketsSmall)
{
    // Re-anchoring an idle window at the far event's tick instead of
    // now() clamps every near-now event into one current bucket that
    // re-sorts its whole pending tail after each append: the sort's
    // input grows quadratically (~100 keys per pop here).
    EventQueue eq;
    Burst run;
    run.schedule = [&](Tick when, int label) {
        eq.schedule(when, [&run, &eq, label] { run.fire(eq.now(), label); });
    };
    eq.schedule(kBurstStart, [&] { run.start(eq.now()); });
    eq.run();

    // Reference: a binary heap ordered by (tick, insertion seq).
    using Entry = std::tuple<Tick, std::uint64_t, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::uint64_t seq = 0;
    Burst ref;
    ref.schedule = [&](Tick when, int label) {
        heap.emplace(when, seq++, label);
    };
    ref.start(kBurstStart);
    while (!heap.empty()) {
        const auto [when, s, label] = heap.top();
        heap.pop();
        ref.fire(when, label);
    }

    ASSERT_EQ(run.fired.size(),
              static_cast<std::size_t>(kChains * kSteps + 1));
    EXPECT_EQ(run.fired, ref.fired);
    EXPECT_EQ(eq.now(), kNextArrival);
    EXPECT_LE(eq.sortedKeys(), 2 * eq.executed());
}

TEST(ClockDomain, Conversions)
{
    ClockDomain cd(1000); // 1 GHz
    EXPECT_EQ(cd.cyclesToTicks(5), 5000u);
    EXPECT_EQ(cd.ticksToCycles(5999), 5u);
    EXPECT_EQ(cd.nextEdge(0), 0u);
    EXPECT_EQ(cd.nextEdge(1), 1000u);
    EXPECT_EQ(cd.nextEdge(1000), 1000u);
}
