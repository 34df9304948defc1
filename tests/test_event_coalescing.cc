/**
 * @file
 * Output-identity tests for the event-count-reduction transforms
 * (docs/perf.md): completion coalescing, closed-form RLE run batching,
 * eager local issue, and the calendar-queue empty-bucket skip-ahead.
 * Each transform claims to change only *how fast* the simulator reaches
 * its answer, never the answer — these tests pin that claim at four
 * levels: the event queue against an exact (tick, insertion-seq)
 * oracle, the cache batch against the per-access loop it replaces, whole
 * Machine runs against their untransformed twins, and the smoke
 * campaign's report against the same campaign run with the shortcuts
 * off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cache.hh"
#include "engine/ops.hh"
#include "engine/workload.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "system/campaign.hh"
#include "system/machine.hh"
#include "system/traffic.hh"

using namespace mondrian;

namespace {

std::uint64_t
lcgNext(std::uint64_t &s)
{
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s;
}

} // namespace

// --- Completion coalescing: followers vs. plain scheduling -------------

TEST(EventCoalescing, FollowersRunInsideHeadEvent)
{
    // The second tick lies ~19 calendar windows ahead: the head's key
    // starts in the overflow heap, its slot and followers in the arena.
    for (const Tick t : {Tick{10}, Tick{10'000'000}}) {
        EventQueue eq;
        eq.setCoalescing(true);
        std::vector<int> order;
        eq.scheduleCoalesced(t, [&] { order.push_back(0); });
        eq.scheduleCoalesced(t, [&] { order.push_back(1); });
        eq.scheduleCoalesced(t, [&] { order.push_back(2); });
        EXPECT_EQ(eq.pending(), 3u); // followers still count as pending
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
        // One real pop, two absorbed callbacks.
        EXPECT_EQ(eq.executed(), 1u);
        EXPECT_EQ(eq.coalesced(), 2u);
        EXPECT_EQ(eq.pending(), 0u);
    }
}

TEST(EventCoalescing, InterveningScheduleBreaksChain)
{
    // A plain schedule() between two coalescing candidates consumes a
    // sequence number, so the second candidate may no longer join the
    // first — doing so would run it ahead of the intervening event.
    EventQueue eq;
    eq.setCoalescing(true);
    std::vector<int> order;
    eq.scheduleCoalesced(10, [&] { order.push_back(0); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.scheduleCoalesced(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.executed(), 3u);
    EXPECT_EQ(eq.coalesced(), 0u);
}

TEST(EventCoalescing, ExecutingCandidateIsNotJoined)
{
    // scheduleCoalesced() from inside the candidate's own callback: the
    // candidate has already popped, so appending a follower would be a
    // use-after-run. The (now, seq) pending check must route the callback
    // through a real schedule instead.
    EventQueue eq;
    eq.setCoalescing(true);
    std::vector<int> order;
    eq.scheduleCoalesced(10, [&] {
        order.push_back(0);
        eq.scheduleCoalesced(10, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.coalesced(), 0u);
}

namespace {

/** Calendar window of EventQueue (4096 buckets of 128 ticks). */
constexpr Tick kHorizon = 4096 * 128;

/**
 * Deterministic scheduling script mixing every coalescing-relevant
 * pattern: same-tick completion bursts, chain-breaking plain schedules,
 * ticks in the past-relative-to-candidate, far-future bursts whose keys
 * start in the overflow heap, and bursts issued at runtime from inside
 * executing events, some beyond the window and some at the executing
 * event's own tick. The script is identical for both queues; only the
 * coalescing toggle differs, so the pop order must not.
 */
std::vector<int>
runCoalescingScript(bool coalesce, std::uint64_t &executed,
                    std::uint64_t &coalesced)
{
    EventQueue eq;
    eq.setCoalescing(coalesce);
    std::vector<int> order;
    int next_id = 0;

    // Runtime stage: each burst head reschedules the next burst through
    // scheduleCoalesced, the completion pattern the vault path produces.
    struct Driver
    {
        EventQueue &eq;
        std::vector<int> &order;
        std::uint64_t rng;
        int rounds;
        int &next_id;

        void
        burst()
        {
            Tick t = eq.now();
            switch ((lcgNext(rng) >> 40) % 8) {
              case 0: // beyond the window: the candidate's key overflows
                t += kHorizon + (lcgNext(rng) >> 40) % kHorizon;
                break;
              case 1: // this tick, from inside the executing candidate
                break;
              default:
                t += 1 + (lcgNext(rng) >> 40) % 300;
                break;
            }
            const unsigned n = 1 + (lcgNext(rng) >> 40) % 6;
            for (unsigned i = 0; i < n; ++i) {
                const int id = next_id++;
                if ((lcgNext(rng) >> 40) % 8 == 0) // occasional breaker
                    eq.schedule(t, [this, id] { order.push_back(id); });
                else
                    eq.scheduleCoalesced(
                        t, [this, id] { order.push_back(id); });
            }
            if (--rounds > 0) {
                const int id = next_id++;
                eq.scheduleCoalesced(t, [this, id] {
                    order.push_back(id);
                    burst();
                });
            }
        }
    };
    Driver driver{eq, order, 99, 400, next_id};

    // Static stage: a pseudo-random pre-scheduled mix.
    std::uint64_t rng = 7;
    Tick frontier = 0;
    for (int i = 0; i < 1500; ++i) {
        switch ((lcgNext(rng) >> 33) % 8) {
          case 0: // advance the frontier
            frontier += 1 + (lcgNext(rng) >> 40) % 500;
            break;
          case 1: { // chain breaker at the same tick
            const int id = next_id++;
            eq.schedule(frontier, [&order, id] { order.push_back(id); });
            break;
          }
          case 2: { // far-future burst: followers chain onto an overflow key
            const Tick t = frontier + 10'000'000 +
                           (lcgNext(rng) >> 35) % 100'000'000;
            const unsigned n = 1 + (lcgNext(rng) >> 40) % 3;
            for (unsigned k = 0; k < n; ++k) {
                const int id = next_id++;
                eq.scheduleCoalesced(t,
                                     [&order, id] { order.push_back(id); });
            }
            break;
          }
          default: { // completion burst at the frontier
            const int id = next_id++;
            eq.scheduleCoalesced(frontier,
                                 [&order, id] { order.push_back(id); });
            break;
          }
        }
    }
    const int kick = next_id++;
    eq.schedule(frontier + 1, [&order, &driver, kick] {
        order.push_back(kick);
        driver.burst();
    });

    eq.run();
    executed = eq.executed();
    coalesced = eq.coalesced();
    return order;
}

} // namespace

TEST(EventCoalescing, RandomizedScriptMatchesUncoalescedOrder)
{
    std::uint64_t ex_on = 0, co_on = 0, ex_off = 0, co_off = 0;
    std::vector<int> on = runCoalescingScript(true, ex_on, co_on);
    std::vector<int> off = runCoalescingScript(false, ex_off, co_off);
    ASSERT_EQ(on.size(), off.size());
    EXPECT_EQ(on, off);
    // The transform must have actually engaged...
    EXPECT_GT(co_on, 0u);
    EXPECT_EQ(co_off, 0u);
    // ...and the logical event count is invariant under it.
    EXPECT_EQ(ex_on + co_on, ex_off);
}

// --- Calendar-queue skip-ahead: empty buckets, overflow, wraps ---------

namespace {

/**
 * Pop trace (now, id) over a pathologically sparse schedule. Ids are
 * handed out in schedule order, and @p scheduled collects every
 * (tick, id) as it is filed.
 */
std::vector<std::pair<Tick, int>>
runSparseSchedule(std::vector<std::pair<Tick, int>> &scheduled,
                  std::uint64_t &executed)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> trace;
    int next_id = 0;
    auto record = [&](Tick t, int id) {
        scheduled.emplace_back(t, id);
        eq.schedule(t, [&trace, &eq, id] {
            trace.emplace_back(eq.now(), id);
        });
    };

    // Gaps sized to stress every scan case: within a word, to the next
    // word, across many words, to the last calendar bucket, and past the
    // horizon into the overflow heap. (Bucket width 128 ticks, 4096
    // buckets, 64 buckets per occupancy word.)
    const Tick kWidth = 128;
    Tick t = 5;
    for (Tick gap : {Tick{1}, Tick{130}, kWidth * 63, kWidth * 64,
                     kWidth * 63 * 64, kWidth * 4095, kWidth * 4096,
                     kWidth * 4096 * 7 + 1}) {
        record(t, next_id++);
        t += gap;
    }
    // Same-tick burst right after the longest gap.
    for (int i = 0; i < 5; ++i)
        record(t, next_id++);
    // A chain that keeps hopping nearly a full window ahead, forcing
    // repeated wraps and overflow migrations while the queue is live.
    struct Hopper
    {
        EventQueue &eq;
        std::vector<std::pair<Tick, int>> &trace;
        std::vector<std::pair<Tick, int>> &scheduled;
        int left;
        int &next_id;
        void
        hop()
        {
            const int id = next_id++;
            const Tick delta = 128 * 4000 + 17;
            scheduled.emplace_back(eq.now() + delta, id);
            eq.scheduleIn(delta, [this, id] {
                trace.emplace_back(eq.now(), id);
                if (--left > 0)
                    hop();
            });
        }
    };
    Hopper hopper{eq, trace, scheduled, 20, next_id};
    const int kick = next_id++;
    scheduled.emplace_back(t + 3, kick);
    eq.schedule(t + 3, [&hopper, &trace, &eq, kick] {
        trace.emplace_back(eq.now(), kick);
        hopper.hop();
    });

    eq.run();
    executed = eq.executed();
    return trace;
}

} // namespace

TEST(EventQueueSkipAhead, SparseScheduleMatchesTickIdOrder)
{
    // Every event is filed at or after now() with a fresh, larger id, so
    // the exact pop order is all scheduled events sorted by (tick, id).
    std::vector<std::pair<Tick, int>> scheduled;
    std::uint64_t executed = 0;
    const auto trace = runSparseSchedule(scheduled, executed);
    std::sort(scheduled.begin(), scheduled.end());
    EXPECT_EQ(trace, scheduled);
    EXPECT_EQ(trace.size(), static_cast<std::size_t>(executed));
}

// --- Closed-form RLE runs: cache batch vs. per-access loop -------------

namespace {

CacheConfig
smallCache()
{
    CacheConfig c;
    c.sizeBytes = 4 * kKiB; // 32 sets x 2 ways x 64 B: conflicts are easy
    c.associativity = 2;
    c.lineBytes = 64;
    c.prefetchDepth = 2;
    return c;
}

/** Drive @p n accesses one at a time; return plain-hit prefix length. */
std::uint32_t
expandedRun(Cache &c, Addr addr, std::uint32_t size, std::uint32_t n,
            bool is_write)
{
    for (std::uint32_t k = 0; k < n; ++k) {
        // Peek-free emulation of the batch's stop condition: stop BEFORE
        // the first non-plain access, leaving it unissued.
        Cache probe_twin = c; // tag-only model: copying is cheap & exact
        CacheAccessResult r = probe_twin.access(addr + Addr(k) * size,
                                                is_write);
        if (!r.hit || r.prefetchHit)
            return k;
        c.access(addr + Addr(k) * size, is_write);
    }
    return n;
}

} // namespace

TEST(CacheRun, BatchMatchesPerAccessLoop)
{
    // Two identically warmed caches; one consumes runs closed-form, the
    // other expands every access. Consumed counts, stats, and subsequent
    // replacement behavior must all agree.
    Cache batched(smallCache());
    Cache expanded(smallCache());
    auto warm = [](Cache &c) {
        // Demand-walk lines 0..31 plain-resident; the walk's last demand
        // miss prefetch-inserts the two lines just past it, so the region
        // ends at a prefetch-tagged boundary...
        for (Addr a = 0; a < 2048; a += 64)
            c.access(a, false);
        c.insertPrefetch(2048); // idempotent if the walk beat us to it
        // ...and dirty a line that set-aliases warmed line 31.
        c.access(10176, true);
    };
    warm(batched);
    warm(expanded);

    struct RunCase
    {
        Addr addr;
        std::uint32_t size;
        std::uint32_t n;
        bool write;
    };
    const RunCase cases[] = {
        {0, 8, 32, false},     // wholly inside warmed lines: full consume
        {512, 64, 40, false},  // walks into the prefetch-tagged boundary
        {1920, 64, 4, false},  // hits the prefetched line mid-run
        {0, 64, 16, true},     // write run: dirty bits must propagate
        {10176, 16, 8, false}, // starts on the conflict line, runs off it
        {64, 48, 30, false},   // element size straddling line boundaries
    };
    for (const RunCase &rc : cases) {
        const std::uint32_t got =
            batched.accessRun(rc.addr, rc.size, rc.n, rc.write);
        const std::uint32_t want =
            expandedRun(expanded, rc.addr, rc.size, rc.n, rc.write);
        EXPECT_EQ(got, want) << "run at " << rc.addr;
        EXPECT_EQ(batched.stats().accesses, expanded.stats().accesses);
        EXPECT_EQ(batched.stats().hits, expanded.stats().hits);
    }
    // LRU stamps must have advanced identically: force evictions in set 0
    // and require the same writeback decisions from both caches.
    for (Addr a : {Addr{16384}, Addr{0}, Addr{8192}, Addr{24576}}) {
        CacheAccessResult rb = batched.access(a, false);
        CacheAccessResult re = expanded.access(a, false);
        EXPECT_EQ(rb.hit, re.hit) << a;
        EXPECT_EQ(rb.writebackAddr.has_value(),
                  re.writebackAddr.has_value())
            << a;
    }
    EXPECT_EQ(batched.stats().writebacks, expanded.stats().writebacks);
}

// --- Machine level: every transform toggled off vs. the default --------

namespace {

MemGeometry
tinyGeo()
{
    MemGeometry g;
    g.numStacks = 2;
    g.vaultsPerStack = 8;
    g.banksPerVault = 4;
    g.rowBytes = 256; // small rows: RLE runs cross row boundaries often
    g.vaultBytes = 1 * kMiB;
    return g;
}

struct MachineRun
{
    std::vector<PhaseResult> phases;
    std::uint64_t simEvents;
    std::uint64_t executed;
    std::uint64_t coalesced;
    std::uint64_t elided;
};

MachineRun
runJoinWith(SystemKind kind, const ExecConfig &exec_overrides)
{
    SystemConfig cfg = makeSystem(kind, tinyGeo());
    cfg.exec.coalesceCompletions = exec_overrides.coalesceCompletions;
    cfg.exec.rleRunBatching = exec_overrides.rleRunBatching;
    cfg.exec.eagerLocalIssue = exec_overrides.eagerLocalIssue;
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = 4096;
    WorkloadGenerator gen(wl);
    auto pair = gen.makeJoinPair(pool);
    auto exec = runJoin(pool, cfg.exec, pair.r, pair.s);
    Machine m(cfg, pool);
    MachineRun out;
    for (const PhaseExec &phase : exec.phases)
        out.phases.push_back(m.runPhase(phase));
    out.simEvents = m.simEvents();
    out.executed = m.eventsExecuted();
    out.coalesced = m.eventsCoalesced();
    out.elided = m.eventsElided();
    return out;
}

void
expectIdenticalTiming(const MachineRun &a, const MachineRun &b,
                      const char *what)
{
    ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].time, b.phases[i].time)
            << what << " phase " << a.phases[i].name;
        EXPECT_EQ(a.phases[i].dramBytes, b.phases[i].dramBytes)
            << what << " phase " << a.phases[i].name;
        EXPECT_EQ(a.phases[i].activations, b.phases[i].activations)
            << what << " phase " << a.phases[i].name;
    }
    EXPECT_EQ(a.simEvents, b.simEvents) << what;
}

} // namespace

TEST(MachineTransforms, EachToggleIsOutputNeutral)
{
    // For each system kind: baseline with every transform off, then each
    // transform enabled alone, then all together. All timing results and
    // the logical event count must be bit-equal across the whole grid —
    // the transforms may only move work between executed, coalesced and
    // elided.
    for (SystemKind kind : {SystemKind::kCpu, SystemKind::kNmp,
                            SystemKind::kMondrian}) {
        ExecConfig off;
        off.coalesceCompletions = false;
        off.rleRunBatching = false;
        off.eagerLocalIssue = false;
        const MachineRun base = runJoinWith(kind, off);
        EXPECT_EQ(base.coalesced, 0u);
        EXPECT_EQ(base.elided, 0u);
        EXPECT_EQ(base.simEvents, base.executed);

        const char *names[] = {"coalesce", "rle", "eager", "all"};
        for (int which = 0; which < 4; ++which) {
            ExecConfig e = off;
            if (which == 0 || which == 3)
                e.coalesceCompletions = true;
            if (which == 1 || which == 3)
                e.rleRunBatching = true;
            if (which == 2 || which == 3)
                e.eagerLocalIssue = true;
            const MachineRun run = runJoinWith(kind, e);
            expectIdenticalTiming(base, run, names[which]);
        }
    }
}

namespace {

/** One phase on nmp over tinyGeo(), where unit u is homed on vault u:
 *  each (unit, op) pair appends the op to that unit's trace. */
MachineRun
runNmpPhase(const std::vector<std::pair<unsigned, TraceOp>> &ops,
            bool eager)
{
    SystemConfig cfg = makeSystem(SystemKind::kNmp, tinyGeo());
    cfg.exec.eagerLocalIssue = eager;
    MemoryPool pool(cfg.geo);
    PhaseExec phase;
    phase.name = "crafted";
    phase.traces.resize(cfg.exec.numUnits);
    for (const auto &[unit, op] : ops)
        phase.traces[unit].add(op);
    Machine m(cfg, pool);
    MachineRun out;
    out.phases.push_back(m.runPhase(phase));
    out.simEvents = m.simEvents();
    out.executed = m.eventsExecuted();
    out.coalesced = m.eventsCoalesced();
    out.elided = m.eventsElided();
    return out;
}

} // namespace

TEST(MachineTransforms, EagerIssueYieldsToAPendingRemoteArrival)
{
    // Unit 0 reads row 3 of bank 0 in its own vault 0, then, from inside
    // that read's completion, row 1: a local request to an idle vault,
    // which issues eagerly unless an arrival is pending there. Unit 1
    // computes, then stores to row 2 of the same bank from afar. Sweep
    // the store's start and size until it arrives on the tick the second
    // read issues at. The store's arrival event was scheduled first, so
    // it must reach the bank first with the shortcut on too; an eager
    // issue that skipped the pending-arrivals check would overtake it.
    const SystemConfig cfg = makeSystem(SystemKind::kNmp, tinyGeo());
    const AddressMap map(cfg.geo);
    auto row = [&map](std::uint64_t r) {
        return map.encode(DecodedAddr{0, 0, 0, 0, r, 0});
    };
    const TraceOp first = TraceOp::loadBlocking(row(3), 64);
    const Tick second_issue = runNmpPhase({{0, first}}, true).phases[0].time;
    std::size_t races = 0;
    for (std::uint32_t bytes = 8; bytes <= 256; bytes += 8) {
        for (std::uint32_t cycles = 0; cycles < 60; ++cycles) {
            // The store is the only packet on the network, so a fresh
            // twin of it times the store's arrival.
            const Tick arrival = Network(cfg.geo, cfg.topo)
                                     .delay(1, 0, bytes,
                                            Tick{cycles} * cfg.core.period);
            races += arrival == second_issue ? 1 : 0;
            const std::vector<std::pair<unsigned, TraceOp>> ops = {
                {0, first},
                {0, TraceOp::loadBlocking(row(1), 64)},
                {1, TraceOp::compute(cycles)},
                {1, TraceOp::store(row(2), bytes)}};
            SCOPED_TRACE("store of " + std::to_string(bytes) +
                         " bytes after " + std::to_string(cycles) +
                         " cycles");
            expectIdenticalTiming(runNmpPhase(ops, false),
                                  runNmpPhase(ops, true), "eager");
        }
    }
    EXPECT_GT(races, 0u) << "no sweep point lands the store on the tick "
                         << second_issue << " of the second read";
}

TEST(MachineTransforms, ScanRleNeutralUnderPrefetchWarmup)
{
    // The CPU scan is the prefetch-dominated extreme: nearly every run
    // access hits a prefetched line, i.e. the closed form's fallback
    // boundary. The transform must consume nothing it should not.
    SystemConfig cfg = makeSystem(SystemKind::kCpu, tinyGeo());
    MemoryPool pool(cfg.geo);
    WorkloadConfig wl;
    wl.tuples = 8192;
    Relation rel = WorkloadGenerator(wl).makeUniform(pool, wl.tuples);
    auto runOne = [&](bool rle) {
        SystemConfig c = cfg;
        c.exec.rleRunBatching = rle;
        auto exec = runScan(pool, c.exec, rel, 1);
        Machine m(c, pool);
        const Tick time = m.runPhase(exec.phases[0]).time;
        return std::make_pair(time, m.simEvents());
    };
    auto on = runOne(true);
    auto off = runOne(false);
    EXPECT_EQ(on.first, off.first);
    EXPECT_EQ(on.second, off.second);
}

TEST(MachineTransforms, SmokeReportIdenticalWithShortcutsOff)
{
    // The campaign-level oracle: every smoke-grid job, run with one
    // shortcut off (each alone, then all three), must assemble into the
    // byte-identical report of the default campaign.
    const std::string expected =
        campaignReportJson(CampaignRunner(smokeGrid()).run(1));
    const char *names[] = {"coalesce", "rle", "eager", "all"};
    for (int which = 0; which < 4; ++which) {
        CampaignReport report;
        for (const CampaignJob &job :
             beginCampaign(smokeGrid(), nullptr, report)) {
            SystemConfig cfg = job.systemConfig();
            if (which == 0 || which == 3)
                cfg.exec.coalesceCompletions = false;
            if (which == 1 || which == 3)
                cfg.exec.rleRunBatching = false;
            if (which == 2 || which == 3)
                cfg.exec.eagerLocalIssue = false;
            report.runs[job.index].result =
                ServedRunner(job.workload(), job.traffic)
                    .run(cfg, job.scenario);
        }
        finishCampaign(report);
        EXPECT_EQ(campaignReportJson(report), expected) << names[which];
    }
}
