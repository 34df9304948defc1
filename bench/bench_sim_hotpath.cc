/**
 * @file
 * bench_sim_hotpath: wall-clock benchmark of the simulator's two hottest
 * layers — the event kernel and trace replay — plus the end-to-end
 * smoke campaign. Emits BENCH_sim_hotpath.json with an append-only
 * `history` trajectory so events-per-wall-second is tracked PR over PR.
 *
 * Usage: bench_sim_hotpath [log2_tuples] [seed] [out.json]
 *                          [--label NAME] [--append]
 *   defaults: 20 42 BENCH_sim_hotpath.json --label dev
 *
 * The event kernel sweeps 64 / 256 / 1024 concurrent self-rescheduling
 * chains: 64 matches a lightly loaded machine, 256 and 1024 match the
 * in-flight event population of a 16-core campaign replay (cores x
 * outstanding windows x DRAM/NoC hops). The trajectory metric
 * `events_per_sec` is the aggregate throughput over the whole sweep, so
 * a queue that only wins when buckets hold one event cannot game it.
 *
 * The campaign section reports simulated-event counts (RunResult::
 * simEvents summed over the grid) and events per wall second — the
 * end-to-end number the event-count-reduction work moves.
 *
 * `--append` preserves the history array of an existing out.json and
 * adds this run as a new point; without it the file starts fresh with
 * the recorded seed-tree entry plus this run. Top-level
 * events_per_sec / campaign_wall_seconds always mirror the latest
 * history point.
 */

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/grammar.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/core_model.hh"
#include "engine/trace_recorder.hh"
#include "sim/event_queue.hh"
#include "system/campaign.hh"

using namespace mondrian;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Seed-tree reference numbers (PR 1: std::function event queue,
 * unencoded traces; Release -O3, reference dev machine). They anchor the
 * history trajectory when a fresh file is written.
 */
struct SeedBaseline
{
    double eventsPerSec = 1.21e7;
    double campaignWallSeconds = 26.99; // smoke grid @ 2^20, --jobs 1
    unsigned campaignLog2 = 20;
};

/** One scale of the event-kernel sweep. */
struct KernelPoint
{
    unsigned chains = 0;
    std::uint64_t events = 0;
    double seconds = 0.0;
    double eventsPerSec = 0.0;
};

/**
 * Event-kernel throughput at one load level: @p chains self-rescheduling
 * chains with pseudo-random near-now deltas — the scheduling pattern the
 * calendar queue serves. Every scale runs the same total event count so
 * the aggregate weighs each load level equally.
 */
KernelPoint
benchEventKernel(unsigned chains)
{
    EventQueue eq;
    const std::uint64_t per_chain = std::uint64_t{6400000} / chains;

    struct Chain
    {
        EventQueue *eq;
        std::uint64_t left;
        std::uint64_t seed;

        static void
        step(Chain *ch)
        {
            if (--ch->left == 0)
                return;
            ch->seed = ch->seed * 6364136223846793005ull +
                       1442695040888963407ull;
            Tick d = 1 + ((ch->seed >> 40) & 4095);
            ch->eq->scheduleIn(d, [ch]() { step(ch); });
        }
    };

    std::vector<Chain> chain_state(chains);
    for (unsigned c = 0; c < chains; ++c) {
        chain_state[c] = Chain{&eq, per_chain,
                               static_cast<std::uint64_t>(c) * 2654435761u};
        Chain *ch = &chain_state[c];
        eq.schedule(static_cast<Tick>(c), [ch]() { Chain::step(ch); });
    }
    auto t0 = Clock::now();
    eq.run();

    KernelPoint p;
    p.chains = chains;
    p.seconds = secondsSince(t0);
    p.events = eq.executed();
    p.eventsPerSec = static_cast<double>(p.events) / p.seconds;
    return p;
}

/** Fixed-latency local memory path for the replay microbench. */
class FixedPath : public MemoryPath
{
  public:
    FixedPath(EventQueue &eq, Tick latency) : eq_(eq), latency_(latency) {}

    Result
    request(Tick when, Addr, std::uint32_t, bool, bool, bool,
            DoneFn done) override
    {
        Tick t = when + latency_;
        eq_.schedule(t, [done = std::move(done), t]() { done(t); });
        return Result{false, 0};
    }

  private:
    EventQueue &eq_;
    Tick latency_;
};

struct ReplayResult
{
    std::uint64_t traceOps = 0;     ///< materialized (RLE) ops
    std::uint64_t expandedOps = 0;  ///< ops after run expansion
    double rleSeconds = 0.0;
    double expandedSeconds = 0.0;
    double opsPerSec = 0.0;         ///< expanded ops / rle wall second
};

double
replayOnce(const KernelTrace &trace)
{
    EventQueue eq;
    FixedPath path(eq, 50000);
    CoreConfig cfg;
    cfg.period = 1000;
    cfg.streamDepth = 8;
    TraceCore core(eq, cfg, path, 0);
    core.setTrace(&trace);
    auto t0 = Clock::now();
    core.start();
    eq.run();
    double dt = secondsSince(t0);
    if (!core.finished())
        fatal("replay microbench deadlocked");
    return dt;
}

/**
 * Trace replay: a 2^22-tuple streaming scan recorded RLE and replayed,
 * against the same trace expanded to per-chunk ops. Identical timing is
 * asserted (the RLE determinism contract); the wall-clock gap is the
 * encoding's win.
 */
ReplayResult
benchTraceReplay()
{
    TraceRecorder rec;
    const std::uint64_t tuples = std::uint64_t{1} << 22;
    rec.scanFixed(0, tuples, 16, 256, true, 1.25);
    rec.fence();
    KernelTrace rle = rec.take();

    KernelTrace expanded;
    for (const TraceOp &op : rle.expanded())
        expanded.add(op);

    ReplayResult r;
    r.traceOps = rle.size();
    r.expandedOps = rle.expandedSize();
    r.rleSeconds = replayOnce(rle);
    r.expandedSeconds = replayOnce(expanded);
    r.opsPerSec = static_cast<double>(r.expandedOps) / r.rleSeconds;
    return r;
}

/**
 * Extract the verbatim entry list of the "history" array from a report
 * this bench wrote earlier (between the opening '[' and its matching
 * ']'). Returns false when the file or the array is absent — the caller
 * then starts a fresh trajectory.
 */
bool
readHistoryEntries(const std::string &path, std::string &entries)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::string key = "\"history\": [";
    const std::size_t at = text.find(key);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + key.size();
    int depth = 1;
    const std::size_t begin = i;
    for (; i < text.size() && depth > 0; ++i) {
        if (text[i] == '[')
            ++depth;
        else if (text[i] == ']')
            --depth;
    }
    if (depth != 0)
        return false;
    entries = text.substr(begin, i - 1 - begin);
    // Trim whitespace so the splice re-indents cleanly.
    while (!entries.empty() && std::isspace(
               static_cast<unsigned char>(entries.back())))
        entries.pop_back();
    while (!entries.empty() && std::isspace(
               static_cast<unsigned char>(entries.front())))
        entries.erase(entries.begin());
    return entries.size() > 0;
}

void
writeHistoryEntry(JsonWriter &w, const std::string &pr, double events_per_sec,
                  double campaign_wall, const std::string &notes)
{
    w.beginObject();
    w.member("pr", pr);
    w.member("events_per_sec", events_per_sec);
    w.member("campaign_wall_seconds", campaign_wall);
    w.member("notes", notes);
    w.endObject();
}

/**
 * Parse positional argument @p text as an unsigned integer in
 * [0, @p max]; print an error naming @p what and exit 2 on garbage,
 * a sign, or an out-of-range value.
 */
std::uint64_t
parseUnsignedArg(const char *text, const char *what, std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseUint(text, max, v)) {
        std::fprintf(stderr,
                     "bench_sim_hotpath: %s must be an integer in [0, "
                     "%llu] (got '%s')\n",
                     what, static_cast<unsigned long long>(max), text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    unsigned log2_tuples = 20;
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_sim_hotpath.json";
    std::string label = "dev";
    bool append = false;

    int positional = 0;
    for (int a = 1; a < argc; ++a) {
        if (!std::strcmp(argv[a], "--append")) {
            append = true;
        } else if (!std::strcmp(argv[a], "--label") && a + 1 < argc) {
            label = argv[++a];
        } else if (positional == 0) {
            // The campaign grid accepts scales up to 2^32 tuples.
            log2_tuples = static_cast<unsigned>(
                parseUnsignedArg(argv[a], "log2_tuples", 32));
            ++positional;
        } else if (positional == 1) {
            seed = parseUnsignedArg(argv[a], "seed", UINT64_MAX);
            ++positional;
        } else {
            out_path = argv[a];
            ++positional;
        }
    }

    const SeedBaseline base;

    std::printf("=== sim hot-path benchmark ===\n");

    const unsigned kSweep[] = {64, 256, 1024};
    std::vector<KernelPoint> kernel;
    std::uint64_t kernel_events = 0;
    double kernel_seconds = 0.0;
    for (unsigned chains : kSweep) {
        KernelPoint p = benchEventKernel(chains);
        std::printf("event kernel %4u chains: %.3g events/s "
                    "(%llu events, %.2fs)\n",
                    p.chains, p.eventsPerSec,
                    static_cast<unsigned long long>(p.events), p.seconds);
        kernel_events += p.events;
        kernel_seconds += p.seconds;
        kernel.push_back(p);
    }
    const double events_per_sec =
        static_cast<double>(kernel_events) / kernel_seconds;
    std::printf("event kernel aggregate: %.3g events/s\n", events_per_sec);

    ReplayResult replay = benchTraceReplay();
    std::printf("trace replay: %.3g expanded-ops/s; RLE %.2fs vs expanded "
                "%.2fs (%llu ops encode %llu)\n",
                replay.opsPerSec, replay.rleSeconds, replay.expandedSeconds,
                static_cast<unsigned long long>(replay.traceOps),
                static_cast<unsigned long long>(replay.expandedOps));

    // End-to-end: the smoke grid (cpu, nmp, mondrian x scan, join) at the
    // requested scale, serial so the number is a pure hot-path measure.
    CampaignGrid grid = smokeGrid();
    grid.log2Tuples = {log2_tuples};
    grid.seeds = {seed};
    CampaignRunner campaign(grid);
    auto t0 = Clock::now();
    CampaignReport report = campaign.run(1);
    double campaign_seconds = secondsSince(t0);
    std::uint64_t sim_events = 0;
    for (const CampaignRun &run : report.runs)
        sim_events += run.result.simEvents;
    const double campaign_events_per_sec =
        static_cast<double>(sim_events) / campaign_seconds;
    std::printf("smoke campaign @ 2^%u: %.2fs wall, %llu simulated events, "
                "%.3g events/s (%zu runs)\n",
                log2_tuples, campaign_seconds,
                static_cast<unsigned long long>(sim_events),
                campaign_events_per_sec, report.runs.size());

    std::string prior_history;
    const bool have_prior =
        append && readHistoryEntries(out_path, prior_history);
    if (append && !have_prior)
        std::fprintf(stderr,
                     "--append: no usable history in %s; starting fresh\n",
                     out_path.c_str());

    JsonWriter w;
    w.beginObject();
    w.member("schema", "mondrian-bench-sim-hotpath-v2");
    w.member("paper", "conf_isca_DrumondDMUPFGP17");
    // Latest trajectory point, mirrored for cheap consumption (CI floor).
    w.member("events_per_sec", events_per_sec);
    w.member("campaign_wall_seconds", campaign_seconds);
    w.key("event_kernel").beginObject();
    w.member("aggregate_events_per_sec", events_per_sec);
    w.member("events", kernel_events);
    w.key("sweep").beginArray();
    for (const KernelPoint &p : kernel) {
        w.beginObject();
        w.member("chains", std::uint64_t{p.chains});
        w.member("events_per_sec", p.eventsPerSec);
        w.member("events", p.events);
        w.member("seconds", p.seconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.key("trace_replay").beginObject();
    w.member("trace_ops_per_sec", replay.opsPerSec);
    w.member("rle_ops", replay.traceOps);
    w.member("expanded_ops", replay.expandedOps);
    w.member("rle_trace_bytes", replay.traceOps * sizeof(TraceOp));
    w.member("expanded_trace_bytes",
             replay.expandedOps * sizeof(TraceOp));
    w.member("rle_seconds", replay.rleSeconds);
    w.member("expanded_seconds", replay.expandedSeconds);
    w.endObject();
    w.key("campaign").beginObject();
    w.member("grid", "smoke");
    w.member("log2_tuples", std::uint64_t{log2_tuples});
    w.member("seed", seed);
    w.member("runs", std::uint64_t{report.runs.size()});
    w.member("jobs", std::uint64_t{1});
    w.member("wall_seconds", campaign_seconds);
    w.member("sim_events", sim_events);
    w.member("events_per_sec", campaign_events_per_sec);
    w.endObject();
    w.key("history").beginArray();
    if (have_prior) {
        w.rawValue(prior_history);
    } else {
        writeHistoryEntry(
            w, "seed", base.eventsPerSec, base.campaignWallSeconds,
            "committed numbers from the reference machine (PR 1 tree: "
            "std::function event queue, unencoded traces)");
    }
    writeHistoryEntry(w, label, events_per_sec, campaign_seconds,
                      "kernel-sweep aggregate events/s; smoke campaign @ "
                      "2^" + std::to_string(log2_tuples) + ", jobs=1");
    w.endArray();
    w.endObject();

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     out_path.c_str());
        return 2;
    }
    out << w.str() << '\n';
    std::fprintf(stderr, "results written to %s\n", out_path.c_str());
    return 0;
}
