/**
 * @file
 * mondrian_campaign: CLI driver for parallel simulation campaigns.
 *
 * Expands a declarative design-space grid — {system x scenario x scale x
 * seed x geometry x exec-override x zipf-theta x traffic} — into
 * independent runs,
 * executes them across hardware threads, and writes a deterministic JSON
 * report (the artifact CI archives on every push). The scenario axis
 * holds whole analytics pipelines: single ops (scan/sort/groupby/join),
 * named presets (sessions) or ">"-joined stage chains.
 *
 * Examples:
 *   mondrian_campaign --smoke --out smoke.json
 *   mondrian_campaign --systems cpu,nmp,mondrian --ops join,groupby \
 *       --log2-tuples 12,14 --seeds 42,43 --jobs 8 --out sweep.json
 *   mondrian_campaign --systems cpu,mondrian --scenario sessions \
 *       --log2-tuples 12 --out sessions.json
 *   mondrian_campaign --systems cpu,mondrian --ops join \
 *       --geometry 4x8,4x16,4x32 --exec-ablation base,radix=9+tlb=16 \
 *       --zipf 0,0.75 --dry-run
 *   mondrian_campaign --systems mondrian --scenario sessions \
 *       --log2-tuples 12 --traffic poisson,lambda=2000,queries=32 \
 *       --out served.json
 *
 * The report for a given grid is byte-identical for any --jobs value;
 * scripts/check_determinism.sh guards that contract in CI.
 */

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/file_io.hh"
#include "common/grammar.hh"
#include "common/logging.hh"
#include "net/socket.hh"
#include "system/analysis.hh"
#include "system/campaign.hh"
#include "system/coordinator.hh"
#include "system/report.hh"

using namespace mondrian;

namespace {

/** Set by SIGINT/SIGTERM; checked between runs (cooperative abort). */
std::atomic<bool> g_interrupt{false};

// A store from a signal handler is only async-signal-safe when the
// atomic is lock-free; a library-lock implementation could deadlock
// against the very thread the signal interrupted.
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler needs a lock-free atomic abort flag");

extern "C" void
interruptHandler(int)
{
    // relaxed: the flag is polled between runs; the pollers' mutex (or
    // the ThreadPool queue lock) provides the ordering for everything
    // the abort path reads afterwards.
    g_interrupt.store(true, std::memory_order_relaxed);
}

void
installSignalHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = interruptHandler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

void
usage(const char *prog)
{
    std::fprintf(stderr,
        "usage: %s [options]\n"
        "\n"
        "Grid selection:\n"
        "  --smoke                tiny CI grid (3 systems x 2 ops, 2^10 tuples)\n"
        "  --paper                full paper grid (6 systems x 4 ops, 2^15 tuples)\n"
        "  --systems a,b,...      systems: cpu nmp nmp-perm nmp-seq\n"
        "                         mondrian-noperm mondrian (default: all)\n"
        "  --ops a,b,...          operators: scan sort groupby join (default: all);\n"
        "                         shorthand for the degenerate scenarios\n"
        "  --scenario a,b,...     scenario axis; each spec is a single op,\n"
        "                         a preset (sessions) or a '>'-joined stage\n"
        "                         chain, e.g. filter>join>reduceByKey>sortByKey\n"
        "                         (see --list for the grammar)\n"
        "  --log2-tuples a,b,...  scale factors, log2 of |S| (default: 15)\n"
        "  --seeds a,b,...        workload seeds (default: 42)\n"
        "  --geometry a,b,...     memory geometry axis; each spec is\n"
        "                         SxV[xB][:row=N][:vault=SIZE] or 'default',\n"
        "                         e.g. 2x8 8x32 4x16:row=2048 4x16:vault=256KiB\n"
        "  --exec-ablation a,b,.. exec-config ablation axis; each point is\n"
        "                         'base' or '+'-joined knobs radix=N chunk=N\n"
        "                         tlb=N, e.g. base,radix=9,chunk=256+tlb=16\n"
        "  --zipf t1,t2,...       Zipf key-skew axis (default: 0)\n"
        "  --traffic SPEC         open-loop traffic axis point; SPEC is\n"
        "                         'none' (single query, the default) or\n"
        "                         ','-joined items: poisson|fixed,\n"
        "                         lambda=QPS, queries=N, warmup=N,\n"
        "                         inflight=N, seed=N, mix=a:W+b:W,\n"
        "                         mix-zipf=T; e.g.\n"
        "                         'poisson,lambda=2000,queries=64'.\n"
        "                         Repeat the flag for more axis points\n"
        "                         (see docs/cli.md)\n"
        "\n"
        "Execution:\n"
        "  --jobs N               worker threads; 0 = hardware threads (default: 1)\n"
        "  --out PATH             write the JSON report to PATH (default: stdout)\n"
        "  --resume REPORT        reuse results from a prior report\n"
        "                         (mondrian-campaign-v4): grid points whose\n"
        "                         8-coordinate grid key matches are not\n"
        "                         re-simulated\n"
        "  --dry-run              print the expanded job list (all axes,\n"
        "                         baseline pairing, cache hits) and exit\n"
        "                         without simulating\n"
        "  --quiet                suppress per-run progress on stderr\n"
        "  --list                 print known systems, ops, scenarios and\n"
        "                         preset geometries, then exit\n"
        "  --help                 this text\n"
        "\n"
        "Distributed execution (docs/distributed.md):\n"
        "  --workers N            shard runs across N worker subprocesses\n"
        "                         with heartbeats, per-job timeouts and\n"
        "                         bounded retries; crashed or hung workers\n"
        "                         are killed and their jobs reassigned\n"
        "                         (0 = off, run in-process; ignores --jobs\n"
        "                         when set; default: 0)\n"
        "  --journal PATH         crash-safe journal: append each completed\n"
        "                         run to PATH as it finishes; an existing\n"
        "                         journal is replayed before running, so a\n"
        "                         killed campaign resumes where it stopped\n"
        "  --job-timeout S        per-attempt wall-clock budget, seconds\n"
        "                         (default: 600)\n"
        "  --heartbeat-timeout S  kill a worker silent for S seconds\n"
        "                         (default: 30)\n"
        "  --retries N            extra attempts before a job is marked\n"
        "                         permanently failed (default: 2)\n"
        "  --fault-inject SPEC    deterministic fault injection for tests\n"
        "                         and CI chaos runs: comma-separated\n"
        "                         kind@index, kind in {crash,hang,corrupt,\n"
        "                         disconnect}; fires on the job's first\n"
        "                         attempt only unless suffixed '!' (every\n"
        "                         attempt), e.g. crash@2,hang@5,corrupt@1;\n"
        "                         each index must be below the job count\n"
        "\n"
        "Remote workers (TCP; docs/distributed.md):\n"
        "  --listen HOST:PORT     also accept remote --worker-connect\n"
        "                         workers on HOST:PORT (port 0 = kernel-\n"
        "                         assigned); remote workers join the same\n"
        "                         pull-based queue, heartbeats, retries\n"
        "                         and journal as local ones. With\n"
        "                         --workers 0 the campaign is remote-only\n"
        "  --hello-token T        shared secret remote workers must\n"
        "                         present in their hello; mismatches are\n"
        "                         rejected (default: empty)\n"
        "  --worker-cache DIR     worker-side result cache: each worker\n"
        "                         persists finished jobs' exact result\n"
        "                         JSON in DIR and answers re-dispatched\n"
        "                         grid points from it without\n"
        "                         re-simulating (local and remote alike)\n"
        "  --worker-connect H:P   run as a remote worker: dial a --listen\n"
        "                         coordinator and serve jobs over TCP;\n"
        "                         also honors --hello-token,\n"
        "                         --worker-cache and --reconnect N (the\n"
        "                         consecutive drop/redial budget,\n"
        "                         default 3)\n"
        "\n"
        "Exit codes: 0 success; 1 internal error; 2 usage/config error;\n"
        "3 interrupted by SIGINT/SIGTERM (journal flushed, no report);\n"
        "4 completed with permanently failed runs (report written, see\n"
        "its failed_runs array); 5 network setup or handshake failed\n"
        "(--listen bind, --worker-connect dial or rejected hello).\n",
        prog);
}

void
printList()
{
    std::printf("systems:\n");
    for (SystemKind k : allSystemKinds())
        std::printf("  %s\n", systemKindName(k));
    std::printf("\nops (degenerate single-op scenarios):\n");
    for (OpKind op : allOpKinds())
        std::printf("  %s\n", opKindName(op));
    std::printf("\nscenario presets:\n");
    for (const Scenario &sc : scenarioPresets()) {
        std::string stages;
        for (const ScenarioStage &st : sc.stages)
            stages += (stages.empty() ? "" : ">") + st.spark;
        std::printf("  %-10s = %s\n", sc.name.c_str(), stages.c_str());
    }
    std::printf("\nscenario stage tokens (chain with '>'; first stage "
                "runs on a generated\nrelation, later stages consume "
                "their predecessor's output):\n");
    for (const auto &[token, op] : scenarioStageTokens())
        std::printf("  %-16s -> %s\n", token.c_str(), opKindName(op));
    std::printf("\ngeometries (--geometry accepts a csv of specs):\n");
    std::printf("  default            = %s\n",
                geometryName(defaultGeometry()).c_str());
    std::printf("  SxV[xB][:row=N][:vault=SIZE], e.g. 2x8, 8x32, "
                "4x16:row=2048, 4x16:vault=256KiB\n");
    std::printf("\nexec-ablation points (--exec-ablation):\n");
    std::printf("  'base' or '+'-joined knobs radix=N chunk=N tlb=N, "
                "e.g. radix=9+tlb=16\n");
    std::printf("\ntraffic specs (--traffic, repeatable):\n");
    std::printf("  'none' (single query) or ','-joined items:\n");
    std::printf("  poisson|fixed lambda=QPS queries=N warmup=N inflight=N "
                "seed=N\n");
    std::printf("  mix=scenario:W+scenario:W mix-zipf=T, e.g. "
                "poisson,lambda=2000,queries=64\n");
}

/** The items of a CSV flag value; empty items are skipped. */
std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out = splitOn(s, ',');
    std::erase(out, "");
    return out;
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "mondrian_campaign: %s\n", msg.c_str());
    std::exit(2);
}

std::string
argValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc)
        die(std::string(flag) + " requires a value");
    return argv[++i];
}

/**
 * Parse @p s as an unsigned integer in [0, @p max]; exit 2 naming @p flag
 * on garbage or an out-of-range value.
 */
std::uint64_t
parseU64(const std::string &s, const char *flag,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t v = 0;
    if (parseUint(s, max, v))
        return v;
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
        die(std::string(flag) + ": '" + s + "' is not an unsigned integer");
    die(std::string(flag) + " must be in [0, " + std::to_string(max) + "]");
}

/** Parse @p s as a finite number; exit 2 naming @p flag otherwise. */
double
parseDouble(const std::string &s, const char *flag)
{
    double v = 0.0;
    if (!parseReal(s, v))
        die(std::string(flag) + ": '" + s + "' is not a number");
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    // Worker mode first: `mondrian_campaign --worker` is the
    // coordinator's subprocess entry point — no banner, no grid flags,
    // just the handshake over stdin/stdout and the job-serving loop
    // (docs/distributed.md).
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker") != 0)
            continue;
        std::string cache_dir;
        for (int j = 1; j + 1 < argc; ++j) {
            if (std::strcmp(argv[j], "--worker-cache") == 0)
                cache_dir = argv[j + 1];
        }
        return runCampaignWorker(cache_dir);
    }

    // Remote-worker mode: `mondrian_campaign --worker-connect HOST:PORT`
    // dials a --listen coordinator and serves jobs over TCP, rejoining
    // after connection drops (docs/distributed.md).
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--worker-connect") != 0)
            continue;
        if (i + 1 >= argc)
            die("--worker-connect requires HOST:PORT");
        ConnectWorkerOptions opt;
        for (int j = 1; j + 1 < argc; ++j) {
            if (std::strcmp(argv[j], "--hello-token") == 0) {
                opt.helloToken = argv[j + 1];
            } else if (std::strcmp(argv[j], "--worker-cache") == 0) {
                opt.cacheDir = argv[j + 1];
            } else if (std::strcmp(argv[j], "--reconnect") == 0) {
                opt.reconnectAttempts = static_cast<unsigned>(
                    parseU64(argv[j + 1], "--reconnect",
                             std::numeric_limits<unsigned>::max()));
            }
        }
        return runConnectWorker(argv[i + 1], opt);
    }

    // Presets first (regardless of position), so explicit grid flags
    // always override them: "--zipf 0.8 --smoke" keeps the skew.
    CampaignGrid grid = paperGrid();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke")
            grid = smokeGrid();
        else if (arg == "--paper")
            grid = paperGrid();
    }

    unsigned jobs = 1;
    unsigned workers = 0;
    std::string out_path;
    std::string resume_path;
    std::string journal_path;
    CoordinatorConfig coord_config;
    bool quiet = false;
    bool dry_run = false;
    // --ops and --scenario both populate the scenario axis: the first
    // occurrence replaces the preset default, later occurrences of
    // either flag append — so combining them never silently drops axis
    // values.
    bool scenarios_set = false;
    auto addScenario = [&](Scenario sc) {
        if (!scenarios_set) {
            grid.scenarios.clear();
            scenarios_set = true;
        }
        grid.scenarios.push_back(std::move(sc));
    };
    // --traffic is repeatable (one spec per occurrence — the spec grammar
    // itself uses ','); the first occurrence replaces the degenerate
    // default axis, later ones append.
    bool traffics_set = false;
    auto addTraffic = [&](TrafficSpec t) {
        if (!traffics_set) {
            grid.traffics.clear();
            traffics_set = true;
        }
        grid.traffics.push_back(std::move(t));
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--list") {
            printList();
            return 0;
        } else if (arg == "--smoke" || arg == "--paper") {
            // handled in the preset pass above
        } else if (arg == "--systems") {
            grid.systems.clear();
            for (const auto &name : splitCsv(argValue(argc, argv, i, "--systems"))) {
                SystemKind k;
                if (!systemKindFromName(name, k))
                    die("unknown system '" + name + "'");
                grid.systems.push_back(k);
            }
        } else if (arg == "--ops") {
            for (const auto &name : splitCsv(argValue(argc, argv, i, "--ops"))) {
                OpKind op;
                if (!opKindFromName(name, op))
                    die("unknown operator '" + name + "'");
                addScenario(degenerateScenario(op));
            }
        } else if (arg == "--scenario" || arg == "--scenarios") {
            for (const auto &spec :
                 splitCsv(argValue(argc, argv, i, "--scenario"))) {
                Scenario sc;
                std::string err;
                if (!scenarioFromSpec(spec, sc, err))
                    die("--scenario: " + err);
                addScenario(std::move(sc));
            }
        } else if (arg == "--log2-tuples") {
            grid.log2Tuples.clear();
            for (const auto &v : splitCsv(argValue(argc, argv, i, "--log2-tuples"))) {
                std::uint64_t l = parseU64(v, "--log2-tuples");
                if (l < 4 || l > 24)
                    die("--log2-tuples values must be in [4, 24]");
                grid.log2Tuples.push_back(static_cast<unsigned>(l));
            }
        } else if (arg == "--seeds") {
            grid.seeds.clear();
            for (const auto &v : splitCsv(argValue(argc, argv, i, "--seeds")))
                grid.seeds.push_back(parseU64(v, "--seeds"));
        } else if (arg == "--geometry") {
            grid.geometries.clear();
            for (const auto &spec : splitCsv(argValue(argc, argv, i, "--geometry"))) {
                MemGeometry geo;
                std::string err;
                if (!parseGeometrySpec(spec, geo, err))
                    die("--geometry '" + spec + "': " + err);
                grid.geometries.push_back(geo);
            }
        } else if (arg == "--exec-ablation") {
            grid.execOverrides.clear();
            for (const auto &spec : splitCsv(argValue(argc, argv, i, "--exec-ablation"))) {
                ExecOverride ov;
                std::string err;
                if (!parseExecOverride(spec, ov, err))
                    die("--exec-ablation '" + spec + "': " + err);
                grid.execOverrides.push_back(ov);
            }
        } else if (arg == "--zipf") {
            grid.zipfThetas.clear();
            for (const auto &v : splitCsv(argValue(argc, argv, i, "--zipf")))
                grid.zipfThetas.push_back(parseDouble(v, "--zipf"));
        } else if (arg == "--traffic") {
            const std::string spec = argValue(argc, argv, i, "--traffic");
            TrafficSpec t;
            std::string err;
            if (!parseTrafficSpec(spec, t, err)) // validates it too
                die("--traffic '" + spec + "': " + err);
            addTraffic(std::move(t));
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                parseU64(argValue(argc, argv, i, "--jobs"), "--jobs", 1024));
        } else if (arg == "--workers") {
            workers = static_cast<unsigned>(parseU64(
                argValue(argc, argv, i, "--workers"), "--workers", 256));
        } else if (arg == "--journal") {
            journal_path = argValue(argc, argv, i, "--journal");
        } else if (arg == "--job-timeout") {
            coord_config.jobTimeoutSec = parseDouble(
                argValue(argc, argv, i, "--job-timeout"), "--job-timeout");
            if (!(coord_config.jobTimeoutSec > 0.0)) // NaN too
                die("--job-timeout must be positive");
        } else if (arg == "--heartbeat-timeout") {
            coord_config.heartbeatTimeoutSec =
                parseDouble(argValue(argc, argv, i, "--heartbeat-timeout"),
                            "--heartbeat-timeout");
            if (!(coord_config.heartbeatTimeoutSec > 0.0)) // NaN too
                die("--heartbeat-timeout must be positive");
        } else if (arg == "--retries") {
            coord_config.maxRetries = static_cast<unsigned>(parseU64(
                argValue(argc, argv, i, "--retries"), "--retries", 16));
        } else if (arg == "--fault-inject") {
            const std::string spec =
                argValue(argc, argv, i, "--fault-inject");
            std::string err;
            if (!parseFaultInject(spec, coord_config.faults, err))
                die("--fault-inject: " + err);
        } else if (arg == "--listen") {
            coord_config.listenEndpoint =
                argValue(argc, argv, i, "--listen");
            Endpoint ep;
            std::string err;
            if (!parseEndpoint(coord_config.listenEndpoint, ep, err))
                die("--listen: " + err);
        } else if (arg == "--hello-token") {
            coord_config.helloToken =
                argValue(argc, argv, i, "--hello-token");
        } else if (arg == "--worker-cache") {
            coord_config.workerCacheDir =
                argValue(argc, argv, i, "--worker-cache");
        } else if (arg == "--reconnect") {
            die("--reconnect only applies to --worker-connect mode");
        } else if (arg == "--out") {
            out_path = argValue(argc, argv, i, "--out");
        } else if (arg == "--resume") {
            resume_path = argValue(argc, argv, i, "--resume");
        } else if (arg == "--dry-run") {
            dry_run = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            usage(argv[0]);
            die("unknown option '" + arg + "'");
        }
    }

    // Fail fast on empty axes, repeated axis points or invalid values —
    // a grid that cannot run must never emit an empty report.
    std::string grid_error;
    if (!validateGrid(grid, grid_error))
        die(grid_error);
    // A fault past the last job never fires, so a chaos run would pass
    // without injecting anything.
    for (const FaultInjection &f : coord_config.faults) {
        if (f.index >= grid.size())
            die("--fault-inject: " + std::string(faultKindName(f.kind)) +
                "@" + std::to_string(f.index) +
                " is past the last job index " +
                std::to_string(grid.size() - 1));
    }

    ResumeCache cache;
    bool have_cache = false;
    if (!resume_path.empty()) {
        std::string text, err;
        if (!readTextFile(resume_path, text, err) || !cache.load(text, err))
            die("cannot resume from '" + resume_path + "': " + err);
        std::fprintf(stderr, "resume: %zu cached grid points loaded from %s\n",
                     cache.size(), resume_path.c_str());
        have_cache = true;
    }

    // An existing journal means a previous (possibly killed) invocation
    // of this campaign: replay its completed runs into the cache before
    // simulating anything, then keep appending to it.
    std::ofstream journal_out;
    if (!journal_path.empty()) {
        if (std::string text, err; readTextFile(journal_path, text, err)) {
            const std::size_t n = cache.loadJournal(text);
            if (n > 0) {
                std::fprintf(stderr,
                             "journal: %zu completed runs read from %s\n",
                             n, journal_path.c_str());
                have_cache = true;
            }
        }
        journal_out.open(journal_path, std::ios::binary | std::ios::app);
        if (!journal_out)
            die("cannot open journal '" + journal_path + "' for append");
    }

    if (dry_run) {
        std::string listing;
        try {
            listing = campaignDryRun(grid, have_cache ? &cache : nullptr);
            if (!coord_config.listenEndpoint.empty()) {
                listing += "listen: " + coord_config.listenEndpoint +
                           " (remote --worker-connect workers join the "
                           "pull queue dynamically; hello token " +
                           (coord_config.helloToken.empty() ? "unset"
                                                            : "set") +
                           ")\n";
            }
        } catch (const std::exception &e) {
            die(e.what());
        }
        std::fwrite(listing.data(), 1, listing.size(), stdout);
        return 0;
    }

    installSignalHandlers();

    const std::size_t total = grid.size();
    const bool coordinated =
        workers > 0 || !coord_config.listenEndpoint.empty();
    std::string exec_mode = coordinated
                                ? "workers=" + std::to_string(workers)
                                : "jobs=" + std::to_string(jobs);
    if (!coord_config.listenEndpoint.empty())
        exec_mode += ", listening on " + coord_config.listenEndpoint;
    std::fprintf(stderr, "campaign: %s, %s\n", gridShape(grid).c_str(),
                 exec_mode.c_str());

    // One progress callback for both execution paths: journal first
    // (crash safety), then the human-readable line. Cached grid points
    // never reach it — they are already in the journal or the resume
    // report.
    std::size_t done = 0;
    const bool multi_axis = grid.geometries.size() > 1 ||
                            grid.execOverrides.size() > 1 ||
                            grid.zipfThetas.size() > 1;
    auto on_run_done = [&](const CampaignRun &r) {
        if (journal_out.is_open()) {
            journal_out << campaignJournalLine(r.job, r.result);
            journal_out.flush();
        }
        if (quiet)
            return;
        ++done;
        if (multi_axis) {
            std::fprintf(stderr, "[%zu/%zu] %s on %s (%s, %s, zipf %g): "
                         "%s ms\n",
                         done, total, r.result.op.c_str(),
                         r.result.system.c_str(),
                         geometryName(r.job.geometry).c_str(),
                         r.job.exec.name().c_str(), r.job.zipfTheta,
                         fmt(r.result.seconds() * 1e3, 3).c_str());
        } else {
            std::fprintf(stderr, "[%zu/%zu] %s on %s: %s ms\n", done,
                         total, r.result.op.c_str(),
                         r.result.system.c_str(),
                         fmt(r.result.seconds() * 1e3, 3).c_str());
        }
    };

    CampaignReport report;
    try {
        if (coordinated) {
            coord_config.workers = workers;
            CampaignCoordinator coordinator(grid, coord_config);
            // Bind before run() so network-setup failures exit with
            // their own code instead of reading as a campaign error.
            std::string listen_error;
            if (!coordinator.listen(listen_error)) {
                std::fprintf(stderr, "mondrian_campaign: %s\n",
                             listen_error.c_str());
                return kExitNetwork;
            }
            if (have_cache)
                coordinator.setResume(&cache);
            coordinator.setAbort(&g_interrupt);
            coordinator.onRunDone(on_run_done);
            report = coordinator.run();
        } else {
            CampaignRunner campaign(grid);
            if (have_cache)
                campaign.setResume(&cache);
            campaign.setAbort(&g_interrupt);
            campaign.onRunDone(on_run_done);
            report = campaign.run(jobs);
        }
    } catch (const std::exception &e) {
        die(std::string("campaign failed: ") + e.what());
    }
    if (have_cache) {
        std::fprintf(stderr, "resume: %zu of %zu grid points reused\n",
                     report.cachedRuns, total);
    }
    if (report.workerCacheHits > 0) {
        std::fprintf(stderr,
                     "worker-cache: %zu results served from worker "
                     "caches without re-simulation\n",
                     report.workerCacheHits);
    }

    if (report.aborted) {
        // Completed runs are safe in the journal (if one was given);
        // don't overwrite a good report with a partial document.
        std::fprintf(stderr,
                     "campaign: interrupted — %s; rerun with the same "
                     "grid to continue\n",
                     journal_path.empty()
                         ? "no journal was kept"
                         : ("journal " + journal_path + " is "
                            "flushed").c_str());
        return 3;
    }

    std::string json = campaignReportJson(report);

    if (out_path.empty()) {
        std::fwrite(json.data(), 1, json.size(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::string write_error;
        if (!writeTextFile(out_path, json + '\n', write_error))
            die(write_error);
        std::fprintf(stderr, "report written to %s (%zu bytes)\n",
                     out_path.c_str(), json.size() + 1);
    }

    if (!report.summaries.empty()) {
        std::fprintf(stderr, "\nsummary vs. %s baseline:\n%s",
                     report.baseline.c_str(),
                     renderSummaryMarkdown(report.summaries).c_str());
    }

    if (!report.failedRuns.empty()) {
        std::fprintf(stderr,
                     "campaign: %zu runs failed permanently (see the "
                     "report's failed_runs array)\n",
                     report.failedRuns.size());
        return 4;
    }
    return 0;
}
