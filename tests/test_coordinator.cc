/**
 * @file
 * Distributed campaign execution: fault-injection specs,
 * the worker's spec-schema check, coordinator/worker byte-identity
 * under injected crash/hang/corrupt faults, retry exhaustion, journal
 * resume and graceful degradation. The worker subprocess is the real
 * mondrian_campaign binary (MONDRIAN_BINARY_DIR), so these tests exercise
 * the actual wire protocol end to end.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "net/transport.hh"
#include "system/campaign.hh"
#include "system/coordinator.hh"
#include "system/report.hh"
#include "system/traffic.hh"

#include "malformed_numbers.hh"

using namespace mondrian;

namespace {

const char *kWorkerBinary = MONDRIAN_BINARY_DIR "/mondrian_campaign";

/** 2 systems x 2 ops at 2^8: four cheap jobs with a baseline. */
CampaignGrid
smallGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    return grid;
}

/** Reference report: the same grid run in-process, single-threaded. */
std::string
referenceReport(const CampaignGrid &grid)
{
    CampaignRunner runner(grid);
    return campaignReportJson(runner.run(1));
}

/** Entries of /tmp whose names start with @p prefix. */
std::size_t
tmpEntries(const std::string &prefix)
{
    std::size_t n = 0;
    if (DIR *dir = ::opendir("/tmp")) {
        while (const dirent *e = ::readdir(dir))
            n += std::string(e->d_name).rfind(prefix, 0) == 0 ? 1 : 0;
        ::closedir(dir);
    }
    return n;
}

CoordinatorConfig
testConfig()
{
    CoordinatorConfig config;
    config.workers = 2;
    config.workerCommand = {kWorkerBinary};
    return config;
}

} // namespace

// ----------------------------------------------------- fault-inject grammar

TEST(FaultInject, ParsesKindsAndStickiness)
{
    std::vector<FaultInjection> faults;
    std::string error;
    ASSERT_TRUE(parseFaultInject("crash@2,hang@5,corrupt@1!", faults, error))
        << error;
    ASSERT_EQ(faults.size(), 3u);
    EXPECT_EQ(faults[0].kind, FaultInjection::Kind::kCrash);
    EXPECT_EQ(faults[0].index, 2u);
    EXPECT_FALSE(faults[0].sticky);
    EXPECT_EQ(faults[1].kind, FaultInjection::Kind::kHang);
    EXPECT_EQ(faults[2].kind, FaultInjection::Kind::kCorrupt);
    EXPECT_EQ(faults[2].index, 1u);
    EXPECT_TRUE(faults[2].sticky);
}

TEST(FaultInject, RejectsMalformedSpecs)
{
    std::vector<FaultInjection> faults;
    std::string error;
    EXPECT_FALSE(parseFaultInject("", faults, error));
    EXPECT_FALSE(parseFaultInject("crash", faults, error));
    EXPECT_FALSE(parseFaultInject("explode@3", faults, error));
    EXPECT_FALSE(parseFaultInject("crash@x", faults, error));
    EXPECT_FALSE(parseFaultInject("crash@", faults, error));
    // Every malformed index, first-attempt and sticky, naming the fault.
    for (const char *sticky : {"", "!"}) {
        ASSERT_TRUE(parseFaultInject("hang@3" + std::string(sticky), faults,
                                     error))
            << error;
        for (const std::string &index : malformedNumbers("3", false)) {
            const std::string spec = "hang@" + index + sticky;
            EXPECT_FALSE(parseFaultInject(spec, faults, error)) << spec;
            EXPECT_NE(error.find("fault '" + spec + "'"), std::string::npos)
                << error;
        }
    }
}

// ------------------------------------------------ worker spec handshake

namespace {

int
waitForExit(pid_t pid)
{
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

/** Block until one message arrives; false on EOF/desync. */
bool
awaitMessage(Channel &t, std::string &payload)
{
    for (;;) {
        const int st = t.next(payload);
        if (st != 0)
            return st > 0;
        const Channel::Pump p = t.pump();
        if (p == Channel::Pump::kEof || p == Channel::Pump::kError)
            return false;
    }
}

/** The handshake's spec message for smallGrid() under @p schema
 *  (nullptr = no schema member). */
std::string
specMessage(const char *schema)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("type", "spec");
    if (schema)
        w.member("schema", schema);
    w.key("grid");
    writeCampaignGrid(w, smallGrid());
    w.member("heartbeat_interval", 1.0);
    w.endObject();
    return JsonWriter::compact(w.str());
}

/**
 * Run a real `mondrian_campaign --worker` over pipes, answer its hello
 * with @p messages (the spec first), then close the command direction.
 * @p replies gets every message the worker sent after its hello.
 * @return the worker's exit code.
 */
int
workerAnswering(const std::vector<std::string> &messages,
                std::vector<std::string> &replies)
{
    int down[2], up[2];
    if (::pipe(down) != 0 || ::pipe(up) != 0)
        return -1;
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(down[0], STDIN_FILENO);
        ::dup2(up[1], STDOUT_FILENO);
        for (int fd : {down[0], down[1], up[0], up[1]})
            ::close(fd);
        ::execl(kWorkerBinary, kWorkerBinary, "--worker",
                static_cast<char *>(nullptr));
        std::_Exit(127);
    }
    ::close(down[0]);
    ::close(up[1]);
    Channel t(up[0], down[1]);
    std::string msg;
    if (awaitMessage(t, msg)) { // the hello
        for (const std::string &m : messages)
            t.send(m);
        t.shutdownSend();
        while (awaitMessage(t, msg))
            replies.push_back(msg);
    }
    return waitForExit(pid);
}

} // namespace

TEST(WorkerSpec, JoinsOnlyUnderTheCurrentSchema)
{
    std::vector<std::string> replies;
    EXPECT_EQ(workerAnswering({specMessage(kCampaignSpecSchema)}, replies),
              0);
    ASSERT_FALSE(replies.empty());
    EXPECT_NE(replies[0].find("\"ready\""), std::string::npos)
        << replies[0];

    // A missing, foreign or previous-version schema is refused by name
    // before the worker joins: exit 2, nothing sent after the hello.
    for (const char *schema :
         {static_cast<const char *>(nullptr), "other",
          "mondrian-campaign-spec-v2"}) {
        const std::string what = schema ? schema : "(no schema)";
        replies.clear();
        EXPECT_EQ(workerAnswering({specMessage(schema)}, replies), 2)
            << what;
        EXPECT_TRUE(replies.empty()) << what;
    }
}

TEST(WorkerSpec, RunsNoJobUnderAStringIndex)
{
    // "index": "0" is not job 0: the worker drops the channel instead of
    // answering. The same job under a numeric index gets its result.
    auto answers = [](const char *index) {
        std::vector<std::string> replies;
        EXPECT_EQ(workerAnswering({specMessage(kCampaignSpecSchema),
                                   std::string("{\"type\": \"job\", "
                                               "\"index\": ") +
                                       index + "}"},
                                  replies),
                  0);
        return std::count_if(replies.begin(), replies.end(),
                             [](const std::string &r) {
                                 return r.find("\"result\"") !=
                                        std::string::npos;
                             });
    };
    EXPECT_EQ(answers("0"), 1);
    EXPECT_EQ(answers("\"0\""), 0);
}

// --------------------------------------------- coordinator byte-identity

TEST(Coordinator, CleanRunMatchesInProcessReport)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CampaignCoordinator coordinator(grid, testConfig());
    std::size_t progressed = 0;
    coordinator.onRunDone([&](const CampaignRun &) { ++progressed; });
    EXPECT_EQ(campaignReportJson(coordinator.run()), expected);
    EXPECT_EQ(progressed, 4u);
}

TEST(Coordinator, LocalWorkersGetTheSpecOverTheChannel)
{
    // Local workers receive the campaign spec in the handshake, exactly
    // as remote ones do: no spec file appears while the campaign runs.
    CampaignCoordinator coordinator(smallGrid(), testConfig());
    std::size_t spec_files = 0;
    coordinator.onRunDone([&](const CampaignRun &) {
        spec_files += tmpEntries("mondrian-campaign-");
    });
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(spec_files, 0u);
}

TEST(Coordinator, CrashedWorkerIsRetriedByteIdentically)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = testConfig();
    std::string error;
    ASSERT_TRUE(parseFaultInject("crash@0,crash@3", config.faults, error));
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(Coordinator, HungWorkerIsKilledAndJobReassigned)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = testConfig();
    config.heartbeatTimeoutSec = 0.5; // hang must be detected quickly
    std::string error;
    ASSERT_TRUE(parseFaultInject("hang@1", config.faults, error));
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(Coordinator, JobTimeoutKillsAHungWorker)
{
    // The heartbeat timeout stays at its 30 s default, so only the 1 s
    // job timeout can catch the wedged worker; with no retries the job
    // fails for good and names that timeout.
    CoordinatorConfig config = testConfig();
    config.maxRetries = 0;
    config.jobTimeoutSec = 1.0;
    std::string error;
    ASSERT_TRUE(parseFaultInject("hang@1!", config.faults, error));
    CampaignCoordinator coordinator(smallGrid(), config);
    const CampaignReport report = coordinator.run();

    ASSERT_EQ(report.failedRuns.size(), 1u);
    EXPECT_EQ(report.failedRuns[0].index, 1u);
    EXPECT_NE(report.failedRuns[0].error.find("job timeout"),
              std::string::npos)
        << report.failedRuns[0].error;
    for (std::size_t i = 0; i < report.runs.size(); ++i)
        EXPECT_EQ(report.runs[i].failed, i == 1) << "run " << i;
}

TEST(Coordinator, CorruptResultIsRejectedAndRetried)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = testConfig();
    std::string error;
    ASSERT_TRUE(parseFaultInject("corrupt@2", config.faults, error));
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(Coordinator, StickyFaultExhaustsRetriesIntoFailedRuns)
{
    const CampaignGrid grid = smallGrid();

    CoordinatorConfig config = testConfig();
    config.maxRetries = 1;
    std::string error;
    ASSERT_TRUE(parseFaultInject("crash@2!", config.faults, error));
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();

    ASSERT_EQ(report.failedRuns.size(), 1u);
    EXPECT_EQ(report.failedRuns[0].index, 2u);
    EXPECT_EQ(report.failedRuns[0].attempts, 2u); // 1 + maxRetries
    EXPECT_TRUE(report.runs[2].failed);
    // The other three jobs still completed and the report is writable.
    const std::string json = campaignReportJson(report);
    EXPECT_NE(json.find("\"failed_runs\""), std::string::npos);
    // The failed run must not appear as a result row.
    std::size_t runs_emitted = 0;
    for (const CampaignRun &r : report.runs)
        runs_emitted += r.failed ? 0 : 1;
    EXPECT_EQ(runs_emitted, 3u);

    // The report reads back into the same failed slot and failed_runs
    // entry, and rewrites byte-identically.
    CampaignReport loaded;
    ASSERT_TRUE(readCampaignReport(json, loaded, error)) << error;
    EXPECT_TRUE(loaded.runs[2].failed);
    ASSERT_EQ(loaded.failedRuns.size(), 1u);
    EXPECT_EQ(loaded.failedRuns[0].attempts, 2u);
    EXPECT_EQ(campaignReportJson(loaded), json);
}

TEST(Coordinator, DegradesToInProcessWhenWorkersCannotSpawn)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = testConfig();
    config.workerCommand = {"/nonexistent/mondrian-worker-binary"};
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(Coordinator, DegradedPathWithWidePoolStaysByteIdentical)
{
    // Regression for the run_inline data race: the dispatch loop used to
    // keep re-reading the bit-packed `done` vector while pool workers
    // flipped neighboring bits of the same words. The pending set is now
    // snapshotted before anything is submitted; under TSan this test is
    // the tripwire for any reintroduction.
    CampaignGrid grid = smallGrid();
    grid.seeds = {42, 43}; // 8 jobs, so every pool thread gets work
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = testConfig();
    config.workers = 4;
    config.workerCommand = {"/nonexistent/mondrian-worker-binary"};
    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}

// ------------------------------------------------------------ journal resume

TEST(Coordinator, ResumesFromJournalByteIdentically)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    // A killed campaign's journal: the first two completed runs.
    std::string journal;
    std::size_t journaled = 0;
    CampaignRunner first(grid);
    first.onRunDone([&](const CampaignRun &r) {
        if (journaled < 2) {
            journal += campaignJournalLine(r.job, r.result);
            ++journaled;
        }
    });
    first.run(1);

    ResumeCache cache;
    EXPECT_EQ(cache.loadJournal(journal), 2u);

    CampaignCoordinator coordinator(grid, testConfig());
    coordinator.setResume(&cache);
    const CampaignReport report = coordinator.run();
    EXPECT_EQ(report.cachedRuns, 2u);
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(ResumeCache, JournalToleratesTornLastLine)
{
    const CampaignGrid grid = smallGrid();
    std::string journal;
    CampaignRunner runner(grid);
    runner.onRunDone([&](const CampaignRun &r) {
        journal += campaignJournalLine(r.job, r.result);
    });
    runner.run(1);

    // A coordinator killed mid-append leaves a torn final line.
    const std::size_t last_start = journal.rfind(
        '\n', journal.size() - 2);
    const std::string torn =
        journal.substr(0, last_start + 1 +
                              (journal.size() - last_start) / 2);
    ResumeCache cache;
    EXPECT_EQ(cache.loadJournal(torn), 3u);
}

TEST(ResumeCache, JournalSkipsCorruptLines)
{
    ResumeCache cache;
    EXPECT_EQ(cache.loadJournal("garbage\n{\"key\": 5}\n"), 0u);
    EXPECT_EQ(cache.size(), 0u);
}

// ----------------------------------------------- resume-report hardening

/** smallGrid plus a served-traffic point. */
CampaignGrid
servedGrid()
{
    CampaignGrid grid = smallGrid();
    TrafficSpec traffic;
    traffic.process = ArrivalProcess::kPoisson;
    traffic.lambdaQps = 2000.0;
    traffic.queries = 4;
    grid.traffics = {traffic};
    return grid;
}

TEST(ResumeCache, TruncatedReportFailsLoudlyNotSilently)
{
    const CampaignGrid grid = servedGrid();
    const std::string report = referenceReport(grid);
    ASSERT_NE(report.find("mondrian-campaign-v4"), std::string::npos);

    ResumeCache cache;
    std::string error;
    EXPECT_FALSE(cache.load(report.substr(0, report.size() / 2), error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResumeCache, CorruptRunEntryFailsTheLoad)
{
    const CampaignGrid grid = servedGrid();
    std::string report = referenceReport(grid);
    ASSERT_NE(report.find("mondrian-campaign-v4"), std::string::npos);

    // Break the first run's result subtree: the load fails naming the
    // run, and nothing is cached from the half-read report.
    const std::size_t pos = report.find("\"result\"");
    ASSERT_NE(pos, std::string::npos);
    report.replace(pos, 8, "\"broken\"");

    ResumeCache cache;
    std::string error;
    EXPECT_FALSE(cache.load(report, error));
    EXPECT_NE(error.find("run 0: malformed result"), std::string::npos)
        << error;
    EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------- remote TCP workers

namespace {

/** Exec a real `mondrian_campaign --worker-connect` subprocess. */
pid_t
spawnConnectWorker(std::uint16_t port,
                   const std::vector<std::string> &extra = {})
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        std::vector<std::string> args = {
            kWorkerBinary, "--worker-connect",
            "127.0.0.1:" + std::to_string(port)};
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        std::_Exit(127);
    }
    return pid;
}

/** Remote-only coordinator config bound to an ephemeral loopback port. */
CoordinatorConfig
tcpConfig()
{
    CoordinatorConfig config;
    config.workers = 0;
    config.listenEndpoint = "127.0.0.1:0";
    return config;
}

/** mkdtemp scratch directory that removes its files on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mondrian-test-cache-XXXXXX";
        if (::mkdtemp(tmpl))
            path = tmpl;
    }

    ~TempDir()
    {
        if (path.empty())
            return;
        // Entries are flat "<hash>.json" files; no recursion needed.
        const std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
};

} // namespace

TEST(TcpCoordinator, RemoteWorkersMatchInProcessReportByteForByte)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CampaignCoordinator coordinator(grid, tcpConfig());
    std::string error;
    ASSERT_TRUE(coordinator.listen(error)) << error;
    const std::uint16_t port = coordinator.listenPort();
    ASSERT_NE(port, 0);

    const pid_t w0 = spawnConnectWorker(port);
    const pid_t w1 = spawnConnectWorker(port);

    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(report.workerCacheHits, 0u);
    EXPECT_EQ(campaignReportJson(report), expected);

    // Orderly shutdown: both workers got the exit message and left 0.
    EXPECT_EQ(waitForExit(w0), 0);
    EXPECT_EQ(waitForExit(w1), 0);
}

TEST(TcpCoordinator, SurvivesCrashDisconnectAndCorruptFaults)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = tcpConfig();
    std::string error;
    ASSERT_TRUE(parseFaultInject("crash@0,disconnect@1,corrupt@2",
                                 config.faults, error));
    CampaignCoordinator coordinator(grid, config);
    ASSERT_TRUE(coordinator.listen(error)) << error;
    const std::uint16_t port = coordinator.listenPort();

    // Two workers; whichever draws the crash dies for good (remote
    // workers are not respawned by the coordinator), the disconnect
    // victim drops mid-job and rejoins as a fresh worker.
    const pid_t w0 = spawnConnectWorker(port);
    const pid_t w1 = spawnConnectWorker(port);

    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);

    // One worker _Exit(70)s on the crash fault; the survivor gets the
    // orderly exit message. (Which is which depends on job scheduling.)
    const int e0 = waitForExit(w0);
    const int e1 = waitForExit(w1);
    EXPECT_TRUE((e0 == 70 && e1 == 0) || (e0 == 0 && e1 == 70) ||
                (e0 == 0 && e1 == 0))
        << "worker exits: " << e0 << ", " << e1;
}

TEST(TcpCoordinator, RejectsWorkersWithWrongHelloToken)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);

    CoordinatorConfig config = tcpConfig();
    config.helloToken = "right-token";
    CampaignCoordinator coordinator(grid, config);
    std::string error;
    ASSERT_TRUE(coordinator.listen(error)) << error;
    const std::uint16_t port = coordinator.listenPort();

    // The impostor is rejected (exit 5, no reconnect); the legitimate
    // worker with the matching token completes the whole campaign.
    const pid_t impostor =
        spawnConnectWorker(port, {"--hello-token", "wrong-token"});
    const pid_t legit =
        spawnConnectWorker(port, {"--hello-token", "right-token"});

    const CampaignReport report = coordinator.run();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);

    EXPECT_EQ(waitForExit(impostor), kExitNetwork);
    EXPECT_EQ(waitForExit(legit), 0);
}

// ---------------------------------------------- worker-side result cache

TEST(WorkerCache, LocalWorkersServeRepeatsWithoutResimulation)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);
    TempDir cache_dir;
    ASSERT_FALSE(cache_dir.path.empty());

    // Cold pass: every job simulated, the cache populated.
    CoordinatorConfig config = testConfig();
    config.workerCacheDir = cache_dir.path;
    {
        CampaignCoordinator coordinator(grid, config);
        const CampaignReport report = coordinator.run();
        EXPECT_EQ(report.workerCacheHits, 0u);
        EXPECT_EQ(campaignReportJson(report), expected);
    }

    // Warm pass: a fresh campaign over the same grid; every re-dispatch
    // is answered from the cache, byte-identically.
    {
        CampaignCoordinator coordinator(grid, config);
        const CampaignReport report = coordinator.run();
        EXPECT_EQ(report.workerCacheHits, 4u);
        EXPECT_EQ(campaignReportJson(report), expected);
    }
}

TEST(WorkerCache, CorruptEntryFallsBackToSimulation)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);
    TempDir cache_dir;
    ASSERT_FALSE(cache_dir.path.empty());

    CoordinatorConfig config = testConfig();
    config.workerCacheDir = cache_dir.path;
    {
        CampaignCoordinator coordinator(grid, config);
        coordinator.run();
    }

    // Truncate one entry: the worker must treat it as a miss and
    // re-simulate, never forward garbage upstream.
    std::vector<std::string> entries;
    {
        const std::string cmd =
            "ls '" + cache_dir.path + "' > '" + cache_dir.path + "/ls'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);
        std::ifstream ls(cache_dir.path + "/ls");
        std::string name;
        while (std::getline(ls, name))
            if (name.size() > 5 &&
                name.substr(name.size() - 5) == ".json")
                entries.push_back(name);
    }
    ASSERT_EQ(entries.size(), 4u);
    {
        std::ofstream out(cache_dir.path + "/" + entries[0],
                          std::ios::binary | std::ios::trunc);
        out << "{\"key\": \"torn";
    }

    CampaignCoordinator coordinator(grid, config);
    const CampaignReport report = coordinator.run();
    EXPECT_EQ(report.workerCacheHits, 3u);
    EXPECT_EQ(campaignReportJson(report), expected);
}

TEST(TcpCoordinator, WarmWorkerCacheServesRemoteRedispatch)
{
    const CampaignGrid grid = smallGrid();
    const std::string expected = referenceReport(grid);
    TempDir cache_dir;
    ASSERT_FALSE(cache_dir.path.empty());

    const std::vector<std::string> cache_args = {"--worker-cache",
                                                 cache_dir.path};
    // Cold TCP pass populates the cache.
    {
        CampaignCoordinator coordinator(grid, tcpConfig());
        std::string error;
        ASSERT_TRUE(coordinator.listen(error)) << error;
        const pid_t w =
            spawnConnectWorker(coordinator.listenPort(), cache_args);
        const CampaignReport report = coordinator.run();
        EXPECT_EQ(report.workerCacheHits, 0u);
        EXPECT_EQ(campaignReportJson(report), expected);
        EXPECT_EQ(waitForExit(w), 0);
    }
    // Warm TCP pass: every job a cache hit, bytes identical.
    {
        CampaignCoordinator coordinator(grid, tcpConfig());
        std::string error;
        ASSERT_TRUE(coordinator.listen(error)) << error;
        const pid_t w =
            spawnConnectWorker(coordinator.listenPort(), cache_args);
        const CampaignReport report = coordinator.run();
        EXPECT_EQ(report.workerCacheHits, 4u);
        EXPECT_EQ(campaignReportJson(report), expected);
        EXPECT_EQ(waitForExit(w), 0);
    }
}
