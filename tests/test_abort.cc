/**
 * @file
 * Process-level contracts of the campaign CLI. A malformed numeric flag
 * exits 2. A SIGINT delivered mid-campaign must produce exit code 3, a
 * journal whose every line is complete JSON (no torn writes), and no
 * report file; that is exercised on both
 * execution paths — the in-process ThreadPool (--jobs) and the
 * coordinator/worker tree (--workers) — against the real
 * mondrian_campaign binary, the same way test_coordinator drives it.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_parse.hh"
#include "malformed_numbers.hh"

using namespace mondrian;

namespace {

const char *kCampaignBinary = MONDRIAN_BINARY_DIR "/mondrian_campaign";
const char *kReportBinary = MONDRIAN_BINARY_DIR "/mondrian_report";

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &stem)
    {
        path = stem + "." + std::to_string(::getpid()) + ".tmp";
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
};

/** Spawn @p binary (mondrian_campaign by default) with @p args and its
 *  stderr into @p log; returns the child pid. */
pid_t
spawnCampaign(const std::vector<std::string> &args,
              const std::string &log = "/dev/null",
              const char *binary = kCampaignBinary)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        // Quiet child unless a test reads its warnings.
        ::freopen(log.c_str(), "w", stderr);
        ::execv(binary, argv.data());
        _exit(127);
    }
    return pid;
}

std::vector<std::string>
journalLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    // getline drops the trailing '\n'; a torn final line (no newline)
    // still surfaces here and fails the JSON completeness check below.
    while (std::getline(in, line))
        lines.push_back(line);
    if (in.gcount() > 0)
        lines.push_back(line); // unterminated tail fragment
    return lines;
}

/**
 * Drive one interrupted campaign: start it, wait for the first journal
 * line (proof it is mid-campaign), SIGINT it, and check the contract.
 */
void
runAbortScenario(const std::vector<std::string> &mode_args)
{
    TempPath journal("abort-journal");
    TempPath out("abort-report");

    std::vector<std::string> args = {
        // A grid long enough that the signal always lands mid-campaign:
        // 8 runs of hundreds of ms each (seconds under sanitizers), and
        // the interrupt fires right after the first journal line, with
        // most of the grid still outstanding.
        "--systems", "cpu,mondrian", "--ops", "scan,sort,groupby,join",
        "--log2-tuples", "15", "--quiet",
        "--journal", journal.path, "--out", out.path};
    args.insert(args.end(), mode_args.begin(), mode_args.end());

    const pid_t pid = spawnCampaign(args);
    ASSERT_GT(pid, 0);

    // Wait until at least one run has been journaled, so the interrupt
    // arrives while later runs are still executing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (journalLines(journal.path).empty()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "campaign produced no journal line to interrupt";
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, WNOHANG), 0)
            << "campaign exited before it could be interrupted";
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    ASSERT_EQ(::kill(pid, SIGINT), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "campaign did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(status), 3) << "interrupted campaign must exit 3";

    // No torn journal lines: every line parses as a complete JSON run
    // entry (key + result) through the same reader the resume path uses.
    const std::vector<std::string> lines = journalLines(journal.path);
    ASSERT_FALSE(lines.empty());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        ASSERT_FALSE(l.empty()) << "journal line " << i << " is empty";
        EXPECT_EQ(l.front(), '{') << "journal line " << i << " is torn";
        EXPECT_EQ(l.back(), '}') << "journal line " << i << " is torn";
        JsonValue doc;
        std::string parse_error;
        ASSERT_TRUE(parseJson(l, doc, parse_error))
            << "journal line " << i
            << " is not complete JSON (" << parse_error << "): " << l;
        const JsonValue *key = doc.find("key");
        const JsonValue *result = doc.find("result");
        EXPECT_NE(key, nullptr) << "journal line " << i << " lacks key";
        EXPECT_NE(result, nullptr)
            << "journal line " << i << " lacks result";
    }

    // Exit code 3 means "no report": the output file must not exist.
    std::ifstream report(out.path, std::ios::binary);
    EXPECT_FALSE(report.good())
        << "aborted campaign must not write a report file";
}

} // namespace

TEST(ConcurrentAbort, ThreadPoolPathExitsThreeWithIntactJournal)
{
    runAbortScenario({"--jobs", "4"});
}

TEST(ConcurrentAbort, CoordinatorPathExitsThreeWithIntactJournal)
{
    runAbortScenario({"--workers", "2", "--heartbeat-timeout", "2"});
}

namespace {

std::string
fileText(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run @p binary with @p args to completion; its exit code. */
int
campaignExitCode(const std::vector<std::string> &args,
                 const std::string &log = "/dev/null",
                 const char *binary = kCampaignBinary)
{
    const pid_t pid = spawnCampaign(args, log, binary);
    int status = 0;
    if (pid <= 0 || ::waitpid(pid, &status, 0) != pid)
        return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

} // namespace

TEST(CampaignCli, MalformedNumbersExitTwo)
{
    const std::vector<std::string> grid = {"--systems", "cpu", "--ops",
                                           "scan", "--dry-run"};
    auto with = [&grid](std::vector<std::string> args) {
        args.insert(args.end(), grid.begin(), grid.end());
        return args;
    };
    auto ending = [&grid](const std::string &flag) {
        std::vector<std::string> args = grid;
        args.push_back(flag);
        return args;
    };
    ASSERT_EQ(campaignExitCode(with({"--seeds", "7", "--job-timeout", "1.5",
                                     "--heartbeat-timeout", "2"})),
              0);

    // Each grammar reads its numbers through common/grammar.hh: the C
    // readers wrap "-1", saturate an overflow, skip a leading blank and
    // take hex floats and inf; NaN passes a `<= 0` check, and inf or NaN
    // would turn the coordinator's kill timers off.
    const std::vector<std::vector<std::string>> bad = {
        {"--seeds", "-1"},
        {"--seeds", "99999999999999999999"},
        {"--seeds", " 7"},
        {"--job-timeout", "nan"},
        {"--heartbeat-timeout", "nan"},
        {"--job-timeout", "inf"},
        {"--heartbeat-timeout", "1e999"},
        {"--retries", "4294967297"},
        // The grid has one job, so index 1 would never fire.
        {"--fault-inject", "crash@1"},
        {"--fault-inject", "crash@99999999999999999999"},
        {"--systems", "nmp-rand"},
        // -0 would be a second grid point labelled "-0" of the same input.
        {"--zipf", "0,-0"},
        {"--geometry", " 2x8"},
        {"--geometry", "4x16:vault= 256KiB"},
        {"--exec-ablation", "radix= 9"},
        {"--traffic", "poisson,lambda= 20,queries=4"},
        {"--traffic", "poisson,lambda=0x10,queries=4"},
        {"--traffic", "poisson,lambda=20,queries=4,mix=scan: 2"},
        {"--traffic", "lambda=1000,queries=-1"},
        {"--traffic", "lambda=1000,queries=99999999999999999999999"},
        {"--traffic", "lambda=1000,queries=18446744073709551615"},
        {"--traffic", "lambda=1000,inflight=-1"},
        {"--traffic", "lambda=1000,queries= 4"},
        {"--traffic", "lambda=1000,mix=scan:1+join:1,mix-zipf=nan"},
        // A finite rate whose arrival schedule does not fit in a Tick.
        {"--traffic", "lambda=1e-300,queries=2"},
    };
    TempPath log("malformed-number-log");
    for (const std::vector<std::string> &args : bad) {
        EXPECT_EQ(campaignExitCode(with(args), log.path), 2)
            << args[0] << " " << args[1];
        const std::string err = fileText(log.path);
        EXPECT_TRUE(err.find(args[0].substr(2)) != std::string::npos ||
                    err.find(args[1]) != std::string::npos)
            << args[0] << " " << args[1] << ": " << err;
    }

    // Every malformed form in every numeric flag, the error naming it.
    // The traffic, geometry, exec and fault grammars run the same table
    // in their own parse tests.
    struct Slot
    {
        std::vector<std::string> args; ///< ending in the flag
        std::string good;
        bool real;
        const char *binary = kCampaignBinary;
    };
    const std::string golden =
        MONDRIAN_SOURCE_DIR "/scripts/golden/served12-report.json";
    const std::vector<Slot> slots = {
        {ending("--log2-tuples"), "8", false},
        {ending("--seeds"), "7", false},
        {ending("--jobs"), "1", false},
        {ending("--workers"), "0", false},
        {ending("--retries"), "2", false},
        {ending("--zipf"), "0.5", true},
        {ending("--job-timeout"), "1.5", true},
        {ending("--heartbeat-timeout"), "2", true},
        {{"diff", golden, golden, "--rtol"}, "1e-6", true, kReportBinary},
        // Parsed before the worker dials anything.
        {{"--worker-connect", "127.0.0.1:1", "--reconnect"}, "3", false},
    };
    for (const Slot &slot : slots) {
        const std::string &flag = slot.args.back();
        auto run = [&](const std::string &value) {
            std::vector<std::string> args = slot.args;
            args.push_back(value);
            return campaignExitCode(args, log.path, slot.binary);
        };
        // A good --reconnect would dial.
        if (flag != "--reconnect") {
            ASSERT_EQ(run(slot.good), 0) << flag << " " << slot.good;
        }
        for (const std::string &bad_value :
             malformedNumbers(slot.good, slot.real)) {
            EXPECT_EQ(run(bad_value), 2) << flag << " '" << bad_value << "'";
            const std::string err = fileText(log.path);
            EXPECT_NE(err.find(flag.substr(2)), std::string::npos)
                << flag << " '" << bad_value << "': " << err;
        }
    }
}

TEST(CampaignCli, TrafficScheduleBeyondATickIsRefusedNamingLambda)
{
    // Refused by grid validation, before any run starts: --dry-run runs
    // nothing and must still exit 2.
    TempPath log("tick-overflow-log");
    for (const char *spec : {"lambda=1e-300,queries=2",
                             "fixed,lambda=1e-7,queries=2",
                             "poisson,lambda=1e-9,queries=64"}) {
        for (bool dry : {true, false}) {
            std::vector<std::string> args = {"--systems", "cpu", "--ops",
                                             "scan", "--log2-tuples", "8",
                                             "--traffic", spec, "--quiet"};
            if (dry)
                args.push_back("--dry-run");
            EXPECT_EQ(campaignExitCode(args, log.path), 2) << spec;
            const std::string err = fileText(log.path);
            EXPECT_NE(err.find("lambda"), std::string::npos)
                << spec << ": " << err;
        }
    }
    // One query a week fits easily.
    EXPECT_EQ(campaignExitCode({"--systems", "cpu", "--ops", "scan",
                                "--log2-tuples", "8", "--traffic",
                                "fixed,lambda=1.6e-6,queries=2",
                                "--dry-run"}),
              0);
}

TEST(ReportCli, DiffNamesTheFirstMissingReport)
{
    // Both reports missing: the error names A, the first operand.
    TempPath log("diff-missing-log");
    const std::string a = "diff-missing-a.json";
    const std::string b = "diff-missing-b.json";
    EXPECT_EQ(campaignExitCode({"diff", a, b}, log.path, kReportBinary), 2);
    const std::string err = fileText(log.path);
    EXPECT_NE(err.find("cannot open '" + a + "'"), std::string::npos) << err;
    EXPECT_EQ(err.find(b), std::string::npos) << err;
}

namespace {

/** @p line without its first "total_time_ps" member. */
std::string
withoutTotalTime(std::string line)
{
    const std::size_t at = line.find("\"total_time_ps\": ");
    EXPECT_NE(at, std::string::npos) << line;
    return line.erase(at, line.find(',', at) + 1 - at);
}

} // namespace

TEST(CampaignCli, DamagedJournalLineIsSkippedAndRerunByteIdentically)
{
    TempPath journal("damaged-journal");
    TempPath fresh("damaged-fresh");
    TempPath resumed("damaged-resumed");
    TempPath log("damaged-log");
    const std::vector<std::string> smoke = {"--smoke", "--quiet",
                                            "--journal", journal.path};
    auto with = [&smoke](std::vector<std::string> args) {
        args.insert(args.begin(), smoke.begin(), smoke.end());
        return args;
    };
    ASSERT_EQ(campaignExitCode(with({"--out", fresh.path})), 0);

    std::vector<std::string> lines = journalLines(journal.path);
    ASSERT_EQ(lines.size(), 6u);
    lines[1] = withoutTotalTime(lines[1]);
    {
        std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
        for (const std::string &l : lines)
            out << l << '\n';
    }

    // The damaged line is skipped naming its member, not read as a run
    // of zero time; its grid point runs again.
    ASSERT_EQ(campaignExitCode(with({"--out", resumed.path}), log.path), 0);
    const std::string err = fileText(log.path);
    EXPECT_NE(err.find("journal: skipping corrupt line 2 (grid key "),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("): missing or wrong-typed \"total_time_ps\""),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("resume: 5 of 6 grid points reused"),
              std::string::npos)
        << err;
    EXPECT_EQ(fileText(resumed.path), fileText(fresh.path));
}

TEST(CampaignCli, JournalLineWithoutItsServedBlockIsRerunByteIdentically)
{
    // Every member of a result can be read strictly and the whole optional
    // "served" block still be gone: only the grid point's traffic tells.
    TempPath journal("served-journal");
    TempPath fresh("served-fresh");
    TempPath resumed("served-resumed");
    TempPath log("served-log");
    const std::vector<std::string> served = {
        "--systems", "cpu,mondrian", "--ops", "scan", "--log2-tuples", "8",
        "--traffic", "poisson,lambda=2000,queries=4", "--quiet",
        "--journal", journal.path};
    auto with = [&served](std::vector<std::string> args) {
        args.insert(args.begin(), served.begin(), served.end());
        return args;
    };
    ASSERT_EQ(campaignExitCode(with({"--out", fresh.path})), 0);

    std::vector<std::string> lines = journalLines(journal.path);
    ASSERT_EQ(lines.size(), 2u);
    const std::size_t at = lines[0].find("\"served\": {");
    ASSERT_NE(at, std::string::npos) << lines[0];
    lines[0].erase(at, lines[0].find('}', at) + 2 - at); // and its comma
    {
        std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
        for (const std::string &l : lines)
            out << l << '\n';
    }

    ASSERT_EQ(campaignExitCode(with({"--out", resumed.path}), log.path), 0);
    const std::string err = fileText(log.path);
    EXPECT_NE(err.find("journal: 2 completed runs read from"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("resume: re-simulating grid point 0: its cached "
                       "result lacks a \"served\" block"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("resume: 1 of 2 grid points reused"),
              std::string::npos)
        << err;
    EXPECT_EQ(fileText(resumed.path), fileText(fresh.path));
}

TEST(CampaignCli, DamagedWorkerCacheEntryIsAMissAndRerunByteIdentically)
{
    char tmpl[] = "/tmp/mondrian-damaged-cache-XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    const std::string cache = tmpl;
    TempPath fresh("damaged-cache-fresh");
    TempPath again("damaged-cache-again");
    TempPath log("damaged-cache-log");
    const std::vector<std::string> smoke = {
        "--smoke", "--quiet", "--workers", "2", "--worker-cache", cache};
    auto with = [&smoke](std::vector<std::string> args) {
        args.insert(args.begin(), smoke.begin(), smoke.end());
        return args;
    };
    ASSERT_EQ(campaignExitCode(with({"--out", fresh.path})), 0);

    std::vector<std::string> entries;
    if (DIR *dir = ::opendir(cache.c_str())) {
        while (const dirent *e = ::readdir(dir)) {
            if (std::string(e->d_name).ends_with(".json"))
                entries.push_back(cache + "/" + e->d_name);
        }
        ::closedir(dir);
    }
    std::sort(entries.begin(), entries.end());
    ASSERT_EQ(entries.size(), 6u);
    const std::string damaged = withoutTotalTime(fileText(entries[0]));
    std::ofstream(entries[0], std::ios::binary | std::ios::trunc) << damaged;
    // A well-formed result of another op: not the result of this entry's
    // grid point.
    std::string other_op = fileText(entries[1]);
    const std::size_t op = other_op.find("\"op\": \"");
    ASSERT_NE(op, std::string::npos);
    other_op.insert(op + 7, "x");
    std::ofstream(entries[1], std::ios::binary | std::ios::trunc) << other_op;

    ASSERT_EQ(campaignExitCode(with({"--out", again.path}), log.path), 0);
    const std::string err = fileText(log.path);
    EXPECT_NE(err.find("worker: ignoring unreadable cache entry " +
                       entries[0] +
                       " (missing or wrong-typed \"total_time_ps\")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("worker: ignoring cache entry " + entries[1] +
                       ": its result is of "),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("worker-cache: 4 results served"), std::string::npos)
        << err;
    EXPECT_EQ(fileText(again.path), fileText(fresh.path));
    const std::string rm = "rm -rf '" + cache + "'";
    EXPECT_EQ(std::system(rm.c_str()), 0);
}
