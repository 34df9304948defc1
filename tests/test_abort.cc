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

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_parse.hh"

using namespace mondrian;

namespace {

const char *kCampaignBinary = MONDRIAN_BINARY_DIR "/mondrian_campaign";

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

/** Spawn mondrian_campaign with @p args; returns the child pid. */
pid_t
spawnCampaign(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(kCampaignBinary));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
        // Quiet child: progress chatter is irrelevant to the contract.
        ::freopen("/dev/null", "w", stderr);
        ::execv(kCampaignBinary, argv.data());
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

/** Run mondrian_campaign with @p args to completion; its exit code. */
int
campaignExitCode(const std::vector<std::string> &args)
{
    const pid_t pid = spawnCampaign(args);
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
    ASSERT_EQ(campaignExitCode(with({"--seeds", "7", "--job-timeout", "1.5",
                                     "--heartbeat-timeout", "2"})),
              0);

    // strtoull wraps "-1" and saturates an overflow to 2^64-1, and skips
    // leading whitespace; NaN passes a `<= 0` check and turns the
    // coordinator's kill timers off.
    const std::vector<std::vector<std::string>> bad = {
        {"--seeds", "-1"},
        {"--seeds", "99999999999999999999"},
        {"--seeds", " 7"},
        {"--job-timeout", "nan"},
        {"--heartbeat-timeout", "nan"},
        {"--retries", "4294967297"},
        // The grid has one job, so index 1 would never fire.
        {"--fault-inject", "crash@1"},
        {"--fault-inject", "crash@99999999999999999999"},
        {"--systems", "nmp-rand"},
    };
    for (const std::vector<std::string> &args : bad)
        EXPECT_EQ(campaignExitCode(with(args)), 2) << args[0] << " " << args[1];
    // Parsed before the worker dials anything.
    EXPECT_EQ(campaignExitCode({"--worker-connect", "127.0.0.1:1",
                                "--reconnect", "-1"}),
              2);
}
