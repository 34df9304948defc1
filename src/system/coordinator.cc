#include "system/coordinator.hh"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "common/logging.hh"
#include "net/transport.hh"
#include "system/report.hh"

namespace mondrian {

const char *
faultKindName(FaultInjection::Kind kind)
{
    switch (kind) {
      case FaultInjection::Kind::kCrash: return "crash";
      case FaultInjection::Kind::kHang: return "hang";
      case FaultInjection::Kind::kCorrupt: return "corrupt";
      case FaultInjection::Kind::kDisconnect: return "disconnect";
    }
    return "crash";
}

bool
parseFaultInject(const std::string &spec, std::vector<FaultInjection> &out,
                 std::string &error)
{
    out.clear();
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t at = item.find('@');
        if (at == std::string::npos) {
            error = "fault '" + item + "': expected kind@index";
            return false;
        }
        FaultInjection f;
        const std::string kind = item.substr(0, at);
        if (kind == "crash") {
            f.kind = FaultInjection::Kind::kCrash;
        } else if (kind == "hang") {
            f.kind = FaultInjection::Kind::kHang;
        } else if (kind == "corrupt") {
            f.kind = FaultInjection::Kind::kCorrupt;
        } else if (kind == "disconnect") {
            f.kind = FaultInjection::Kind::kDisconnect;
        } else {
            error = "fault '" + item + "': unknown kind '" + kind +
                    "' (crash, hang, corrupt, disconnect)";
            return false;
        }
        std::string idx = item.substr(at + 1);
        if (!idx.empty() && idx.back() == '!') {
            f.sticky = true;
            idx.pop_back();
        }
        errno = 0;
        f.index = static_cast<std::size_t>(
            std::strtoull(idx.c_str(), nullptr, 10));
        if (idx.empty() || errno == ERANGE ||
            idx.find_first_not_of("0123456789") != std::string::npos) {
            error = "fault '" + item + "': '" + idx +
                    "' is not a job index";
            return false;
        }
        out.push_back(f);
    }
    if (out.empty()) {
        error = "empty fault-injection spec";
        return false;
    }
    return true;
}

namespace {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
selfExecutable()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return "/proc/self/exe";
}

/** Find a fault for @p index that has not fired yet (or is sticky). */
const FaultInjection *
pickFault(std::vector<FaultInjection> &faults, std::vector<bool> &fired,
          std::size_t index)
{
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (faults[i].index != index)
            continue;
        if (faults[i].sticky || !fired[i]) {
            fired[i] = true;
            return &faults[i];
        }
    }
    return nullptr;
}

/**
 * Block until one complete protocol message arrives on @p t.
 * @return false when the channel hit EOF, a read error, or a framing
 * violation — from a worker's point of view all three mean "the
 * coordinator is gone", and reconnect-or-exit is the caller's call.
 */
bool
awaitMessage(Channel &t, std::string &payload)
{
    for (;;) {
        const int st = t.next(payload);
        if (st > 0)
            return true;
        if (st < 0)
            return false;
        const Channel::Pump p = t.pump();
        if (p == Channel::Pump::kEof || p == Channel::Pump::kError)
            return false;
    }
}

} // namespace

// ------------------------------------------------- worker-side result cache

namespace {

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex16(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/**
 * Cache entry path: the filename is a hash of the injective grid-point
 * key (keys embed scenario structure and can be long); the key itself
 * is stored INSIDE the entry and verified on read, so a hash collision
 * degrades to a miss, never a wrong result.
 */
std::string
workerCachePath(const std::string &dir, const std::string &key)
{
    return dir + "/" + hex16(fnv1a64(key)) + ".json";
}

bool
ensureWorkerCacheDir(const std::string &dir)
{
    if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    std::fprintf(stderr,
                 "worker: cannot create cache dir '%s' (%s); caching "
                 "disabled\n",
                 dir.c_str(), std::strerror(errno));
    return false;
}

/**
 * Look @p key up in the cache at @p dir. On a hit, @p raw_result gets
 * the stored result subtree VERBATIM — exact-double JSON written by
 * workerCacheStore — so forwarding it upstream is byte-equivalent to
 * re-running the simulation. Unreadable, corrupt, or mismatched entries
 * are misses.
 */
bool
workerCacheLookup(const std::string &dir, const std::string &key,
                  std::string &raw_result)
{
    const std::string path = workerCachePath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    JsonValue root;
    std::string parse_error;
    if (!parseJson(text, root, parse_error)) {
        std::fprintf(stderr, "worker: ignoring corrupt cache entry %s\n",
                     path.c_str());
        return false;
    }
    const JsonValue *stored_key = root.find("key");
    if (!stored_key || !stored_key->isString() ||
        stored_key->asString() != key)
        return false; // filename-hash collision or stale entry: a miss
    const JsonValue *result = root.find("result");
    RunResult parsed;
    if (!result || !readRunResult(*result, parsed)) {
        std::fprintf(stderr, "worker: ignoring unreadable cache entry %s\n",
                     path.c_str());
        return false;
    }
    raw_result = text.substr(result->begin, result->end - result->begin);
    return true;
}

/** Persist one finished job (atomically: tmp file + rename). The entry
 *  is exactly a campaign journal line, key and exact doubles included. */
void
workerCacheStore(const std::string &dir, const CampaignJob &job,
                 const RunResult &result)
{
    const std::string path = workerCachePath(dir, campaignJobKey(job));
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (out)
        out << campaignJournalLine(job, result);
    out.close();
    if (!out || ::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "worker: cannot write cache entry %s (%s)\n",
                     path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
    }
}

} // namespace

// ------------------------------------------------------------------ worker

namespace {

/** How joinAndServe() ended. */
enum class ServeStatus
{
    kExit,            ///< coordinator sent an orderly exit message
    kLost,            ///< EOF, a read error, a bad frame or unparseable
                      ///< traffic: the coordinator is gone
    kDisconnectFault, ///< an injected disconnect fault fired
    kRefused          ///< handshake refused for good: a reject, or a
                      ///< spec this worker cannot use
};

/**
 * The worker serve loop: answer job messages with result frames, beat a
 * heartbeat from a dedicated thread, apply injected faults, and serve
 * repeats from the result cache at @p cache_dir when one is configured.
 */
ServeStatus
serveCampaignJobs(Channel &t, const std::vector<CampaignJob> &jobs,
                  double heartbeat_interval_sec, const std::string &cache_dir)
{
    const bool cache_ok = !cache_dir.empty() && ensureWorkerCacheDir(cache_dir);

    // Heartbeats come from a dedicated thread so a long-running
    // simulation never reads as a hang; the "hang" fault suppresses
    // them to exercise exactly that coordinator path.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::atomic<bool> hb_suppress{false};
    std::thread heartbeat([&] {
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_stop) {
            hb_cv.wait_for(lock, std::chrono::duration<double>(
                                     heartbeat_interval_sec));
            if (hb_stop)
                break;
            if (hb_suppress.load())
                continue;
            t.send("{\"type\": \"heartbeat\"}");
        }
    });
    auto stop_heartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    ServeStatus status = ServeStatus::kLost;
    std::string payload;
    for (;;) {
        if (!awaitMessage(t, payload))
            break;
        JsonValue msg;
        std::string parse_error;
        if (!parseJson(payload, msg, parse_error)) {
            std::fprintf(stderr, "worker: bad message: %s\n",
                         parse_error.c_str());
            break;
        }
        const JsonValue *type = msg.find("type");
        if (!type || type->asString() == "exit") {
            status = ServeStatus::kExit;
            break;
        }
        if (type->asString() != "job")
            continue;
        const JsonValue *idx = msg.find("index");
        if (!idx || idx->asU64() >= jobs.size()) {
            std::fprintf(stderr, "worker: job index out of range\n");
            break;
        }
        const std::size_t index = static_cast<std::size_t>(idx->asU64());

        const JsonValue *f = msg.find("fault");
        const std::string fault = f ? f->asString() : "";
        if (fault == "crash") {
            // Die without a result or an exit frame — exactly what an
            // OOM kill or a segfault looks like from the coordinator.
            std::_Exit(70);
        }
        if (fault == "hang") {
            // Wedge: stop heartbeating and never answer. The
            // coordinator's heartbeat timeout must kill us.
            hb_suppress.store(true);
            for (;;)
                std::this_thread::sleep_for(std::chrono::hours(1));
        }
        if (fault == "disconnect") {
            // Drop the channel mid-job without a result — what a cable
            // pull looks like. A local worker just exits (the
            // coordinator sees EOF and respawns); a --worker-connect
            // worker reconnects and rejoins as a fresh worker.
            status = ServeStatus::kDisconnectFault;
            break;
        }
        if (fault == "corrupt") {
            // A well-formed frame whose result subtree fails
            // readRunResult validation.
            JsonWriter w;
            w.beginObject();
            w.member("type", "result");
            w.member("index", std::uint64_t{index});
            w.key("result").beginObject();
            w.member("corrupt", true);
            w.endObject();
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
            continue;
        }

        if (cache_ok) {
            std::string raw;
            if (workerCacheLookup(cache_dir, campaignJobKey(jobs[index]),
                                  raw)) {
                // The stored subtree carries exact doubles, so splicing
                // it verbatim is byte-equivalent to re-simulating.
                std::fprintf(stderr, "worker: cache hit for job %zu\n",
                             index);
                t.send("{\"type\": \"result\", \"index\": " +
                       std::to_string(index) +
                       ", \"cached\": true, \"result\": " + raw + "}");
                continue;
            }
        }

        try {
            const RunResult result = executeCampaignJob(jobs[index]);
            JsonWriter w;
            // Exact doubles: the coordinator re-parses this into a
            // bit-identical RunResult, so the merged report matches an
            // in-process run byte-for-byte.
            w.setPreciseDoubles(true);
            w.beginObject();
            w.member("type", "result");
            w.member("index", std::uint64_t{index});
            w.key("result");
            writeRunResult(w, result);
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
            if (cache_ok)
                workerCacheStore(cache_dir, jobs[index], result);
        } catch (const std::exception &e) {
            JsonWriter w;
            w.beginObject();
            w.member("type", "error");
            w.member("index", std::uint64_t{index});
            w.member("message", std::string(e.what()));
            w.endObject();
            t.send(JsonWriter::compact(w.str()));
        }
    }

    stop_heartbeat();
    return status;
}

/**
 * Join a coordinator over @p t and serve its jobs. The handshake is the
 * same for every worker: hello (with @p token) -> the campaign spec and
 * heartbeat interval -> ready with the expanded job count. Local
 * (--worker) and remote (--worker-connect) workers differ only in how
 * @p t was opened. @p peer names the coordinator in the join log line;
 * empty keeps a local worker quiet on the stderr it shares with its
 * coordinator. @p joined reports whether the handshake completed.
 */
ServeStatus
joinAndServe(Channel &t, const std::string &token,
             const std::string &cache_dir, const std::string &peer,
             bool &joined)
{
    joined = false;
    {
        JsonWriter w;
        w.beginObject();
        w.member("type", "hello");
        w.member("pid", std::uint64_t(::getpid()));
        w.member("token", token);
        w.endObject();
        if (!t.send(JsonWriter::compact(w.str())))
            return ServeStatus::kLost;
    }

    std::string payload;
    if (!awaitMessage(t, payload))
        return ServeStatus::kLost;
    JsonValue msg;
    std::string error;
    if (!parseJson(payload, msg, error)) {
        std::fprintf(stderr, "worker: bad handshake message: %s\n",
                     error.c_str());
        return ServeStatus::kRefused;
    }
    const JsonValue *type = msg.find("type");
    const std::string kind = type ? type->asString() : "";
    if (kind == "reject") {
        const JsonValue *reason = msg.find("reason");
        std::fprintf(stderr, "worker: coordinator rejected us: %s\n",
                     reason ? reason->asString().c_str() : "no reason given");
        return ServeStatus::kRefused; // final: a retry would be rejected too
    }
    if (kind != "spec") {
        std::fprintf(stderr, "worker: expected a spec message, got '%s'\n",
                     kind.c_str());
        return ServeStatus::kRefused;
    }
    const JsonValue *schema = msg.find("schema");
    const JsonValue *block = msg.find("grid");
    const JsonValue *hb = msg.find("heartbeat_interval");
    CampaignGrid grid;
    if (!schema || schema->asString() != kCampaignSpecSchema || !block) {
        std::fprintf(stderr, "worker: not a %s spec with a grid block\n",
                     kCampaignSpecSchema);
        return ServeStatus::kRefused;
    }
    if (!readCampaignGrid(*block, grid, error) ||
        !validateGrid(grid, error)) {
        std::fprintf(stderr, "worker: bad campaign spec: %s\n",
                     error.c_str());
        return ServeStatus::kRefused;
    }
    const std::vector<CampaignJob> jobs = expandGrid(grid);

    if (!t.send("{\"type\": \"ready\", \"jobs\": " +
                std::to_string(jobs.size()) + "}"))
        return ServeStatus::kLost;
    joined = true;
    if (!peer.empty())
        std::fprintf(stderr, "worker: joined %s (%zu jobs in the grid)\n",
                     peer.c_str(), jobs.size());
    return serveCampaignJobs(t, jobs,
                             hb && hb->isNumber() ? hb->asDouble() : 1.0,
                             cache_dir);
}

} // namespace

int
runCampaignWorker(const std::string &cache_dir)
{
    // Writes to a dead coordinator must fail with EPIPE, not a signal.
    ::signal(SIGPIPE, SIG_IGN);
    Channel t(STDIN_FILENO, STDOUT_FILENO);
    bool joined = false;
    return joinAndServe(t, "", cache_dir, "", joined) ==
                   ServeStatus::kRefused
               ? 2
               : 0;
}

int
runConnectWorker(const std::string &endpoint_spec,
                 const ConnectWorkerOptions &options)
{
    ::signal(SIGPIPE, SIG_IGN);

    Endpoint ep;
    std::string error;
    if (!parseEndpoint(endpoint_spec, ep, error)) {
        std::fprintf(stderr, "worker: %s\n", error.c_str());
        return 2;
    }

    // Consecutive connect/rejoin failures; reset by a successful join so
    // a long campaign tolerates any number of isolated drops.
    unsigned failures = 0;
    auto fail_retry = [&](const std::string &why) -> bool {
        ++failures;
        if (failures > options.reconnectAttempts) {
            std::fprintf(stderr, "worker: %s; giving up after %u "
                         "consecutive failures\n", why.c_str(), failures);
            return false;
        }
        const double backoff = failures * options.reconnectBackoffSec;
        std::fprintf(stderr, "worker: %s; retrying in %.1fs (%u/%u)\n",
                     why.c_str(), backoff, failures,
                     options.reconnectAttempts);
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        return true;
    };

    for (;;) {
        Socket conn = Socket::connect(ep, error);
        if (!conn.valid()) {
            if (!fail_retry(error))
                return kExitNetwork;
            continue;
        }
        Channel t(std::move(conn));
        bool joined = false;
        const ServeStatus st = joinAndServe(t, options.helloToken,
                                            options.cacheDir, ep.name(),
                                            joined);
        t.close();
        if (joined)
            failures = 0;
        if (st == ServeStatus::kExit)
            return 0; // orderly campaign end
        if (st == ServeStatus::kRefused)
            return kExitNetwork;
        const char *why = st == ServeStatus::kDisconnectFault
                              ? "injected disconnect fault"
                          : joined ? "connection to the coordinator lost"
                                   : "connection dropped during the handshake";
        if (!fail_retry(why))
            return kExitNetwork;
    }
}

// ------------------------------------------------------------- coordinator

namespace {

/** One worker channel — a local subprocess over pipes or a remote TCP
 *  connection; the event loop treats them uniformly. */
struct WorkerChan
{
    unsigned id = 0;
    std::unique_ptr<Channel> chan;
    pid_t pid = -1; ///< local subprocess pid; -1 for remote workers
    bool remote = false;
    bool alive = false;
    bool hello = false;
    /** Assignable: the hello/spec/ready handshake completed. */
    bool ready = false;
    double lastSeen = 0.0;
    double jobStart = 0.0;
    std::ptrdiff_t job = -1; ///< assigned grid index, -1 when idle
};

} // namespace

bool
CampaignCoordinator::listen(std::string &error)
{
    if (config_.listenEndpoint.empty() || listenSocket_.valid())
        return true;
    Endpoint ep;
    if (!parseEndpoint(config_.listenEndpoint, ep, error))
        return false;
    Socket s = Socket::listen(ep, error);
    if (!s.valid() || !s.setNonBlocking(error))
        return false;
    listenSocket_ = std::move(s);
    inform("coordinator: listening for remote workers on %s (port %u)",
           ep.name().c_str(), unsigned{listenSocket_.localPort()});
    return true;
}

std::uint16_t
CampaignCoordinator::listenPort() const
{
    return listenSocket_.valid() ? listenSocket_.localPort() : 0;
}

CampaignReport
CampaignCoordinator::run()
{
    CampaignReport report;
    const std::vector<CampaignJob> todo =
        beginCampaign(grid_, resume_, report);

    std::string listen_error;
    if (!listen(listen_error))
        throw std::runtime_error(listen_error);

    // With no workers and nobody to wait for, every job runs in-process
    // rather than the loop spinning forever; otherwise only what a
    // degraded worker population left behind does.
    const bool use_workers = config_.workers > 0 || listenSocket_.valid();
    const std::vector<CampaignJob> rest =
        use_workers && !todo.empty() ? dispatch(todo, report) : todo;
    if (!rest.empty())
        runCampaignJobs(rest, std::max(1u, config_.workers), progress_,
                        abort_, report);
    finishCampaign(report);
    return report;
}

std::vector<CampaignJob>
CampaignCoordinator::dispatch(const std::vector<CampaignJob> &todo,
                              CampaignReport &report)
{
    const bool listening = listenSocket_.valid();
    const std::size_t grid_jobs = report.runs.size();

    std::deque<std::pair<std::size_t, double>> pending; // (index, readyAt)
    for (const CampaignJob &job : todo)
        pending.push_back({job.index, 0.0});

    const std::size_t target = todo.size();
    std::size_t completed = 0, failed = 0;
    std::vector<unsigned> attempts(grid_jobs, 0);
    std::vector<FaultInjection> faults = config_.faults;
    std::vector<bool> fault_fired(faults.size(), false);

    // Every worker, spawned or dialed in, gets the spec and the beat
    // period in reply to its hello.
    const double hb_interval =
        std::min(1.0, std::max(0.02, config_.heartbeatTimeoutSec / 4.0));
    std::string spec_msg;
    {
        JsonWriter sm;
        sm.setPreciseDoubles(true);
        sm.beginObject();
        sm.member("type", "spec");
        sm.member("schema", kCampaignSpecSchema);
        sm.key("grid");
        writeCampaignGrid(sm, grid_);
        sm.member("heartbeat_interval", hb_interval);
        sm.endObject();
        spec_msg = JsonWriter::compact(sm.str());
    }

    // --------------------------------------------------- spawn machinery
    std::vector<std::string> argv_prefix = config_.workerCommand;
    if (argv_prefix.empty())
        argv_prefix = {selfExecutable()};
    std::vector<std::string> argv_tail = {"--worker"};
    if (!config_.workerCacheDir.empty()) {
        argv_tail.push_back("--worker-cache");
        argv_tail.push_back(config_.workerCacheDir);
    }

    // A write to a freshly dead worker must fail with EPIPE, not kill
    // the coordinator.
    struct sigaction ignore_pipe{}, old_pipe{};
    ignore_pipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

    std::vector<WorkerChan> workers;
    unsigned next_worker_id = 0;
    bool any_hello_ever = false;
    unsigned no_hello_deaths = 0;
    unsigned consecutive_failures = 0;
    bool degraded = false;

    auto spawn_worker = [&]() -> bool {
        int to_child[2], from_child[2];
        if (::pipe(to_child) < 0)
            return false;
        if (::pipe(from_child) < 0) {
            ::close(to_child[0]);
            ::close(to_child[1]);
            return false;
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(to_child[0]);
            ::close(to_child[1]);
            ::close(from_child[0]);
            ::close(from_child[1]);
            return false;
        }
        if (pid == 0) {
            ::dup2(to_child[0], STDIN_FILENO);
            ::dup2(from_child[1], STDOUT_FILENO);
            ::close(to_child[0]);
            ::close(to_child[1]);
            ::close(from_child[0]);
            ::close(from_child[1]);
            std::vector<std::string> args = argv_prefix;
            args.insert(args.end(), argv_tail.begin(), argv_tail.end());
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::_Exit(127);
        }
        ::close(to_child[0]);
        ::close(from_child[1]);
        ::fcntl(from_child[0], F_SETFL, O_NONBLOCK);
        WorkerChan w;
        w.id = next_worker_id++;
        w.pid = pid;
        w.chan = std::make_unique<Channel>(from_child[0], to_child[1]);
        w.alive = true;
        w.lastSeen = monotonicSeconds();
        workers.push_back(std::move(w));
        return true;
    };

    auto reap_worker = [&](WorkerChan &w) {
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
        }
        if (w.chan)
            w.chan->close();
        w.alive = false;
        w.ready = false;
    };

    auto attempt_failed = [&](std::size_t index, const std::string &why) {
        ++attempts[index];
        if (attempts[index] > config_.maxRetries) {
            report.runs[index].failed = true;
            report.failedRuns.push_back({index, attempts[index], why});
            ++failed;
            warn("coordinator: job %zu failed permanently after %u "
                 "attempts: %s", index, attempts[index], why.c_str());
        } else {
            const double backoff =
                attempts[index] * config_.retryBackoffSec;
            pending.push_back({index, monotonicSeconds() + backoff});
            inform("coordinator: job %zu attempt %u failed (%s); "
                   "retrying in %.1fs", index, attempts[index],
                   why.c_str(), backoff);
        }
    };

    auto worker_lost = [&](WorkerChan &w, const std::string &why) {
        // Only local subprocess deaths feed the degradation counters: a
        // remote worker dropping off the network says nothing about
        // whether THIS host can run workers.
        const bool local = !w.remote;
        const bool had_hello = w.hello;
        reap_worker(w);
        if (local) {
            ++consecutive_failures;
            if (!had_hello)
                ++no_hello_deaths;
        }
        if (w.job >= 0) {
            attempt_failed(static_cast<std::size_t>(w.job),
                           "worker " + std::to_string(w.id) + " " + why);
            w.job = -1;
        }
    };

    // ------------------------------------------------------- event loop
    while (completed + failed < target) {
        if (abort_ && abort_->load()) {
            report.aborted = true;
            break;
        }
        const double t = monotonicSeconds();

        // Kill wedged or overrunning workers.
        for (WorkerChan &w : workers) {
            if (!w.alive)
                continue;
            if (w.job >= 0 && t - w.jobStart > config_.jobTimeoutSec) {
                warn("coordinator: worker %u exceeded the %.1fs job "
                     "timeout on job %td; killing it", w.id,
                     config_.jobTimeoutSec, w.job);
                worker_lost(w, "hit the job timeout");
            } else if (t - w.lastSeen > config_.heartbeatTimeoutSec) {
                warn("coordinator: worker %u silent for %.1fs "
                     "(heartbeat timeout); killing it", w.id,
                     t - w.lastSeen);
                worker_lost(w, "stopped heartbeating");
            }
        }

        // Unusable-population safety nets -> degrade to in-process.
        // Disabled while listening: with remote workers expected, the
        // right behavior is to keep waiting for them, not to silently
        // run the campaign on the coordinator host.
        if (!listening) {
            if (!any_hello_ever && config_.workers > 0 &&
                no_hello_deaths >= config_.workers) {
                warn("coordinator: workers cannot spawn (%u died before "
                     "hello); degrading to in-process execution",
                     no_hello_deaths);
                degraded = true;
            }
            if (consecutive_failures >
                config_.workers * (config_.maxRetries + 1) + 4) {
                warn("coordinator: %u consecutive worker failures; "
                     "degrading to in-process execution",
                     consecutive_failures);
                degraded = true;
            }
            if (degraded)
                break;
        }

        // Keep the LOCAL population at min(workers, outstanding jobs);
        // remote workers add capacity beyond that.
        const std::size_t outstanding = target - completed - failed;
        std::size_t local_alive = 0;
        for (const WorkerChan &w : workers)
            local_alive += (w.alive && !w.remote) ? 1 : 0;
        while (local_alive <
               std::min<std::size_t>(config_.workers, outstanding)) {
            if (!spawn_worker()) {
                if (listening) {
                    warn("coordinator: cannot spawn local worker (%s); "
                         "relying on remote workers",
                         std::strerror(errno));
                    break;
                }
                warn("coordinator: cannot spawn worker (%s); degrading "
                     "to in-process execution", std::strerror(errno));
                degraded = true;
                break;
            }
            ++local_alive;
        }
        if (degraded)
            break;

        // Assign ready pending jobs to idle workers.
        for (WorkerChan &w : workers) {
            if (!w.alive || !w.ready || w.job >= 0 || pending.empty())
                continue;
            // Jobs in backoff stay queued until their readyAt passes.
            auto ready = pending.end();
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->second <= t) {
                    ready = it;
                    break;
                }
            }
            if (ready == pending.end())
                continue;
            const std::size_t index = ready->first;
            pending.erase(ready);

            JsonWriter msg;
            msg.beginObject();
            msg.member("type", "job");
            msg.member("index", std::uint64_t{index});
            if (const FaultInjection *f =
                    pickFault(faults, fault_fired, index))
                msg.member("fault", faultKindName(f->kind));
            msg.endObject();
            w.job = static_cast<std::ptrdiff_t>(index);
            w.jobStart = t;
            if (!w.chan->send(JsonWriter::compact(msg.str()))) {
                // Dead before the assignment landed: requeue with no
                // attempt penalty, recycle the worker.
                w.job = -1;
                pending.push_front({index, t});
                worker_lost(w, "rejected a job assignment");
            }
        }

        // Wait for worker traffic (bounded so timeouts/abort stay live).
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_worker; // SIZE_MAX = the listener
        if (listening) {
            fds.push_back({listenSocket_.fd(), POLLIN, 0});
            fd_worker.push_back(SIZE_MAX);
        }
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            fds.push_back({workers[i].chan->fd(), POLLIN, 0});
            fd_worker.push_back(i);
        }
        if (fds.empty())
            continue;
        ::poll(fds.data(), fds.size(), 100);

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (fd_worker[i] == SIZE_MAX) {
                // Accept every pending remote connection; each is a new
                // worker that must still pass the hello handshake.
                for (;;) {
                    std::string accept_error;
                    Socket conn = listenSocket_.accept(accept_error);
                    if (!conn.valid()) {
                        if (!accept_error.empty())
                            warn("coordinator: %s", accept_error.c_str());
                        break;
                    }
                    std::string nb_error;
                    if (!conn.setNonBlocking(nb_error)) {
                        warn("coordinator: dropping connection: %s",
                             nb_error.c_str());
                        continue;
                    }
                    WorkerChan w;
                    w.id = next_worker_id++;
                    w.remote = true;
                    w.alive = true;
                    w.chan = std::make_unique<Channel>(std::move(conn));
                    w.lastSeen = monotonicSeconds();
                    inform("coordinator: remote worker %u connected",
                           w.id);
                    workers.push_back(std::move(w));
                }
                continue;
            }
            WorkerChan &w = workers[fd_worker[i]];
            const Channel::Pump pumped = w.chan->pump();
            const bool gone = pumped == Channel::Pump::kEof ||
                              pumped == Channel::Pump::kError;

            // Parse every complete message.
            bool desync = false, rejected = false;
            std::string payload;
            int st;
            while ((st = w.chan->next(payload)) == 1) {
                JsonValue msg;
                std::string parse_error;
                if (!parseJson(payload, msg, parse_error)) {
                    desync = true;
                    break;
                }
                const JsonValue *type = msg.find("type");
                const std::string kind = type ? type->asString() : "";
                w.lastSeen = monotonicSeconds();
                if (kind == "hello") {
                    // Local workers are our own children; only a worker
                    // that dialed in must present the shared secret.
                    const JsonValue *tok = msg.find("token");
                    const std::string token =
                        tok && tok->isString() ? tok->asString() : "";
                    if (w.remote && token != config_.helloToken) {
                        warn("coordinator: remote worker %u sent a bad "
                             "hello token; rejecting it", w.id);
                        w.chan->send("{\"type\": \"reject\", \"reason\": "
                                     "\"bad hello token\"}");
                        rejected = true;
                        break;
                    }
                    w.hello = true;
                    any_hello_ever = true;
                    if (!w.chan->send(spec_msg)) {
                        desync = true;
                        break;
                    }
                } else if (kind == "ready") {
                    // The worker expanded the spec we shipped; a job
                    // count mismatch means we would be assigning indices
                    // into a DIFFERENT grid — never assign to it.
                    const JsonValue *count = msg.find("jobs");
                    if (!w.hello || !count || count->asU64() != grid_jobs) {
                        desync = true;
                        break;
                    }
                    w.ready = true;
                    if (w.remote)
                        inform("coordinator: remote worker %u ready", w.id);
                } else if (kind == "heartbeat") {
                    // lastSeen refresh above is the whole point
                } else if (kind == "result" || kind == "error") {
                    const JsonValue *idx = msg.find("index");
                    if (!idx || idx->asU64() >= grid_jobs ||
                        w.job !=
                            static_cast<std::ptrdiff_t>(idx->asU64())) {
                        desync = true;
                        break;
                    }
                    const std::size_t index =
                        static_cast<std::size_t>(idx->asU64());
                    w.job = -1;
                    if (kind == "error") {
                        const JsonValue *m = msg.find("message");
                        attempt_failed(index,
                                       m ? m->asString()
                                         : "worker error");
                        continue;
                    }
                    const JsonValue *result = msg.find("result");
                    RunResult parsed;
                    if (!result || !readRunResult(*result, parsed)) {
                        attempt_failed(index, "corrupt result frame");
                        continue;
                    }
                    const JsonValue *cached = msg.find("cached");
                    if (cached && cached->kind == JsonValue::Kind::kBool &&
                        cached->boolean)
                        ++report.workerCacheHits;
                    report.runs[index].result = std::move(parsed);
                    consecutive_failures = 0;
                    ++completed;
                    if (progress_)
                        progress_(report.runs[index]);
                } else {
                    desync = true;
                    break;
                }
            }
            if (st < 0)
                desync = true;
            if (rejected) {
                // Not a worker failure: it never held a job, and its
                // death must not feed the degradation counters.
                reap_worker(w);
                continue;
            }
            if (desync) {
                warn("coordinator: worker %u broke the frame protocol; "
                     "dropping it", w.id);
                worker_lost(w, "broke the frame protocol");
                continue;
            }
            if (gone)
                worker_lost(w, w.remote ? "disconnected"
                                        : "exited unexpectedly");
        }
    }

    // ------------------------------------------------------- shutdown
    for (WorkerChan &w : workers) {
        if (!w.alive || !w.chan)
            continue;
        w.chan->send("{\"type\": \"exit\"}");
        w.chan->shutdownSend();
    }
    const double shutdown_start = monotonicSeconds();
    for (WorkerChan &w : workers) {
        if (w.remote) {
            if (w.alive) {
                w.chan->close();
                w.alive = false;
            }
            continue;
        }
        while (w.alive && w.pid > 0) {
            const pid_t r = ::waitpid(w.pid, nullptr, WNOHANG);
            if (r == w.pid || (r < 0 && errno == ECHILD)) {
                w.pid = -1;
                w.chan->close();
                w.alive = false;
                break;
            }
            if (monotonicSeconds() - shutdown_start > 2.0) {
                reap_worker(w);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    ::sigaction(SIGPIPE, &old_pipe, nullptr);

    // A degraded population leaves its queued and in-flight jobs to the
    // in-process executor.
    std::vector<CampaignJob> rest;
    if (degraded) {
        for (const auto &[index, ready_at] : pending)
            rest.push_back(report.runs[index].job);
        for (const WorkerChan &w : workers)
            if (w.job >= 0)
                rest.push_back(
                    report.runs[static_cast<std::size_t>(w.job)].job);
        std::sort(rest.begin(), rest.end(),
                  [](const CampaignJob &a, const CampaignJob &b) {
                      return a.index < b.index;
                  });
    }
    return rest;
}

} // namespace mondrian
