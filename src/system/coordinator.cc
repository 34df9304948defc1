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

#include "common/grammar.hh"
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
    for (const std::string &item : splitOn(spec, ',')) {
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
        std::uint64_t index = 0;
        if (!parseUint(idx, SIZE_MAX, index)) {
            error = "fault '" + item + "': '" + idx +
                    "' is not a job index";
            return false;
        }
        f.index = static_cast<std::size_t>(index);
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
pickFault(const std::vector<FaultInjection> &faults,
          std::vector<bool> &fired, std::size_t index)
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
 * Look @p job up in the cache at @p dir. An entry is a journal line and
 * reads back through the journal's reader, at exact doubles, so replying
 * with @p result is byte-equivalent to re-running the simulation.
 * Unreadable, corrupt, mismatched or wrongly shaped entries are misses.
 */
bool
workerCacheLookup(const std::string &dir, const CampaignJob &job,
                  RunResult &result)
{
    const std::string key = campaignJobKey(job);
    const std::string path = workerCachePath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string stored_key, error;
    if (!readJournalLine(ss.str(), stored_key, result, error)) {
        std::fprintf(stderr, "worker: ignoring unreadable cache entry %s "
                     "(%s)\n", path.c_str(), error.c_str());
        return false;
    }
    if (stored_key != key)
        return false; // a filename-hash collision: a miss
    if (checkResultShape(job, result, error))
        return true;
    std::fprintf(stderr, "worker: ignoring cache entry %s: its result %s\n",
                 path.c_str(), error.c_str());
    return false;
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

/** Backoff before a remote worker's next dial, per consecutive failure. */
constexpr double kReconnectBackoffSec = 0.5;

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
 * The result frame for job @p index. Exact doubles: the coordinator
 * re-parses it into a bit-identical RunResult, so the merged report
 * matches an in-process run byte for byte.
 */
std::string
resultFrame(std::size_t index, const RunResult &result, bool cached)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("type", "result");
    w.member("index", std::uint64_t{index});
    if (cached)
        w.member("cached", true);
    w.key("result");
    writeRunResult(w, result);
    w.endObject();
    return JsonWriter::compact(w.str());
}

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
        std::string error, type;
        MemberReader m{msg, error};
        if (!parseJson(payload, msg, error) || !m.str("type", type)) {
            std::fprintf(stderr, "worker: bad message: %s\n",
                         error.c_str());
            break;
        }
        if (type == "exit") {
            status = ServeStatus::kExit;
            break;
        }
        if (type != "job")
            continue;
        std::size_t index = jobs.size();
        if (!m.uint("index", index) || index >= jobs.size()) {
            std::fprintf(stderr, "worker: job index missing, wrong-typed "
                         "or out of range\n");
            break;
        }

        std::string fault;
        readString(msg.find("fault"), fault);
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
            t.send("{\"type\": \"result\", \"index\": " +
                   std::to_string(index) +
                   ", \"result\": {\"corrupt\": true}}");
            continue;
        }

        RunResult cached;
        if (cache_ok && workerCacheLookup(cache_dir, jobs[index], cached)) {
            std::fprintf(stderr, "worker: cache hit for job %zu\n", index);
            t.send(resultFrame(index, cached, true));
            continue;
        }

        try {
            const RunResult result = executeCampaignJob(jobs[index]);
            // Store first: once the coordinator holds every result,
            // every cache entry is on disk.
            if (cache_ok)
                workerCacheStore(cache_dir, jobs[index], result);
            t.send(resultFrame(index, result, false));
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
    std::string error, kind;
    MemberReader m{msg, error};
    if (!parseJson(payload, msg, error) || !m.str("type", kind)) {
        std::fprintf(stderr, "worker: bad handshake message: %s\n",
                     error.c_str());
        return ServeStatus::kRefused;
    }
    if (kind == "reject") {
        std::string reason = "no reason given";
        readString(msg.find("reason"), reason);
        std::fprintf(stderr, "worker: coordinator rejected us: %s\n",
                     reason.c_str());
        return ServeStatus::kRefused; // final: a retry would be rejected too
    }
    if (kind != "spec") {
        std::fprintf(stderr, "worker: expected a spec message, got '%s'\n",
                     kind.c_str());
        return ServeStatus::kRefused;
    }
    std::string schema;
    const JsonValue *block = msg.find("grid");
    if (!m.str("schema", schema) || schema != kCampaignSpecSchema || !block) {
        std::fprintf(stderr, "worker: not a %s spec with a grid block\n",
                     kCampaignSpecSchema);
        return ServeStatus::kRefused;
    }
    CampaignGrid grid;
    double heartbeat_interval = 0.0;
    if (!m.number("heartbeat_interval", heartbeat_interval) ||
        !readCampaignGrid(*block, grid, error) ||
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
    return serveCampaignJobs(t, jobs, heartbeat_interval, cache_dir);
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
        const double backoff = failures * kReconnectBackoffSec;
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

/** Backoff before a failed job's next attempt, per attempt so far. */
constexpr double kRetryBackoffSec = 0.1;

/** How far a worker is through the hello -> spec -> ready handshake. */
enum class Handshake
{
    kJoining, ///< spawned or dialed in, no hello yet
    kJoined,  ///< said hello and was sent the spec
    kReady,   ///< expanded the spec: assignable
};

/** One worker channel — a local subprocess over pipes or a remote TCP
 *  connection; the event loop treats them uniformly. A dropped worker
 *  has no channel and leaves the list at the next loop iteration. */
struct WorkerChan
{
    unsigned id = 0;
    std::unique_ptr<Channel> chan;
    pid_t pid = -1; ///< local subprocess pid; -1 for remote workers
    bool remote = false;
    Handshake state = Handshake::kJoining;
    double lastSeen = 0.0;
    double jobStart = 0.0;
    std::ptrdiff_t job = -1; ///< assigned grid index, -1 when idle
};

/** The handshake's reply to every hello, spawned or dialed in: the
 *  grid block at exact doubles and the heartbeat period. */
std::string
specMessage(const CampaignGrid &grid, double heartbeat_timeout_sec)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("type", "spec");
    w.member("schema", kCampaignSpecSchema);
    w.key("grid");
    writeCampaignGrid(w, grid);
    w.member("heartbeat_interval",
             std::min(1.0, std::max(0.02, heartbeat_timeout_sec / 4.0)));
    w.endObject();
    return JsonWriter::compact(w.str());
}

/**
 * The state of one CampaignCoordinator::dispatch() call. Each step of
 * its event loop is a method; dispatch() runs them in order until every
 * job is resolved (completed or failed for good).
 */
struct DispatchLoop
{
    const CoordinatorConfig &config;
    const Socket &listener;
    const std::function<void(const CampaignRun &)> &progress;
    CampaignReport &report;
    std::string specMsg;
    std::vector<std::string> argv; ///< local worker command line
    std::deque<std::pair<std::size_t, double>> pending; // (index, readyAt)
    std::size_t remaining = pending.size(); ///< jobs not yet resolved
    std::vector<bool> resolved = std::vector<bool>(report.runs.size());
    std::vector<unsigned> attempts =
        std::vector<unsigned>(report.runs.size());
    std::vector<bool> faultFired = std::vector<bool>(config.faults.size());
    std::vector<WorkerChan> workers{};
    unsigned nextWorkerId = 0;
    bool anyHello = false;
    unsigned noHelloDeaths = 0;       ///< local losses before a hello
    unsigned consecutiveFailures = 0; ///< local losses since a result

    /** Step 1: kill wedged or overrunning workers. */
    void
    expireTimeouts(double now)
    {
        for (WorkerChan &w : workers) {
            if (w.job >= 0 && now - w.jobStart > config.jobTimeoutSec) {
                warn("coordinator: worker %u exceeded the %.1fs job "
                     "timeout on job %td; killing it", w.id,
                     config.jobTimeoutSec, w.job);
                workerLost(w, "hit the job timeout");
            } else if (now - w.lastSeen > config.heartbeatTimeoutSec) {
                warn("coordinator: worker %u silent for %.1fs (heartbeat "
                     "timeout); killing it", w.id, now - w.lastSeen);
                workerLost(w, "stopped heartbeating");
            }
        }
    }

    /**
     * Step 2: keep the LOCAL population at min(workers, unresolved jobs)
     * and accept every pending remote dial (each must still pass the
     * hello handshake); remote workers add capacity beyond that.
     * @return false when the local population is unusable and the
     * unresolved jobs must run in-process. Never while listening: with
     * remote workers expected, the right behavior is to keep waiting
     * for them, not to silently run the campaign on this host.
     */
    bool
    keepPopulation()
    {
        const bool listening = listener.valid();
        if (!listening && !anyHello && config.workers > 0 &&
            noHelloDeaths >= config.workers) {
            warn("coordinator: workers cannot spawn (%u died before "
                 "hello); degrading to in-process execution",
                 noHelloDeaths);
            return false;
        }
        if (!listening && consecutiveFailures >
                              config.workers * (config.maxRetries + 1) + 4) {
            warn("coordinator: %u consecutive worker failures; degrading "
                 "to in-process execution", consecutiveFailures);
            return false;
        }
        std::size_t local = 0;
        for (const WorkerChan &w : workers)
            local += w.chan && !w.remote ? 1 : 0;
        for (; local < std::min<std::size_t>(config.workers, remaining);
             ++local) {
            if (spawnWorker())
                continue;
            if (!listening) {
                warn("coordinator: cannot spawn worker (%s); degrading "
                     "to in-process execution", std::strerror(errno));
                return false;
            }
            warn("coordinator: cannot spawn local worker (%s); relying "
                 "on remote workers", std::strerror(errno));
            break;
        }
        while (listening) {
            std::string error;
            Socket conn = listener.accept(error);
            if (!conn.valid()) {
                if (!error.empty())
                    warn("coordinator: %s", error.c_str());
                break;
            }
            if (!conn.setNonBlocking(error)) {
                warn("coordinator: dropping connection: %s", error.c_str());
                continue;
            }
            WorkerChan &w = workers.emplace_back();
            w.id = nextWorkerId++;
            w.remote = true;
            w.chan = std::make_unique<Channel>(std::move(conn));
            w.lastSeen = monotonicSeconds();
            inform("coordinator: remote worker %u connected", w.id);
        }
        return true;
    }

    /** Step 3: hand ready pending jobs to idle ready workers. */
    void
    assignJobs(double now)
    {
        for (WorkerChan &w : workers) {
            if (!w.chan || w.state != Handshake::kReady || w.job >= 0)
                continue;
            // Jobs in backoff stay queued until their readyAt passes.
            const auto next = std::find_if(
                pending.begin(), pending.end(),
                [now](const auto &p) { return p.second <= now; });
            if (next == pending.end())
                return;
            const std::size_t index = next->first;
            pending.erase(next);

            JsonWriter msg;
            msg.beginObject();
            msg.member("type", "job");
            msg.member("index", std::uint64_t{index});
            if (const FaultInjection *f =
                    pickFault(config.faults, faultFired, index))
                msg.member("fault", faultKindName(f->kind));
            msg.endObject();
            if (!w.chan->send(JsonWriter::compact(msg.str()))) {
                // Dead before the assignment landed: requeue with no
                // attempt penalty, recycle the worker.
                pending.push_front({index, now});
                workerLost(w, "rejected a job assignment");
                continue;
            }
            w.job = static_cast<std::ptrdiff_t>(index);
            w.jobStart = now;
        }
    }

    /** Step 4: wait for worker traffic (bounded, so timeouts and abort
     *  stay live) and handle it. */
    void
    readWorkers()
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner; // index into workers of fds[i]
        for (std::size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].chan)
                continue; // dropped earlier in this pass
            fds.push_back({workers[i].chan->fd(), POLLIN, 0});
            owner.push_back(i);
        }
        // The listener only wakes the loop; step 2 accepts its dials.
        if (listener.valid())
            fds.push_back({listener.fd(), POLLIN, 0});
        if (fds.empty())
            return;
        ::poll(fds.data(), fds.size(), 100);

        for (std::size_t i = 0; i < owner.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            WorkerChan &w = workers[owner[i]];
            const std::string why = handleMessages(w);
            if (!why.empty())
                workerLost(w, why);
        }
    }

    /** Tell every worker to exit, give local ones two seconds to do so,
     *  then kill and close whatever is left. */
    void
    shutdown()
    {
        for (WorkerChan &w : workers) {
            if (!w.chan)
                continue;
            w.chan->send("{\"type\": \"exit\"}");
            w.chan->shutdownSend();
        }
        const double deadline = monotonicSeconds() + 2.0;
        for (WorkerChan &w : workers) {
            while (w.pid > 0 && monotonicSeconds() < deadline) {
                const pid_t r = ::waitpid(w.pid, nullptr, WNOHANG);
                if (r == w.pid || (r < 0 && errno == ECHILD))
                    w.pid = -1; // exited on its own: nothing to kill
                else
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }
            reap(w);
        }
    }

    bool
    spawnWorker()
    {
        std::vector<char *> args;
        for (std::string &a : argv)
            args.push_back(a.data());
        args.push_back(nullptr);

        int to_child[2] = {-1, -1}, from_child[2] = {-1, -1};
        const pid_t pid = ::pipe(to_child) == 0 && ::pipe(from_child) == 0
                              ? ::fork()
                              : -1;
        if (pid == 0) {
            ::dup2(to_child[0], STDIN_FILENO);
            ::dup2(from_child[1], STDOUT_FILENO);
        }
        // One cleanup path: the child's pipe ends close on both sides
        // (the child holds them as stdin/stdout now); the coordinator's
        // ends close in the child and when the spawn failed.
        for (const int fd : {to_child[0], from_child[1]})
            if (fd >= 0)
                ::close(fd);
        if (pid <= 0)
            for (const int fd : {to_child[1], from_child[0]})
                if (fd >= 0)
                    ::close(fd);
        if (pid == 0) {
            ::execv(args[0], args.data());
            std::_Exit(127);
        }
        if (pid < 0)
            return false;
        ::fcntl(from_child[0], F_SETFL, O_NONBLOCK);
        WorkerChan &w = workers.emplace_back();
        w.id = nextWorkerId++;
        w.pid = pid;
        w.chan = std::make_unique<Channel>(from_child[0], to_child[1]);
        w.lastSeen = monotonicSeconds();
        return true;
    }

    /** Pump @p w's channel and act on every complete message.
     *  @return why the worker must be dropped; empty to keep it. */
    std::string
    handleMessages(WorkerChan &w)
    {
        const Channel::Pump pumped = w.chan->pump();
        std::string payload;
        int st;
        while ((st = w.chan->next(payload)) == 1) {
            std::string why = handleMessage(w, payload);
            if (!why.empty())
                return why;
        }
        if (st < 0)
            return protocolBreak(w);
        if (pumped == Channel::Pump::kEof || pumped == Channel::Pump::kError)
            return w.remote ? "disconnected" : "exited unexpectedly";
        return {};
    }

    std::string
    handleMessage(WorkerChan &w, const std::string &payload)
    {
        JsonValue msg;
        std::string error, kind;
        MemberReader m{msg, error};
        if (!parseJson(payload, msg, error) || !m.str("type", kind))
            return protocolBreak(w);
        w.lastSeen = monotonicSeconds();
        if (kind == "heartbeat")
            return {}; // the lastSeen refresh is the whole point
        if (kind == "hello") {
            // Local workers are our own children; only a worker that
            // dialed in must present the shared secret.
            std::string token;
            if (!m.str("token", token))
                return protocolBreak(w);
            if (w.remote && token != config.helloToken) {
                warn("coordinator: remote worker %u sent a bad hello "
                     "token; rejecting it", w.id);
                w.chan->send("{\"type\": \"reject\", \"reason\": "
                             "\"bad hello token\"}");
                return "sent a bad hello token";
            }
            w.state = Handshake::kJoined;
            anyHello = true;
            return w.chan->send(specMsg) ? std::string() : protocolBreak(w);
        }
        if (kind == "ready") {
            // The worker expanded the spec we shipped; a job count
            // mismatch means we would be assigning indices into a
            // DIFFERENT grid — never assign to it.
            std::size_t count = 0;
            if (w.state == Handshake::kJoining || !m.uint("jobs", count) ||
                count != report.runs.size())
                return protocolBreak(w);
            w.state = Handshake::kReady;
            if (w.remote)
                inform("coordinator: remote worker %u ready", w.id);
            return {};
        }
        // The envelope is read whole before the job is taken back, so a
        // broken frame drops the worker with its job still assigned.
        std::size_t index = 0;
        bool cached = false;
        std::string message;
        if ((kind != "result" && kind != "error") || w.job < 0 ||
            !m.uint("index", index) ||
            index != static_cast<std::size_t>(w.job) ||
            !m.optBool("cached", cached) ||
            (kind == "error" && !m.str("message", message)))
            return protocolBreak(w);
        w.job = -1;
        const JsonValue *result = msg.find("result");
        RunResult parsed;
        if (kind == "error") {
            attemptFailed(index, message);
        } else if (!result || !readRunResult(*result, parsed, error) ||
                   !checkResultShape(report.runs[index].job, parsed,
                                     error)) {
            attemptFailed(index, "corrupt result frame: " +
                                     (result ? error : "missing"));
        } else {
            if (cached)
                ++report.workerCacheHits;
            report.runs[index].result = std::move(parsed);
            consecutiveFailures = 0;
            resolve(index);
            if (progress)
                progress(report.runs[index]);
        }
        return {};
    }

    std::string
    protocolBreak(const WorkerChan &w)
    {
        warn("coordinator: worker %u broke the frame protocol; dropping "
             "it", w.id);
        return "broke the frame protocol";
    }

    void
    resolve(std::size_t index)
    {
        resolved[index] = true;
        --remaining;
    }

    void
    attemptFailed(std::size_t index, const std::string &why)
    {
        const unsigned n = ++attempts[index];
        if (n > config.maxRetries) {
            report.runs[index].failed = true;
            report.failedRuns.push_back({index, n, why});
            resolve(index);
            warn("coordinator: job %zu failed permanently after %u "
                 "attempts: %s", index, n, why.c_str());
            return;
        }
        const double backoff = n * kRetryBackoffSec;
        pending.push_back({index, monotonicSeconds() + backoff});
        inform("coordinator: job %zu attempt %u failed (%s); retrying in "
               "%.1fs", index, n, why.c_str(), backoff);
    }

    /** The one way a worker leaves: reap it and requeue its job. */
    void
    workerLost(WorkerChan &w, const std::string &why)
    {
        // Only local subprocess deaths feed the degradation counters: a
        // remote worker dropping off the network says nothing about
        // whether THIS host can run workers.
        if (!w.remote) {
            ++consecutiveFailures;
            noHelloDeaths += w.state == Handshake::kJoining ? 1 : 0;
        }
        reap(w);
        if (w.job >= 0)
            attemptFailed(static_cast<std::size_t>(w.job),
                          "worker " + std::to_string(w.id) + " " + why);
    }

    /** Kill a local worker that still runs and close the channel: the
     *  worker counts as dropped from here on. */
    static void
    reap(WorkerChan &w)
    {
        if (w.pid > 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
            w.pid = -1;
        }
        w.chan.reset();
    }
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
    std::deque<std::pair<std::size_t, double>> pending;
    for (const CampaignJob &job : todo)
        pending.push_back({job.index, 0.0});
    std::vector<std::string> argv = config_.workerCommand;
    if (argv.empty())
        argv = {selfExecutable()};
    argv.push_back("--worker");
    if (!config_.workerCacheDir.empty())
        argv.insert(argv.end(), {"--worker-cache", config_.workerCacheDir});
    DispatchLoop loop{config_, listenSocket_, progress_, report,
                      specMessage(grid_, config_.heartbeatTimeoutSec),
                      std::move(argv), std::move(pending)};

    // A write to a freshly dead worker must fail with EPIPE, not kill
    // the coordinator.
    struct sigaction ignore_pipe{}, old_pipe{};
    ignore_pipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);
    bool degraded = false;
    while (loop.remaining > 0) {
        if (abort_ && abort_->load()) {
            report.aborted = true;
            break;
        }
        std::erase_if(loop.workers,
                      [](const WorkerChan &w) { return !w.chan; });
        const double now = monotonicSeconds();
        loop.expireTimeouts(now);
        degraded = !loop.keepPopulation();
        if (degraded)
            break;
        loop.assignJobs(now);
        loop.readWorkers();
    }
    loop.shutdown();
    ::sigaction(SIGPIPE, &old_pipe, nullptr);

    // A degraded population leaves every unresolved job, queued or in
    // flight, to the in-process executor, in grid order.
    std::vector<CampaignJob> rest;
    for (const CampaignJob &job : todo)
        if (degraded && !loop.resolved[job.index])
            rest.push_back(job);
    return rest;
}

} // namespace mondrian
