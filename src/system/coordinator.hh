/**
 * @file
 * CampaignCoordinator: fault-tolerant distributed campaign execution.
 *
 * The coordinator shards an expanded campaign grid across workers —
 * local subprocesses (`mondrian_campaign --worker`) and, with
 * `--listen HOST:PORT`, remote TCP workers that dial in
 * (`mondrian_campaign --worker-connect HOST:PORT`). Jobs are assigned
 * dynamically (pull-based: an idle worker gets the next pending grid
 * index), and results merge by grid index — never completion order — so
 * the merged report is byte-identical to the same grid run in-process
 * with any `--jobs` value, whatever mix of transports carried it.
 *
 * Wire protocol (docs/distributed.md has the full description): every
 * worker channel — pipes to a local subprocess or a TCP socket — carries
 * the same CRC32-checked frames in both directions (src/net/transport.hh)
 * and starts with the same handshake: the worker says hello, the
 * coordinator answers with the campaign spec plus the heartbeat
 * interval, and the worker replies "ready" with its expanded job count
 * before it is assigned any job. Only a remote worker's hello must carry
 * the shared-secret token (`--hello-token`).
 *
 * Failure model — every failure mode maps to a bounded retry:
 *  - worker crash (EOF/death) or mid-frame disconnect: its in-flight
 *    job is requeued with backoff; local workers are respawned, remote
 *    workers may reconnect and rejoin as fresh workers.
 *  - worker hang (no heartbeat for heartbeatTimeoutSec, or a job
 *    exceeding jobTimeoutSec): the worker is killed (SIGKILL locally,
 *    connection dropped remotely), the job requeued.
 *  - corrupt result (frame parses, RunResult doesn't) or a CRC
 *    mismatch / short read / framing violation on the channel: counted
 *    as a failed attempt, job requeued, channel dropped.
 *  - a job failing more than maxRetries times is marked permanently
 *    failed: the campaign continues, the report lists it under
 *    "failed_runs", and the process exits non-zero.
 *  - local workers that die before ever saying hello (bad binary, exec
 *    failure) trip graceful degradation: the unresolved jobs run on
 *    CampaignRunner's in-process executor (runCampaignJobs) — unless
 *    the coordinator is listening for remote workers, in which case it
 *    keeps waiting for them instead of silently running local.
 *
 * Determinism: workers serialize RunResult JSON with exact (shortest
 * round-trip) doubles; the coordinator parses them back into bit-exact
 * RunResults and the ordinary report writer re-emits the canonical
 * 12-digit form — so a campaign that crashed, hung, retried and
 * reassigned still produces the byte-identical report, which is the
 * chaos oracle CI enforces. Worker-side result caching (`--worker-cache
 * DIR`) rides on the same property: a cache entry is a journal line at
 * exact doubles, so a warm re-dispatch reproduces the run's bytes.
 */

#ifndef MONDRIAN_SYSTEM_COORDINATOR_HH
#define MONDRIAN_SYSTEM_COORDINATOR_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/socket.hh"
#include "system/campaign.hh"

namespace mondrian {

/**
 * Exit code for network-setup and handshake failures (bind/listen
 * failed, connect refused after retries, hello token rejected) —
 * distinct from the 0/1/2/3/4 campaign exit-code contract so scripts
 * can tell "the campaign failed" from "the campaign never formed".
 */
constexpr int kExitNetwork = 5;

/**
 * Schema of the handshake's "spec" message. Its "grid" member is the
 * report's own grid block (writeCampaignGrid) at exact doubles, so the
 * worker rebuilds bit-identical WorkloadConfig values and re-expands
 * the identical job list: job index N in the coordinator IS job index
 * N in every worker, which is what lets the protocol ship bare indices.
 * A worker refuses any other schema.
 */
inline constexpr const char *kCampaignSpecSchema =
    "mondrian-campaign-spec-v3";

/**
 * One deterministic fault to inject, for tests and CI chaos runs.
 * Faults are delivered to workers inside job-assignment messages; by
 * default each fires on the job's FIRST attempt only, so the retry
 * machinery recovers and the merged report stays byte-identical to a
 * clean run. A sticky fault fires on every attempt — the way to drive a
 * job into retry exhaustion and the report's failed_runs array.
 */
struct FaultInjection
{
    enum class Kind
    {
        kCrash,      ///< worker exits without a result
        kHang,       ///< worker wedges and stops heartbeating
        kCorrupt,    ///< worker emits a well-formed frame with garbage result
        kDisconnect, ///< worker drops its channel mid-job (then a
                     ///< --worker-connect worker reconnects and rejoins)
    };

    Kind kind = Kind::kCrash;
    std::size_t index = 0; ///< grid index of the job to afflict
    bool sticky = false;   ///< re-inject on every attempt
};

const char *faultKindName(FaultInjection::Kind kind);

/**
 * Parse a --fault-inject spec: comma-separated `kind@index` items with
 * kind in {crash, hang, corrupt, disconnect} and an optional `!` suffix
 * for sticky faults, e.g. "crash@2,hang@5,corrupt@1" or "crash@0!".
 * @return false with @p error set on malformed specs.
 */
bool parseFaultInject(const std::string &spec,
                      std::vector<FaultInjection> &out, std::string &error);

/** Knobs of a coordinator run (CLI flags of the same names). */
struct CoordinatorConfig
{
    unsigned workers = 2;            ///< local worker subprocesses to keep alive
    double jobTimeoutSec = 600.0;    ///< per-attempt wall-clock budget
    double heartbeatTimeoutSec = 30.0; ///< silence before a kill
    unsigned maxRetries = 2;         ///< attempts per job = 1 + maxRetries
    /**
     * HOST:PORT to accept remote `--worker-connect` workers on; empty =
     * local subprocess workers only. With a listen endpoint and
     * workers == 0 the campaign is remote-only and waits for workers to
     * dial in.
     */
    std::string listenEndpoint;
    /**
     * Shared secret remote hellos must present; a mismatch gets a
     * reject message and a closed connection. Empty accepts only
     * token-less (or empty-token) hellos — fine on a trusted loopback,
     * set one for anything cross-machine.
     */
    std::string helloToken;
    /**
     * Result-cache directory forwarded to spawned local workers as
     * `--worker-cache DIR` (remote workers configure their own). Empty
     * = no cache.
     */
    std::string workerCacheDir;
    /**
     * argv prefix of the worker binary; "--worker" (and any
     * --worker-cache) is appended. Empty = this executable
     * (/proc/self/exe). Tests point it at a nonexistent path to
     * exercise graceful degradation.
     */
    std::vector<std::string> workerCommand;
    /** Faults to inject (tests/CI); empty in production use. */
    std::vector<FaultInjection> faults;
};

/** Runs a campaign grid across workers (see file header). */
class CampaignCoordinator
{
  public:
    CampaignCoordinator(const CampaignGrid &grid,
                        const CoordinatorConfig &config)
        : grid_(grid), config_(config)
    {}

    /**
     * Bind the remote-worker listener on config.listenEndpoint (no-op
     * when the endpoint is empty). Callable before run() so CLI/test
     * callers can map a bind failure to kExitNetwork and read the
     * actual port of a port-0 bind via listenPort().
     * @return false with @p error set when the endpoint is malformed or
     * the bind/listen fails.
     */
    bool listen(std::string &error);

    /** Bound listener port (0 when not listening). */
    std::uint16_t listenPort() const;

    /**
     * Execute the campaign. Blocks until every job completed, failed
     * permanently, or an abort was requested.
     * @throw std::invalid_argument when the grid fails validateGrid().
     * @throw std::runtime_error when a configured listen endpoint cannot
     * be bound.
     */
    CampaignReport run();

    /** Progress callback, as CampaignRunner::onRunDone (coordinator
     *  thread; also invoked for journaling by the CLI). */
    void onRunDone(std::function<void(const CampaignRun &)> cb)
    {
        progress_ = std::move(cb);
    }

    /** Reuse cached grid points, as CampaignRunner::setResume. */
    void setResume(const ResumeCache *cache) { resume_ = cache; }

    /** Cooperative cancellation, as CampaignRunner::setAbort: workers
     *  are killed, the partial report returns with aborted set. */
    void setAbort(const std::atomic<bool> *flag) { abort_ = flag; }

  private:
    /** Run @p todo on workers; returns the jobs a degraded worker
     *  population left unresolved, in grid order (empty otherwise). */
    std::vector<CampaignJob> dispatch(const std::vector<CampaignJob> &todo,
                                      CampaignReport &report);

    CampaignGrid grid_;
    CoordinatorConfig config_;
    std::function<void(const CampaignRun &)> progress_;
    const ResumeCache *resume_ = nullptr;
    const std::atomic<bool> *abort_ = nullptr;
    Socket listenSocket_;
};

/**
 * Local-worker main loop (`mondrian_campaign --worker`): join the
 * coordinator over stdin/stdout — hello, receive the campaign spec and
 * heartbeat interval, reply ready — then serve jobs, streaming
 * heartbeats and results until an exit message or EOF. @p cache_dir
 * (may be empty) enables the worker-side result cache.
 * @return the process exit code (2 when the handshake fails).
 */
int runCampaignWorker(const std::string &cache_dir = std::string());

/** Knobs of a `--worker-connect` remote worker. */
struct ConnectWorkerOptions
{
    std::string helloToken;  ///< must match the coordinator's token
    std::string cacheDir;    ///< worker-side result cache; empty = off
    /** Consecutive connect/rejoin failures tolerated before giving up
     *  (0 = exit on the first drop). A successful rejoin resets the
     *  count, so a long campaign survives any number of isolated
     *  disconnects. */
    unsigned reconnectAttempts = 3;
};

/**
 * Remote-worker main loop (`mondrian_campaign --worker-connect
 * HOST:PORT`): dial the coordinator and join it exactly as a local
 * worker does, presenting the hello token, then serve jobs. A dropped
 * connection (coordinator kill, network fault, an injected disconnect)
 * triggers reconnection with backoff; the rejoined connection is a
 * brand-new worker to the coordinator. An explicit exit message or
 * hello rejection is final (no reconnect).
 * @return the process exit code (kExitNetwork for connect/handshake
 * failures).
 */
int runConnectWorker(const std::string &endpoint_spec,
                     const ConnectWorkerOptions &options);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_COORDINATOR_HH
