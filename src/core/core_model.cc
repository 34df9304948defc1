#include "core/core_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mondrian {

CoreConfig
cortexA57()
{
    CoreConfig c;
    c.name = "cortex-a57";
    c.period = periodFromMHz(2000); // 2 GHz
    // §3.2: a 128-entry ROB sustains about 20 outstanding accesses.
    c.maxOutstandingLoads = 20;
    c.maxOutstandingStores = 24;
    // 32 MSHRs + next-line prefetcher keep sequential streams deep.
    c.streamDepth = 12;
    c.peakPowerWatts = 2.1; // Table 4
    return c;
}

CoreConfig
krait400()
{
    CoreConfig c;
    c.name = "krait400";
    c.period = periodFromMHz(1000); // 1 GHz
    // 48-entry ROB: roughly 8 concurrent fine-grained accesses.
    c.maxOutstandingLoads = 8;
    c.maxOutstandingStores = 12;
    c.streamDepth = 6; // next-line prefetcher (3 lines) + MSHRs
    c.peakPowerWatts = 0.312; // vault power budget (Table 4)
    return c;
}

CoreConfig
cortexA35Simd()
{
    CoreConfig c;
    c.name = "cortex-a35-simd";
    c.period = periodFromMHz(1000); // 1 GHz
    // In-order dual-issue: a single demand miss stalls the pipeline...
    c.maxOutstandingLoads = 2;
    c.maxOutstandingStores = 16; // object buffer drains posted stores
    // ...but the eight stream buffers keep eight fetches in flight.
    c.streamDepth = 8;
    c.peakPowerWatts = 0.180; // modified A35 estimate (§5.2)
    return c;
}

TraceCore::TraceCore(EventQueue &eq, const CoreConfig &cfg, MemoryPath &path,
                     unsigned core_id)
    : eq_(eq), cfg_(cfg), path_(path), id_(core_id)
{}

void
TraceCore::setTrace(const KernelTrace *trace)
{
    trace_ = trace;
    cursor_ = 0;
    runPos_ = 0;
    runBatchArmed_ = true;
    lastHitBatchable_ = false;
    time_ = 0;
    outLoads_ = outStreams_ = outStores_ = 0;
    blocked_ = waiting_ = fencing_ = false;
    started_ = finished_ = false;
    stats_ = CoreStats{};
}

void
TraceCore::start()
{
    sim_assert(trace_ != nullptr);
    sim_assert(!started_);
    started_ = true;
    time_ = eq_.now();
    advance();
}

double
TraceCore::utilization() const
{
    if (stats_.finishedAt == 0)
        return 0.0;
    return static_cast<double>(stats_.computeTicks) /
           static_cast<double>(stats_.finishedAt);
}

void
TraceCore::completion(Tick t, TraceOpKind kind)
{
    switch (kind) {
      case TraceOpKind::kLoad:
      case TraceOpKind::kLoadBlocking:
        sim_assert(outLoads_ > 0);
        --outLoads_;
        break;
      case TraceOpKind::kStreamRead:
        sim_assert(outStreams_ > 0);
        --outStreams_;
        break;
      case TraceOpKind::kStore:
      case TraceOpKind::kPermutableStore:
        sim_assert(outStores_ > 0);
        --outStores_;
        break;
      default:
        panic("unexpected completion kind");
    }

    // A core blocked on a dependent load only resumes when that load
    // returns (a core issues at most one blocking load before stalling,
    // so any kLoadBlocking completion is the awaited one). Other stalls
    // (window full, fence) clear on any completion.
    bool wake_up = false;
    if (blocked_)
        wake_up = kind == TraceOpKind::kLoadBlocking;
    else
        wake_up = waiting_ || fencing_;

    if (wake_up) {
        Tick wake = std::max(time_, t);
        Tick stall = wake - time_;
        stats_.stallTicks += stall;
        switch (stallKind_) {
          case TraceOpKind::kStore:
          case TraceOpKind::kPermutableStore:
            stats_.stallStoreTicks += stall;
            break;
          case TraceOpKind::kStreamRead:
            stats_.stallStreamTicks += stall;
            break;
          case TraceOpKind::kLoad:
          case TraceOpKind::kLoadBlocking:
            stats_.stallLoadTicks += stall;
            break;
          default:
            stats_.stallFenceTicks += stall;
            break;
        }
        time_ = wake;
        blocked_ = waiting_ = false;
        advance();
    } else if (finishedTraceButDraining()) {
        maybeFinish();
    }
}

bool
TraceCore::issueMemOp(TraceOpKind kind, Addr addr, std::uint32_t size)
{
    const bool is_write = kind == TraceOpKind::kStore ||
                          kind == TraceOpKind::kPermutableStore;
    const bool sequential = kind == TraceOpKind::kStreamRead;
    const bool permutable = kind == TraceOpKind::kPermutableStore;

    stats_.memOps++;
    if (is_write)
        stats_.bytesToMem += size;
    else
        stats_.bytesFromMem += size;

    auto on_done = [this, kind](Tick t) { completion(t, kind); };
    auto res = path_.request(time_, addr, size, is_write, sequential,
                             permutable, std::move(on_done));

    if (res.immediate) {
        // Cache hit: charge the hit latency inline, nothing outstanding.
        Tick cost = res.latency * cfg_.period;
        time_ += cost;
        stats_.computeTicks += cost;
        lastHitBatchable_ = res.batchable;
        return false;
    }
    lastHitBatchable_ = false;

    switch (kind) {
      case TraceOpKind::kLoad:
      case TraceOpKind::kLoadBlocking:
        ++outLoads_;
        break;
      case TraceOpKind::kStreamRead:
        ++outStreams_;
        break;
      case TraceOpKind::kStore:
      case TraceOpKind::kPermutableStore:
        ++outStores_;
        break;
      default:
        panic("not a memory op");
    }
    return true;
}

void
TraceCore::advance()
{
    const auto &ops = trace_->ops();
    while (cursor_ < ops.size()) {
        const TraceOp &op = ops[cursor_];
        switch (op.kind) {
          case TraceOpKind::kCompute: {
            Tick cost = Tick{op.value} * cfg_.period;
            time_ += cost;
            stats_.computeTicks += cost;
            ++cursor_;
            break;
          }
          case TraceOpKind::kLoad:
            if (outLoads_ >= cfg_.maxOutstandingLoads) {
                waiting_ = true;
                stallKind_ = TraceOpKind::kLoad;
                return;
            }
            issueMemOp(op.kind, op.addr, op.value);
            ++cursor_;
            break;
          case TraceOpKind::kLoadBlocking: {
            if (outLoads_ >= cfg_.maxOutstandingLoads) {
                waiting_ = true;
                stallKind_ = TraceOpKind::kLoad;
                return;
            }
            bool missed = issueMemOp(op.kind, op.addr, op.value);
            ++cursor_;
            // A dependent load that missed gates further progress. (The
            // wake fires on the next load completion; blocking loads are
            // emitted by kernels where they are the only loads in flight.)
            if (missed) {
                blocked_ = true;
                stallKind_ = TraceOpKind::kLoadBlocking;
                return;
            }
            break;
          }
          case TraceOpKind::kStreamRead:
            if (outStreams_ >= cfg_.streamDepth) {
                waiting_ = true;
                stallKind_ = TraceOpKind::kStreamRead;
                return;
            }
            issueMemOp(op.kind, op.addr, op.value);
            ++cursor_;
            break;
          case TraceOpKind::kStore:
          case TraceOpKind::kPermutableStore:
            if (outStores_ >= cfg_.maxOutstandingStores) {
                waiting_ = true;
                stallKind_ = TraceOpKind::kStore;
                return;
            }
            issueMemOp(op.kind, op.addr, op.value);
            ++cursor_;
            break;
          case TraceOpKind::kFence:
            if (outLoads_ + outStreams_ + outStores_ > 0) {
                fencing_ = true;
                stallKind_ = TraceOpKind::kFence;
                return;
            }
            ++cursor_;
            break;
          case TraceOpKind::kLoadRun:
          case TraceOpKind::kStreamRun:
          case TraceOpKind::kStoreRun: {
            // Expand the run on the fly: each access behaves exactly like
            // the plain op it encodes (same window checks, same issue
            // order), optionally followed by the per-access compute burst.
            // runPos_ keeps the position across window stalls.
            const TraceOpKind ek = TraceOp::expandedKind(op.kind);
            const bool run_write = ek == TraceOpKind::kStore;
            while (runPos_ < op.count) {
                bool full;
                TraceOpKind stall;
                switch (ek) {
                  case TraceOpKind::kStreamRead:
                    full = outStreams_ >= cfg_.streamDepth;
                    stall = TraceOpKind::kStreamRead;
                    break;
                  case TraceOpKind::kStore:
                    full = outStores_ >= cfg_.maxOutstandingStores;
                    stall = TraceOpKind::kStore;
                    break;
                  default:
                    full = outLoads_ >= cfg_.maxOutstandingLoads;
                    stall = TraceOpKind::kLoad;
                    break;
                }
                if (full) {
                    waiting_ = true;
                    stallKind_ = stall;
                    return;
                }
                if (cfg_.rleRunBatching && runBatchArmed_) {
                    // Closed-form prefix: consume the run's leading plain
                    // hits in one call. Immediate hits leave the window
                    // counters untouched, so the one not-full check above
                    // covers every consumed access — exactly the checks
                    // the per-access oracle would have made. The boundary
                    // access (miss, prefetch warmup, uncacheable) falls
                    // through to issueMemOp below on the next iteration.
                    auto rh = path_.requestRun(
                        time_, op.addr + Addr{runPos_} * op.value,
                        op.value, op.count - runPos_, run_write,
                        ek == TraceOpKind::kStreamRead, false);
                    if (rh.consumed > 0) {
                        const std::uint64_t k = rh.consumed;
                        stats_.memOps += k;
                        if (run_write)
                            stats_.bytesToMem += k * op.value;
                        else
                            stats_.bytesFromMem += k * op.value;
                        Tick per = rh.latency * cfg_.period +
                                   Tick{op.aux} * cfg_.period;
                        time_ += per * k;
                        stats_.computeTicks += per * k;
                        runPos_ += rh.consumed;
                        continue;
                    }
                    // Nothing batched: the next accesses are boundaries
                    // too until something hits again. Disarm so a run of
                    // misses is not charged a failed probe per access; a
                    // synchronous hit below re-arms.
                    runBatchArmed_ = false;
                }
                bool outstanding = issueMemOp(
                    ek, op.addr + Addr{runPos_} * op.value, op.value);
                // Re-arm only on a plain hit: a prefetch-stream hit
                // means the next access is almost surely another
                // boundary, and probing it would fail every time.
                (void)outstanding;
                runBatchArmed_ = runBatchArmed_ || lastHitBatchable_;
                ++runPos_;
                if (op.aux > 0) {
                    Tick cost = Tick{op.aux} * cfg_.period;
                    time_ += cost;
                    stats_.computeTicks += cost;
                }
            }
            runPos_ = 0;
            runBatchArmed_ = true;
            ++cursor_;
            break;
          }
        }
    }
    maybeFinish();
}

bool
TraceCore::finishedTraceButDraining() const
{
    return started_ && !finished_ && cursor_ >= trace_->ops().size();
}

void
TraceCore::maybeFinish()
{
    if (finished_)
        return;
    if (cursor_ < trace_->ops().size())
        return;
    if (outLoads_ + outStreams_ + outStores_ > 0)
        return;
    finished_ = true;
    stats_.finishedAt = std::max(time_, eq_.now());
    if (onFinish) {
        // Defer the callback so it observes a consistent simulator state.
        auto fire = [this]() { onFinish(id_, stats_.finishedAt); };
        eq_.schedule(stats_.finishedAt, std::move(fire));
    }
}

} // namespace mondrian
