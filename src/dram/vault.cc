#include "dram/vault.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mondrian {

VaultController::VaultController(EventQueue &eq, const AddressMap &map,
                                 unsigned global_vault,
                                 const DramTiming &timing, unsigned window)
    : eq_(eq), map_(map), vault_(global_vault), timing_(timing),
      window_(window)
{
    const auto &geo = map.geometry();
    banks_.reserve(geo.banksPerVault);
    for (unsigned i = 0; i < geo.banksPerVault; ++i)
        banks_.emplace_back(timing_);
}

void
VaultController::enqueue(MemRequest &&req)
{
    sim_assert(req.size > 0);
    sim_assert(map_.vaultOf(req.addr) == vault_);

    if (req.isWrite && permArmed_ &&
        req.addr >= permRegion_.base &&
        req.addr + req.size <= permRegion_.base + permRegion_.size) {
        // Append engine: placement is arrival order, not the address the
        // source computed. Objects never straddle messages (§5.3), so a
        // whole request relocates as a unit. Arriving objects coalesce in
        // the controller's row-sized staging buffer and drain to DRAM as
        // full-row writes -- one activation and one burst per row, the
        // §5.3 guarantee. The store is acknowledged as soon as the
        // controller accepts it into the staging buffer.
        if (permCursor_ + req.size > permRegion_.size) {
            // Destination buffer overflow: the paper raises a CPU
            // exception and re-partitions; we treat it as a fatal
            // configuration error since our workloads are uniform.
            fatal("permutable region overflow in vault %u", vault_);
        }
        permCursor_ += req.size;
        stats_.permutableWrites++;
        if (req.onComplete) {
            Tick now = eq_.now();
            // Hot coalescing site: a partition burst acknowledges many
            // stores at one tick with no intervening schedules.
            auto ack = [cb = std::move(req.onComplete), now]() { cb(now); };
            eq_.scheduleCoalesced(now, std::move(ack));
        }
        flushAppendRows(false);
        return;
    }

    DecodedAddr d = map_.decode(req.addr);
    req.bank = d.bank;
    req.row = static_cast<std::uint32_t>(d.row);
    queue_.push_back(std::move(req));
    ++live_;
    trySchedule();
}

void
VaultController::armPermutable(const PermutableRegion &region)
{
    sim_assert(!permArmed_);
    sim_assert(map_.vaultOf(region.base) == vault_);
    permArmed_ = true;
    permRegion_ = region;
    permCursor_ = 0;
    permFlushed_ = 0;
}

std::uint64_t
VaultController::disarmPermutable()
{
    sim_assert(permArmed_);
    flushAppendRows(true);
    permArmed_ = false;
    return permCursor_;
}

void
VaultController::flushAppendRows(bool final_flush)
{
    const std::uint64_t row = map_.geometry().rowBytes;
    // Drain every complete row between the flushed mark and the cursor;
    // on the final flush, drain the trailing partial row too.
    while (permFlushed_ < permCursor_) {
        Addr start = permRegion_.base + permFlushed_;
        std::uint64_t row_end = ((start / row) + 1) * row;
        std::uint64_t limit = permRegion_.base + permCursor_;
        if (row_end > limit) {
            if (!final_flush)
                break; // partial row keeps staging
            row_end = limit;
        }
        MemRequest flush;
        flush.addr = start;
        flush.size = static_cast<std::uint32_t>(row_end - start);
        flush.isWrite = true;
        DecodedAddr d = map_.decode(start);
        flush.bank = d.bank;
        flush.row = static_cast<std::uint32_t>(d.row);
        queue_.push_back(std::move(flush));
        ++live_;
        permFlushed_ += row_end - start;
    }
    trySchedule();
}

double
VaultController::rowHitRate() const
{
    std::uint64_t total = stats_.rowHits + stats_.rowActivations;
    return total == 0 ? 0.0
                      : static_cast<double>(stats_.rowHits) /
                            static_cast<double>(total);
}

void
VaultController::trySchedule()
{
    // Picked requests leave a tombstone (size == 0) instead of an erase:
    // erasing mid-queue would shift every request behind the pick — an
    // O(window) move of callback-carrying objects per issue, the dominant
    // cost of the old deque scheduler. Tombstones pop cheaply once they
    // reach the head. The pick order is identical either way.
    while (issued_ < window_ && live_ > 0) {
        while (head_ < queue_.size() && queue_[head_].size == 0)
            ++head_;
        // live_ > 0 guarantees a live entry at or after head_; reaching
        // the end would mean the live_ bookkeeping broke.
        sim_assert(head_ < queue_.size());
        if (head_ >= 1024 && head_ * 2 >= queue_.size()) {
            // Reclaim the consumed prefix once it dominates the vector.
            queue_.erase(queue_.begin(),
                         queue_.begin() +
                             static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }

        // FR-FCFS: prefer the oldest request that hits an open row;
        // otherwise take the oldest request. Scan the oldest `window_`
        // live requests, skipping tombstones.
        std::size_t pick = head_;
        bool found_hit = false;
        std::size_t seen = 0;
        for (std::size_t i = head_;
             i < queue_.size() && seen < window_; ++i) {
            if (queue_[i].size == 0)
                continue;
            ++seen;
            const auto &open = banks_[queue_[i].bank].openRow();
            if (open && *open == queue_[i].row) {
                pick = i;
                found_hit = true;
                break;
            }
        }
        if (!found_hit)
            pick = head_; // head is live after the pop loop above

        MemRequest &req = queue_[pick];
        --live_;
        issue(std::move(req)); // consumes the callback; fields stay valid
        req.size = 0;          // tombstone
        if (pick == head_)
            ++head_;
    }
    if (live_ == 0 && !queue_.empty()) {
        // Fully drained: everything left is a tombstone.
        queue_.clear();
        head_ = 0;
    }
}

void
VaultController::issue(MemRequest &&req)
{
    const auto &geo = map_.geometry();
    ++issued_;

    if (req.isWrite) {
        stats_.writes++;
        stats_.bytesWritten += req.size;
    } else {
        stats_.reads++;
        stats_.bytesRead += req.size;
    }

    // Split the request at row boundaries; each chunk is one column access
    // (possibly preceded by an activation) on its bank.
    Tick done = eq_.now();
    Addr addr = req.addr;
    std::uint64_t remaining = req.size;
    while (remaining > 0) {
        DecodedAddr d = map_.decode(addr);
        std::uint64_t in_row = geo.rowBytes - d.column;
        std::uint64_t chunk = std::min(remaining, in_row);
        Tick burst = chunk * timing_.busPsPerByte;

        BankAccessResult r =
            banks_[d.bank].access(d.row, eq_.now(), req.isWrite, burst);
        Tick burst_start = std::max(r.readyAt, busFreeAt_);
        busFreeAt_ = burst_start + burst;
        stats_.busBusy += burst;
        done = std::max(done, burst_start + burst);

        if (r.activated)
            stats_.rowActivations++;
        if (r.rowHit)
            stats_.rowHits++;

        addr += chunk;
        remaining -= chunk;
    }

    auto complete = [cb = std::move(req.onComplete), this, done]() {
        --issued_;
        if (cb)
            cb(done);
        trySchedule();
        if (issued_ == 0 && live_ == 0 && onDrained)
            onDrained();
    };
    eq_.scheduleCoalesced(done, std::move(complete));
}

} // namespace mondrian
