#include "core/cache.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace mondrian {

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    // Set and line indices are masks and shifts: refuse any geometry
    // that would need a divide (or index past the arrays).
    if (!isPowerOf2(cfg_.lineBytes))
        fatal("cache lineBytes %u is not a power of two", cfg_.lineBytes);
    if (cfg_.associativity == 0)
        fatal("cache associativity is 0");
    const std::uint64_t set_bytes =
        std::uint64_t{cfg_.lineBytes} * cfg_.associativity;
    if (cfg_.sizeBytes % set_bytes)
        fatal("cache size must be a multiple of line*assoc");
    const std::uint64_t sets = cfg_.sizeBytes / set_bytes;
    if (!isPowerOf2(sets))
        fatal("cache sizeBytes %llu gives %llu sets, not a power of two",
              static_cast<unsigned long long>(cfg_.sizeBytes),
              static_cast<unsigned long long>(sets));
    if (cfg_.prefetchDepth > CacheAccessResult::kMaxPrefetch)
        fatal("prefetchDepth %u exceeds inline result capacity %u",
              cfg_.prefetchDepth, CacheAccessResult::kMaxPrefetch);
    lineShift_ = floorLog2(cfg_.lineBytes);
    setMask_ = sets - 1;
    wayBits_ = ceilLog2(cfg_.associativity);
    tags_.assign(sets * cfg_.associativity, kNoTag);
    stamps_.assign(sets * cfg_.associativity, 0);
    flags_.assign(sets * cfg_.associativity, 0);
}

std::size_t
Cache::find(std::size_t base, std::uint64_t line) const
{
    // Dense tag scan: invalid ways hold kNoTag, which no real line equals.
    for (std::size_t i = base; i < base + cfg_.associativity; ++i)
        if (tags_[i] == line)
            return i;
    return kNoWay;
}

std::size_t
Cache::victim(std::size_t base) const
{
    // The first way with the minimum stamp. Invalid ways hold stamp 0 and
    // valid ones at least 1 (stamps are unique once set), so this is
    // "first invalid way, else LRU". The one rule serves demand fills and
    // prefetch inserts alike. Each way's key packs (stamp, way) into one
    // word (stamps stay far below 2^(64 - wayBits_)), so the scan is a
    // plain minimum with no branch on which way is older (that branch is
    // unpredictable).
    std::uint64_t oldest = stamps_[base] << wayBits_;
    for (unsigned w = 1; w < cfg_.associativity; ++w)
        oldest = std::min(oldest, (stamps_[base + w] << wayBits_) | w);
    return base + (oldest & ((std::uint64_t{1} << wayBits_) - 1));
}

std::optional<Addr>
Cache::fillAt(std::size_t idx, std::uint64_t line, bool dirty,
              bool prefetched)
{
    std::optional<Addr> writeback;
    if (flags_[idx] & kDirty) {
        writeback = tags_[idx] << lineShift_;
        stats_.writebacks++;
    }
    tags_[idx] = line;
    flags_[idx] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                            (prefetched ? kPrefetched : 0));
    stamps_[idx] = ++stamp_;
    return writeback;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write)
{
    stats_.accesses++;
    CacheAccessResult res;
    const std::uint64_t line = lineAddr(addr);
    const std::size_t base = setBase(line);
    const std::size_t i = find(base, line);

    if (i != kNoWay) {
        res.hit = true;
        res.prefetchHit = (flags_[i] & kPrefetched) != 0;
        if (res.prefetchHit) {
            stats_.prefetchHits++;
            flags_[i] &= static_cast<std::uint8_t>(~kPrefetched);
            // Keep the stream rolling: prefetch ahead of the consumed
            // line too, not just on demand misses.
            for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
                res.prefetchFills.push_back((line + d) << lineShift_);
                stats_.prefetchIssued++;
            }
        } else {
            stats_.hits++;
        }
        if (is_write)
            flags_[i] |= kDirty;
        stamps_[i] = ++stamp_;
        return res;
    }

    // Miss: fill over the set's victim, trigger the prefetcher.
    stats_.misses++;
    res.writebackAddr = fillAt(victim(base), line, is_write, false);
    for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
        res.prefetchFills.push_back((line + d) << lineShift_);
        stats_.prefetchIssued++;
    }
    return res;
}

std::uint32_t
Cache::accessRun(Addr addr, std::uint32_t size, std::uint32_t n,
                 bool is_write)
{
    std::uint32_t done = 0;
    while (done < n) {
        const std::uint64_t line = lineAddr(addr + Addr{done} * size);
        const std::size_t i = find(setBase(line), line);
        if (i == kNoWay || (flags_[i] & kPrefetched))
            break; // boundary: the per-access path models this one
        // Count the accesses whose start falls on this same line; one
        // probe then covers them all.
        std::uint32_t k = 1;
        while (done + k < n &&
               lineAddr(addr + Addr{done + k} * size) == line)
            ++k;
        stats_.accesses += k;
        stats_.hits += k;
        if (is_write)
            flags_[i] |= kDirty;
        // k individual hits each do stamps_[i] = ++stamp_; only the last
        // value sticks, so bump the clock by k and store once.
        stamp_ += k;
        stamps_[i] = stamp_;
        done += k;
    }
    return done;
}

bool
Cache::insertPrefetch(Addr addr)
{
    const std::uint64_t line = lineAddr(addr);
    const std::size_t base = setBase(line);
    if (find(base, line) != kNoWay)
        return false; // already resident
    fillAt(victim(base), line, false, true);
    return true;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(flags_.begin(), flags_.end(), 0);
}

} // namespace mondrian
