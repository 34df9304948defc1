/**
 * @file
 * Set-associative cache tag model with LRU replacement, write-back /
 * write-allocate policy and an optional next-line prefetcher.
 *
 * The cache tracks tags only — data lives in the functional backing store.
 * Core models consult the cache on every load/store: hits cost the cache's
 * latency, misses produce a line fill (and possibly a dirty writeback) that
 * the core turns into DRAM traffic.
 *
 * The next-line prefetcher (CPU and NMP baselines, §6) reacts to demand
 * misses by pre-inserting the next N lines, tagged as prefetched; the first
 * demand hit on a prefetched line is charged the prefetch-hit latency
 * (the line may still be in flight) and the fill traffic is reported so
 * the caller can account DRAM bandwidth and energy.
 */

#ifndef MONDRIAN_CORE_CACHE_HH
#define MONDRIAN_CORE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace mondrian {

/**
 * Cache geometry and policy parameters. The line size and the set count
 * (sizeBytes / (lineBytes * associativity)) must be powers of two: set
 * and line indices are masks and shifts.
 */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * kKiB;
    unsigned associativity = 2;
    unsigned lineBytes = 64;
    Cycles hitLatency = 2;
    unsigned prefetchDepth = 0; ///< next-line prefetcher lines (0 = off)
};

/** Result of one cache lookup. */
struct CacheAccessResult
{
    /** Upper bound on prefetchDepth; keeps the result heap-free. */
    static constexpr unsigned kMaxPrefetch = 8;

    bool hit = false;
    bool prefetchHit = false; ///< hit on a line brought in by the prefetcher
    /** Dirty line evicted by this access's fill, if any. */
    std::optional<Addr> writebackAddr;

    /**
     * Lines the prefetcher wants filled as a consequence of this access.
     * Inline storage: this struct is created on every access of the
     * replay hot loop, so it must not allocate.
     */
    struct PrefetchList
    {
        Addr addrs[kMaxPrefetch];
        unsigned count = 0;

        void push_back(Addr a) { addrs[count++] = a; }
        Addr operator[](unsigned i) const { return addrs[i]; }
        const Addr *begin() const { return addrs; }
        const Addr *end() const { return addrs + count; }
        unsigned size() const { return count; }
        bool empty() const { return count == 0; }
    };
    PrefetchList prefetchFills;
};

/** Cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t prefetchHits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t prefetchIssued = 0;
};

/** Tag-only set-associative cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p addr; on miss the line is filled (possibly evicting).
     * @param is_write marks the line dirty on hit or fill.
     */
    CacheAccessResult access(Addr addr, bool is_write);

    /**
     * Closed-form batch of an RLE run's leading plain hits: accesses
     * k = 0..n-1 at @p addr + k * @p size, consumed while each one's
     * start line is resident, valid and NOT prefetch-tagged — i.e. while
     * access(addr_k, is_write) would be a plain hit with no side traffic.
     * Consumed accesses update stats, dirty bits and LRU stamps exactly
     * as n individual access() calls would (stamps advance once per
     * access, so victim selection downstream is unchanged); the first
     * boundary access (miss, prefetch hit) is left untouched for the
     * caller's per-access path.
     *
     * @return number of leading accesses consumed (0..n).
     */
    std::uint32_t accessRun(Addr addr, std::uint32_t size, std::uint32_t n,
                            bool is_write);

    /**
     * Insert a line as prefetched (no stats, no recursion).
     * @return true when the line was newly inserted (fill traffic due).
     */
    bool insertPrefetch(Addr addr);

    /** Invalidate everything (between phases / tests). */
    void flush();

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    double
    hitRate() const
    {
        return stats_.accesses == 0
                   ? 0.0
                   : static_cast<double>(stats_.hits) /
                         static_cast<double>(stats_.accesses);
    }

  private:
    /** Tag value of an invalid way (no real line maps to it). */
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    // A way is valid iff its tag is not kNoTag; kDirty implies valid.
    static constexpr std::uint8_t kDirty = 1;
    static constexpr std::uint8_t kPrefetched = 2;

    std::uint64_t lineAddr(Addr a) const { return a >> lineShift_; }
    std::size_t setBase(std::uint64_t line) const
    {
        return static_cast<std::size_t>(line & setMask_) * cfg_.associativity;
    }

    /** Sentinel way index: no matching way in the set. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /** Way of the set at @p base holding @p line, or kNoWay. */
    std::size_t find(std::size_t base, std::uint64_t line) const;

    /** Way a fill into the set at @p base replaces. */
    std::size_t victim(std::size_t base) const;

    /**
     * Install @p line over way @p idx (a victim() pick).
     * @return dirty victim address if any.
     */
    std::optional<Addr> fillAt(std::size_t idx, std::uint64_t line,
                               bool dirty, bool prefetched);

    CacheConfig cfg_;
    unsigned lineShift_;     ///< log2(lineBytes)
    std::uint64_t setMask_;  ///< number of sets - 1
    unsigned wayBits_;       ///< ceil(log2(associativity))
    // Structure-of-arrays line metadata: the tag probe — the per-access
    // hot loop — touches only the dense tag array. Invalid ways hold
    // kNoTag so the probe needs no validity test, and stamp 0 while
    // valid ways hold at least 1, so the victim scan needs none either.
    std::vector<std::uint64_t> tags_;   ///< sets x associativity
    std::vector<std::uint64_t> stamps_; ///< LRU stamps
    std::vector<std::uint8_t> flags_;   ///< kDirty | kPrefetched
    std::uint64_t stamp_ = 0;
    CacheStats stats_;
};

} // namespace mondrian

#endif // MONDRIAN_CORE_CACHE_HH
