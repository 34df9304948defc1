/** @file Unit and property tests for the cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/cache.hh"

using namespace mondrian;

namespace {

CacheConfig
smallCache(unsigned prefetch = 0)
{
    CacheConfig c;
    c.sizeBytes = 1 * kKiB;
    c.associativity = 2;
    c.lineBytes = 64;
    c.hitLatency = 2;
    c.prefetchDepth = prefetch;
    return c;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(63, false).hit);  // same line
    EXPECT_FALSE(c.access(64, false).hit); // next line
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache());
    // 8 sets, 2 ways: lines 0, 8, 16 map to set 0.
    c.access(0 * 64, false);
    c.access(8 * 64, false);
    c.access(0 * 64, false);       // refresh line 0
    c.access(16 * 64, false);      // evicts line 8
    EXPECT_TRUE(c.access(0 * 64, false).hit);
    EXPECT_FALSE(c.access(8 * 64, false).hit);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    Cache c(smallCache());
    c.access(0, true); // dirty line 0
    c.access(8 * 64, false);
    auto r = c.access(16 * 64, false); // evicts dirty line 0
    ASSERT_TRUE(r.writebackAddr.has_value());
    EXPECT_EQ(*r.writebackAddr, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache c(smallCache());
    c.access(0, false);
    c.access(8 * 64, false);
    auto r = c.access(16 * 64, false);
    EXPECT_FALSE(r.writebackAddr.has_value());
}

TEST(Cache, PrefetcherIssuesNextLines)
{
    Cache c(smallCache(3));
    auto r = c.access(0, false);
    ASSERT_EQ(r.prefetchFills.size(), 3u);
    EXPECT_EQ(r.prefetchFills[0], 64u);
    EXPECT_EQ(r.prefetchFills[2], 192u);
}

TEST(Cache, PrefetchHitRearms)
{
    Cache c(smallCache(2));
    auto miss = c.access(0, false);
    for (Addr pf : miss.prefetchFills)
        c.insertPrefetch(pf);
    auto hit = c.access(64, false);
    EXPECT_TRUE(hit.hit);
    EXPECT_TRUE(hit.prefetchHit);
    EXPECT_EQ(hit.prefetchFills.size(), 2u); // stream keeps rolling
    // Second touch of the same line is a plain hit.
    auto hit2 = c.access(64, false);
    EXPECT_TRUE(hit2.hit);
    EXPECT_FALSE(hit2.prefetchHit);
}

TEST(Cache, InsertPrefetchIdempotent)
{
    Cache c(smallCache(1));
    EXPECT_TRUE(c.insertPrefetch(128));
    EXPECT_FALSE(c.insertPrefetch(128));
}

TEST(Cache, FlushInvalidatesAll)
{
    Cache c(smallCache());
    c.access(0, false);
    c.flush();
    EXPECT_FALSE(c.access(0, false).hit);
}

TEST(Cache, HitRateTracking)
{
    Cache c(smallCache());
    c.access(0, false);
    c.access(0, false);
    c.access(0, false);
    EXPECT_NEAR(c.hitRate(), 2.0 / 3.0, 1e-9);
}

/** Property: working sets within capacity hit after warmup; beyond
 *  capacity they thrash. */
struct WsParam
{
    std::uint64_t workingSet;
    bool expectHits;
};

class WorkingSetTest : public ::testing::TestWithParam<WsParam> {};

TEST_P(WorkingSetTest, CapacityBehavior)
{
    auto p = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 4 * kKiB;
    cfg.associativity = 4;
    cfg.lineBytes = 64;
    Cache c(cfg);
    // Two sweeps: warmup + measure.
    for (int pass = 0; pass < 2; ++pass)
        for (Addr a = 0; a < p.workingSet; a += 64)
            c.access(a, false);
    double hr = c.hitRate();
    if (p.expectHits)
        EXPECT_GT(hr, 0.45);
    else
        EXPECT_LT(hr, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    WorkingSets, WorkingSetTest,
    ::testing::Values(WsParam{1 * kKiB, true}, WsParam{2 * kKiB, true},
                      WsParam{4 * kKiB, true}, WsParam{16 * kKiB, false},
                      WsParam{64 * kKiB, false}));

TEST(CacheDeath, BadGeometryFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000; // not a multiple of line*assoc
    EXPECT_DEATH({ Cache c(cfg); }, "multiple");
}

TEST(CacheDeath, ZeroLineSizeFatal)
{
    CacheConfig cfg;
    cfg.lineBytes = 0;
    EXPECT_DEATH({ Cache c(cfg); }, "lineBytes 0 is not a power of two");
}

TEST(CacheDeath, NonPowerOfTwoLineSizeFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 3 * kKiB;
    cfg.lineBytes = 48;
    EXPECT_DEATH({ Cache c(cfg); }, "lineBytes 48 is not a power of two");
}

TEST(CacheDeath, ZeroAssociativityFatal)
{
    CacheConfig cfg;
    cfg.associativity = 0;
    EXPECT_DEATH({ Cache c(cfg); }, "associativity is 0");
}

TEST(CacheDeath, ZeroSetsFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 0;
    EXPECT_DEATH({ Cache c(cfg); }, "sizeBytes 0 gives 0 sets");
}

TEST(CacheDeath, NonPowerOfTwoSetCountFatal)
{
    CacheConfig cfg;
    cfg.sizeBytes = 3 * kKiB; // 64 B lines, 2 ways: 24 sets
    EXPECT_DEATH({ Cache c(cfg); }, "gives 24 sets, not a power of two");
}

namespace {

/**
 * The cache as it was before sets were mask-indexed: line and set
 * indices by divide, a kValid flag, and a victim scan that takes the
 * first invalid way, else the least recently used one. Cache must
 * behave exactly like it on every call.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg) : cfg_(cfg)
    {
        numSets_ = cfg_.sizeBytes /
                   (std::uint64_t{cfg_.lineBytes} * cfg_.associativity);
        tags_.assign(numSets_ * cfg_.associativity, kNoTag);
        stamps_.assign(numSets_ * cfg_.associativity, 0);
        flags_.assign(numSets_ * cfg_.associativity, 0);
    }

    CacheAccessResult
    access(Addr addr, bool is_write)
    {
        stats_.accesses++;
        CacheAccessResult res;
        const std::uint64_t line = addr / cfg_.lineBytes;
        const Probe p = probe(line);
        if (p.hit != kNoWay) {
            const std::size_t i = p.hit;
            res.hit = true;
            res.prefetchHit = (flags_[i] & kPrefetched) != 0;
            if (res.prefetchHit) {
                stats_.prefetchHits++;
                flags_[i] &= static_cast<std::uint8_t>(~kPrefetched);
                prefetchAfter(line, res);
            } else {
                stats_.hits++;
            }
            if (is_write)
                flags_[i] |= kDirty;
            stamps_[i] = ++stamp_;
            return res;
        }
        stats_.misses++;
        res.writebackAddr = fillAt(p.victim, line, is_write, false);
        prefetchAfter(line, res);
        return res;
    }

    std::uint32_t
    accessRun(Addr addr, std::uint32_t size, std::uint32_t n, bool is_write)
    {
        std::uint32_t done = 0;
        while (done < n) {
            const std::uint64_t line =
                (addr + Addr{done} * size) / cfg_.lineBytes;
            const Probe p = probe(line);
            if (p.hit == kNoWay || (flags_[p.hit] & kPrefetched))
                break;
            std::uint32_t k = 1;
            while (done + k < n &&
                   (addr + Addr{done + k} * size) / cfg_.lineBytes == line)
                ++k;
            stats_.accesses += k;
            stats_.hits += k;
            if (is_write)
                flags_[p.hit] |= kDirty;
            stamp_ += k;
            stamps_[p.hit] = stamp_;
            done += k;
        }
        return done;
    }

    bool
    insertPrefetch(Addr addr)
    {
        const std::uint64_t line = addr / cfg_.lineBytes;
        const Probe p = probe(line);
        if (p.hit != kNoWay)
            return false;
        fillAt(p.victim, line, false, true);
        return true;
    }

    void
    flush()
    {
        std::fill(tags_.begin(), tags_.end(), kNoTag);
        std::fill(stamps_.begin(), stamps_.end(), 0);
        std::fill(flags_.begin(), flags_.end(), 0);
    }

    const CacheStats &stats() const { return stats_; }

  private:
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};
    static constexpr std::size_t kNoWay = ~std::size_t{0};
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kPrefetched = 4;

    struct Probe
    {
        std::size_t hit;
        std::size_t victim;
    };

    Probe
    probe(std::uint64_t line) const
    {
        const std::size_t base = (line % numSets_) * cfg_.associativity;
        Probe p{kNoWay, base};
        bool invalid_victim = false;
        for (std::size_t w = 0; w < cfg_.associativity; ++w) {
            const std::size_t i = base + w;
            if (tags_[i] == line) {
                p.hit = i;
                return p;
            }
            if (invalid_victim)
                continue;
            if (!(flags_[i] & kValid)) {
                p.victim = i;
                invalid_victim = true;
            } else if (w == 0 || stamps_[i] < stamps_[p.victim]) {
                p.victim = i;
            }
        }
        return p;
    }

    std::optional<Addr>
    fillAt(std::size_t idx, std::uint64_t line, bool dirty, bool prefetched)
    {
        std::optional<Addr> writeback;
        if ((flags_[idx] & (kValid | kDirty)) == (kValid | kDirty)) {
            writeback = tags_[idx] * cfg_.lineBytes;
            stats_.writebacks++;
        }
        tags_[idx] = line;
        flags_[idx] = static_cast<std::uint8_t>(
            kValid | (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0));
        stamps_[idx] = ++stamp_;
        return writeback;
    }

    void
    prefetchAfter(std::uint64_t line, CacheAccessResult &res)
    {
        for (unsigned d = 1; d <= cfg_.prefetchDepth; ++d) {
            res.prefetchFills.push_back((line + d) * cfg_.lineBytes);
            stats_.prefetchIssued++;
        }
    }

    CacheConfig cfg_;
    std::uint64_t numSets_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> flags_;
    std::uint64_t stamp_ = 0;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &where)
{
    EXPECT_EQ(got.accesses, want.accesses) << where;
    EXPECT_EQ(got.hits, want.hits) << where;
    EXPECT_EQ(got.prefetchHits, want.prefetchHits) << where;
    EXPECT_EQ(got.misses, want.misses) << where;
    EXPECT_EQ(got.writebacks, want.writebacks) << where;
    EXPECT_EQ(got.prefetchIssued, want.prefetchIssued) << where;
}

void
expectSameResult(const CacheAccessResult &got, const CacheAccessResult &want,
                 const std::string &where)
{
    EXPECT_EQ(got.hit, want.hit) << where;
    EXPECT_EQ(got.prefetchHit, want.prefetchHit) << where;
    EXPECT_EQ(got.writebackAddr, want.writebackAddr) << where;
    ASSERT_EQ(got.prefetchFills.size(), want.prefetchFills.size()) << where;
    for (unsigned i = 0; i < got.prefetchFills.size(); ++i)
        EXPECT_EQ(got.prefetchFills[i], want.prefetchFills[i]) << where;
}

struct EquivParam
{
    const char *name;
    std::uint64_t sizeBytes;
    unsigned associativity;
    unsigned lineBytes;
    unsigned prefetchDepth;
};

class CacheEquivalence : public ::testing::TestWithParam<EquivParam> {};

} // namespace

TEST_P(CacheEquivalence, MatchesTheDivideAndFlagReference)
{
    const EquivParam &p = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = p.sizeBytes;
    cfg.associativity = p.associativity;
    cfg.lineBytes = p.lineBytes;
    cfg.prefetchDepth = p.prefetchDepth;
    // Addresses span four cache capacities, so sets both hit and thrash.
    const Addr span = 4 * p.sizeBytes;
    const std::uint32_t sizes[] = {4, 8, 16, 24, 64, 100};

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        Cache cache(cfg);
        ReferenceCache ref(cfg);
        Random rng(seed);
        Addr addr = 0;
        std::uint64_t run_consumed = 0;
        for (int step = 0; step < 20000; ++step) {
            const std::string where = std::string(p.name) + " seed " +
                                      std::to_string(seed) + " step " +
                                      std::to_string(step);
            // Half the time continue a stream, else jump anywhere.
            addr = rng.nextBounded(2) ? (addr + 8) % span
                                      : rng.nextBounded(span);
            const bool write = rng.nextBounded(4) == 0;
            const std::uint64_t op = rng.nextBounded(16);
            if (op < 9) {
                const CacheAccessResult got = cache.access(addr, write);
                const CacheAccessResult want = ref.access(addr, write);
                expectSameResult(got, want, where);
                // Install most of the fills, as the memory path does, so
                // later accesses see prefetch hits.
                for (Addr pf : want.prefetchFills) {
                    if (rng.nextBounded(4) == 0)
                        continue;
                    ASSERT_EQ(cache.insertPrefetch(pf),
                              ref.insertPrefetch(pf))
                        << where;
                }
            } else if (op < 11) {
                ASSERT_EQ(cache.insertPrefetch(addr), ref.insertPrefetch(addr))
                    << where;
            } else if (op < 15) {
                const std::uint32_t size = sizes[rng.nextBounded(6)];
                const auto n =
                    static_cast<std::uint32_t>(1 + rng.nextBounded(64));
                const std::uint32_t want = ref.accessRun(addr, size, n, write);
                ASSERT_EQ(cache.accessRun(addr, size, n, write), want)
                    << where;
                run_consumed += want;
            } else if (rng.nextBounded(64) == 0) {
                cache.flush();
                ref.flush();
            }
            expectSameStats(cache.stats(), ref.stats(), where);
            if (::testing::Test::HasFailure())
                return;
        }
        // The stream must have reached every path it compares.
        EXPECT_GT(ref.stats().hits, 0u) << p.name;
        EXPECT_GT(ref.stats().misses, 0u) << p.name;
        EXPECT_GT(ref.stats().writebacks, 0u) << p.name;
        EXPECT_GT(run_consumed, 0u) << p.name;
        if (p.prefetchDepth > 0) {
            EXPECT_GT(ref.stats().prefetchHits, 0u) << p.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheEquivalence,
    ::testing::Values(
        EquivParam{"direct_mapped", 1 * kKiB, 1, 64, 0},
        EquivParam{"direct_mapped_prefetch", 2 * kKiB, 1, 32, 2},
        EquivParam{"two_way", 1 * kKiB, 2, 64, 1},
        EquivParam{"four_way", 4 * kKiB, 4, 128, 8},
        EquivParam{"three_way", 3 * 64 * 8, 3, 64, 1},
        EquivParam{"sixteen_way", 16 * kKiB, 16, 64, 2},
        EquivParam{"scaled_l1", 4 * kKiB, 2, 64, 3},
        EquivParam{"scaled_llc", 64 * kKiB, 16, 64, 0}),
    [](const ::testing::TestParamInfo<EquivParam> &info) {
        return std::string(info.param.name);
    });
