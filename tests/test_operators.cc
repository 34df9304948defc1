/**
 * @file
 * Functional correctness of the four operators across every execution
 * style. Each style must produce the same answer as a scalar reference
 * implementation -- the timing models may differ, the data may not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "engine/ops.hh"
#include "engine/workload.hh"
#include "system/config.hh"

using namespace mondrian;

namespace {

MemGeometry
opGeo()
{
    MemGeometry g;
    g.numStacks = 2;
    g.vaultsPerStack = 8;
    g.banksPerVault = 4;
    g.rowBytes = 256;
    g.vaultBytes = 1 * kMiB;
    return g;
}

/** The five evaluated execution styles. */
enum class Style
{
    kCpu,
    kNmpRand,
    kNmpSeq,
    kNmpPerm,
    kMondrian
};

ExecConfig
styleConfig(Style s, unsigned vaults)
{
    switch (s) {
      case Style::kCpu: {
        ExecConfig c = cpuExec(vaults);
        c.numUnits = 4;
        c.cpuPartitionBits = 5; // small fanout keeps tests quick
        return c;
      }
      case Style::kNmpRand:
        return nmpExec(vaults, false, false);
      case Style::kNmpSeq:
        return nmpExec(vaults, false, true);
      case Style::kNmpPerm:
        return nmpExec(vaults, true, false);
      case Style::kMondrian:
        return mondrianExec(vaults, true);
    }
    return nmpExec(vaults, false, false);
}

const char *
styleName(Style s)
{
    switch (s) {
      case Style::kCpu:
        return "cpu";
      case Style::kNmpRand:
        return "nmp-rand";
      case Style::kNmpSeq:
        return "nmp-seq";
      case Style::kNmpPerm:
        return "nmp-perm";
      case Style::kMondrian:
        return "mondrian";
    }
    return "?";
}

struct StyleSize
{
    Style style;
    std::uint64_t tuples;
};

void
PrintTo(const StyleSize &p, std::ostream *os)
{
    *os << styleName(p.style) << "_" << p.tuples;
}

class OperatorTest : public ::testing::TestWithParam<StyleSize>
{
  protected:
    void
    SetUp() override
    {
        pool = std::make_unique<MemoryPool>(opGeo());
        cfg = styleConfig(GetParam().style, opGeo().totalVaults());
        wcfg.tuples = GetParam().tuples;
        wcfg.seed = 1234;
    }

    std::unique_ptr<MemoryPool> pool;
    ExecConfig cfg;
    WorkloadConfig wcfg;
};

const auto kAllStyles = ::testing::Values(
    StyleSize{Style::kCpu, 512}, StyleSize{Style::kCpu, 5000},
    StyleSize{Style::kNmpRand, 512}, StyleSize{Style::kNmpRand, 5000},
    StyleSize{Style::kNmpSeq, 512}, StyleSize{Style::kNmpSeq, 5000},
    StyleSize{Style::kNmpPerm, 512}, StyleSize{Style::kNmpPerm, 5000},
    StyleSize{Style::kMondrian, 512}, StyleSize{Style::kMondrian, 5000});

} // namespace

// --- Scan -----------------------------------------------------------------

TEST_P(OperatorTest, ScanCountsMatches)
{
    WorkloadGenerator gen(wcfg);
    Relation rel = gen.makeUniform(*pool, wcfg.tuples);
    auto all = rel.gatherAll(*pool);
    std::uint64_t probe = all[all.size() / 2].key;
    std::uint64_t expect = 0;
    for (const Tuple &t : all)
        expect += t.key == probe ? 1 : 0;

    auto exec = runScan(*pool, cfg, rel, probe);
    EXPECT_EQ(exec.scanMatches, expect);
    EXPECT_GE(exec.scanMatches, 1u);
    ASSERT_EQ(exec.phases.size(), 1u); // Table 2: scan has no partitioning
    EXPECT_EQ(exec.phases[0].kind, PhaseKind::kProbe);
}

// --- Sort -----------------------------------------------------------------

TEST_P(OperatorTest, SortProducesGlobalOrder)
{
    WorkloadGenerator gen(wcfg);
    Relation rel = gen.makeUniform(*pool, wcfg.tuples);
    auto before = rel.gatherAll(*pool);

    auto exec = runSort(*pool, cfg, rel);
    auto after = exec.output.gatherAll(*pool);
    ASSERT_EQ(after.size(), before.size());

    EXPECT_TRUE(std::is_sorted(after.begin(), after.end(),
                               [](const Tuple &a, const Tuple &b) {
                                   return a.key < b.key;
                               }));
    // Same multiset of tuples.
    auto key = [](const Tuple &t) {
        return std::make_pair(t.key, t.payload);
    };
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> ma, mb;
    for (auto &t : before)
        ma.insert(key(t));
    for (auto &t : after)
        mb.insert(key(t));
    EXPECT_EQ(ma, mb);
}

// --- Group-by ---------------------------------------------------------------

TEST_P(OperatorTest, GroupByMatchesReference)
{
    WorkloadGenerator gen(wcfg);
    Relation rel = gen.makeGroupBy(*pool, wcfg.tuples);
    auto all = rel.gatherAll(*pool);

    std::map<std::uint64_t, GroupRecord> ref;
    for (const Tuple &t : all) {
        GroupRecord &g = ref[t.key];
        g.key = t.key;
        g.count++;
        g.sum += t.payload;
        g.min = std::min(g.min, t.payload);
        g.max = std::max(g.max, t.payload);
        g.sumsq += t.payload * t.payload;
    }
    std::uint64_t ref_checksum = 0;
    for (auto &[k, g] : ref)
        ref_checksum += g.digest();

    auto exec = runGroupBy(*pool, cfg, rel);
    EXPECT_EQ(exec.groupCount, ref.size());
    EXPECT_EQ(exec.aggChecksum, ref_checksum);
    EXPECT_FALSE(exec.outputRegions.empty());
}

TEST_P(OperatorTest, GroupByRecordsReadableFromMemory)
{
    WorkloadGenerator gen(wcfg);
    Relation rel = gen.makeGroupBy(*pool, wcfg.tuples);
    auto exec = runGroupBy(*pool, cfg, rel);

    std::uint64_t checksum = 0, records = 0;
    for (auto &[base, bytes] : exec.outputRegions) {
        for (std::uint64_t off = 0; off < bytes;
             off += sizeof(GroupRecord)) {
            auto g = pool->store().readValue<GroupRecord>(base + off);
            checksum += g.digest();
            ++records;
            EXPECT_GE(g.count, 1u);
            EXPECT_LE(g.min, g.max);
            EXPECT_GE(g.sum, g.min * g.count / 2); // sanity, not equality
        }
    }
    EXPECT_EQ(records, exec.groupCount);
    EXPECT_EQ(checksum, exec.aggChecksum);
}

TEST_P(OperatorTest, GroupByFoldsDuplicateKeysWithWrappingSums)
{
    // Duplicate keys whose bytes differ in several radix digits, and
    // payloads near 2^64 so that sum and sumsq wrap: every record must
    // equal a scalar fold over a key-ordered map, and each output region
    // must list its records in key order (on cpu, within each of the
    // radix partitions it lists in turn).
    const std::uint64_t n = GetParam().tuples;
    std::vector<Tuple> all;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t g = (i * 7919) % 97;
        // Low bytes permute the groups, so only the high byte orders them.
        all.push_back(Tuple{(g << 40) + (g * 37 % 97) * 0x0101ull,
                            ~std::uint64_t{0} - i * 0x9e3779b97f4a7c1ull});
    }
    const unsigned vaults = opGeo().totalVaults();
    Relation rel = Relation::allocAcrossAll(*pool, n + vaults);
    std::vector<std::vector<Tuple>> parts(vaults);
    for (std::uint64_t i = 0; i < n; ++i)
        parts[i % vaults].push_back(all[i]);
    for (unsigned v = 0; v < vaults; ++v)
        rel.scatter(*pool, v, parts[v]);

    std::map<std::uint64_t, GroupRecord> ref;
    bool wrapped = false;
    for (const Tuple &t : all) {
        GroupRecord &g = ref[t.key];
        g.key = t.key;
        g.count++;
        wrapped = wrapped || g.sum + t.payload < g.sum;
        g.sum += t.payload;
        g.min = std::min(g.min, t.payload);
        g.max = std::max(g.max, t.payload);
        g.sumsq += t.payload * t.payload;
    }
    for (auto &[k, g] : ref)
        g.avg = static_cast<double>(g.sum) / static_cast<double>(g.count);
    ASSERT_TRUE(wrapped);

    auto exec = runGroupBy(*pool, cfg, rel);
    ASSERT_EQ(exec.groupCount, ref.size());
    const std::uint64_t radix =
        cfg.cpuStyle ? (std::uint64_t{1} << cfg.cpuPartitionBits) - 1 : 0;
    auto rank = [radix](std::uint64_t key) {
        return std::make_pair(key & radix, key);
    };
    std::size_t seen = 0;
    for (auto &[base, bytes] : exec.outputRegions) {
        std::uint64_t prev = 0;
        for (std::uint64_t off = 0; off < bytes; off += sizeof(GroupRecord)) {
            auto g = pool->store().readValue<GroupRecord>(base + off);
            if (off > 0) {
                EXPECT_GT(rank(g.key), rank(prev))
                    << "records out of key order";
            }
            prev = g.key;
            ASSERT_EQ(ref.count(g.key), 1u) << g.key;
            const GroupRecord &r = ref.at(g.key);
            EXPECT_EQ(g.count, r.count) << g.key;
            EXPECT_EQ(g.sum, r.sum) << g.key;
            EXPECT_EQ(g.min, r.min) << g.key;
            EXPECT_EQ(g.max, r.max) << g.key;
            EXPECT_EQ(g.sumsq, r.sumsq) << g.key;
            EXPECT_EQ(g.avg, r.avg) << g.key;
            ++seen;
        }
    }
    EXPECT_EQ(seen, ref.size());
}

// --- Join -------------------------------------------------------------------

TEST_P(OperatorTest, JoinMatchesEveryForeignKey)
{
    WorkloadGenerator gen(wcfg);
    auto pair = gen.makeJoinPair(*pool);

    auto exec = runJoin(*pool, cfg, pair.r, pair.s);
    // FK relationship: every S tuple joins exactly once (§6).
    EXPECT_EQ(exec.joinMatches, wcfg.tuples);
    ASSERT_EQ(exec.phases.size(), 3u); // partition-R, partition-S, probe
    EXPECT_EQ(exec.phases[0].kind, PhaseKind::kPartition);
    EXPECT_EQ(exec.phases[1].kind, PhaseKind::kPartition);
    EXPECT_EQ(exec.phases[2].kind, PhaseKind::kProbe);
}

TEST_P(OperatorTest, JoinOutputTuplesCorrect)
{
    WorkloadGenerator gen(wcfg);
    auto pair = gen.makeJoinPair(*pool);
    std::unordered_map<std::uint64_t, std::uint64_t> r_payload;
    for (const Tuple &t : pair.r.gatherAll(*pool))
        r_payload[t.key] = t.payload;
    // Reference output multiset.
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> ref;
    for (const Tuple &t : pair.s.gatherAll(*pool))
        ref.insert({t.key, t.payload + r_payload.at(t.key)});

    auto exec = runJoin(*pool, cfg, pair.r, pair.s);
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> got;
    for (auto &[base, bytes] : exec.outputRegions) {
        for (std::uint64_t off = 0; off < bytes; off += kTupleBytes) {
            auto t = pool->store().readValue<Tuple>(base + off);
            got.insert({t.key, t.payload});
        }
    }
    EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, OperatorTest, kAllStyles,
                         [](const auto &info) {
                             std::string name = styleName(info.param.style);
                             for (auto &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name + "_" +
                                    std::to_string(info.param.tuples);
                         });

// --- Cross-style agreement ---------------------------------------------------

TEST(OperatorAgreement, AllStylesSameGroupByChecksum)
{
    WorkloadConfig wcfg;
    wcfg.tuples = 3000;
    std::uint64_t ref = 0;
    bool first = true;
    for (Style s : {Style::kCpu, Style::kNmpRand, Style::kNmpSeq,
                    Style::kNmpPerm, Style::kMondrian}) {
        MemoryPool pool(opGeo());
        Relation rel = WorkloadGenerator(wcfg).makeGroupBy(pool, 3000);
        auto exec = runGroupBy(pool, styleConfig(s, 16), rel);
        if (first) {
            ref = exec.aggChecksum;
            first = false;
        } else {
            EXPECT_EQ(exec.aggChecksum, ref) << styleName(s);
        }
    }
}

TEST(OperatorAgreement, AllStylesSameSortedOutput)
{
    WorkloadConfig wcfg;
    wcfg.tuples = 2500;
    std::vector<std::uint64_t> ref;
    bool first = true;
    for (Style s : {Style::kCpu, Style::kNmpSeq, Style::kMondrian}) {
        MemoryPool pool(opGeo());
        Relation rel = WorkloadGenerator(wcfg).makeUniform(pool, 2500);
        auto exec = runSort(pool, styleConfig(s, 16), rel);
        std::vector<std::uint64_t> keys;
        for (const Tuple &t : exec.output.gatherAll(pool))
            keys.push_back(t.key);
        if (first) {
            ref = keys;
            first = false;
        } else {
            EXPECT_EQ(keys, ref) << styleName(s);
        }
    }
}
