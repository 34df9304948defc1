/**
 * @file
 * Zipf-skew study: where do permutable shuffles lose their edge?
 *
 * The paper evaluates uniform keys and defers skew to future work (§7).
 * This study drives the campaign's zipf-theta axis over
 * {0, 0.5, 0.75, 0.99} for the two permutable systems and their
 * non-permutable siblings, on the shuffle-heavy operators (join,
 * group-by). The interesting quantity is the *permutability edge*: the
 * speedup of nmp-perm over nmp and of mondrian over mondrian-noperm at
 * each theta. Under skew, the hottest destination vault serializes the
 * shuffle no matter how writes are ordered, so the edge shrinks as theta
 * grows — this sweep quantifies by how much.
 *
 * Usage: zipf_sweep [log2_tuples] [jobs] [csv_prefix]
 *   log2_tuples: scale factor (default 12)
 *   jobs: worker threads (default 0 = one per hardware thread)
 *   csv_prefix: when given, write chart-ready CSV next to the tables:
 *     <prefix>-runs.csv (every run, via the report-analysis layer) and
 *     <prefix>-edge.csv (the per-theta permutability edge)
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "example_args.hh"

#include "common/file_io.hh"
#include "common/logging.hh"
#include "system/analysis.hh"
#include "system/campaign.hh"
#include "system/report.hh"

using namespace mondrian;

namespace {

bool
writeFile(const std::string &path, const std::string &text)
{
    std::string error;
    if (!writeTextFile(path, text, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), text.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);

    long log2_tuples =
        example_args::intArg(argc, argv, 1, "log2_tuples", 8, 22, 12);
    long jobs_arg = example_args::intArg(argc, argv, 2, "jobs", 0, 1024, 0);
    std::string csv_prefix = argc > 3 ? argv[3] : "";

    CampaignGrid grid;
    grid.systems = {SystemKind::kNmp, SystemKind::kNmpPerm,
                    SystemKind::kMondrianNoperm, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kJoin),
                      degenerateScenario(OpKind::kGroupBy)};
    grid.log2Tuples = {static_cast<unsigned>(log2_tuples)};
    grid.seeds = {42};
    grid.zipfThetas = {0.0, 0.5, 0.75, 0.99};

    std::printf("Zipf-skew study: %zu thetas x %zu scenarios x %zu systems = "
                "%zu runs at 2^%ld tuples\n\n",
                grid.zipfThetas.size(), grid.scenarios.size(),
                grid.systems.size(),
                grid.size(), log2_tuples);

    CampaignRunner campaign(grid);
    CampaignReport report;
    try {
        report = campaign.run(static_cast<unsigned>(jobs_arg));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    // Index runs by (theta, op, system) for the pairwise edge table.
    std::map<std::tuple<double, std::string, std::string>, const RunResult *>
        byPoint;
    for (const auto &r : report.runs)
        byPoint[{r.job.zipfTheta, r.result.op, r.result.system}] = &r.result;

    const std::pair<const char *, const char *> pairs[] = {
        {"nmp", "nmp-perm"}, {"mondrian-noperm", "mondrian"}};

    std::vector<std::vector<std::string>> table;
    table.push_back({"theta", "op", "pair", "speedup", "partition",
                     "perm GB/s/vault"});
    // Chart-ready form of the same rows, full precision.
    std::string edge_csv =
        "theta,op,pair,speedup,partition_speedup,perm_vault_bw_gbps\n";
    // edge[pair] tracks the theta at which permutability stops paying.
    std::map<std::string, double> lastWinningTheta;
    for (double theta : grid.zipfThetas) {
        for (const Scenario &sc : grid.scenarios) {
            for (const auto &[noperm, perm] : pairs) {
                const RunResult *base =
                    byPoint[{theta, sc.name, noperm}];
                const RunResult *p = byPoint[{theta, sc.name, perm}];
                if (!base || !p)
                    continue;
                double speedup = overallSpeedup(*base, *p);
                std::string part =
                    p->partitionTime > 0 && base->partitionTime > 0
                        ? fmt(partitionSpeedup(*base, *p), 2) + "x"
                        : "-";
                std::string pairName =
                    std::string(perm) + "/" + std::string(noperm);
                table.push_back({fmt(theta, 2), sc.name, pairName,
                                 fmt(speedup, 2) + "x", part,
                                 fmt(p->partitionVaultBWGBps, 2)});
                edge_csv += fmt(theta, 2) + "," + sc.name + "," +
                            pairName + ",";
                JsonWriter::appendDouble(edge_csv, speedup);
                edge_csv += ",";
                JsonWriter::appendDouble(edge_csv,
                                         partitionSpeedup(*base, *p));
                edge_csv += ",";
                JsonWriter::appendDouble(edge_csv, p->partitionVaultBWGBps);
                edge_csv += "\n";
                if (speedup > 1.005)
                    lastWinningTheta[pairName] =
                        std::max(lastWinningTheta[pairName], theta);
            }
        }
    }
    std::printf("%s\n", renderTable(table).c_str());

    if (!csv_prefix.empty()) {
        if (!writeFile(csv_prefix + "-runs.csv",
                       runsCsv(report, std::nullopt)) ||
            !writeFile(csv_prefix + "-edge.csv", edge_csv))
            return 2;
    }

    std::printf("Permutability edge (speedup > 1.005x) survives up to:\n");
    for (const auto &[pairName, theta] : lastWinningTheta)
        std::printf("  %-25s theta <= %s\n", pairName.c_str(),
                    fmt(theta, 2).c_str());
    if (lastWinningTheta.empty())
        std::printf("  (no winning configuration at this scale)\n");
    return 0;
}
