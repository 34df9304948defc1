/**
 * @file
 * ReportModel: typed in-memory model of campaign report JSON.
 *
 * The campaign CLI writes schema mondrian-campaign-v4 documents
 * (campaignReportJson); this module parses them back into plain structs
 * so analysis code — sensitivity tables, report diffs, CSV export —
 * never touches raw JSON. Each run's coordinates go through
 * readRunCoordinates, the reader ResumeCache shares, and keep the
 * canonical axis labels the report itself used, so run identity is
 * stable across loads. Documents of any other schema are rejected.
 *
 * Unlike ResumeCache::load — which silently skips entries it cannot use,
 * because a resume cache is best-effort — loading a model fails loudly on
 * malformed runs: an analysis over a half-parsed report would produce
 * confidently wrong numbers.
 */

#ifndef MONDRIAN_SYSTEM_REPORT_MODEL_HH
#define MONDRIAN_SYSTEM_REPORT_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "system/campaign.hh"

namespace mondrian {

/** One run of a loaded report: grid coordinates plus the parsed result. */
struct ReportRun : RunCoordinates
{
    RunResult result;

    /**
     * Identity of this run's grid point: every axis coordinate at a
     * fixed delimited position (theta canonicalized to the report's
     * 12-digit encoding). Two runs of one well-formed report never share
     * a point key.
     */
    std::string pointKey() const;

    /**
     * Identity of the run's comparison group — all axes except system —
     * i.e. the key a baseline run is looked up under. Mirrors the
     * campaign's GridGroupKey pairing.
     */
    std::string groupKey() const;
};

/** One row of the report's stored summary block. */
struct ReportSummaryRow
{
    std::string system;
    std::size_t runs = 0; ///< baseline-paired runs in the geomeans
    double geomeanSpeedup = 0.0;
    double geomeanPerfPerWatt = 0.0;
};

/** A whole campaign report, parsed. */
struct ReportModel
{
    std::string paper;
    std::string baseline; ///< "" when the report has no baseline system

    /**
     * Axis values actually present in the runs, in first-appearance
     * (grid) order. Derived from the runs rather than the grid echo so
     * the model is faithful to the data even for hand-edited or
     * truncated reports.
     */
    std::vector<std::string> systems;
    std::vector<std::string> scenarios;
    std::vector<unsigned> log2Tuples;
    std::vector<std::uint64_t> seeds;
    std::vector<std::string> geometries;
    std::vector<std::string> execs;
    std::vector<double> zipfThetas;
    std::vector<std::string> traffics;

    std::vector<ReportRun> runs;
    std::vector<ReportSummaryRow> summaries; ///< as stored in the report
};

/**
 * Parse a mondrian-campaign-v4 report into @p out: pipeline runs carry
 * their per-stage sub-results (RunResult::stages), served runs their
 * served metrics (RunResult::served).
 * @return false with a human-readable @p error on parse/schema problems.
 */
bool loadReportModel(const std::string &json_text, ReportModel &out,
                     std::string &error);

/** Read @p path and loadReportModel() its contents. */
bool loadReportFile(const std::string &path, ReportModel &out,
                    std::string &error);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_REPORT_MODEL_HH
