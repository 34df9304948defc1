/**
 * @file
 * campaign.json: the job spec a coordinator sends every worker in the
 * join handshake, so the worker re-expands the identical job list
 * instead of re-parsing CLI flags. Expansion order is part of the
 * contract: job index N in the coordinator IS job index N in every
 * worker, which is what lets the wire protocol ship bare indices.
 *
 * A mondrian-campaign-spec-v2 document is the report's own grid block
 * (writeCampaignGrid, read back by readCampaignGrid) plus the exec perf
 * toggles, which the report leaves out because they never change a
 * result:
 *
 *   {"schema": "mondrian-campaign-spec-v2",
 *    "grid": <grid block>,
 *    "exec_toggles": [{"coalesce": 0, ...}, ...]}
 *
 * exec_toggles holds one object per exec_overrides entry, in axis
 * order, with only the toggles that entry sets. Doubles (zipf thetas,
 * traffic rates, mix weights) are written in exact shortest-round-trip
 * form, not the report's 12-significant-digit form: a worker must
 * reconstruct bit-identical WorkloadConfig values or its results would
 * diverge from an in-process run of the same grid and break the
 * merged-report byte-identity oracle.
 */

#ifndef MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH
#define MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH

#include <string>

#include "system/campaign.hh"

namespace mondrian {

/** Serialize @p grid as a mondrian-campaign-spec-v2 JSON document. */
std::string campaignSpecJson(const CampaignGrid &grid);

/**
 * Parse a spec document produced by campaignSpecJson() into @p grid.
 * Structural parse only — callers still run validateGrid() before
 * expanding. Any other schema, v1 included, is refused.
 * @return false with @p error set on malformed documents.
 */
bool parseCampaignSpec(const std::string &json_text, CampaignGrid &grid,
                       std::string &error);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH
