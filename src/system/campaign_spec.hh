/**
 * @file
 * campaign.json: the declarative job-spec format shared by the CLI and
 * the distributed coordinator.
 *
 * A spec document serializes a CampaignGrid — every axis, in axis order —
 * so that a worker process can re-expand the identical job list from the
 * document its coordinator sends in the join handshake instead of
 * re-parsing CLI flags. Expansion order is part of the
 * contract: job index N in the coordinator IS job index N in every
 * worker, which is what lets the wire protocol ship bare indices.
 *
 * Doubles (zipf thetas, traffic rates, mix weights) are written in exact
 * shortest-round-trip form, not the report's 12-significant-digit
 * canonical form: a worker must reconstruct bit-identical WorkloadConfig
 * values or its results would diverge from an in-process run of the same
 * grid and break the merged-report byte-identity oracle.
 *
 * Scenarios serialize as their spec strings (a scenario's name is its
 * spec: single ops, presets, '>'-joined chains — scenarioFromSpec is the
 * inverse). Geometries and exec overrides serialize field-by-field, like
 * the report's axis tables.
 */

#ifndef MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH
#define MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH

#include <string>

#include "system/campaign.hh"

namespace mondrian {

/** Serialize @p grid as a mondrian-campaign-spec-v1 JSON document. */
std::string campaignSpecJson(const CampaignGrid &grid);

/**
 * Parse a spec document produced by campaignSpecJson() (or hand-written)
 * into @p grid. Structural parse only — callers still run
 * validateGrid() before expanding.
 * @return false with @p error set on malformed documents.
 */
bool parseCampaignSpec(const std::string &json_text, CampaignGrid &grid,
                       std::string &error);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_CAMPAIGN_SPEC_HH
