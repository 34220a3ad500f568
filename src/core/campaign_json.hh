/**
 * @file
 * JSON export of campaign results — the machine-readable counterpart
 * of CampaignResult::summary().
 *
 * Two documents:
 *
 *  - stats JSON  ("xfd-stats-v1"): the campaign timing/volume
 *    breakdown (identical values to summary()), the post-execution
 *    latency histogram, restore volume, bug counts by type, the
 *    shadow-FSM edge counts and per-op trace volumes — the one copy
 *    of every CampaignStats number;
 *  - report JSON ("xfd-report-v1"): the deduplicated findings with
 *    source locations — diff-friendly, so serial and parallel
 *    campaigns over the same program export byte-identical reports.
 */

#ifndef XFD_CORE_CAMPAIGN_JSON_HH
#define XFD_CORE_CAMPAIGN_JSON_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/driver.hh"

namespace xfd::core
{

/**
 * One extra top-level object in the xfd-stats-v1 document, supplied
 * by a layer core does not depend on (e.g. the mutation engine's
 * "mutation" section). The callback writes the value for @p key —
 * typically beginObject()...endObject().
 */
struct JsonSection
{
    std::string key;
    std::function<void(obs::JsonWriter &)> body;
};

/**
 * Write the stats document for @p res. @p cfg (may be null) adds a
 * "config" echo of the detector knobs the campaign ran with, driven
 * by the config_flags descriptor table; @p extra sections are
 * appended after the built-in ones.
 */
void writeStatsJson(const CampaignResult &res, const DetectorConfig *cfg,
                    std::ostream &os,
                    const std::vector<JsonSection> &extra = {});

/** Write the findings document for @p res. */
void writeReportJson(const CampaignResult &res, std::ostream &os);

} // namespace xfd::core

#endif // XFD_CORE_CAMPAIGN_JSON_HH
