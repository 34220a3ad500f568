/**
 * @file
 * The synthetic-bug registry — our rendition of paper Table 5 plus
 * the four new bugs of §6.3.2.
 *
 * Every case names one injected defect (a workload flag), the
 * campaign parameters that make the defective path execute, and the
 * finding class XFDetector must report. The validation test and the
 * Table 5 bench both drive this registry.
 */

#ifndef XFD_BUGSUITE_REGISTRY_HH
#define XFD_BUGSUITE_REGISTRY_HH

#include <string>
#include <vector>

#include "core/driver.hh"
#include "pm/pool.hh"

namespace xfd::bugsuite
{

/** Finding class a case must produce. */
enum class Expected : std::uint8_t
{
    Race,            ///< cross-failure race
    Semantic,        ///< cross-failure semantic bug
    Performance,     ///< performance bug
    RecoveryFailure, ///< post-failure stage fails outright
};

/** Which column of Table 5 (or §6.3.2) a case belongs to. */
enum class Origin : std::uint8_t
{
    PmTestSuite, ///< ported from the PMTest bug suite
    Additional,  ///< the paper's additional synthetic bugs
    NewBug,      ///< §6.3.2 newly found bugs
    Extra,       ///< beyond the paper: our extra coverage
};

const char *expectedName(Expected e);
const char *originName(Origin o);

/** One synthetic-bug campaign. */
struct BugCase
{
    /** Injected flag; empty for special cases (pool creation). */
    std::string id;
    /** Workload factory name, or "pool_create" for §6.3.2 bug 4. */
    std::string workload;
    Expected expected;
    Origin origin;
    std::string description;
    unsigned initOps = 10;
    unsigned testOps = 12;
    unsigned postOps = 6;
    bool roiFromStart = false;
    /**
     * Crash-state tier the defect needs (--crash-states spelling);
     * empty for anchor-detectable cases. runBugCase() applies it
     * unless the caller's config already picked a tier.
     */
    std::string crashStates;
};

/** The full registry. */
const std::vector<BugCase> &allBugCases();

/** Cases restricted to one workload. */
std::vector<BugCase> bugCasesFor(const std::string &workload);

/**
 * Run one case's detection campaign, with @p observer (when
 * non-null) attached to it.
 */
core::CampaignResult runBugCase(const BugCase &c,
                                core::DetectorConfig cfg = {},
                                core::CampaignObserver *observer = nullptr);

/** @return whether @p result contains the case's expected finding. */
bool detected(const BugCase &c, const core::CampaignResult &result);

} // namespace xfd::bugsuite

#endif // XFD_BUGSUITE_REGISTRY_HH
