/**
 * @file
 * Mutation campaigns: ground-truth precision/recall scoring of the
 * detector.
 *
 * The paper validates XFDetector against bugs planted by hand
 * (§6.2-§6.3, Table 4). The mutation engine automates that
 * experiment: it enumerates fault injections of a *correct* workload
 * (mutate/plan.hh), runs a full detection campaign per mutant, and
 * scores the findings against the plan's ground truth:
 *
 *  - a finding is a true positive iff its class matches the mutant's
 *    expected class and its address range overlaps the bytes the
 *    mutation left unprotected;
 *  - any other finding of a mutant run is a false positive;
 *  - every finding of the unmutated baseline run is a false positive
 *    (the workload is correct by assumption), and its dedup key is
 *    excluded from mutant scoring so a pre-existing bug is not
 *    miscounted as a detection.
 *
 * Scores come per operator and aggregated, as a human-readable
 * scoreboard and as a "mutation" object in the xfd-stats-v1
 * document.
 */

#ifndef XFD_MUTATE_CAMPAIGN_HH
#define XFD_MUTATE_CAMPAIGN_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/observer.hh"
#include "mutate/plan.hh"
#include "obs/json.hh"

namespace xfd::mutate
{

namespace detail
{
constexpr PerOp<bool>
everyOp()
{
    PerOp<bool> all{};
    for (auto &b : all)
        b = true;
    return all;
}
} // namespace detail

/** Everything a mutation campaign needs. */
struct MutationConfig
{
    /** The (correct) workload: same contract as core::Driver. The
        pre-failure stage must be single-threaded and deterministic —
        mutants are addressed by event occurrence. */
    core::ProgramFn pre;
    core::ProgramFn post;

    /** Pool geometry; every run gets a fresh pool at the default
        deterministic base. */
    std::size_t poolBytes = std::size_t{1} << 22;

    /** Worker threads for each inner detection campaign. */
    unsigned threads = 1;

    /** Detector knobs for the inner campaigns (mutation fields are
        ignored — a mutation campaign never recurses). */
    core::DetectorConfig detector;

    /** Operators to plan; defaults to all of them. */
    PerOp<bool> ops = detail::everyOp();

    /** Seed for the deterministic per-operator subsample. */
    std::size_t seed = 42;

    /** Keep at most this many mutants per operator (0 = all). */
    std::size_t maxPerOp = 0;

    /** Optional observer, attached to the baseline campaign only
        (mutant campaigns run unobserved to stay cheap). */
    core::CampaignObserver *observer = nullptr;

    /** Progress callback, invoked after each mutant campaign. */
    std::function<void(std::size_t done, std::size_t total,
                       const Mutant &m, bool detected)>
        onMutant;
};

/** Detection quality for one operator (or the aggregate). */
struct OpScore
{
    std::size_t mutants = 0;        ///< campaigns run
    std::size_t detected = 0;       ///< mutants with >= 1 matching finding
    std::size_t truePositives = 0;  ///< findings matching ground truth
    std::size_t falsePositives = 0; ///< findings matching nothing

    double
    recall() const
    {
        return mutants ? static_cast<double>(detected) / mutants : 1.0;
    }

    double
    precision() const
    {
        std::size_t denom = truePositives + falsePositives;
        return denom ? static_cast<double>(truePositives) / denom : 1.0;
    }

    double
    f1() const
    {
        double p = precision(), r = recall();
        return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
    }
};

/** What one mutant campaign produced. */
struct MutantOutcome
{
    Mutant mutant;
    bool fired = false;    ///< the planned occurrence was reached
    bool detected = false; ///< >= 1 finding matched the ground truth
    std::size_t matchedFindings = 0;
    std::size_t unmatchedFindings = 0;
};

/** Full result of a mutation campaign. */
struct MutationReport
{
    std::vector<MutantOutcome> outcomes;
    PerOp<OpScore> perOp{};
    /** Sums of perOp; falsePositives additionally counts the
        baseline run's findings. */
    OpScore aggregate;
    /** Findings of the unmutated run (should be 0 for a correct
        workload; all counted as false positives). */
    std::size_t baselineFindings = 0;
    /** Mutants the planner found before the per-operator cap. */
    std::size_t enumerated = 0;
    std::size_t seed = 0;
    /** The unmutated campaign's result (summary/exit-code source). */
    core::CampaignResult baseline;

    /** Multi-line per-operator precision/recall table. */
    std::string scoreboard() const;

    /** The "mutation" object of the xfd-stats-v1 document. */
    void writeJson(obs::JsonWriter &w) const;
};

/** Run the campaign: baseline first, then one detection campaign per
    planned mutant, then score. */
MutationReport runMutationCampaign(const MutationConfig &cfg);

} // namespace xfd::mutate

#endif // XFD_MUTATE_CAMPAIGN_HH
