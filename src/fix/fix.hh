/**
 * @file
 * xfd-fix — the static repair advisor (the ROADMAP's Arthas-direction
 * closed loop).
 *
 * Detection says "here are your cross-failure bugs"; the repair
 * advisor closes the loop with "here is the minimal fix, and here is
 * the re-run proving it works". It walks the same frontier dataflow
 * as xfd-lint and, for every confirmed campaign finding and every
 * repairable lint diagnostic, synthesizes a concrete RepairPlan:
 *
 *  - add_flush_fence: insert CLWB + SFENCE after the racy writer
 *    (unflushed-data cross-failure races, XL05 unpersisted-at-exit);
 *  - add_fence: insert the missing SFENCE after an existing writeback
 *    (clwb-without-fence races);
 *  - reorder_commit: move a commit-variable store (plus its persist)
 *    after the fence that makes its guarded data durable (XL06 /
 *    commit-before-data semantic bugs);
 *  - drop_flush / drop_fence / skip_tx_add: remove a provably
 *    redundant operation (XL01/XL03/XL04 and duplicate-TX_ADD
 *    performance bugs);
 *  - add_tx_add / advisory: semantic bugs that have no sound
 *    trace-level repair (a missing TX_ADD inside a transaction, a
 *    recovery-logic defect) get an advisory plan that names the patch
 *    site but is never auto-applied — auto-inserting the flush that
 *    would silence the detector would break undo-log atomicity
 *    invisibly, the textbook bogus fix.
 *
 * Each applicable plan is applied as an *inverse mutation* — a
 * mutate::EditScript run through mutate::InsertionMutation — and
 * machine-checked by re-running the campaign: the plan is **verified**
 * only if the targeted finding disappears, no finding beyond the
 * broken baseline's set appears, and the crash-state oracle still
 * reports full agreement on the repaired trace. A plan whose target
 * survives (advisories by design) is **incomplete**; one that
 * introduces findings or oracle disagreement is **regressed**.
 */

#ifndef XFD_FIX_FIX_HH
#define XFD_FIX_FIX_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/observer.hh"
#include "lint/lint.hh"
#include "mutate/insert.hh"
#include "obs/json.hh"
#include "trace/buffer.hh"

namespace xfd::fix
{

/** The repair shapes the synthesizer emits. */
enum class RepairKind : std::uint8_t
{
    DropFlush,     ///< remove a redundant writeback (XL01/XL03)
    DropFence,     ///< remove a no-op fence (XL04)
    SkipTxAdd,     ///< remove a duplicated TX_ADD (XL02)
    AddFlushFence, ///< insert CLWB+SFENCE after the racy writer
    AddFence,      ///< insert the missing SFENCE after a writeback
    ReorderCommit, ///< move the commit store after its data's fence
    AddTxAdd,      ///< advisory: snapshot the range before writing it
    Advisory,      ///< advisory: no sound trace-level repair exists
};

inline constexpr std::size_t repairKindCount = 8;

/** Stable identifier ("add_flush_fence") for JSON/stats/scoreboard. */
const char *repairKindName(RepairKind k);

/** Whether plans of @p k are ever auto-applied. */
constexpr bool
repairKindAdvisory(RepairKind k)
{
    return k == RepairKind::AddTxAdd || k == RepairKind::Advisory;
}

/** Machine-checked verdict of one plan. */
enum class Verdict : std::uint8_t
{
    /** Target gone, zero new findings, oracle agreement intact. */
    Verified,
    /** Target still present (or the plan is advisory-only). */
    Incomplete,
    /** The repair introduced findings or oracle disagreement. */
    Regressed,
};

const char *verdictName(Verdict v);

/** One synthesized repair with its target and edit script. */
struct RepairPlan
{
    /** Stable plan id ("R1".."Rn", synthesis order). */
    std::string id;

    RepairKind kind = RepairKind::AddFlushFence;

    /**
     * Campaign finding this plan targets ("F3" in --explain's
     * numbering); empty for lint-only plans.
     */
    std::string findingId;

    /** The targeted finding's dedup key (mutate::findingKey form). */
    std::string targetKey;

    /**
     * Lint diagnostic this plan targets, when findingId is empty:
     * (rule, addr, source line) identify it across re-lints.
     */
    lint::Rule lintRule = lint::Rule::RedundantWriteback;
    Addr lintAddr = 0;
    bool lintTarget = false;

    /** One-line description of what is being fixed. */
    std::string target;

    /** Where the patch goes. */
    trace::SrcLoc site;

    /** Suggested source change, human-readable. */
    std::string patch;

    /** Never auto-applied; verdict is Incomplete by design. */
    bool advisory = false;

    /** The trace edits implementing the repair. */
    mutate::EditScript edits;

    /** "R1 add_flush_fence @ file:line (F2)". */
    std::string describe() const;
};

/** What machine-checking one plan produced. */
struct PlanOutcome
{
    RepairPlan plan;
    Verdict verdict = Verdict::Incomplete;

    /** The targeted finding/diagnostic is gone from the re-run. */
    bool targetGone = false;

    /** Findings of the repaired run beyond the baseline's set. */
    std::size_t newFindings = 0;

    /** Findings remaining in the repaired run (any kind). */
    std::size_t remainingFindings = 0;

    /** Every planned edit was reached during re-execution. */
    bool editsFired = false;

    /** @name Oracle cross-check (run only for candidate verifies) @{ */
    bool oracleRan = false;
    bool oracleClean = false;
    double oracleAgreement = 0.0;
    /** @} */
};

/** Findings the synthesizer produced no plan for. */
struct UnplannedFinding
{
    std::string findingId;
    std::string description;
    std::string reason;
};

/** Everything a fix campaign needs. */
struct FixConfig
{
    /** The (buggy) workload, same contract as core::Driver. */
    core::ProgramFn pre;
    core::ProgramFn post;

    std::size_t poolBytes = std::size_t{1} << 22;

    /** Worker threads for each inner detection campaign. */
    unsigned threads = 1;

    /** Detector knobs for the inner campaigns (fix/mutation/oracle
        fields are ignored — a fix campaign never recurses). */
    core::DetectorConfig detector;

    /**
     * Which plans to check: "all", a finding id ("F3" or "3"), or a
     * plan id ("R2"). Non-matching plans are synthesized but not
     * machine-checked (verdict stays Incomplete with no re-run).
     */
    std::string targets = "all";

    /**
     * Cross-check candidate verifications against the crash-state
     * oracle (agreement must be 1.0 for a Verified verdict). Tests
     * can disable it to keep hot loops cheap.
     */
    bool withOracle = true;

    /** Optional observer, attached to the baseline campaign only. */
    core::CampaignObserver *observer = nullptr;

    /** Progress callback, after each plan's machine check. */
    std::function<void(std::size_t done, std::size_t total,
                       const RepairPlan &p, Verdict v)>
        onPlan;
};

/** Full result of a fix campaign. */
struct FixReport
{
    std::vector<PlanOutcome> outcomes;
    std::vector<UnplannedFinding> unplanned;

    std::size_t verified = 0;
    std::size_t incomplete = 0;
    std::size_t regressed = 0;

    /** The broken program's campaign result (summary/exit source). */
    core::CampaignResult baseline;

    /** The broken program's lint report. */
    lint::LintReport lintBaseline;

    /** Plans synthesized (== outcomes.size()). */
    std::size_t plans() const { return outcomes.size(); }

    /** Multi-line human-readable repair scoreboard. */
    std::string scoreboard() const;

    /** The "fix" object ("xfd-fix-v1") of the stats document. */
    void writeJson(obs::JsonWriter &w) const;

    /**
     * "[FIX Rn] ..." lines for the plans targeting finding
     * @p findingId ("F2"); empty when none do.
     */
    std::string renderFixFor(const std::string &findingId) const;
};

/**
 * Synthesize repair plans for every finding of @p baseline and every
 * repairable diagnostic of @p lintRep, from the frontier dataflow of
 * @p pre. Deterministic: plans come in finding order, then lint
 * diagnostic order, with ids R1..Rn.
 */
std::vector<RepairPlan>
synthesizePlans(const core::CampaignResult &baseline,
                const lint::LintReport &lintRep,
                const trace::TraceBuffer &pre,
                const core::DetectorConfig &cfg,
                std::vector<UnplannedFinding> *unplanned = nullptr);

/** Run the campaign: baseline + lint, synthesize, machine-check. */
FixReport runFixCampaign(const FixConfig &cfg);

} // namespace xfd::fix

#endif // XFD_FIX_FIX_HH
