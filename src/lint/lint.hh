/**
 * @file
 * xfd-lint — static persistency analysis over a pre-failure trace.
 *
 * The dynamic detector discovers performance bugs and ordering
 * mistakes as a side effect of replaying post-failure executions; the
 * lint pass finds the statically-decidable subset by walking the
 * pre-failure trace once, with no post-failure stage at all:
 *
 *  - diagnostics: eight rules (XL01..XL08) over the persistency FSM —
 *    redundant writebacks, duplicated TX_ADD, flushes of unmodified
 *    lines, no-op fences, writes never persisted at exit, commit
 *    writes issued before their data is durable, epoch
 *    (write -> flush -> fence) ordering violations, and
 *    WITCHER-style commit-variable inference disagreeing with a
 *    workload's annotations;
 *  - prunability: per planned failure point, whether an earlier point
 *    at the same ordering-point source location had an identical
 *    frontier signature, in which case the post-failure execution is
 *    statically redundant and the driver may fold it into its
 *    representative's batch group (--backend=batched).
 *
 * The analysis consumes an in-memory trace::TraceBuffer or a loaded
 * serialized trace; it depends only on trace/ and obs/ (for JSON
 * rendering), so core::Driver can call into it without a cycle.
 */

#ifndef XFD_LINT_LINT_HH
#define XFD_LINT_LINT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/json.hh"
#include "trace/buffer.hh"

namespace xfd::lint
{

/** Statically-checkable persistency rules, in stable-ID order. */
enum class Rule : std::uint8_t
{
    RedundantWriteback, ///< XL01: flush of a line with no modified data
    DuplicateTxAdd,     ///< XL02: TX_ADD contained in an open TX_ADD
    FlushUnmodified,    ///< XL03: flush of a line never written
    FenceNoPending,     ///< XL04: fence with nothing to retire
    UnpersistedAtExit,  ///< XL05: write still in flight at trace end
    CommitFenceMissing, ///< XL06: commit write before data is durable
    EpochOrder,         ///< XL07: write to a flushed, un-fenced line
    CommitVarInference, ///< XL08: inferred commit var vs. annotation
};

/** Number of distinct rules (for per-rule counter arrays). */
inline constexpr std::size_t ruleCount = 8;

/** Bit for @p r in a rule mask. */
inline constexpr std::uint32_t
ruleBit(Rule r)
{
    return 1u << static_cast<unsigned>(r);
}

/** Mask with every rule enabled. */
inline constexpr std::uint32_t allRules = (1u << ruleCount) - 1;

/** Stable rule identifier ("XL01".."XL08"). */
const char *ruleId(Rule r);

/** Stable rule name ("redundant_writeback", ...). */
const char *ruleName(Rule r);

/** Diagnostic severity, fixed per rule. */
enum class Severity : std::uint8_t { Note, Perf, Warning, Error };

const char *severityName(Severity s);

/** Severity a diagnostic of rule @p r carries. */
Severity ruleSeverity(Rule r);

/**
 * Parse a --lint rule selection: "all", or a comma-separated list of
 * rule ids ("XL01") and/or names ("redundant_writeback").
 * @return false (with *err set) on an unknown rule.
 */
bool parseRuleList(const std::string &csv, std::uint32_t &mask,
                   std::string *err);

/** One lint finding, anchored to trace op sequence numbers. */
struct Diagnostic
{
    static constexpr std::uint32_t noSeq = ~std::uint32_t{0};

    Rule rule = Rule::RedundantWriteback;
    /** First PM address the diagnostic is about. */
    Addr addr = 0;
    std::uint32_t size = 0;
    /** Sequence number of the offending trace op. */
    std::uint32_t seq = noSeq;
    trace::SrcLoc loc;
    /** Related earlier op (e.g. the covering TX_ADD), if any. */
    std::uint32_t relatedSeq = noSeq;
    trace::SrcLoc related;
    std::string note;

    /** One-line human-readable rendering. */
    std::string str() const;
};

/** Lint pass configuration. */
struct LintConfig
{
    /** Enabled rules (default: all). */
    std::uint32_t rules = allRules;
    /** Frontier cell granularity in bytes (match the detector's). */
    unsigned granularity = 1;
    /**
     * eADR/CXL flush-free persistency semantics (match the detector's
     * --pm-model). Stores are durable on arrival: the flush-centric
     * rules (XL01 redundant writeback, XL03 flush-unmodified, XL04
     * no-op fence, XL07 epoch order, XL08 commit-var inference) are
     * suppressed — every flush is equally dead weight, not a
     * persistency mistake, and the solo-persist publish signature
     * XL08 keys on does not exist — and the frontier dataflow
     * mirrors the flush-free shadow PM.
     */
    bool flushFree = false;
};

/**
 * One address the WITCHER-style inference pass tracked: a location
 * the program stores to and persists, with how often the store was
 * the *only* data a fence retired (the atomic-publish signature a
 * commit variable exhibits).
 */
struct CommitVarCandidate
{
    Addr addr = 0;
    std::uint32_t size = 0;
    /** Detectable stores to this address. */
    std::uint32_t stores = 0;
    /** Stores whose retiring fence persisted nothing else. */
    std::uint32_t soloPersists = 0;
    /** The address ever became durable (retired by some fence). */
    bool everDurable = false;
    /** Covered by a CommitVar or CommitRange annotation. */
    bool annotated = false;
    std::uint32_t lastStoreSeq = 0;
    trace::SrcLoc lastStore;

    /**
     * Behaves like a commit variable: repeatedly stored, every store
     * immediately and solely persisted, atomically writable.
     */
    bool
    looksLikeCommitVar() const
    {
        return stores >= 2 && soloPersists == stores && size <= 16;
    }
};

/** Result of the commit-variable inference pass. */
struct CommitVarInferenceResult
{
    /** Every store target the pass tracked, in address order. */
    std::vector<CommitVarCandidate> candidates;
    /** The trace registered at least one commit variable. */
    bool annotationsPresent = false;
};

/**
 * Infer likely commit variables from trace invariants (the WITCHER
 * direction, PAPERS.md): a commit variable is a fixed address the
 * program stores to repeatedly where each store is the last — and
 * only — data the next fence makes durable. Under the flush-free
 * persistency model the signature is meaningless (every store is
 * instantly durable) and the result is empty.
 */
CommitVarInferenceResult inferCommitVars(const trace::TraceBuffer &pre,
                                         unsigned granularity,
                                         bool flushFree = false);

/**
 * Per-failure-point prunability verdicts. A point is pruned when an
 * earlier kept point at the same ordering-point source location had
 * an identical frontier signature: the in-flight write set and the
 * commit-inconsistency set, keyed by writer source location and
 * allocation region, are equal, so the post-failure execution can
 * only rediscover findings the kept representative already produced
 * (findings deduplicate by source location, and recovery-failure
 * reports carry the failure point's location, which is shared within
 * the group).
 *
 * The same relation is the detector's candidate equivalence: points
 * of one group share a batch representative, a crash-state sampler
 * stream and a crash-state pruning set (core::groupFailurePoints).
 */
struct PruneVerdicts
{
    /** A pruned point and the kept point that stands in for it. */
    struct Pruned
    {
        std::uint32_t fp = 0;
        std::uint32_t keptRep = 0;
    };

    /** Points to run, in plan order: one per group, by group id. */
    std::vector<std::uint32_t> kept;
    /** Points proven statically redundant. */
    std::vector<Pruned> pruned;
    /** Per input point, its group id: kept[group[i]] stands for it. */
    std::vector<std::uint32_t> group;

    double
    pruneRatio() const
    {
        std::size_t total = kept.size() + pruned.size();
        return total ? static_cast<double>(pruned.size()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** Everything one lint pass produced. */
struct LintReport
{
    std::vector<Diagnostic> diagnostics;
    /** Diagnostic count per rule (indexed by Rule). */
    std::array<std::size_t, ruleCount> hits{};
    /** Rules that were enabled for this pass. */
    std::uint32_t rules = allRules;
    /** Prunability verdicts (empty when no plan was supplied). */
    PruneVerdicts prune;
    /** Failure points the prune pass considered. */
    std::size_t pointsConsidered = 0;

    /** Diagnostics of @p r found. */
    std::size_t
    count(Rule r) const
    {
        return hits[static_cast<std::size_t>(r)];
    }
};

/**
 * Run the lint pass over @p pre. When @p plannedPoints is non-null
 * (the campaign's planned failure points, ascending), prunability
 * verdicts are computed as well.
 */
LintReport runLint(const trace::TraceBuffer &pre, const LintConfig &cfg,
                   const std::vector<std::uint32_t> *plannedPoints =
                       nullptr);

/**
 * Compute only the prunability verdicts for @p points (ascending seq
 * order, as produced by core::planFailurePoints) at @p granularity:
 * one frontier walk that keys each point on (file, line, function,
 * signature), as an interned location id plus an interned signature
 * id. @p flushFree selects the eADR frontier semantics and must match
 * the campaign's persistency model.
 *
 * @throws std::invalid_argument when a planned point is not in @p pre
 * or @p granularity is not a cell size.
 */
PruneVerdicts computePruneVerdicts(const trace::TraceBuffer &pre,
                                   const std::vector<std::uint32_t> &points,
                                   unsigned granularity, bool flushFree);

/** Multi-line human-readable report (the lint scoreboard). */
std::string renderText(const LintReport &rep);

/**
 * Write the report as one JSON object ("xfd-lint-v1"): diagnostics,
 * per-rule hit counts, and the prune verdict summary. Usable both as
 * a standalone document (--lint-json) and as the "lint" section of
 * the stats document.
 */
void writeLintJson(const LintReport &rep, obs::JsonWriter &w);

} // namespace xfd::lint

#endif // XFD_LINT_LINT_HH
