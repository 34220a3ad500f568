/**
 * @file
 * Crash-state enumeration oracle — an independent second
 * implementation of the paper's cross-failure semantics.
 *
 * The detection driver trusts one shadow-PM FSM replay per failure
 * point (core/shadow_pm). The oracle re-derives the same verdicts
 * from first principles, Jaaru/WITCHER-style, sharing no state or
 * code with the FSM:
 *
 *  1. Scan the pre-failure trace with an independent per-cell model
 *     of the x86 persistency rules (CLWB/CLFLUSHOPT + SFENCE retire
 *     writes; non-temporal stores persist at the next fence). Each
 *     cell carries a *tail*: the write events applied to it since it
 *     was last guaranteed persisted.
 *  2. At a failure point, the union of the tails is the *frontier* —
 *     the in-flight write events a real crash may or may not have
 *     persisted. Every legal crash image corresponds to a
 *     downward-closed subset of the frontier (per cell, the applied
 *     events must form a prefix of its tail: stores to one location
 *     persist in store order).
 *  3. Enumerate the legal subsets (exhaustively below a configurable
 *     frontier size, seeded-random sampling above it), materialize
 *     each candidate crash image from an incrementally maintained
 *     durable image, run the recovery program on it, and classify
 *     the outcome into the paper's taxonomy: cross-failure race
 *     (read of an in-flight cell), cross-failure semantic bug
 *     (persisted but outside the commit-variable window, condition
 *     (3)), or recovery failure (abort / wild PM access).
 *
 * The all-updates candidate (every frontier event applied) is byte-
 * identical to the image the driver materializes per footnote 3, so
 * its classification must equal the detector's per-failure-point
 * findings exactly — that is the conformance anchor the differential
 * harness (oracle/diff.hh) asserts. Partial candidates explore crash
 * states the detector never executes; their extra findings are
 * attributed (see DiffReport) rather than compared one-to-one.
 */

#ifndef XFD_ORACLE_ORACLE_HH
#define XFD_ORACLE_ORACLE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/bug_report.hh"
#include "core/config.hh"
#include "core/driver.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "trace/buffer.hh"
#include "trace/candidates.hh"
#include "trace/subset.hh"

namespace xfd::oracle
{

/** Enumeration knobs for one oracle pass. */
struct OracleConfig
{
    /** Enumerate every legal subset (frontiers <= frontierLimit). */
    bool exhaustive = true;

    /** Candidates per failure point when sampling. */
    std::size_t sampleCount = 64;

    /**
     * Frontiers larger than this are sampled even in exhaustive mode
     * (the subset space is 2^frontier).
     */
    std::size_t frontierLimit = 8;

    /** Seed for the per-failure-point subset sampler. */
    std::uint64_t seed = 42;

    /**
     * Detector knobs the oracle must mirror to stay comparable:
     * granularity, firstReadOnly, strictPersistCheck and
     * crashImageMode change what counts as a finding.
     */
    core::DetectorConfig detector;
};

/**
 * One in-flight write event at a failure point. The type moved to
 * trace/candidates.hh when the driver's --crash-states mode started
 * sharing the enumeration; this alias keeps oracle call sites stable.
 */
using FrontierEvent = trace::FrontierEvent;

/** Outcome of running recovery on one candidate crash image. */
struct CandidateOutcome
{
    /** Which frontier events this candidate persisted. */
    trace::SubsetMask mask;

    /**
     * Finding classes recovery produced on this image (only
     * CrossFailureRace / CrossFailureSemantic / RecoveryFailure —
     * performance bugs are a whole-trace property, not a per-crash-
     * state one).
     */
    std::set<core::BugType> classes;
};

/** Everything the oracle derived for one failure point. */
struct FpOracleResult
{
    std::uint32_t fp = 0;

    /** In-flight write events, ascending by seq (mask bit order). */
    std::vector<FrontierEvent> frontier;

    /** Legal subsets found (enumerated or distinct sampled). */
    std::size_t statesLegal = 0;

    /** True when the frontier exceeded the limit and was sampled. */
    bool sampled = false;

    /** Candidates run; [0] is the all-updates anchor candidate. */
    std::vector<CandidateOutcome> candidates;

    /** Classes of the all-updates anchor (detector-equivalent). */
    const std::set<core::BugType> &anchorClasses() const
    {
        return candidates.front().classes;
    }
};

/**
 * The oracle. Construct once per campaign, then feed it the planned
 * failure points in ascending order — the pre-trace scan, like the
 * driver's replay cursors, only moves forward.
 */
class CrashStateOracle
{
  public:
    /**
     * @param pre     the campaign's pre-failure trace
     * @param initial pool snapshot from before the pre-failure run;
     *                also pins the oracle's pool geometry, which must
     *                match the campaign's (workloads chase absolute
     *                persistent pointers)
     * @param cfg     enumeration + mirrored detector knobs
     * @throws std::invalid_argument unless the detector granularity is
     *         a cell size (1, 2, 4 or 8)
     */
    CrashStateOracle(const trace::TraceBuffer &pre,
                     const pm::PmImage &initial,
                     const OracleConfig &cfg);

    /**
     * Enumerate, materialize and classify the crash states of the
     * failure point at pre-trace position @p fp (the entry at fp does
     * not retire). @p post is the recovery program, run once per
     * candidate on the oracle's own pool replica.
     *
     * @p extraMasks (may be null) are candidate masks some other
     * explorer — the driver's --crash-states mode — executed for this
     * failure point; any of them the oracle's own enumeration did not
     * produce is appended and classified too, so the differential
     * harness can look up the oracle's verdict at every detector
     * candidate even when enumeration knobs differ.
     *
     * @p stream (may be null) overrides the sampler stream identity.
     * The oracle defaults to the failure point; the driver's
     * --crash-states mode samples per candidate equivalence class, so
     * the differential harness passes the point's group id here to
     * reproduce the exact detector mask sequence.
     */
    FpOracleResult runFailurePoint(
        std::uint32_t fp, const core::ProgramFn &post,
        const std::vector<trace::SubsetMask> *extraMasks = nullptr,
        const std::uint64_t *stream = nullptr);

    /** Candidate recovery executions so far (stats). */
    std::size_t candidatesRun() const { return nCandidates; }

  private:
    /** Persistence state of one oracle cell. */
    enum class CellState : std::uint8_t
    {
        Untouched, ///< never written
        Modified,  ///< dirty in cache, no writeback in flight
        Pending,   ///< writeback issued, fence not reached
        Persisted, ///< last write guaranteed durable
    };

    /** Independent per-cell record (cfg.detector.granularity bytes). */
    struct OCell
    {
        CellState state = CellState::Untouched;
        bool touched = false;
        bool uninit = false;
        std::int32_t tlast = -1;
        /** Write events applied since the last guaranteed persist,
            ascending by seq — empty iff guaranteed persisted. */
        std::vector<std::uint32_t> tail;
    };

    /** Independent commit-variable clock (paper condition (3)). */
    struct OCommitVar
    {
        AddrRange var{0, 0};
        std::vector<AddrRange> ranges;
        std::int32_t tlast = -1;
        std::int32_t tprelast = -1;
    };

    std::uint64_t cellIndex(Addr a) const;
    std::uint64_t cellCount(Addr a, std::size_t n) const;
    Addr cellAddr(std::uint64_t idx) const;

    /** Advance the scan (cells, clocks, images) to pre-trace @p to. */
    void advance(std::uint32_t to);

    /** Copy one cell's bytes from the working into the durable image. */
    void persistCellBytes(std::uint64_t idx);

    /** Collect the frontier (union of tails) at the current cursor. */
    std::vector<FrontierEvent> collectFrontier() const;

    /**
     * The frontier plus the per-cell prefix chains as a shared
     * CandidateSet (legality, repair and enumeration live in
     * trace/candidates.cc, shared with the driver).
     */
    trace::CandidateSet
    buildCandidateSet(std::vector<FrontierEvent> frontier,
                      const std::map<std::uint32_t, std::size_t> &bitOf)
        const;

    /** Reset the exec pool to the durable image (delta restore). */
    void restoreExecPool();

    /** Apply the candidate's persisted events onto the exec pool. */
    void applyMask(const std::vector<FrontierEvent> &frontier,
                   const trace::SubsetMask &mask,
                   const std::map<std::uint32_t, std::size_t> &bitOf);

    /**
     * Run recovery on the current pool and classify its trace.
     * @p suppressSemantic mirrors the driver's dropped-commit rule: a
     * candidate that drops a commit-variable write shows recovery the
     * previous committed epoch, so commit-window (condition (3))
     * verdicts on it describe a legitimate older state, not a bug.
     */
    std::set<core::BugType> runCandidate(const core::ProgramFn &post,
                                         bool suppressSemantic);

    /** Mirror of the post-read decision procedure over oracle state. */
    int classifyRead(Addr a, std::size_t n,
                     std::map<std::uint64_t, std::uint8_t> &pflags,
                     const std::vector<OCommitVar> &vars) const;

    const OCommitVar *coveringVar(
        Addr a, const std::vector<OCommitVar> &vars) const;
    bool isCommitVarAddr(Addr a,
                         const std::vector<OCommitVar> &vars) const;

    static void registerVar(std::vector<OCommitVar> &vars, Addr a,
                            std::size_t n);
    static void registerRange(std::vector<OCommitVar> &vars, Addr cv,
                              Addr a, std::size_t n);

    const trace::TraceBuffer &pre;
    OracleConfig cfg;
    unsigned gran;
    /**
     * Cached cfg.detector.eadrOn(). Under the flush-free model every
     * store is guaranteed durable on arrival: cells never carry a
     * tail, so every frontier is empty and the all-updates anchor is
     * the only crash state — the oracle's independent restatement of
     * "flush omission is not a bug class under eADR".
     */
    bool eadr;

    pm::PmPool execPool;
    /** All updates applied (mirrors the footnote-3 image). */
    pm::PmImage working;
    /** Only guaranteed-persisted updates applied. */
    pm::PmImage durable;

    std::map<std::uint64_t, OCell> cells;
    /** Cells awaiting the next fence (may hold stale entries; the
        fence re-checks the state, like the FSM's pending list). */
    std::vector<std::uint64_t> pending;
    std::vector<OCommitVar> cvars;
    std::int32_t ts = 0;
    std::uint32_t cursor = 0;

    /** Delta-restore bookkeeping for the exec pool, at its page size. */
    static constexpr std::size_t restorePageSize = pm::PmPool::pageSize;
    std::set<std::uint32_t> durableDirty;
    bool poolSynced = false;

    std::size_t nCandidates = 0;
};

/**
 * Parse an --oracle mode string: "exhaustive", "sample" or
 * "sample:<n>". @return false (with *err set) on anything else.
 */
bool parseOracleMode(const std::string &mode, bool &exhaustive,
                     std::size_t &sampleCount, std::string *err);

} // namespace xfd::oracle

#endif // XFD_ORACLE_ORACLE_HH
