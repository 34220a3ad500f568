/**
 * @file
 * Shadow persistent memory — the backend's model of PM state.
 *
 * Per paper §5.4, the shadow PM records for every PM location:
 *  - a persistence state {Unmodified, Modified, WritebackPending,
 *    Persisted} driven by WRITE/CLWB/SFENCE (Fig. 9),
 *  - a consistency state versus the program's commit variables
 *    (Fig. 10), which we evaluate with the paper's timestamp condition
 *    (3): a location m in commit set Sx is consistent iff
 *    T(Cx,n-1) <= Tlast(m) < T(Cx,n),
 *  - the timestamp Tlast of its last modification, where the global
 *    timestamp increments at each ordering point.
 *
 * The pre-failure trace is replayed incrementally (state carries over
 * from one failure point to the next); each post-failure trace is
 * replayed against a lightweight overlay so the pre-failure state is
 * never disturbed.
 *
 * It is also the detector's only crash-state model. With tails on,
 * every open cell (at least one write not yet guaranteed durable)
 * carries its write tail, and frontier() turns the open cells into a
 * failure point's write frontier: the anchor's provenance, the bit
 * order of every --crash-states/--crash-image candidate mask, and
 * the cells each candidate write may touch. Its semantics replicate
 * the oracle's per-cell model (oracle/oracle.cc advance()), so the
 * driver's frontiers and candidate images agree with the oracle's
 * byte for byte. Tails are stored as runs of adjacent cells sharing
 * one tail (a multi-byte store is one run): a write splits at most
 * two runs, a fence closes the runs of the cells it retires, and a
 * frontier costs O(open runs), never O(history).
 */

#ifndef XFD_CORE_SHADOW_PM_HH
#define XFD_CORE_SHADOW_PM_HH

#include <array>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/bug_report.hh"
#include "core/config.hh"
#include "trace/entry.hh"

namespace xfd::core
{

/** Persistence state of a shadow cell (paper Fig. 9). */
enum class PersistState : std::uint8_t
{
    Unmodified,       ///< never written inside the traced execution
    Modified,         ///< written; no writeback issued
    WritebackPending, ///< CLWB/CLFLUSH issued; fence not yet reached
    Persisted,        ///< written back and fenced
};

/** @return short name of @p s. */
const char *persistStateName(PersistState s);

/**
 * Counters over the persistence-FSM edges of paper Fig. 9, collected
 * while the pre-failure trace is replayed into the shadow PM. One
 * entry per (from, to) state pair, plus the yellow redundant-flush
 * edges and fence retirement counts.
 */
struct ShadowFsmCounters
{
    static constexpr std::size_t numStates = 4;

    /** Cell transitions: edge[from][to]. */
    std::uint64_t edge[numStates][numStates] = {};
    /** Flushes of lines holding no modified data (perf-bug edges). */
    std::uint64_t redundantFlushes = 0;
    /** Fences observed. */
    std::uint64_t fences = 0;
    /** Fences that retired at least one pending writeback. */
    std::uint64_t orderingFences = 0;

    std::uint64_t
    edgeCount(PersistState from, PersistState to) const
    {
        return edge[static_cast<std::size_t>(from)]
                   [static_cast<std::size_t>(to)];
    }
};

/** Adjacent cells [first, end), by cell index. */
struct CellRun
{
    std::uint64_t first = 0;
    std::uint64_t end = 0;

    bool operator==(const CellRun &) const = default;
};

/** One failure point's write frontier, derived from the open cells. */
struct CellFrontier
{
    /** In-flight write seqs, ascending (mask bit i = seqs[i]). */
    std::vector<std::uint32_t> seqs;
    /**
     * The open cells' tails as bit indices, ascending by cell — the
     * prefix chains candidates must respect. A tail equal to the
     * previous open cell's (every cell of one multi-byte store) is
     * listed once, and single-write tails, which cannot constrain,
     * not at all.
     */
    std::vector<std::vector<std::size_t>> chains;
    /**
     * Per bit: the open cells whose tail carries that write, as
     * ascending runs of adjacent cells — exactly the cells applying
     * the write to a candidate image may touch.
     */
    std::vector<std::vector<CellRun>> runsOf;
};

/** Outcome of checking one post-failure read. */
enum class ReadCheck : std::uint8_t
{
    Ok,            ///< consistent (or untouched / overwritten post-failure)
    Benign,        ///< read of a commit variable: benign cross-failure race
    Race,          ///< cross-failure race (not guaranteed persisted)
    SemanticBug,   ///< cross-failure semantic bug (persisted but stale or
                   ///< uncommitted per the commit-variable protocol)
    Skipped,       ///< first-read-only optimization suppressed the check
};

/** Detailed result of a post-failure read check. */
struct ReadCheckResult
{
    ReadCheck verdict = ReadCheck::Ok;
    /** First offending cell address. */
    Addr addr = 0;
    /** Pre-failure trace seq of the last writer (or allocation). */
    std::uint32_t writerSeq = noSeq;
    /** True when the location was allocated but never initialized. */
    bool uninitialized = false;
    /** True when semantically inconsistent because stale (vs. uncommitted). */
    bool stale = false;

    static constexpr std::uint32_t noSeq = 0xffffffffu;
};

/**
 * The shadow PM. One instance lives for a whole detection campaign;
 * pre-failure replay mutates it, post-failure replay reads it through
 * an overlay.
 */
class ShadowPM
{
  public:
    /**
     * Cells are cfg.granularity bytes of @p pool; accesses outside it
     * are clamped away. @p tails also keeps the write tails and the
     * decided-cell reports below — the detector's replay cursors do;
     * the end-of-campaign perf scan and FSM-only users do not.
     *
     * @throws std::invalid_argument unless cfg.granularity is a cell
     * size (1, 2, 4 or 8).
     */
    ShadowPM(AddrRange pool, const DetectorConfig &cfg,
             bool tails = false);

    /**
     * @name Pre-failure replay
     * @{
     */

    /** Apply a pre-failure write of [a, a+n), trace position @p seq. */
    void preWrite(Addr a, std::size_t n, std::uint32_t seq,
                  bool nonTemporal);

    /**
     * Apply a CLWB/CLFLUSH of one cache line.
     *
     * @param repair true for entries carrying flagRepair (flushes
     *        inserted by a repair plan, xfdetect --fix). A repair
     *        flush that cleans a line exonerates the next program
     *        flush of that line from the redundant-flush verdict —
     *        the program flush was not redundant in the unrepaired
     *        execution.
     * @return true when the flush was redundant (no modified data in
     *         the line) — a performance bug (Fig. 9 yellow edges).
     */
    bool preFlush(Addr line, std::uint32_t seq, bool repair = false);

    /** Apply an SFENCE/MFENCE: pending writebacks become persisted. */
    void preFence();

    /** Record a persistent allocation: cells become uninitialized. */
    void preAlloc(Addr a, std::size_t n, std::uint32_t seq);

    /** Record a deallocation: cells return to Unmodified. */
    void preFree(Addr a, std::size_t n);

    /** Register a commit variable at [a, a+n). Idempotent. */
    void registerCommitVar(Addr a, std::size_t n);

    /** Associate [a, a+n) with the commit variable at @p cv. */
    void registerCommitRange(Addr cv, Addr a, std::size_t n);

    /** @} */

    /**
     * @name Post-failure replay
     * @{
     */

    /**
     * Reset the post-failure overlay (call per failure point).
     * Commit-variable registrations made while the overlay is active
     * are scoped to it: post-failure code may allocate objects at
     * addresses the pre-failure execution later uses differently.
     */
    void beginPostReplay();

    /** Drop post-replay-scoped state (registrations). */
    void endPostReplay();

    /**
     * Apply a post-failure write: the location is overwritten, so
     * later post-failure reads of it are unconditionally fine (§5.4:
     * inconsistencies it introduces are caught when this code later
     * runs as the pre-failure stage).
     */
    void postWrite(Addr a, std::size_t n);

    /** Check a post-failure read of [a, a+n) (paper Fig. 11 rules). */
    ReadCheckResult checkPostRead(Addr a, std::size_t n);

    /** @} */

    /**
     * @name Write tails and the cell frontier (tails on)
     * @{
     */

    /**
     * Open cells [first, end) sharing one write tail: the seqs
     * applied since their last guaranteed persist, ascending and
     * never empty. Under eADR a write is durable on arrival and opens
     * no tail.
     */
    struct OpenRun
    {
        std::uint64_t end = 0;
        std::vector<std::uint32_t> tail;
    };
    /** Open runs by first cell; runs never overlap. */
    using OpenRuns = std::map<std::uint64_t, OpenRun>;

    const OpenRuns &openRuns() const { return runs; }

    /**
     * Append to @p sink the cells whose content each later
     * pre-failure call decides, in decision order: retired by a
     * fence, or open cells pinned by a free. The caller copies their
     * bytes into its durable image (the working image minus the open
     * cells). Under eADR no cell ever opens, so nothing is reported:
     * every candidate is the anchor and the durable image goes
     * unread. Null stops reporting.
     */
    void reportDecided(std::vector<CellRun> *sink) { decided = sink; }

    /**
     * The frontier, chains and event -> cell index of the open cells:
     * one pass over the open runs, never over persisted cells.
     */
    CellFrontier frontier() const;

    /** Whether @p r overlaps a registered commit variable. */
    bool overlapsCommitVar(AddrRange r) const;

    /** Address of cell @p idx. */
    Addr
    cellAddr(std::uint64_t idx) const
    {
        return poolRange.begin + idx * gran;
    }

    std::uint64_t
    cellIndex(Addr a) const
    {
        return (a - poolRange.begin) / gran;
    }

    /** @} */

    /** Current global timestamp (increments per ordering point). */
    std::int32_t timestamp() const { return ts; }

    /** Number of registered commit variables. */
    std::size_t commitVarCount() const { return commitVars.size(); }

    /** Introspection for tests: the commit variables, as registered. */
    std::vector<AddrRange>
    commitVarRanges() const
    {
        std::vector<AddrRange> r;
        for (const auto &cv : commitVars)
            r.push_back(cv.var);
        return r;
    }

    /** Statistics: post-read checks actually performed / elided. */
    std::size_t checksPerformed() const { return nChecks; }
    std::size_t checksSkipped() const { return nSkipped; }

    /** Persistence-FSM transition counters (Fig. 9 edges). */
    const ShadowFsmCounters &fsmCounters() const { return fsm; }

    /** Introspection for tests: persistence state of address @p a. */
    PersistState persistStateOf(Addr a) const;

    /** Introspection for tests: Tlast of address @p a (-1 if never). */
    std::int32_t tlastOf(Addr a) const;

  private:
    /** Per-cell record (granularity cfg.granularity bytes). */
    struct Cell
    {
        PersistState ps = PersistState::Unmodified;
        std::uint8_t flags = 0;
        std::int32_t tlast = -1;
        std::uint32_t lastWriterSeq = ReadCheckResult::noSeq;
    };

    enum CellFlags : std::uint8_t
    {
        cellUninit = 1 << 0,   ///< allocated, never explicitly written
    };

    /** Post-overlay flags. */
    enum PostFlags : std::uint8_t
    {
        postOverwritten = 1 << 0,
        postChecked = 1 << 1,
    };

    /** A commit variable and its associated address set Sx. */
    struct CommitVar
    {
        AddrRange var;
        std::vector<AddrRange> ranges;
        std::int32_t tlast = -1;    ///< ts of the last commit write
        std::int32_t tprelast = -1; ///< ts of the pre-last commit write
    };

    static constexpr std::size_t cellsPerPage = 4096;
    using Page = std::array<Cell, cellsPerPage>;
    /** Post-overlay flags, paged like the pre-state cells. */
    using PostPage = std::array<std::uint8_t, cellsPerPage>;

    /**
     * Cells [first, last) of extent [a, a+n), clamped to the pool so
     * a hostile extent cannot run away; empty when n == 0.
     */
    std::pair<std::uint64_t, std::uint64_t> cellSpan(Addr a,
                                                     std::size_t n) const;

    /** Cell count covering [a, a+n). */
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        if (n == 0)
            return 0;
        return cellIndex(a + n - 1) - cellIndex(a) + 1;
    }

    const Cell *findCell(std::uint64_t idx) const;

    /** Pre-state page holding in-pool cell @p idx, created on demand. */
    Page &pageAt(std::uint64_t idx);

    /** Pre-state page holding cell @p idx, or nullptr. */
    Page *findPage(std::uint64_t idx) const;

    /** Post-overlay page holding cell @p idx, created zeroed. */
    PostPage &postPageAt(std::uint64_t idx);

    /** The commit variable covering @p a, or nullptr. */
    const CommitVar *coveringVar(Addr a) const;

    /** Whether @p a lies inside any commit variable itself. */
    bool isCommitVarAddr(Addr a) const;

    /** Evaluate paper condition (3) for a cell under @p var. */
    bool consistentUnder(const Cell &c, const CommitVar &var) const;

    /**
     * Split the open run straddling cell @p at, if any.
     * @return the first run starting at or after @p at.
     */
    OpenRuns::iterator splitRunAt(std::uint64_t at);

    /** Append @p seq to the tails of cells [first, end). */
    void openTails(std::uint64_t first, std::uint64_t end,
                   std::uint32_t seq);

    /**
     * Drop the tails of cells [first, end); with @p pin, report the
     * open ones as decided.
     */
    void closeTails(std::uint64_t first, std::uint64_t end, bool pin);

    /** Report cells [first, end) as decided. */
    void noteDecided(std::uint64_t first, std::uint64_t end);

    /** FSM edge bookkeeping. */
    void
    noteEdge(PersistState from, PersistState to)
    {
        fsm.edge[static_cast<std::size_t>(from)]
                [static_cast<std::size_t>(to)]++;
    }

    AddrRange poolRange;
    const DetectorConfig &cfg;
    unsigned gran;
    /**
     * Cached cfg.eadrOn(). Under the flush-free eADR/CXL model every
     * store is durable on arrival: writes land directly in Persisted,
     * flushes are no-ops (neither required nor redundant), and the
     * Modified/WritebackPending states are reachable only through
     * allocation (uninitialized cells).
     */
    bool eadr;
    /** Keep write tails (see the constructor). */
    bool tails;
    ShadowFsmCounters fsm;
    std::int32_t ts = 0;

    /** The pool's cell count. */
    std::uint64_t cellTotal;
    /**
     * The pre-state cell table, indexed directly by page: pages[p]
     * holds cells [p, p + 1) * cellsPerPage, null while all of them
     * are Unmodified.
     */
    std::vector<std::unique_ptr<Page>> pages;
    OpenRuns runs;
    std::vector<CellRun> *decided = nullptr;
    /** Cells with a writeback pending, resolved at the next fence. */
    std::vector<std::uint64_t> pendingCells;
    /**
     * Lines last cleaned by an internal (repair-inserted) flush. Each
     * entry exonerates at most one subsequent program flush of the
     * line from the redundant-flush performance verdict. Bounded by
     * the number of repair insertions — tiny in practice.
     */
    std::vector<Addr> repairCleanLines;
    std::vector<CommitVar> commitVars;
    /** commitVars as of beginPostReplay, restored by endPostReplay. */
    std::vector<CommitVar> savedCommitVars;
    bool inPostReplay = false;
    /**
     * Post-overlay flag pages, cleared per failure point. Paged so the
     * classify stage pays one hash lookup per page run instead of one
     * per byte cell — recovery code touches thousands of cells per
     * point, which made the flat map the dominant classify cost.
     */
    std::unordered_map<std::uint64_t, std::unique_ptr<PostPage>> postPages;

    std::size_t nChecks = 0;
    std::size_t nSkipped = 0;
};

} // namespace xfd::core

#endif // XFD_CORE_SHADOW_PM_HH
