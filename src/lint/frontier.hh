/**
 * @file
 * Frontier dataflow over the pre-failure trace — the lint-side mirror
 * of the shadow PM's persistency FSM (core/shadow_pm.cc), without the
 * post-failure read-check machinery.
 *
 * One forward walk maintains, per cell (granularity bytes): the
 * persistency state (Modified / WritebackPending / Persisted), the
 * source location and seq of the last writer, the last-modified
 * timestamp, and the uninitialized flag; plus the commit-variable
 * registry with last / pre-last commit timestamps. Rules query the
 * state *before* an entry applies; the prune pass snapshots a
 * signature at each planned failure point the same way.
 *
 * Cells are stored as coalesced ranges, one ordered map per state, so
 * a 4 KiB page write is one range rather than 4096 nodes and the
 * in-flight maps double as the address-ordered frontier index a
 * signature walks.
 */

#ifndef XFD_LINT_FRONTIER_HH
#define XFD_LINT_FRONTIER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/entry.hh"

namespace xfd::lint
{

class FrontierState;

/**
 * Interned frontier signature: a dense id whose equality is the prune
 * relation. Ids are interned per FrontierState (content keyed, in
 * first-seen order, so two equal signatures share one id); copies of
 * a state share its table. Ids from unrelated states do not compare
 * meaningfully.
 */
class FrontierSignature
{
  public:
    bool operator==(const FrontierSignature &) const = default;

    /** Dense per-table id in first-seen order (a hash key). */
    std::uint32_t id() const { return sigId; }

  private:
    friend class FrontierState;
    explicit FrontierSignature(std::uint32_t id) : sigId(id) {}
    std::uint32_t sigId;
};

/** Persistency state of a tracked cell (untracked = Unmodified). */
enum class CellState : std::uint8_t
{
    Modified,         ///< written, not yet flushed
    WritebackPending, ///< flushed (or ntstore), awaiting a fence
    Persisted,        ///< retired by a fence
};

/** Lint-side shadow cell. */
struct FrontierCell
{
    CellState st = CellState::Modified;
    /** Source of the last write (or allocation). */
    trace::SrcLoc writer;
    std::uint32_t writerSeq = 0;
    /** Timestamp of the last modification (fences increment time). */
    std::int32_t tlast = -1;
    /** Allocated but never explicitly written. */
    bool uninit = false;
};

/**
 * The dataflow state machine. The strings an applied entry's source
 * locations point to must outlive the state: cells keep the pointers,
 * and the signature interner caches prefix ids by them.
 */
class FrontierState
{
  public:
    /**
     * @p flushFree selects the eADR/CXL persistency semantics (the
     * lint-side mirror of ShadowPM's model switch): writes land
     * directly in Persisted, flushes are no-ops, and fences only
     * advance the timestamp. Must match the campaign's --pm-model for
     * prune verdicts to stay sound.
     *
     * @p persistedHistory false keeps no Persisted spans: writes stop
     * carving them and fences stop filing retired spans into them. A
     * signature reads persisted spans only through a commit variable,
     * so it stays exact while none is registered; the rule queries
     * (lineHasState(Persisted), lineTracked) need the history, and
     * applying a CommitVar entry without it throws std::logic_error.
     *
     * @throws std::invalid_argument unless @p granularity is a cell
     * size (1, 2, 4 or 8).
     */
    explicit FrontierState(unsigned granularity, bool flushFree = false,
                           bool persistedHistory = true);

    /** Advance the state past @p e. */
    void apply(const trace::TraceEntry &e);

    /** @name Pre-apply queries used by the rule engine @{ */

    /** Any cell of the line at @p line in state @p st? */
    bool lineHasState(Addr line, CellState st) const;

    /** Any tracked (ever-written) cell in the line at @p line? */
    bool lineTracked(Addr line) const;

    /** Would a fence retire at least one pending cell right now? */
    bool fenceWouldRetire() const;

    /** Any non-commit-variable cell still Modified or Pending? */
    bool dataInFlight() const;

    /** Any cell of [@p a, @p a + @p n) currently WritebackPending? */
    bool rangePending(Addr a, std::uint32_t n) const;

    /** Is @p a inside a registered commit variable? */
    bool isCommitVarAddr(Addr a) const;

    /** @} */

    /**
     * Canonical frontier signature for failure-point pruning: the set
     * of (writer file, writer line, uninit, commit class, allocation
     * region) over in-flight cells plus the set of (writer file,
     * writer line, stale, allocation region) over persisted,
     * commit-covered, commit-inconsistent cells. The allocation
     * region — the Alloc site plus the cell's offset inside the live
     * allocation, or "root" for untracked (root-struct) memory —
     * disambiguates a single store statement that aliases
     * structurally different targets (a bucket head in the root
     * object vs. an interior next field of a heap node; child[0] vs.
     * child[1] of one node type): recovery reaches those through
     * different reads, so they must not prune against each other. The
     * commit class (uncovered / covered-consistent /
     * covered-inconsistent) matters because the read check passes a
     * consistent in-flight cell but reports a race on an inconsistent
     * one. Two points with equal signatures at the same
     * ordering-point source location yield the same post-failure
     * finding keys.
     *
     * Each commit variable adds its last written value and the
     * persistency state of its first cell. The returned value is
     * interned: one call costs O(in-flight ranges + commit-covered
     * persisted ranges), allocates no per-cell string, and two values
     * are equal exactly when the two sets and the commit variables'
     * values and states are.
     */
    FrontierSignature signature() const;

    /**
     * Visit every cell still Modified or WritebackPending (for the
     * unpersisted-at-exit rule), in address order.
     */
    void forEachInFlight(
        const std::function<void(Addr, const FrontierCell &)> &fn) const;

    unsigned granularity() const { return gran; }

    /** Whether the eADR/CXL flush-free semantics are selected. */
    bool flushFree() const { return eadr; }

  private:
    /** Commit variable with its address set and commit timestamps. */
    struct CommitVar
    {
        AddrRange var{0, 0};
        std::vector<AddrRange> ranges;
        std::int32_t tlast = -1;
        std::int32_t tprelast = -1;
        /** Interned hex of the last commit write's bytes (16-byte cap). */
        std::uint32_t lastVal = 0;
    };

    /** Cells [begin key, end) sharing one FrontierCell. */
    struct Span
    {
        std::uint64_t end;
        FrontierCell cell;
    };
    /** Disjoint spans keyed by first cell index. */
    using SpanMap = std::map<std::uint64_t, Span>;

    /** Per-state interning tables, shared by copies of the state. */
    struct Interner;

    std::uint64_t cellIndex(Addr a) const { return a / gran; }

    /** Cells covering [a, a+n). */
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        if (n == 0)
            return 0;
        return (a + n - 1) / gran - a / gran + 1;
    }

    /** First cell whose start address is >= @p a. */
    std::uint64_t cellCeil(Addr a) const { return (a + gran - 1) / gran; }

    SpanMap &spansIn(CellState st);
    const SpanMap &spansIn(CellState st) const;

    /** Give cells [lo, hi) state @p c, replacing what they held. */
    void assign(std::uint64_t lo, std::uint64_t hi, FrontierCell c);
    /** Forget cells [lo, hi) in every state. */
    void forget(std::uint64_t lo, std::uint64_t hi);
    /** Rebuild the cell-space commit coverage after a registration. */
    void rebuildCoverage();

    /**
     * Split [lo, hi) by governing commit variable (the explicit
     * ranges first, then the single-variable default-cover rule of
     * §5.2; nullptr = uncovered) and call @p fn per piece.
     */
    template <typename Fn>
    void forEachCover(std::uint64_t lo, std::uint64_t hi, Fn &&fn) const;

    /** Split [lo, hi) by allocation region and call @p fn per piece. */
    template <typename Fn>
    void forEachRegion(std::uint64_t lo, std::uint64_t hi, Fn &&fn) const;

    void applyWrite(const trace::TraceEntry &e);
    void applyFlush(Addr line);
    void applyFence();

    unsigned gran;
    /** eADR/CXL flush-free semantics (see the constructor). */
    bool eadr;
    /** Persisted spans are kept (see the constructor). */
    bool history;
    /** Cells by state; each cell is in at most one map. */
    SpanMap modified;
    SpanMap pending;
    SpanMap persisted;
    /** Live allocations: begin -> (end, alloc site). */
    std::map<Addr, std::pair<Addr, trace::SrcLoc>> allocs;
    std::vector<CommitVar> commitVars;
    /**
     * Cells covered by an explicit commit range: first cell -> (end
     * cell, commitVars index), first registration wins.
     */
    std::map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
        coverage;
    std::int32_t ts = 0;
    std::shared_ptr<Interner> interner;
};

} // namespace xfd::lint

#endif // XFD_LINT_FRONTIER_HH
