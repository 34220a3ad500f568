/**
 * @file
 * Cell-granular persistency model behind --crash-states.
 *
 * The driver's partial crash-state tier needs, at every failure
 * point, the write frontier (in-flight write seqs), the per-cell
 * prefix chains that constrain which subsets of it can persist, and
 * the cells each frontier write still decides. Its semantics
 * replicate the oracle's per-cell model (oracle/oracle.cc advance())
 * exactly: the driver's frontiers, chains and candidate images must
 * agree with the oracle's byte for byte, or the conformance tier
 * could never hold agreement at 1.0. The oracle keeps its own
 * implementation on purpose; this one is built for cost.
 *
 * Storage splits by lifetime. Every cell's persistency state is one
 * byte in a table allocated in fixed-size chunks on first touch, so
 * state lookups are O(1) and a persisted cell costs one byte. Write
 * tails live only in an ordered map of *open* cells (non-empty tail,
 * i.e. at least one write not yet guaranteed durable), which is also
 * the frontier: applying an entry costs O(cells it touches), and
 * building a point's frontier costs O(open cells), never O(history).
 */

#ifndef XFD_CORE_CRASH_CELLS_HH
#define XFD_CORE_CRASH_CELLS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "trace/entry.hh"

namespace xfd::core
{

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

/** The --crash-states cell model over one pool's address range. */
class CrashCells
{
  public:
    /** Persistency state of one cell. */
    enum class St : std::uint8_t
    {
        Untracked, ///< never written or allocated (or freed since)
        Modified,  ///< dirty in cache, no writeback in flight
        Pending,   ///< writeback issued, fence not reached
        Persisted, ///< last write guaranteed durable
    };

    /**
     * Open cells: index -> write seqs applied since the cell's last
     * guaranteed persist, ascending and never empty.
     */
    using OpenMap = std::map<std::uint64_t, std::vector<std::uint32_t>>;

    /**
     * Cells are @p gran bytes, indexed by address / gran. Cells
     * outside @p range stay Untracked: the runtime rejects accesses
     * outside the pool before they reach a trace.
     */
    CrashCells(AddrRange range, unsigned gran);

    /**
     * Advance over pre-trace entry @p e. Cells whose content becomes
     * decided — retired by a fence, or freed while in flight — are
     * appended to @p persisted in retirement order; the caller copies
     * their bytes into its durable image. Image-only writes carry no
     * persistency semantics and leave the model untouched.
     */
    void apply(const trace::TraceEntry &e,
               std::vector<std::uint64_t> &persisted);

    St state(std::uint64_t idx) const;
    const OpenMap &open() const { return openCells; }
    /** Registered commit variables, in first-registration order. */
    const std::vector<AddrRange> &
    commitVars() const
    {
        return commitRanges;
    }

    /**
     * The frontier, chains and event -> cell index of the open cells:
     * one pass over the open map, never over persisted cells.
     */
    CellFrontier frontier() const;

    unsigned granularity() const { return gran; }
    std::uint64_t cellIndex(Addr a) const { return a / gran; }
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        return (a + n - 1) / gran - a / gran + 1;
    }
    Addr cellAddr(std::uint64_t idx) const { return idx * gran; }

  private:
    /** Cells per table chunk. */
    static constexpr std::size_t chunkCells = 4096;

    /**
     * State byte of @p idx, or null outside the range. A chunk is
     * allocated on first touch when @p create is set; otherwise an
     * absent chunk reads as null (all its cells are Untracked).
     */
    St *slot(std::uint64_t idx, bool create);

    /** Cells [first, last) of extent [a, a+n), clamped to the range. */
    std::pair<std::uint64_t, std::uint64_t> cellSpan(Addr a,
                                                     std::size_t n) const;

    unsigned gran;
    /** Index of the range's first cell and the range's cell count. */
    std::uint64_t firstCell;
    std::uint64_t cellTotal;
    /** chunks[c] covers cells firstCell + [c, c + 1) * chunkCells. */
    std::vector<std::unique_ptr<St[]>> chunks;
    OpenMap openCells;
    /** Cells awaiting the next fence (stale entries re-checked). */
    std::vector<std::uint64_t> pending;
    std::vector<AddrRange> commitRanges;
};

} // namespace xfd::core

#endif // XFD_CORE_CRASH_CELLS_HH
