/**
 * @file
 * Append-only trace FIFO between the frontend and the backend.
 *
 * The paper streams completed trace entries through pre-/post-failure
 * FIFOs so detection overlaps tracing (§5.4); in-process we model the
 * FIFO as an append-only buffer the backend consumes by index.
 */

#ifndef XFD_TRACE_BUFFER_HH
#define XFD_TRACE_BUFFER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/entry.hh"

namespace xfd::trace
{

/** An append-only sequence of trace entries. */
class TraceBuffer
{
  public:
    /** Append @p e, assigning its sequence number. @return the seq. */
    std::uint32_t append(TraceEntry e);

    /**
     * Bulk-append @p n entries from @p batch (moved from), assigning
     * contiguous sequence numbers: the retire half of PmRuntime's
     * fixed-slot emit ring — one call per ring instead of per entry.
     */
    void appendBatch(TraceEntry *batch, std::size_t n);

    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    const TraceEntry &operator[](std::size_t i) const { return entries[i]; }

    /** Total bytes of write payload carried (stats/benchmarks). */
    std::size_t payloadBytes() const { return payload; }

    void clear();

    std::vector<TraceEntry>::const_iterator begin() const
    {
        return entries.begin();
    }

    std::vector<TraceEntry>::const_iterator end() const
    {
        return entries.end();
    }

  private:
    std::vector<TraceEntry> entries;
    std::size_t payload = 0;
};

/** Entry counts per op, indexed by static_cast<std::size_t>(Op). */
using OpCounts = std::array<std::uint64_t, opCount>;

/** Add the per-op entry counts of @p buf to @p counts. */
void countOps(const TraceBuffer &buf, OpCounts &counts);

} // namespace xfd::trace

#endif // XFD_TRACE_BUFFER_HH
