/**
 * @file
 * Trace-entry format shared by the frontend (PmRuntime) and backend
 * (ReplayDetector).
 *
 * The paper's frontend traces with Intel Pin and records, per entry,
 * the operation, the instruction pointer (for bug backtraces) and the
 * source/destination addresses and sizes (§5.3). Our instrumented
 * runtime records the same information, with std::source_location in
 * place of the raw instruction pointer, plus the written bytes so the
 * failure injector can reconstruct the PM image at any failure point.
 *
 * In memory an entry is this plain struct; on the wire the v2 format
 * (trace/serialize.hh) stores it compactly — interned location and
 * label ids, presence-byte field elision, varints, implicit seq —
 * so the struct can stay convenient without bloating dumped traces.
 */

#ifndef XFD_TRACE_ENTRY_HH
#define XFD_TRACE_ENTRY_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace xfd::trace
{

/** Which execution stage produced a trace. */
enum class Stage : std::uint8_t { PreFailure, PostFailure };

/** Traced PM operations and annotations. */
enum class Op : std::uint8_t
{
    Read,           ///< PM load
    Write,          ///< PM store (cached); data carried inline
    NtWrite,        ///< non-temporal PM store; persists at next fence
    Clwb,           ///< cache-line writeback (line retained)
    ClflushOpt,     ///< cache-line flush, weakly ordered
    Clflush,        ///< cache-line flush, self-ordering
    Sfence,         ///< store fence: completes pending writebacks
    Mfence,         ///< full fence: same persistence effect as SFENCE
    LibCall,        ///< function-granularity PM-library call marker
    TxAdd,          ///< transactional snapshot (TX_ADD) of [addr,+size)
    Alloc,          ///< persistent allocation of [addr,+size), uninit
    Free,           ///< persistent deallocation of [addr,+size)
    CommitVar,      ///< register [addr,+size) as a commit variable
    CommitRange,    ///< associate [addr,+size) with commit var at aux
    FailurePoint,   ///< explicit failure point (addFailurePoint)
    RoiBegin,       ///< region-of-interest begins
    RoiEnd,         ///< region-of-interest ends
    Complete,       ///< completeDetection(): terminate this stage
};

/** Number of distinct Op values (for per-op counter arrays). */
inline constexpr std::size_t opCount =
    static_cast<std::size_t>(Op::Complete) + 1;

/** @return a short mnemonic for @p op. */
const char *opName(Op op);

/** Per-entry context flags. */
enum EntryFlags : std::uint16_t
{
    flagInternal = 1 << 0,      ///< inside PM-library code (LibScope)
    flagInRoi = 1 << 1,         ///< inside the region-of-interest
    flagSkipFailure = 1 << 2,   ///< inside a skipFailure region
    flagSkipDetection = 1 << 3, ///< inside a skipDetection region
    /**
     * Write applied only to the PM image replay, not to shadow state.
     * Used by the allocator's zero-fill: PMDK-style allocators happen
     * to zero new objects, but a program must not rely on that (§6.3.2
     * bug 2), so the zeroing is invisible to the detector.
     */
    flagImageOnly = 1 << 4,
    /**
     * Same-value write: the stored bytes equal the PM content at emit
     * time, so the capture elided the payload (--elide-same-value).
     * The entry itself still flows through the detector — a redundant
     * store still dirties its line and still marks the location
     * initialized — but image replay is a content no-op (empty data),
     * which is exactly right: the image already holds those bytes.
     */
    flagSameValue = 1 << 5,
    /**
     * Entry synthesized by a repair plan (xfdetect --fix), not emitted
     * by the traced program. Repair flushes clean real data, but the
     * program flush they pre-empt was not redundant in the unrepaired
     * execution — the detector uses this bit to exonerate it from the
     * redundant-flush performance verdict.
     */
    flagRepair = 1 << 6,
};

/**
 * Source location captured at each traced operation; stands in for the
 * instruction pointer Pin records, and is what bug reports show.
 */
struct SrcLoc
{
    const char *file = "";
    unsigned line = 0;
    const char *func = "";

    std::string
    str() const
    {
        return strprintf("%s:%u (%s)", file, line, func);
    }

    bool
    operator==(const SrcLoc &o) const
    {
        return line == o.line && std::string(file) == o.file;
    }
};

/** One traced PM operation or annotation. */
struct TraceEntry
{
    Op op = Op::Read;
    std::uint16_t flags = 0;
    std::uint32_t size = 0;
    Addr addr = 0;
    /** Secondary address (commit variable for Op::CommitRange). */
    Addr aux = 0;
    /** Position in the owning trace. */
    std::uint32_t seq = 0;
    SrcLoc loc;
    /** Library-call or annotation label (string literal). */
    const char *label = "";
    /** Written bytes for Write/NtWrite; used for image replay. */
    std::vector<std::uint8_t> data;

    bool isWrite() const { return op == Op::Write || op == Op::NtWrite; }

    bool
    isFlush() const
    {
        return op == Op::Clwb || op == Op::ClflushOpt || op == Op::Clflush;
    }

    bool isFence() const { return op == Op::Sfence || op == Op::Mfence; }

    bool has(EntryFlags f) const { return (flags & f) != 0; }
};

/**
 * Whether two entries record the same operation: every field, the
 * written bytes included (labels by content, locations by file and
 * line).
 */
inline bool
sameEntry(const TraceEntry &a, const TraceEntry &b)
{
    return a.op == b.op && a.flags == b.flags && a.size == b.size &&
           a.addr == b.addr && a.aux == b.aux && a.seq == b.seq &&
           a.loc == b.loc && std::string_view(a.label) == b.label &&
           a.data == b.data;
}

} // namespace xfd::trace

#endif // XFD_TRACE_ENTRY_HH
