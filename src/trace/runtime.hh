/**
 * @file
 * Instrumented PM-access runtime — the tracing frontend.
 *
 * The paper's frontend instruments binaries with Intel Pin; Pin is
 * proprietary and x86-host-specific, so per §5.5 ("the backend of
 * XFDetector can be attached to other tracing frameworks, such as the
 * software-directed tracing in WHISPER and PMTest") we implement a
 * software-directed frontend: every PM load/store/flush/fence in
 * workload code goes through this runtime, which appends trace entries
 * carrying the operation, address, size, written bytes, and the
 * caller's source location (the bug-backtrace equivalent of Pin's
 * instruction pointer).
 *
 * The runtime also implements the paper's Table 2 software interface:
 * RoI selection, skip-failure and skip-detection regions, explicit
 * failure points, commit-variable registration, and detection
 * termination.
 */

#ifndef XFD_TRACE_RUNTIME_HH
#define XFD_TRACE_RUNTIME_HH

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <source_location>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "pm/pool.hh"
#include "trace/buffer.hh"

namespace xfd::trace
{

class MutationHook;

/** Capture the caller's location as a SrcLoc (default-arg idiom). */
inline SrcLoc
here(const std::source_location &sl = std::source_location::current())
{
    return {sl.file_name(), sl.line(), sl.function_name()};
}

/**
 * Thrown by completeDetection() to unwind out of the traced program;
 * the detection driver catches it (the paper's "termination point").
 */
struct StageComplete
{
};

/**
 * Thrown by library/workload code when the post-failure stage cannot
 * proceed at all (e.g. the pool refuses to open because its metadata
 * is incomplete). The detection driver records it as a
 * RecoveryFailure finding — this is how §6.3.2 bug 4 is observed.
 */
struct PostFailureAbort
{
    std::string reason;
    SrcLoc loc;
};

/** A pre-failure stage ran past its trace-entry cap (setEntryCap). */
struct TraceLimitExceeded : std::length_error
{
    using std::length_error::length_error;
};

/** Well-known LibCall labels the backend recognizes. */
namespace labels
{
inline constexpr const char *txBegin = "tx_begin";
inline constexpr const char *txCommit = "tx_commit";
inline constexpr const char *txAbort = "tx_abort";
} // namespace labels

/**
 * Per-execution tracing context. One instance exists for the
 * pre-failure run and one for every post-failure continuation.
 */
class PmRuntime
{
  public:
    PmRuntime(pm::PmPool &pool, TraceBuffer &buf, Stage stage);

    /** Flushes any entries still staged in the emit ring. */
    ~PmRuntime();

    PmRuntime(const PmRuntime &) = delete;
    PmRuntime &operator=(const PmRuntime &) = delete;

    pm::PmPool &pool() { return pmPool; }
    Stage stage() const { return stg; }
    TraceBuffer &buffer() { return trace; }
    bool completed() const;

    /**
     * Disable/enable trace emission. With tracing off the runtime only
     * performs the data movement — the "original program" baseline of
     * Fig. 12b. Annotations and failure semantics are also disabled.
     */
    void setTracing(bool on) { tracing = on; }
    bool tracingEnabled() const { return tracing; }

    /**
     * Bound the trace length (runaway-loop backstop): the entry past
     * it throws TraceLimitExceeded, or PostFailureAbort post-failure.
     */
    void setEntryCap(std::size_t cap) { entryCap = cap; }

    /**
     * Append every PM range this execution reads without emitting a
     * Read entry — peek() and the in-pool sources of copyToPm /
     * ntCopyToPm — to @p sink (nullptr stops recording). With the
     * trace's Read entries these ranges are the execution's complete
     * read footprint: its behaviour is a function of those bytes.
     */
    void
    recordUntracedReads(std::vector<AddrRange> *sink)
    {
        untracedReads = sink;
    }

    /**
     * Batch trace emission through a fixed-slot ring. Enabled by the
     * campaign driver for its single-owner-thread stages: the thread
     * that called setBatching(true) stages entries lock-free and the
     * ring retires into the buffer in bulk — one lock acquisition and
     * one vector reservation per ringSlots entries instead of per
     * entry. Any other thread keeps the locked per-entry slow path
     * (and forces a retire first, preserving cross-thread order).
     * Disabling — or destroying the runtime — flushes staged entries;
     * disable before reading buffer() mid-run.
     */
    void setBatching(bool on);

    /**
     * Jaaru-style same-value write elision (--elide-same-value): a
     * store whose bytes equal what PM already holds cannot change any
     * crash image, so the store, its dirty-line tracking and its
     * trace entry are all skipped. The driver enables this for the
     * pre-failure capture only — post-failure writes must stay exact,
     * because recovery rewriting a location with the same bytes still
     * re-establishes its consistency.
     */
    void setSameValueElision(bool on) { elideSame = on; }

    /** Writes skipped by same-value elision. */
    std::uint64_t
    sameValueElided() const
    {
        return elided.load(std::memory_order_relaxed);
    }

    /**
     * Install a fault-injection hook (src/mutate). Consulted for
     * every pre-failure entry before it is appended and by the PM
     * library at TX_ADD/commit; see trace/mutation.hh. The hook must
     * outlive emission; pass nullptr to detach.
     */
    void setMutationHook(MutationHook *h) { mutHook = h; }
    MutationHook *mutationHook() const { return mutHook; }

    /**
     * @name Data operations
     * All addresses must resolve inside the pool; the value flow is
     * performed here so that tracing can never be skipped.
     * @{
     */

    /** Traced PM load of a trivially-copyable field. */
    template <typename T>
    T
    load(const T &field, SrcLoc loc = here())
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Addr a = pmPool.toAddr(&field);
        emit(Op::Read, a, sizeof(T), loc);
        return field;
    }

    /** Traced PM store (cached; persists only after CLWB+SFENCE). */
    template <typename T>
    void
    store(T &field, const T &value, SrcLoc loc = here())
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Addr a = pmPool.toAddr(&field);
        if (elideSame && std::memcmp(&field, &value, sizeof(T)) == 0) {
            emitSameValueWrite(Op::Write, a, sizeof(T), loc);
            return;
        }
        field = value;
        pmPool.markDirty(a, sizeof(T));
        emitWrite(Op::Write, a, &field, sizeof(T), loc);
    }

    /** Traced non-temporal PM store (persists at the next fence). */
    template <typename T>
    void
    ntstore(T &field, const T &value, SrcLoc loc = here())
    {
        static_assert(std::is_trivially_copyable_v<T>);
        Addr a = pmPool.toAddr(&field);
        if (elideSame && std::memcmp(&field, &value, sizeof(T)) == 0) {
            emitSameValueWrite(Op::NtWrite, a, sizeof(T), loc);
            return;
        }
        field = value;
        pmPool.markDirty(a, sizeof(T));
        emitWrite(Op::NtWrite, a, &field, sizeof(T), loc);
    }

    /**
     * Untraced PM load, for library bookkeeping that stays out of the
     * trace (and so out of every finding) but still decides what the
     * stage does: pool-header validation, allocator introspection.
     * The range joins the read footprint (recordUntracedReads).
     */
    template <typename T>
    T
    peek(const T &field)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        noteUntracedRead(&field, sizeof(T));
        return field;
    }

    /**
     * Traced memcpy into PM. A source inside the pool is a PM read
     * with no Read entry; it joins the read footprint.
     */
    void copyToPm(void *dst, const void *src, std::size_t n,
                  SrcLoc loc = here());

    /** Traced non-temporal memcpy into PM (sources as copyToPm). */
    void ntCopyToPm(void *dst, const void *src, std::size_t n,
                    SrcLoc loc = here());

    /** Traced memset of PM. */
    void setPm(void *dst, int value, std::size_t n, SrcLoc loc = here());

    /** Traced bulk PM read into volatile memory. */
    void readPm(void *dst, const void *src, std::size_t n,
                SrcLoc loc = here());

    /** CLWB every cache line covering [p, p+n). */
    void clwb(const void *p, std::size_t n = 1, SrcLoc loc = here());

    /** CLFLUSHOPT every cache line covering [p, p+n). */
    void clflushopt(const void *p, std::size_t n = 1, SrcLoc loc = here());

    /** CLFLUSH every cache line covering [p, p+n). */
    void clflush(const void *p, std::size_t n = 1, SrcLoc loc = here());

    /** Store fence: completes all pending writebacks (ordering point). */
    void sfence(SrcLoc loc = here());

    /** Full fence; identical persistence semantics to sfence. */
    void mfence(SrcLoc loc = here());

    /**
     * The paper's persist_barrier(): "CLWB; SFENCE" over the given
     * range — writes back the covering lines and orders them before
     * future persists.
     */
    void persistBarrier(const void *p, std::size_t n, SrcLoc loc = here());

    /** @} */

    /**
     * @name Table 2 software interface
     * @{
     */

    /** Mark the start of the region-of-interest for detection. */
    void roiBegin(bool condition = true, SrcLoc loc = here());

    /** Mark the end of the region-of-interest. */
    void roiEnd(bool condition = true, SrcLoc loc = here());

    /** Begin a region where no failure points are injected. */
    void skipFailureBegin(bool condition = true, SrcLoc loc = here());
    void skipFailureEnd(bool condition = true, SrcLoc loc = here());

    /** Begin a region whose reads/writes are exempt from detection. */
    void skipDetectionBegin(bool condition = true, SrcLoc loc = here());
    void skipDetectionEnd(bool condition = true, SrcLoc loc = here());

    /** Inject an explicit failure point here. */
    void addFailurePoint(bool condition = true, SrcLoc loc = here());

    /**
     * Register a commit variable: post-failure reads of it are benign
     * cross-failure races, and its writes version the consistency of
     * its associated addresses (all PM if none registered).
     */
    template <typename T>
    void
    addCommitVar(const T &field, SrcLoc loc = here())
    {
        static_assert(std::is_trivially_copyable_v<T>);
        emit(Op::CommitVar, pmPool.toAddr(&field), sizeof(T), loc);
    }

    /** Associate the range [p, p+n) with the commit variable @p cv. */
    template <typename T>
    void
    addCommitRange(const T &cv, const void *p, std::size_t n,
                   SrcLoc loc = here())
    {
        static_assert(std::is_trivially_copyable_v<T>);
        TraceEntry e;
        e.op = Op::CommitRange;
        e.addr = pmPool.toAddr(p);
        e.size = static_cast<std::uint32_t>(n);
        e.aux = pmPool.toAddr(&cv);
        e.loc = loc;
        push(std::move(e));
    }

    /** Terminate this execution stage (throws StageComplete). */
    [[noreturn]] void completeDetection(SrcLoc loc = here());

    /** @} */

    /**
     * @name PM-library integration
     * Used by xfd::pmlib, not by application code.
     * @{
     */

    /** Enter library code: function-granularity tracing begins. */
    void libBegin(const char *label, SrcLoc loc = here());

    /** Leave library code. */
    void libEnd();

    /** @return whether execution is currently inside library code. */
    bool inLib();

    /** Record a persistent allocation (contents are uninitialized). */
    void noteAlloc(Addr a, std::size_t n, SrcLoc loc = here());

    /**
     * Allocator zero-fill: reaches the PM image (so post-failure code
     * reads zeros, as with PMDK's zeroing allocator) but is invisible
     * to the shadow PM — programs must not depend on implicit
     * initialization (§6.3.2 bug 2).
     */
    void zeroFill(void *dst, std::size_t n, SrcLoc loc = here());

    /** Record a persistent deallocation. */
    void noteFree(Addr a, std::size_t n, SrcLoc loc = here());

    /** Record a transactional snapshot (TX_ADD) of [a, a+n). */
    void noteTxAdd(Addr a, std::size_t n, SrcLoc loc = here());

    /** @} */

  private:
    /** Current context flags for a new entry. */
    std::uint16_t currentFlags() const;

    /** Append a simple entry. */
    void emit(Op op, Addr a, std::size_t n, SrcLoc loc,
              const char *label = "");

    /** Append a write entry carrying the written bytes. */
    void emitWrite(Op op, Addr a, const void *bytes, std::size_t n,
                   SrcLoc loc);

    /**
     * Append a payload-elided same-value write (flagSameValue, no
     * data bytes) and bump the elision counter.
     */
    void emitSameValueWrite(Op op, Addr a, std::size_t n, SrcLoc loc);

    void push(TraceEntry e);

    /** Record the in-pool part of host range [p, p+n) as read. */
    void noteUntracedRead(const void *p, std::size_t n);

    /** Retire the emit ring into the buffer; emitLock must be held. */
    void retireLocked();

    /** Locking wrapper around retireLocked(). */
    void ringRetire();

    pm::PmPool &pmPool;
    TraceBuffer &trace;
    Stage stg;
    /**
     * Thread safety (paper §7: the frontend is thread-safe via
     * thread-local storage and locking, for workloads whose
     * "concurrent threads perform PM operations on independent
     * tasks"): emission is serialized by emitLock; the RoI is global
     * (one thread arms detection for all); skip-failure,
     * skip-detection and library scopes are per thread, so one
     * thread's library call never masks another thread's operations.
     * The fence model stays global (a fence retires every pending
     * writeback), which is conservative only for independent tasks.
     */
    struct ThreadScopes
    {
        int skipFailure = 0;
        int skipDetection = 0;
        int lib = 0;
    };

    /** Per-thread scope depths; guarded by emitLock. */
    ThreadScopes &myScopes();

    std::atomic<int> roiDepth{0};
    std::unordered_map<std::thread::id, ThreadScopes> threadScopes;
    std::atomic<bool> done{false};
    bool tracing = true;
    MutationHook *mutHook = nullptr;
    std::size_t entryCap = 64u << 20;
    std::mutex emitLock;

    /** Emit-ring capacity; sized so a retire amortizes the lock and
     * reservation without holding many payload vectors alive. */
    static constexpr std::size_t ringSlots = 64;

    /**
     * Fixed-slot emit ring (allocated on first setBatching(true)).
     * Only the owner thread touches ring/ringTail without
     * the lock; ringBase caches trace.size() as of the last retire so
     * the owner's entry-cap check never reads the buffer unlocked.
     * Owner-thread scope flags come from ownerScopes (unordered_map
     * references are stable, and a thread's scopes are only mutated
     * by that thread), so staging reads no shared mutable state.
     */
    std::unique_ptr<std::array<TraceEntry, ringSlots>> ring;
    std::size_t ringTail = 0;
    std::size_t ringBase = 0;
    bool batching = false;
    std::thread::id ringOwner;
    ThreadScopes *ownerScopes = nullptr;

    /** Same-value write elision (setSameValueElision). */
    bool elideSame = false;
    std::atomic<std::uint64_t> elided{0};

    /** Untraced-read sink (recordUntracedReads); guarded by emitLock. */
    std::vector<AddrRange> *untracedReads = nullptr;
};

/** RAII region-of-interest marker. */
class RoiScope
{
  public:
    explicit RoiScope(PmRuntime &rt, SrcLoc loc = here()) : rt(rt)
    {
        rt.roiBegin(true, loc);
    }

    ~RoiScope() { rt.roiEnd(); }

  private:
    PmRuntime &rt;
};

/** RAII library-code scope (function-granularity tracing). */
class LibScope
{
  public:
    LibScope(PmRuntime &rt, const char *label, SrcLoc loc = here())
        : rt(rt)
    {
        rt.libBegin(label, loc);
    }

    ~LibScope() { rt.libEnd(); }

  private:
    PmRuntime &rt;
};

/** RAII skip-detection region. */
class SkipDetectionScope
{
  public:
    explicit SkipDetectionScope(PmRuntime &rt, SrcLoc loc = here())
        : rt(rt)
    {
        rt.skipDetectionBegin(true, loc);
    }

    ~SkipDetectionScope() { rt.skipDetectionEnd(); }

  private:
    PmRuntime &rt;
};

/** RAII skip-failure-injection region. */
class SkipFailureScope
{
  public:
    explicit SkipFailureScope(PmRuntime &rt, SrcLoc loc = here()) : rt(rt)
    {
        rt.skipFailureBegin(true, loc);
    }

    ~SkipFailureScope() { rt.skipFailureEnd(); }

  private:
    PmRuntime &rt;
};

} // namespace xfd::trace

#endif // XFD_TRACE_RUNTIME_HH
