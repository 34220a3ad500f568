/**
 * @file
 * Object-pool handle — the libpmemobj-equivalent entry point.
 *
 * An ObjPool is a *volatile* handle (per execution stage) over the
 * persistent pool: it binds the tracing runtime to the pool layout.
 * Creating and opening run under library-granularity tracing, exactly
 * like PMDK internals in the paper (§5.3), and opening performs the
 * undo-log recovery.
 */

#ifndef XFD_PMLIB_OBJPOOL_HH
#define XFD_PMLIB_OBJPOOL_HH

#include <string>

#include "pmlib/alloc.hh"
#include "pmlib/layout.hh"
#include "trace/runtime.hh"

namespace xfd::pmlib
{

/** Volatile handle over a persistent object pool. */
class ObjPool
{
  public:
    /**
     * Format @p rt's pool. Must not already contain a valid pool.
     *
     * Creation persists the header piecewise with the checksum last,
     * mirroring PMDK's util_pool_create_uuids(): "all data have been
     * persisted at the end of the creation function, however, there is
     * no consistency guarantee in the middle" — a failure mid-create
     * leaves a pool that open() rejects (§6.3.2 bug 4). Recovery code
     * must use openOrCreate() to handle that window.
     *
     * @param layout layout name recorded in (and checked against) the
     *               header, max 23 characters
     * @param root_size size of the root object (zeroed, persisted)
     */
    static ObjPool create(trace::PmRuntime &rt, const char *layout,
                          std::size_t root_size);

    /**
     * Open an existing pool and run recovery (undo-log rollback).
     *
     * On an invalid header: in the post-failure stage throws
     * trace::PostFailureAbort (the driver records a RecoveryFailure);
     * in the pre-failure stage it is fatal.
     */
    static ObjPool open(trace::PmRuntime &rt, const char *layout,
                        trace::SrcLoc loc = trace::here());

    /**
     * Open if valid, else (re)format — the Fixed-mode recovery path
     * for failures during pool creation.
     */
    static ObjPool openOrCreate(trace::PmRuntime &rt, const char *layout,
                                std::size_t root_size);

    /**
     * @return whether @p rt's pool holds a valid header for @p layout.
     * The header is read untraced, as pmemobj_open validates it, but
     * through PmRuntime::peek, so it is in the read footprint.
     */
    static bool valid(trace::PmRuntime &rt, const char *layout);

    trace::PmRuntime &runtime() { return rt; }
    pm::PmPool &pm() { return rt.pool(); }

    /** Typed host pointer to the root object. */
    template <typename T>
    T *
    root()
    {
        return static_cast<T *>(pm().toHost(rootAddr()));
    }

    Addr rootAddr() const { return base + rootOff; }
    std::size_t rootSize() const;

    /** The pool's persistent allocator. */
    PAllocator &heap() { return alloc; }

    /** Host pointer to the undo log (used by Tx and recovery). */
    TxLogHeader *txLog();

    /** Pool base address. */
    Addr baseAddr() const { return base; }

  private:
    ObjPool(trace::PmRuntime &rt, Addr base);

    /** Roll back an interrupted transaction from the undo log. */
    void recoverTx();

    trace::PmRuntime &rt;
    Addr base;
    PAllocator alloc;
};

} // namespace xfd::pmlib

#endif // XFD_PMLIB_OBJPOOL_HH
