#include "pmlib/objpool.hh"

#include <cstring>

#include "common/logging.hh"

namespace xfd::pmlib
{

namespace
{

/** Checksum over every header field before `checksum` itself. */
std::uint64_t
headerChecksum(const PoolHeader &h)
{
    return fnv1a(&h, offsetof(PoolHeader, checksum));
}

} // namespace

ObjPool::ObjPool(trace::PmRuntime &rt, Addr base)
    : rt(rt), base(base), alloc(rt, base)
{
}

TxLogHeader *
ObjPool::txLog()
{
    return static_cast<TxLogHeader *>(pm().toHost(base + txLogOff));
}

std::size_t
ObjPool::rootSize() const
{
    const auto *h = static_cast<const PoolHeader *>(
        rt.pool().toHost(base + headerOff));
    return rt.peek(h->rootSize);
}

ObjPool
ObjPool::create(trace::PmRuntime &rt, const char *layout,
                std::size_t root_size)
{
    pm::PmPool &pm = rt.pool();
    Addr base = pm.base();
    if (std::strlen(layout) >= sizeof(PoolHeader::layout))
        fatal("pool layout name too long: %s", layout);
    if (rootOff + root_size > heapOff)
        fatal("root object too large: %zu", root_size);

    trace::LibScope lib(rt, "pool_create");
    ObjPool pool(rt, base);

    // Format the undo log.
    TxLogHeader *log = pool.txLog();
    rt.store(log->active, 0u);
    rt.store(log->numEntries, 0u);
    rt.persistBarrier(log, sizeof(log->active) + sizeof(log->numEntries));

    // Format the allocator.
    pool.alloc.format(pm.size() - heapOff);

    // The root object is guaranteed zeroed (as PMDK guarantees for
    // pmemobj_root), so these zeroes are real persisted writes.
    if (root_size) {
        rt.setPm(pm.toHost(base + rootOff), 0, root_size);
        rt.persistBarrier(pm.toHost(base + rootOff), root_size);
    }

    // Header metadata, persisted piecewise exactly like PMDK's
    // util_pool_create_uuids(): consistent only once the final
    // checksum persist lands (§6.3.2 bug 4).
    auto *h = static_cast<PoolHeader *>(pm.toHost(base + headerOff));
    rt.store(h->magic, poolMagic);
    char padded[sizeof(PoolHeader::layout)] = {};
    std::strncpy(padded, layout, sizeof(padded) - 1);
    rt.copyToPm(h->layout, padded, sizeof(padded));
    rt.persistBarrier(h, sizeof(h->magic) + sizeof(h->layout));

    rt.store(h->uuid, static_cast<std::uint64_t>(0x5846444554454354ull));
    rt.store(h->poolSize, static_cast<std::uint64_t>(pm.size()));
    rt.store(h->rootOffset, static_cast<std::uint64_t>(rootOff));
    rt.store(h->rootSize, static_cast<std::uint64_t>(root_size));
    rt.store(h->heapOffset, static_cast<std::uint64_t>(heapOff));
    rt.store(h->heapSize,
             static_cast<std::uint64_t>(pm.size() - heapOff));
    rt.persistBarrier(&h->uuid, offsetof(PoolHeader, checksum) -
                                    offsetof(PoolHeader, uuid));

    rt.store(h->checksum, headerChecksum(rt.peek(*h)));
    rt.persistBarrier(&h->checksum, sizeof(h->checksum));

    return pool;
}

bool
ObjPool::valid(trace::PmRuntime &rt, const char *layout)
{
    pm::PmPool &pm = rt.pool();
    const auto *h = static_cast<const PoolHeader *>(
        pm.toHost(pm.base() + headerOff));
    if (rt.peek(h->magic) != poolMagic) // rejected on the magic alone
        return false;
    const PoolHeader c = rt.peek(*h);
    if (c.checksum != headerChecksum(c) ||
        std::strncmp(c.layout, layout, sizeof(c.layout)) != 0)
        return false;
    if (c.poolSize != pm.size())
        return false;
    return true;
}

ObjPool
ObjPool::open(trace::PmRuntime &rt, const char *layout,
              trace::SrcLoc loc)
{
    trace::LibScope lib(rt, "pool_open", loc);
    if (!valid(rt, layout)) {
        // PMDK's pmemobj_open() fails on a half-created pool; under
        // failure injection that is how §6.3.2 bug 4 is observed.
        if (rt.stage() == trace::Stage::PostFailure) {
            throw trace::PostFailureAbort{
                strprintf("pool_open(%s) failed: invalid or incomplete "
                          "pool metadata", layout),
                loc};
        }
        fatal("pool_open(%s): invalid pool", layout);
    }
    ObjPool pool(rt, rt.pool().base());
    pool.recoverTx();
    return pool;
}

ObjPool
ObjPool::openOrCreate(trace::PmRuntime &rt, const char *layout,
                      std::size_t root_size)
{
    if (!valid(rt, layout))
        return create(rt, layout, root_size);
    return open(rt, layout);
}

void
ObjPool::recoverTx()
{
    trace::LibScope lib(rt, "tx_recover");
    pm::PmPool &pm_pool = pm();
    TxLogHeader *log = txLog();

    // `active` is the log's validity bit: reading it post-failure is
    // the canonical benign cross-failure race (§3.1).
    if (rt.load(log->active) == 0)
        return;

    std::uint32_t n = rt.load(log->numEntries);
    for (std::uint32_t i = n; i-- > 0;) {
        std::uint64_t a = rt.load(log->entries[i].addr);
        std::uint64_t sz = rt.load(log->entries[i].size);
        rt.copyToPm(pm_pool.toHost(a), log->entries[i].data, sz);
        rt.persistBarrier(pm_pool.toHost(a), sz);
    }
    rt.store(log->active, 0u);
    rt.persistBarrier(&log->active, sizeof(log->active));
}

} // namespace xfd::pmlib
