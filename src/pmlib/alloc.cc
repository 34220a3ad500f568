#include "pmlib/alloc.hh"

#include "common/logging.hh"

namespace xfd::pmlib
{

namespace
{

constexpr std::size_t allocAlign = 16;

std::size_t
roundUp(std::size_t n)
{
    return (n + allocAlign - 1) & ~(allocAlign - 1);
}

} // namespace

PAllocator::PAllocator(trace::PmRuntime &rt, Addr base)
    : rt(rt), base(base)
{
}

AllocHeader *
PAllocator::hdr()
{
    return static_cast<AllocHeader *>(rt.pool().toHost(base + allocOff));
}

const AllocHeader *
PAllocator::hdr() const
{
    return static_cast<const AllocHeader *>(
        const_cast<trace::PmRuntime &>(rt).pool().toHost(base + allocOff));
}

void
PAllocator::format(std::size_t heap_size)
{
    trace::LibScope lib(rt, "palloc_format");
    AllocHeader *h = hdr();
    rt.store(h->bumpOff, static_cast<std::uint64_t>(heapOff));
    rt.store(h->freeHead, static_cast<std::uint64_t>(0));
    rt.persistBarrier(h, sizeof(*h));
    (void)heap_size;
}

Addr
PAllocator::palloc(std::size_t n, trace::SrcLoc loc)
{
    if (n == 0)
        panic("palloc: zero-size allocation");
    n = roundUp(n);

    trace::LibScope lib(rt, "palloc", loc);
    AllocHeader *h = hdr();
    pm::PmPool &pool = rt.pool();

    // First-fit over the free list.
    std::uint64_t prev = 0;
    std::uint64_t cur = rt.load(h->freeHead);
    while (cur != 0) {
        auto *blk = static_cast<BlockHeader *>(pool.toHost(cur));
        std::uint64_t bsize = rt.load(blk->size);
        std::uint64_t bnext = rt.load(blk->next);
        if (bsize >= n) {
            // Unlink; the single pointer update is the commit.
            if (prev == 0) {
                rt.store(h->freeHead, bnext);
                rt.persistBarrier(&h->freeHead, sizeof(h->freeHead));
            } else {
                auto *pb = static_cast<BlockHeader *>(pool.toHost(prev));
                rt.store(pb->next, bnext);
                rt.persistBarrier(&pb->next, sizeof(pb->next));
            }
            Addr user = cur + sizeof(BlockHeader);
            rt.noteAlloc(user, bsize, loc);
            rt.zeroFill(pool.toHost(user), bsize, loc);
            return user;
        }
        prev = cur;
        cur = bnext;
    }

    // Bump allocation.
    std::uint64_t off = rt.load(h->bumpOff);
    if (base + off + sizeof(BlockHeader) + n > base + pool.size()) {
        warn("palloc: pool exhausted");
        return 0;
    }
    Addr blk_addr = base + off;
    auto *blk = static_cast<BlockHeader *>(pool.toHost(blk_addr));
    rt.store(blk->size, static_cast<std::uint64_t>(n));
    rt.store(blk->next, static_cast<std::uint64_t>(0));
    rt.persistBarrier(blk, sizeof(*blk));
    rt.store(h->bumpOff,
             off + static_cast<std::uint64_t>(sizeof(BlockHeader) + n));
    rt.persistBarrier(&h->bumpOff, sizeof(h->bumpOff));

    Addr user = blk_addr + sizeof(BlockHeader);
    rt.noteAlloc(user, n, loc);
    rt.zeroFill(pool.toHost(user), n, loc);
    return user;
}

void
PAllocator::pfree(Addr a, trace::SrcLoc loc)
{
    if (a == 0)
        return;
    trace::LibScope lib(rt, "pfree", loc);
    pm::PmPool &pool = rt.pool();
    AllocHeader *h = hdr();
    Addr blk_addr = a - sizeof(BlockHeader);
    auto *blk = static_cast<BlockHeader *>(pool.toHost(blk_addr));
    std::uint64_t bsize = rt.load(blk->size);
    rt.noteFree(a, bsize, loc);
    // Push onto the free list; freeHead update is the commit.
    rt.store(blk->next, rt.load(h->freeHead));
    rt.persistBarrier(&blk->next, sizeof(blk->next));
    rt.store(h->freeHead, static_cast<std::uint64_t>(blk_addr));
    rt.persistBarrier(&h->freeHead, sizeof(h->freeHead));
}

std::size_t
PAllocator::blockSize(Addr a) const
{
    auto *blk = static_cast<const BlockHeader *>(
        rt.pool().toHost(a - sizeof(BlockHeader)));
    return rt.peek(blk->size);
}

std::size_t
PAllocator::bumpUsed() const
{
    return rt.peek(hdr()->bumpOff) - heapOff;
}

} // namespace xfd::pmlib
