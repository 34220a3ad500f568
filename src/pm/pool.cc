#include "pm/pool.hh"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#include "pm/image.hh"

namespace xfd::pm
{

namespace
{

/** Words of a one-bit-per-item map over @p items items. */
std::size_t
wordsFor(std::size_t items)
{
    return (items + 63) / 64;
}

/** Call @p f(i) for every set bit i of @p w, offset by @p base. */
template <typename F>
void
forEachBit(std::uint64_t w, std::size_t base, F f)
{
    while (w) {
        f(base + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
    }
}

} // namespace

void
PmPool::Unmap::operator()(std::uint8_t *p) const
{
    munmap(p, len);
}

PmPool::PmPool(std::size_t size, Addr base)
    : baseAddr(base), len(size), numPages((size + pageSize - 1) / pageSize),
      bytes(nullptr, Unmap{size})
{
    if (size == 0)
        throw std::invalid_argument("PM pool size must be nonzero");
    if (base % cacheLineSize != 0)
        throw std::invalid_argument(
            "PM pool base must be cache-line aligned");
    // Map first: a size no mapping can hold fails here, before the
    // page maps are sized from it.
    void *m = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED)
        throw std::bad_alloc();
    bytes.reset(static_cast<std::uint8_t *>(m));
    std::size_t words = wordsFor(numPages);
    dirty = std::make_unique<Word[]>(words);
    dirtySummary = std::make_unique<Word[]>(wordsFor(words));
    nonzero = std::make_unique<Word[]>(words);
}

PmImage
PmPool::snapshot() const
{
    return PmImage(baseAddr, std::vector<std::uint8_t>(
                                 bytes.get(), bytes.get() + len));
}

void
PmPool::restore(const PmImage &img)
{
    if (img.size() != len || img.base() != baseAddr)
        panic("restoring mismatched PM image");
    std::memcpy(bytes.get(), img.data(), len);
    markCopied(baseAddr, len);
}

void
PmPool::markPage(std::size_t p)
{
    // may-be-nonzero first: a page seen dirty is always flagged.
    nonzero[p / 64].fetch_or(bitOf(p), std::memory_order_relaxed);
    dirty[p / 64].fetch_or(bitOf(p), std::memory_order_relaxed);
    dirtySummary[p / 4096].fetch_or(bitOf(p / 64),
                                    std::memory_order_relaxed);
}

void
PmPool::markCopied(Addr a, std::size_t n)
{
    if (n == 0 || a < baseAddr)
        return;
    std::size_t first = (a - baseAddr) / pageSize;
    std::size_t last = (a - baseAddr + n - 1) / pageSize;
    for (std::size_t p = first; p <= last && p < numPages; p++)
        nonzero[p / 64].fetch_or(bitOf(p), std::memory_order_relaxed);
}

void
PmPool::drainDirtyPages(std::set<std::uint32_t> &out)
{
    // Only words a summary bit names can hold dirt; a plain load
    // skips clear summary words without a locked exchange.
    for (std::size_t s = 0; s < wordsFor(wordsFor(numPages)); s++) {
        if (!dirtySummary[s].load(std::memory_order_relaxed))
            continue;
        forEachBit(
            dirtySummary[s].exchange(0, std::memory_order_relaxed),
            s * 64, [&](std::size_t w) {
                forEachBit(dirty[w].exchange(0, std::memory_order_relaxed),
                           w * 64, [&](std::size_t p) {
                               out.insert(static_cast<std::uint32_t>(p));
                           });
            });
    }
}

void
PmPool::clearDirtyPages()
{
    std::set<std::uint32_t> drained;
    drainDirtyPages(drained);
}

std::size_t
PmPool::dirtyPageCount() const
{
    std::size_t n = 0;
    for (std::size_t w = 0; w < wordsFor(numPages); w++)
        n += std::popcount(dirty[w].load(std::memory_order_relaxed));
    return n;
}

void
PmPool::collectMayBeNonzeroPages(std::set<std::uint32_t> &out) const
{
    for (std::size_t w = 0; w < wordsFor(numPages); w++) {
        forEachBit(nonzero[w].load(std::memory_order_relaxed), w * 64,
                   [&](std::size_t p) {
                       out.insert(static_cast<std::uint32_t>(p));
                   });
    }
}

} // namespace xfd::pm
