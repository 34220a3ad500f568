#include "pm/pool.hh"

#include "pm/image.hh"

namespace xfd::pm
{

PmPool::PmPool(std::size_t size, Addr base)
    : baseAddr(base), bytes(size, 0)
{
    if (size == 0)
        fatal("PM pool size must be nonzero");
    if (base % cacheLineSize != 0)
        fatal("PM pool base must be cache-line aligned");
}

PmImage
PmPool::snapshot() const
{
    return PmImage(baseAddr, bytes);
}

void
PmPool::restore(const PmImage &img)
{
    if (img.size() != bytes.size() || img.base() != baseAddr)
        panic("restoring mismatched PM image");
    std::memcpy(bytes.data(), img.data(), bytes.size());
}

void
PmPool::enableDirtyTracking(std::size_t pageSize)
{
    if (pageSize < cacheLineSize || (pageSize & (pageSize - 1)) != 0)
        panic("dirty-tracking page size %zu is not a power of two "
              ">= %zu", pageSize, cacheLineSize);
    pageSz = pageSize;
    pageShift = 0;
    while ((std::size_t{1} << pageShift) < pageSize)
        pageShift++;
    numPages = (bytes.size() + pageSize - 1) / pageSize;
    dirtyMap = std::make_unique<std::atomic<std::uint8_t>[]>(numPages);
    clearDirtyPages();
}

void
PmPool::disableDirtyTracking()
{
    pageSz = 0;
    pageShift = 0;
    numPages = 0;
    dirtyMap.reset();
}

void
PmPool::drainDirtyPages(std::set<std::uint32_t> &out)
{
    // Most flags are clear: a plain load skips them without the
    // locked read-modify-write an exchange costs.
    for (std::size_t p = 0; p < numPages; p++) {
        if (dirtyMap[p].load(std::memory_order_relaxed) &&
            dirtyMap[p].exchange(0, std::memory_order_relaxed)) {
            out.insert(static_cast<std::uint32_t>(p));
        }
    }
}

void
PmPool::clearDirtyPages()
{
    for (std::size_t p = 0; p < numPages; p++)
        dirtyMap[p].store(0, std::memory_order_relaxed);
}

std::size_t
PmPool::dirtyPageCount() const
{
    std::size_t n = 0;
    for (std::size_t p = 0; p < numPages; p++)
        n += dirtyMap[p].load(std::memory_order_relaxed) ? 1 : 0;
    return n;
}

} // namespace xfd::pm
