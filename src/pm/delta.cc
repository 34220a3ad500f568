#include "pm/delta.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "pm/cow.hh"
#include "pm/image.hh"
#include "pm/pool.hh"

namespace xfd::pm
{

ImageDeltaStore::ImageDeltaStore(std::size_t pageSize, AddrRange range)
    : pageSz(pageSize), base(range.begin)
{
    if (pageSize < cacheLineSize || (pageSize & (pageSize - 1)) != 0)
        panic("delta page size %zu is not a power of two >= %zu",
              pageSize, cacheLineSize);
    nPages = (range.size() + pageSize - 1) / pageSize;
}

void
ImageDeltaStore::recordWrite(std::uint32_t seq, Addr a, std::size_t n)
{
    if (n == 0 || a < base)
        return;
    if (!spans.empty() && seq < spans.back().seq)
        panic("delta store writes must be recorded in seq order");
    Span s;
    s.seq = seq;
    s.firstPage = pageOf(a);
    s.lastPage = pageOf(a + n - 1);
    // No folding of repeated page spans: a failure point may land
    // between two writes to the same page, and collectPages() must
    // see the later one in the later interval.
    spans.push_back(s);
}

void
ImageDeltaStore::collectPages(std::uint32_t fromSeq, std::uint32_t toSeq,
                              std::set<std::uint32_t> &out) const
{
    auto it = std::lower_bound(spans.begin(), spans.end(), fromSeq,
                               [](const Span &s, std::uint32_t seq) {
                                   return s.seq < seq;
                               });
    for (; it != spans.end() && it->seq < toSeq; ++it) {
        for (std::uint32_t p = it->firstPage; p <= it->lastPage; p++)
            out.insert(p);
    }
}

namespace
{

/**
 * Copy @p pages of an image into @p pool, one copy(offset, length)
 * call per run of adjacent pages, accounted into @p stats. The
 * copied pages may be nonzero afterwards.
 */
template <typename Copy>
void
copyPageRuns(PmPool &pool, std::size_t pageSize,
             const std::set<std::uint32_t> &pages,
             DeltaRestoreStats &stats, Copy copy)
{
    std::size_t size = pool.size();
    stats.deltaRestores++;
    auto it = pages.begin();
    while (it != pages.end()) {
        std::uint32_t first = *it;
        std::uint32_t last = first;
        ++it;
        while (it != pages.end() && *it == last + 1) {
            last = *it;
            ++it;
        }
        std::size_t off = static_cast<std::size_t>(first) * pageSize;
        if (off >= size)
            continue;
        std::size_t len = std::min(
            (static_cast<std::size_t>(last - first) + 1) * pageSize,
            size - off);
        copy(off, len);
        pool.markCopied(pool.base() + off, len);
        stats.pagesRestored += last - first + 1;
        stats.bytesRestored += len;
    }
}

} // namespace

void
restorePages(const PmImage &src, PmPool &pool, std::size_t pageSize,
             const std::set<std::uint32_t> &pages,
             DeltaRestoreStats &stats)
{
    if (pool.size() != src.size() || pool.base() != src.base())
        panic("delta-restoring mismatched PM image into pool");
    copyPageRuns(pool, pageSize, pages, stats,
                 [&](std::size_t off, std::size_t len) {
                     std::memcpy(pool.data() + off, src.data() + off, len);
                 });
}

void
restoreFull(const PmImage &src, PmPool &pool, DeltaRestoreStats &stats)
{
    src.copyTo(pool);
    stats.fullCopies++;
    stats.bytesFullCopy += src.size();
}

void
restorePages(const CowImage &src, PmPool &pool, std::size_t pageSize,
             const std::set<std::uint32_t> &pages,
             DeltaRestoreStats &stats)
{
    if (pool.size() != src.size() || pool.base() != src.base())
        panic("delta-restoring mismatched cow image into pool");
    copyPageRuns(pool, pageSize, pages, stats,
                 [&](std::size_t off, std::size_t len) {
                     src.copyRange(off, len, pool.data() + off);
                 });
}

} // namespace xfd::pm
