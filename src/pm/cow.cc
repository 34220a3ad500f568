#include "pm/cow.hh"

#include <cstring>

#include "common/logging.hh"
#include "pm/image.hh"
#include "pm/pool.hh"

namespace xfd::pm
{

CowImage::CowImage(const PmImage &src, std::size_t pageSize)
    : CowImage(src.base(), src.data(), src.size(), pageSize)
{
}

CowImage::CowImage(const PmPool &pool, std::size_t pageSize)
    : CowImage(pool.base(), pool.data(), pool.size(), pageSize)
{
}

CowImage::CowImage(Addr base, const std::uint8_t *bytes, std::size_t size,
                   std::size_t pageSize)
    : baseAddr(base), totalSize(size), pageSz(pageSize)
{
    if (pageSize == 0 || (pageSize & (pageSize - 1)) != 0)
        panic("cow page size %zu is not a power of two", pageSize);
    std::size_t n = (totalSize + pageSz - 1) / pageSz;
    pages.reserve(n);
    for (std::size_t p = 0; p < n; p++) {
        auto page = std::shared_ptr<std::uint8_t[]>(
            new std::uint8_t[pageSz]);
        std::size_t off = p * pageSz;
        std::size_t len = std::min(pageSz, totalSize - off);
        std::memcpy(page.get(), bytes + off, len);
        if (len < pageSz)
            std::memset(page.get() + len, 0, pageSz - len);
        pages.push_back(std::move(page));
    }
}

std::uint8_t *
CowImage::mutablePage(std::size_t p)
{
    auto &page = pages[p];
    if (page.use_count() > 1) {
        auto clone = std::shared_ptr<std::uint8_t[]>(
            new std::uint8_t[pageSz]);
        std::memcpy(clone.get(), page.get(), pageSz);
        page = std::move(clone);
    }
    return page.get();
}

void
CowImage::applyWrite(Addr a, const void *src, std::size_t n)
{
    if (a < baseAddr || a + n > baseAddr + totalSize)
        panic("cow image write [%#llx,+%zu) out of range",
              static_cast<unsigned long long>(a), n);
    std::size_t off = a - baseAddr;
    auto *bytes = static_cast<const std::uint8_t *>(src);
    while (n) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t len = std::min(n, pageSz - in_page);
        std::memcpy(mutablePage(p) + in_page, bytes, len);
        off += len;
        bytes += len;
        n -= len;
    }
}

void
CowImage::copyFrom(const CowImage &src, Addr a, std::size_t n)
{
    if (src.baseAddr != baseAddr || src.totalSize != totalSize ||
        src.pageSz != pageSz) {
        panic("cow copyFrom between mismatched images");
    }
    if (a < baseAddr || a + n > baseAddr + totalSize)
        panic("cow copyFrom [%#llx,+%zu) out of range",
              static_cast<unsigned long long>(a), n);
    std::size_t off = a - baseAddr;
    while (n) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t len = std::min(n, pageSz - in_page);
        if (pages[p] == src.pages[p]) {
            // Still the same physical page — nothing to copy.
        } else if (in_page == 0 && len == pageSz) {
            // Whole-page copy: share the source page instead.
            pages[p] = src.pages[p];
        } else {
            std::memcpy(mutablePage(p) + in_page,
                        src.pages[p].get() + in_page, len);
        }
        off += len;
        n -= len;
    }
}

void
CowImage::copyRange(std::size_t off, std::size_t len,
                    std::uint8_t *dst) const
{
    if (off + len > totalSize)
        panic("cow copyRange [%zu,+%zu) overruns image", off, len);
    while (len) {
        std::size_t p = off / pageSz;
        std::size_t in_page = off & (pageSz - 1);
        std::size_t n = std::min(len, pageSz - in_page);
        std::memcpy(dst, pages[p].get() + in_page, n);
        dst += n;
        off += n;
        len -= n;
    }
}

void
CowImage::copyTo(PmPool &pool) const
{
    if (pool.size() != totalSize || pool.base() != baseAddr)
        panic("copying mismatched cow image into pool");
    copyRange(0, totalSize, pool.data());
}

std::size_t
CowImage::firstMismatch(const std::uint8_t *other) const
{
    for (std::size_t p = 0; p < pages.size(); p++) {
        std::size_t off = p * pageSz;
        std::size_t len = std::min(pageSz, totalSize - off);
        if (std::memcmp(pages[p].get(), other + off, len) == 0)
            continue;
        for (std::size_t i = 0; i < len; i++) {
            if (pages[p].get()[i] != other[off + i])
                return off + i;
        }
    }
    return SIZE_MAX;
}

void
CowImage::collectNonZeroPages(std::size_t pageSize,
                              std::set<std::uint32_t> &out) const
{
    // One memcmp per (output page ∩ CoW page) piece against a zero
    // block no larger than either page.
    const std::vector<std::uint8_t> zeros(std::min(pageSize, pageSz), 0);
    for (std::size_t off = 0; off < totalSize; off += pageSize) {
        std::size_t end = std::min(off + pageSize, totalSize);
        for (std::size_t at = off; at < end;) {
            std::size_t in_page = at & (pageSz - 1);
            std::size_t n = std::min(end - at, pageSz - in_page);
            if (std::memcmp(pages[at / pageSz].get() + in_page,
                            zeros.data(), n) != 0) {
                out.insert(static_cast<std::uint32_t>(off / pageSize));
                break;
            }
            at += n;
        }
    }
}

std::size_t
CowImage::sharedPageCount() const
{
    std::size_t n = 0;
    for (const auto &p : pages)
        n += p.use_count() > 1;
    return n;
}

} // namespace xfd::pm
