/**
 * @file
 * Copy-on-write PM image with refcounted pages.
 *
 * The campaign loop materializes one working image per worker (plus a
 * durable image when it runs crash-state candidates), all seeded from
 * the same campaign-start snapshot. A CowImage shares its fixed-size
 * pages by shared_ptr, so forking an image is O(pages) pointer copies
 * and a page is physically duplicated only when a write first lands
 * on it (applyWrite clones shared pages).
 *
 * A page that is all zero may be *pristine*: a null pointer every
 * reader treats as 4 KiB of zeros, allocated only when a write lands.
 * The snapshot of a live pool copies only the pages the pool's
 * may-be-nonzero map names and leaves the rest pristine, so a
 * campaign's fixed cost follows the pages its program touched, not
 * the pool size.
 *
 * A CowImage is byte-equivalent to the pool or PmImage it was built
 * from; the delta-restore validation mode (XFD_DELTA_VALIDATE=1)
 * memcmps the exec pool against it after every restore.
 */

#ifndef XFD_PM_COW_HH
#define XFD_PM_COW_HH

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/types.hh"

namespace xfd::pm
{

class PmImage;
class PmPool;

/** A forkable snapshot of pool contents with copy-on-write pages. */
class CowImage
{
  public:
    /** Default page granularity: one small OS page. */
    static constexpr std::size_t defaultPageSize = 4096;

    CowImage() = default;

    /**
     * Build from a contiguous snapshot: one O(size) copy into
     * allocated pages; subsequent forks share them.
     */
    explicit CowImage(const PmImage &src,
                      std::size_t pageSize = defaultPageSize);

    /**
     * Build straight from a live pool at its page size: copy the
     * pages the pool's may-be-nonzero map names, leave every other
     * page pristine. Byte-identical to pool.snapshot() as long as
     * every write into the pool was marked.
     */
    explicit CowImage(const PmPool &pool);

    /** Forks: O(pages) pointer copies, no byte copying. */
    CowImage(const CowImage &) = default;
    CowImage &operator=(const CowImage &) = default;
    CowImage(CowImage &&) = default;
    CowImage &operator=(CowImage &&) = default;

    Addr base() const { return baseAddr; }
    std::size_t size() const { return totalSize; }
    bool empty() const { return totalSize == 0; }
    std::size_t pageSize() const { return pageSz; }
    std::size_t pageCount() const { return pages.size(); }

    /**
     * Apply a write of @p n bytes from @p src at PM address @p a,
     * cloning any still-shared page it touches.
     */
    void applyWrite(Addr a, const void *src, std::size_t n);

    /**
     * Copy [a, a+n) from @p src into this image (the durable image
     * taking persisted cells). Sources and destination must cover the
     * same address range and share a page size.
     */
    void copyFrom(const CowImage &src, Addr a, std::size_t n);

    /** Copy byte range [off, off+len) into @p dst. */
    void copyRange(std::size_t off, std::size_t len,
                   std::uint8_t *dst) const;

    /**
     * First byte offset where this image differs from @p other (a
     * buffer of size() bytes), or SIZE_MAX when equal. Validation
     * only — O(size).
     */
    std::size_t firstMismatch(const std::uint8_t *other) const;

    /**
     * Pages (by index) still physically shared with another fork or
     * the original snapshot — i.e. never written since the fork —
     * or pristine. Tests and stats only.
     */
    std::size_t sharedPageCount() const;

    /**
     * Union into @p out the indices (at @p pageSize granularity,
     * which need not match pageSize()) of every page containing a
     * nonzero byte (pristine pages are skipped unread).
     */
    void collectNonZeroPages(std::size_t pageSize,
                             std::set<std::uint32_t> &out) const;

  private:
    using Page = std::shared_ptr<std::uint8_t[]>;

    /** All pages pristine. */
    CowImage(Addr base, std::size_t size, std::size_t pageSize);

    /**
     * A page holding bytes [off, off + pageSize()) of the size()-byte
     * buffer @p bytes, zero-padded past size().
     */
    Page copyPage(const std::uint8_t *bytes, std::size_t off) const;

    /** Writable view of page @p p, cloning it if shared. */
    std::uint8_t *mutablePage(std::size_t p);

    Addr baseAddr = 0;
    std::size_t totalSize = 0;
    std::size_t pageSz = 0;
    /**
     * Fixed-size pages, null while pristine (all zero); the last one
     * is zero-padded past size().
     */
    std::vector<Page> pages;
};

} // namespace xfd::pm

#endif // XFD_PM_COW_HH
