/**
 * @file
 * Copy-on-write PM image with refcounted pages.
 *
 * The campaign loop materializes one working image per worker (plus a
 * durable image when it runs crash-state candidates), all seeded from
 * the same initial pool snapshot. With contiguous PmImage buffers that
 * seeding costs one O(pool) memcpy per cursor; a CowImage instead
 * shares its fixed-size pages by shared_ptr, so forking an image is
 * O(pages) pointer copies and a page is physically duplicated only when
 * a write first lands on it (applyWrite clones shared pages). Since a
 * campaign's working images diverge on exactly the pages the
 * pre-failure write log touches, the shared remainder — usually the
 * vast majority of a mostly-idle pool — is never copied at all.
 *
 * A CowImage is byte-equivalent to the PmImage it was built from; the
 * delta-restore validation mode (XFD_DELTA_VALIDATE=1) memcmps the
 * exec pool against it after every restore.
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
     * Build from a contiguous snapshot (one O(size) copy — the only
     * one; subsequent forks share these pages).
     */
    explicit CowImage(const PmImage &src,
                      std::size_t pageSize = defaultPageSize);

    /**
     * Build straight from a live pool: the same single copy, without
     * a PmImage holding a second whole-pool copy meanwhile.
     */
    explicit CowImage(const PmPool &pool,
                      std::size_t pageSize = defaultPageSize);

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

    /** Copy this image's bytes into @p pool (sizes must match). */
    void copyTo(PmPool &pool) const;

    /**
     * First byte offset where this image differs from @p other (a
     * buffer of size() bytes), or SIZE_MAX when equal. Validation
     * only — O(size).
     */
    std::size_t firstMismatch(const std::uint8_t *other) const;

    /**
     * Pages (by index) still physically shared with another fork or
     * the original snapshot — i.e. never written since the fork.
     * Tests and stats only.
     */
    std::size_t sharedPageCount() const;

    /**
     * Union into @p out the indices (at @p pageSize granularity,
     * which need not match pageSize()) of every page containing a
     * nonzero byte. Of the initial snapshot, together with an
     * ImageDeltaStore's full write-log page set, this bounds where
     * any campaign working image can differ from a fresh zeroed pool,
     * which is what lets chunk starts restore a page subset instead
     * of the whole pool (see Driver::handleFailurePoint).
     */
    void collectNonZeroPages(std::size_t pageSize,
                             std::set<std::uint32_t> &out) const;

  private:
    CowImage(Addr base, const std::uint8_t *bytes, std::size_t size,
             std::size_t pageSize);

    /** Writable view of page @p p, cloning it if shared. */
    std::uint8_t *mutablePage(std::size_t p);

    Addr baseAddr = 0;
    std::size_t totalSize = 0;
    std::size_t pageSz = 0;
    /** Fixed-size pages; the last one is zero-padded past size(). */
    std::vector<std::shared_ptr<std::uint8_t[]>> pages;
};

} // namespace xfd::pm

#endif // XFD_PM_COW_HH
