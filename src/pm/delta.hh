/**
 * @file
 * Page-granular delta-image engine.
 *
 * Restoring the exec pool with a full PmImage::copyTo before every
 * post-failure execution costs O(failure points x pool size), yet
 * consecutive failure points differ only by the handful of writes
 * between two ordering points. The ImageDeltaStore indexes the
 * pre-failure write log by page, so the driver can restore only the
 * pages that changed since the previous failure point in a worker's
 * chunk: pages the image gained (from the write log) plus pages the
 * previous post-failure execution soiled (from the pool's dirty map).
 * Periodic full-image checkpoints bound divergence so chunk starts
 * and error recovery stay a single O(pool) copy.
 *
 * Invariant: between restores, the exec pool is byte-identical to the
 * source image on every page outside the two dirty sets; DESIGN.md §7
 * spells out why that holds and the tests that enforce it.
 */

#ifndef XFD_PM_DELTA_HH
#define XFD_PM_DELTA_HH

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hh"

namespace xfd::pm
{

class CowImage;
class PmImage;
class PmPool;

/** Restore-volume accounting for one campaign (or worker chunk). */
struct DeltaRestoreStats
{
    /** Full-image checkpoint copies (chunk starts, cadence, errors). */
    std::uint64_t fullCopies = 0;
    /** Page-granular partial restores. */
    std::uint64_t deltaRestores = 0;
    /**
     * Of the delta restores, ones that (re)synced an exec pool from
     * scratch via the exact written∪nonzero page set instead of a
     * full O(pool) copy (chunk starts, checkpoint cadence).
     */
    std::uint64_t syncRestores = 0;
    /** Pages copied by partial restores. */
    std::uint64_t pagesRestored = 0;
    /** Bytes copied by partial restores. */
    std::uint64_t bytesRestored = 0;
    /** Bytes copied by full checkpoints. */
    std::uint64_t bytesFullCopy = 0;

    std::uint64_t
    bytesCopied() const
    {
        return bytesRestored + bytesFullCopy;
    }

    void
    merge(const DeltaRestoreStats &o)
    {
        fullCopies += o.fullCopies;
        deltaRestores += o.deltaRestores;
        syncRestores += o.syncRestores;
        pagesRestored += o.pagesRestored;
        bytesRestored += o.bytesRestored;
        bytesFullCopy += o.bytesFullCopy;
    }
};

/**
 * Immutable page index over a pre-failure write log: which pool pages
 * do the writes in a trace-sequence interval touch? Built once per
 * campaign (see trace::buildDeltaStore) and shared read-only by all
 * workers.
 */
class ImageDeltaStore
{
  public:
    ImageDeltaStore() = default;

    /**
     * @param pageSize delta granularity, a power of two >= 64
     * @param range    the pool address range the log writes into
     */
    ImageDeltaStore(std::size_t pageSize, AddrRange range);

    /**
     * Append one logged write. Must be called in ascending @p seq
     * order (the order the trace was recorded in).
     */
    void recordWrite(std::uint32_t seq, Addr a, std::size_t n);

    /**
     * Union into @p out the pages touched by writes with sequence
     * number in [@p fromSeq, @p toSeq).
     */
    void collectPages(std::uint32_t fromSeq, std::uint32_t toSeq,
                      std::set<std::uint32_t> &out) const;

    std::size_t pageSize() const { return pageSz; }
    std::size_t pageCount() const { return nPages; }

    /** @return the page index of pool address @p a. */
    std::uint32_t
    pageOf(Addr a) const
    {
        return static_cast<std::uint32_t>((a - base) / pageSz);
    }

    /** Number of indexed write spans (tests/stats). */
    std::size_t spanCount() const { return spans.size(); }

  private:
    struct Span
    {
        std::uint32_t seq;
        std::uint32_t firstPage;
        std::uint32_t lastPage;
    };

    std::vector<Span> spans; ///< ascending by seq
    std::size_t pageSz = 0;
    std::size_t nPages = 0;
    Addr base = 0;
};

/**
 * Copy only @p pages (page indices at @p pageSize granularity) from
 * @p src into @p pool; adjacent pages coalesce into one memcpy.
 * Accounts the copied volume into @p stats.
 */
void restorePages(const PmImage &src, PmPool &pool,
                  std::size_t pageSize,
                  const std::set<std::uint32_t> &pages,
                  DeltaRestoreStats &stats);

/** Full-image checkpoint restore, accounted into @p stats. */
void restoreFull(const PmImage &src, PmPool &pool,
                 DeltaRestoreStats &stats);

/** @name CowImage sources (the campaign driver's working images) @{ */
void restorePages(const CowImage &src, PmPool &pool,
                  std::size_t pageSize,
                  const std::set<std::uint32_t> &pages,
                  DeltaRestoreStats &stats);
void restoreFull(const CowImage &src, PmPool &pool,
                 DeltaRestoreStats &stats);
/** @} */

} // namespace xfd::pm

#endif // XFD_PM_DELTA_HH
