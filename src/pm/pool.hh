/**
 * @file
 * DRAM-emulated persistent-memory pool.
 *
 * The paper evaluates on Intel DCPMM mounted DAX; we do not have that
 * hardware, so the pool is a DRAM mapping with a *deterministic* virtual
 * base address (the paper itself pins pool addresses across executions
 * with PMEM_MMAP_HINT, and its artifact explicitly supports emulated
 * PM). All detector logic operates on pool-relative virtual addresses
 * (xfd::Addr), never on host pointers, so the emulation is transparent.
 */

#ifndef XFD_PM_POOL_HH
#define XFD_PM_POOL_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>

#include "common/logging.hh"
#include "common/types.hh"

namespace xfd::pm
{

class PmImage;

/**
 * Thrown when a PM address (typically a corrupted persistent pointer
 * read after a failure) does not resolve inside the pool — the
 * emulation's equivalent of the segmentation fault the paper's
 * Figure 1 example can suffer during resumption. The detection driver
 * catches it and records the post-failure crash; what() is
 * "wild PM access at <addr>".
 */
struct BadPmAccess : std::exception
{
    BadPmAccess(Addr a, std::size_t n) : addr(a), size(n)
    {
        std::snprintf(msg, sizeof msg, "wild PM access at %#llx",
                      static_cast<unsigned long long>(a));
    }

    const char *what() const noexcept override { return msg; }

    Addr addr;
    std::size_t size;

  private:
    char msg[40];
};

/**
 * An emulated persistent-memory pool: a contiguous byte buffer exposed
 * at a fixed virtual address range [base, base + size).
 *
 * The bytes come from a lazily zeroed anonymous mapping, so a pool
 * costs memory only for the pages something wrote. Beside the bytes
 * the pool keeps two bits per 4 KiB page (pageSize):
 *
 *  - *dirty*: written since the last drainDirtyPages() — what the
 *    delta-image engine re-copies after a post-failure execution;
 *  - *may be nonzero*: ever written, never drained. A page without
 *    it is zero, which is what lets a campaign snapshot copy only the
 *    pages the program touched (pm::CowImage(const PmPool &)).
 *
 * The instrumented runtime calls markDirty() on every mutation path,
 * and every bulk copy the pm layer makes into a pool (restorePages,
 * PmImage::copyTo, restore()) sets the may-be-nonzero bits of the
 * pages it covers. A write that bypasses both (a raw store through
 * data() or at()) leaves the maps stale: snapshot() still sees it,
 * a CowImage built from the pool does not.
 */
class PmPool
{
  public:
    /** Granularity of the dirty and may-be-nonzero page maps. */
    static constexpr std::size_t pageSize = 4096;

    /**
     * @param size pool capacity in bytes
     * @param base first virtual PM address of the pool
     * @throw std::invalid_argument for a zero @p size or a @p base
     *        that is not cache-line aligned
     * @throw std::bad_alloc when the pool cannot be mapped
     */
    explicit PmPool(std::size_t size, Addr base = defaultPoolBase);

    PmPool(const PmPool &) = delete;
    PmPool &operator=(const PmPool &) = delete;

    Addr base() const { return baseAddr; }
    std::size_t size() const { return len; }
    AddrRange range() const { return {baseAddr, baseAddr + len}; }

    /** @return whether the pool address space contains @p a. */
    bool contains(Addr a) const { return range().contains(a); }

    /** @return whether [a, a+n) lies fully inside the pool. */
    bool
    contains(Addr a, std::size_t n) const
    {
        return a >= baseAddr && a + n <= baseAddr + len;
    }

    /**
     * Translate a PM address to a host pointer.
     * @throw BadPmAccess when [a, a+n) is not inside the pool.
     */
    void *
    toHost(Addr a, std::size_t n = 1)
    {
        if (!contains(a, n ? n : 1))
            throw BadPmAccess{a, n};
        return bytes.get() + (a - baseAddr);
    }

    const void *
    toHost(Addr a, std::size_t n = 1) const
    {
        return const_cast<PmPool *>(this)->toHost(a, n);
    }

    /**
     * Translate a host pointer into the pool to its PM address.
     * @throw BadPmAccess for pointers outside the pool — typically a
     *        field access through a corrupted/null persistent pointer.
     */
    Addr
    toAddr(const void *p) const
    {
        if (!hosts(p))
            throw BadPmAccess{0, 0};
        return baseAddr + static_cast<Addr>(
                              static_cast<const std::uint8_t *>(p) -
                              bytes.get());
    }

    /** @return whether a host pointer points into this pool. */
    bool
    hosts(const void *p) const
    {
        auto *b = static_cast<const std::uint8_t *>(p);
        return b >= bytes.get() && b < bytes.get() + len;
    }

    /** Typed view of the pool at byte offset @p off. */
    template <typename T>
    T *
    at(std::size_t off)
    {
        if (off + sizeof(T) > len)
            panic("pool offset %zu overruns pool", off);
        return reinterpret_cast<T *>(bytes.get() + off);
    }

    /** Capture a byte-exact snapshot of the whole pool. */
    PmImage snapshot() const;

    /** Overwrite the pool contents from a snapshot. */
    void restore(const PmImage &img);

    /** Raw storage access, used by PmImage and the failure injector. */
    std::uint8_t *data() { return bytes.get(); }
    const std::uint8_t *data() const { return bytes.get(); }

    /**
     * @name Page maps
     * Bits are relaxed atomics so multi-threaded workload stages may
     * mark concurrently; draining runs while nothing marks.
     * @{
     */

    /**
     * Record that [a, a+n) was written: its pages become dirty and
     * may be nonzero. Marks past the pool's end are clamped. A page
     * already dirty costs one load.
     */
    void
    markDirty(Addr a, std::size_t n)
    {
        if (n == 0 || a < baseAddr)
            return;
        std::size_t first = (a - baseAddr) / pageSize;
        std::size_t last = (a - baseAddr + n - 1) / pageSize;
        for (std::size_t p = first; p <= last && p < numPages; p++) {
            if (!(dirty[p / 64].load(std::memory_order_relaxed) &
                  bitOf(p))) {
                markPage(p);
            }
        }
    }

    /**
     * Record a bulk copy into [a, a+n) (a restore): its pages may be
     * nonzero, but they are not dirt.
     */
    void markCopied(Addr a, std::size_t n);

    /**
     * Move the dirty-page set into @p out (union) and clear it. Costs
     * O(dirty pages) plus one summary word per 4096 pages.
     */
    void drainDirtyPages(std::set<std::uint32_t> &out);

    /** Clear the dirty-page set. */
    void clearDirtyPages();

    /** @return number of pages currently marked dirty. */
    std::size_t dirtyPageCount() const;

    /** Union into @p out every page that may hold a nonzero byte. */
    void collectMayBeNonzeroPages(std::set<std::uint32_t> &out) const;

    /** @} */

  private:
    using Word = std::atomic<std::uint64_t>;

    static std::uint64_t
    bitOf(std::size_t p)
    {
        return std::uint64_t{1} << (p % 64);
    }

    /** First mark of page @p p since the last drain. */
    void markPage(std::size_t p);

    /** Unmaps the pool bytes. */
    struct Unmap
    {
        std::size_t len;
        void operator()(std::uint8_t *p) const;
    };

    Addr baseAddr;
    std::size_t len;
    std::size_t numPages;
    std::unique_ptr<std::uint8_t[], Unmap> bytes;
    /** One bit per page: written since the last drain. */
    std::unique_ptr<Word[]> dirty;
    /** One bit per dirty word (64 pages): the word may be nonzero. */
    std::unique_ptr<Word[]> dirtySummary;
    /** One bit per page: ever written or copied into. */
    std::unique_ptr<Word[]> nonzero;
};

/**
 * A typed persistent pointer: stores an absolute PM address, the idiom
 * real PM programs use (PMDK PMEMoid offsets) so that pointers stored
 * *inside* PM stay valid across restarts. Null is address 0.
 */
template <typename T>
class PPtr
{
  public:
    PPtr() = default;
    explicit PPtr(Addr a) : addr_(a) {}

    Addr addr() const { return addr_; }
    bool null() const { return addr_ == 0; }
    explicit operator bool() const { return addr_ != 0; }

    /**
     * Resolve against a pool.
     * @throw BadPmAccess when the pointee does not fit in the pool.
     */
    T *
    get(PmPool &pool) const
    {
        return addr_ ? static_cast<T *>(pool.toHost(addr_, sizeof(T)))
                     : nullptr;
    }

    /** get() for a dereference: null throws BadPmAccess{0, 0}. */
    T *
    deref(PmPool &pool) const
    {
        if (!addr_)
            throw BadPmAccess{0, 0};
        return get(pool);
    }

    bool operator==(const PPtr &o) const = default;

  private:
    Addr addr_ = 0;
};

} // namespace xfd::pm

#endif // XFD_PM_POOL_HH
