/**
 * @file
 * Fundamental types shared by every XFDetector-repro module.
 */

#ifndef XFD_COMMON_TYPES_HH
#define XFD_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace xfd
{

/** A (virtual) persistent-memory address inside an emulated pool. */
using Addr = std::uint64_t;

/** Size of an x86 cache line; CLWB/CLFLUSH operate at this granule. */
constexpr std::size_t cacheLineSize = 64;

/**
 * Whether @p n bytes is a shadow cell size. The detector, the oracle
 * and the lint frontier all track persistence per cell of 1, 2, 4 or
 * 8 bytes.
 */
constexpr bool
isCellSize(unsigned long long n)
{
    return n == 1 || n == 2 || n == 4 || n == 8;
}

/**
 * Deterministic base address for emulated pools. Mirrors the paper's use
 * of PMEM_MMAP_HINT=0x10000000000 to derandomize PM mappings so that
 * addresses are stable between the pre- and post-failure executions.
 */
constexpr Addr defaultPoolBase = 0x10000000000ull;

/** Align an address down to its cache-line base. */
constexpr Addr
lineBase(Addr a)
{
    return a & ~static_cast<Addr>(cacheLineSize - 1);
}

/** A half-open address range [begin, end). */
struct AddrRange
{
    Addr begin = 0;
    Addr end = 0;

    constexpr bool
    contains(Addr a) const
    {
        return a >= begin && a < end;
    }

    constexpr bool
    overlaps(const AddrRange &o) const
    {
        return begin < o.end && o.begin < end;
    }

    constexpr std::size_t size() const { return end - begin; }

    constexpr bool operator==(const AddrRange &o) const = default;
};

} // namespace xfd

#endif // XFD_COMMON_TYPES_HH
