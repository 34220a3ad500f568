/**
 * @file
 * Unit tests for the PM substrate: pool addressing, snapshots, images,
 * and the pool's may-be-nonzero map against the pristine pages of the
 * campaign snapshot built from it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <new>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "pm/cow.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "trace/buffer.hh"
#include "trace/runtime.hh"

namespace
{

using namespace xfd;
using pm::PmImage;
using pm::PmPool;
using pm::PPtr;

TEST(PmPool, BaseAndSize)
{
    PmPool pool(1 << 20);
    EXPECT_EQ(pool.base(), defaultPoolBase);
    EXPECT_EQ(pool.size(), 1u << 20);
    EXPECT_EQ(pool.range().begin, defaultPoolBase);
    EXPECT_EQ(pool.range().end, defaultPoolBase + (1 << 20));
}

TEST(PmPool, CustomBase)
{
    PmPool pool(4096, 0x2000000000ull);
    EXPECT_EQ(pool.base(), 0x2000000000ull);
}

TEST(PmPool, ContainsBoundaries)
{
    PmPool pool(4096);
    EXPECT_TRUE(pool.contains(pool.base()));
    EXPECT_TRUE(pool.contains(pool.base() + 4095));
    EXPECT_FALSE(pool.contains(pool.base() + 4096));
    EXPECT_FALSE(pool.contains(pool.base() - 1));
    EXPECT_TRUE(pool.contains(pool.base(), 4096));
    EXPECT_FALSE(pool.contains(pool.base() + 1, 4096));
}

TEST(PmPool, AddressTranslationRoundTrip)
{
    PmPool pool(4096);
    Addr a = pool.base() + 128;
    void *host = pool.toHost(a);
    EXPECT_EQ(pool.toAddr(host), a);
    EXPECT_TRUE(pool.hosts(host));
    int local = 0;
    EXPECT_FALSE(pool.hosts(&local));
}

TEST(PmPool, InitiallyZeroed)
{
    PmPool pool(4096);
    for (std::size_t i = 0; i < 4096; i += 512)
        EXPECT_EQ(pool.data()[i], 0u);
}

TEST(PmPool, TypedAccess)
{
    PmPool pool(4096);
    auto *v = pool.at<std::uint64_t>(64);
    *v = 0xdeadbeef;
    EXPECT_EQ(*pool.at<std::uint64_t>(64), 0xdeadbeefu);
}

TEST(PmPool, WildAccessIsAStdException)
{
    // A host that catches only std::exception sees the wild access,
    // with the text a finding note carries.
    PmPool pool(4096);
    Addr wild = pool.base() + 4096;
    try {
        pool.toHost(wild, 8);
        ADD_FAILURE() << "no exception";
    } catch (const std::exception &e) {
        EXPECT_STREQ(e.what(), "wild PM access at 0x10000001000");
        const auto *bad = dynamic_cast<const pm::BadPmAccess *>(&e);
        ASSERT_NE(bad, nullptr);
        EXPECT_EQ(bad->addr, wild);
        EXPECT_EQ(bad->size, 8u);
    }
    EXPECT_STREQ(pm::BadPmAccess(0, 0).what(), "wild PM access at 0");
}

TEST(PmPool, RejectsZeroSizeAndUnalignedBase)
{
    EXPECT_THROW({ PmPool pool(0); }, std::invalid_argument);
    EXPECT_THROW({ PmPool pool(4096, defaultPoolBase + 8); },
                 std::invalid_argument);
}

TEST(PmPool, UnmappableSizeThrowsBadAlloc)
{
    // Past any user address space: the mapping fails before anything
    // is sized from it.
    EXPECT_THROW({ PmPool pool(std::size_t{1} << 62); }, std::bad_alloc);
}

TEST(PmImage, SnapshotRestoreRoundTrip)
{
    PmPool pool(4096);
    *pool.at<std::uint32_t>(100) = 42;
    PmImage img = pool.snapshot();
    *pool.at<std::uint32_t>(100) = 99;
    pool.restore(img);
    EXPECT_EQ(*pool.at<std::uint32_t>(100), 42u);
}

TEST(PmImage, ApplyWrite)
{
    PmPool pool(4096);
    PmImage img = pool.snapshot();
    std::uint32_t v = 0x01020304;
    img.applyWrite(pool.base() + 8, &v, sizeof(v));
    img.copyTo(pool);
    EXPECT_EQ(*pool.at<std::uint32_t>(8), 0x01020304u);
}

TEST(PmImage, ApplyWriteIndependentOfPool)
{
    PmPool pool(4096);
    PmImage img = pool.snapshot();
    std::uint32_t v = 7;
    img.applyWrite(pool.base(), &v, sizeof(v));
    // Pool untouched until copyTo.
    EXPECT_EQ(*pool.at<std::uint32_t>(0), 0u);
}

TEST(PPtrTest, NullAndResolve)
{
    PmPool pool(4096);
    PPtr<std::uint64_t> p;
    EXPECT_TRUE(p.null());
    EXPECT_FALSE(p);
    EXPECT_EQ(p.get(pool), nullptr);

    PPtr<std::uint64_t> q(pool.base() + 256);
    EXPECT_FALSE(q.null());
    *q.get(pool) = 5;
    EXPECT_EQ(*pool.at<std::uint64_t>(256), 5u);
}

TEST(PPtrTest, Equality)
{
    PPtr<int> a(defaultPoolBase + 8);
    PPtr<int> b(defaultPoolBase + 8);
    PPtr<int> c(defaultPoolBase + 16);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(AddrRangeTest, OverlapAndContain)
{
    AddrRange r{100, 200};
    EXPECT_TRUE(r.contains(100));
    EXPECT_TRUE(r.contains(199));
    EXPECT_FALSE(r.contains(200));
    EXPECT_TRUE(r.overlaps({150, 250}));
    EXPECT_TRUE(r.overlaps({0, 101}));
    EXPECT_FALSE(r.overlaps({200, 300}));
    EXPECT_FALSE(r.overlaps({0, 100}));
    EXPECT_EQ(r.size(), 100u);
}

/* --------------------------------------------------------------- */
/* The may-be-nonzero map and pristine snapshot pages              */
/* --------------------------------------------------------------- */

constexpr std::size_t kPage = PmPool::pageSize;

/**
 * The campaign snapshot of @p pool holds exactly its may-be-nonzero
 * pages and equals the pool byte for byte. Pools up to 4 MiB compare
 * against the whole-pool snapshot(); larger ones against the pool's
 * own bytes, which is what snapshot() would copy.
 */
void
expectSnapshotMatchesPool(const PmPool &pool)
{
    pm::CowImage cow(pool);
    std::set<std::uint32_t> flagged;
    pool.collectMayBeNonzeroPages(flagged);
    EXPECT_EQ(cow.pageCount(), (pool.size() + kPage - 1) / kPage);
    EXPECT_EQ(cow.pageCount() - cow.sharedPageCount(), flagged.size());
    if (pool.size() <= (std::size_t{4} << 20)) {
        PmImage snap = pool.snapshot();
        EXPECT_EQ(cow.firstMismatch(snap.data()), SIZE_MAX);
    } else {
        EXPECT_EQ(cow.firstMismatch(pool.data()), SIZE_MAX);
    }
}

/** A pool-sized image that is zero except for a few random pages. */
PmImage
sparseImage(Rng &rng, const PmPool &pool)
{
    std::vector<std::uint8_t> bytes(pool.size(), 0);
    for (std::size_t i = 0, n = 1 + rng.below(4); i < n; i++) {
        std::size_t off = rng.below(pool.size());
        std::size_t len = std::min<std::size_t>(1 + rng.below(kPage),
                                                pool.size() - off);
        std::memset(bytes.data() + off,
                    static_cast<int>(1 + rng.below(255)), len);
    }
    return PmImage(pool.base(), std::move(bytes));
}

TEST(PoolMap, EveryWritePathKeepsTheSnapshotExact)
{
    Rng rng(20);
    const std::size_t sizes[] = {std::size_t{64} << 10,
                                 (std::size_t{1} << 20) + 7 * 64,
                                 std::size_t{4} << 20,
                                 std::size_t{256} << 20};
    for (std::size_t size : sizes) {
        SCOPED_TRACE(size);
        PmPool pool(size);
        expectSnapshotMatchesPool(pool);
        // Whole-image paths need a pool-sized PmImage; they run on the
        // pools up to 4 MiB.
        bool whole = size <= (std::size_t{4} << 20);
        trace::TraceBuffer buf;
        trace::PmRuntime rt(pool, buf, trace::Stage::PreFailure);
        // A restore source: pristine except for the pages written.
        pm::CowImage src(pool);
        for (int step = 0; step < 48; step++) {
            std::size_t off = rng.below(size - 8);
            std::size_t n = std::min<std::size_t>(
                1 + rng.below(3 * kPage), size - off);
            std::uint8_t *at = pool.data() + off;
            std::vector<std::uint8_t> bytes(n);
            for (auto &b : bytes)
                b = static_cast<std::uint8_t>(rng.below(4));
            switch (rng.below(whole ? 8 : 6)) {
              case 0:
                rt.store(*pool.at<std::uint64_t>(off & ~std::size_t{7}),
                         rng.next());
                break;
              case 1:
                rt.copyToPm(at, bytes.data(), n);
                break;
              case 2:
                rt.setPm(at, static_cast<int>(rng.below(2)), n);
                break;
              case 3:
                rt.zeroFill(at, n);
                break;
              case 4:
                src.applyWrite(pool.base() + off, bytes.data(), n);
                break;
              case 5: {
                std::set<std::uint32_t> pages;
                for (std::size_t i = 0, k = 1 + rng.below(6); i < k; i++)
                    pages.insert(static_cast<std::uint32_t>(
                        rng.below((size + kPage - 1) / kPage)));
                pm::DeltaRestoreStats st;
                pm::restorePages(src, pool, kPage, pages, st);
                break;
              }
              case 6:
                sparseImage(rng, pool).copyTo(pool);
                break;
              default:
                pool.restore(sparseImage(rng, pool));
                break;
            }
            if (step % 6 == 5)
                expectSnapshotMatchesPool(pool);
        }
        expectSnapshotMatchesPool(pool);
    }
}

TEST(PoolMap, RestoresFlagWithoutDirtying)
{
    PmPool pool(16 * kPage);
    std::set<std::uint32_t> flagged;
    pool.collectMayBeNonzeroPages(flagged);
    EXPECT_TRUE(flagged.empty());
    pm::CowImage src(pool);
    pm::DeltaRestoreStats st;
    pm::restorePages(src, pool, kPage, {3, 4}, st);
    pool.collectMayBeNonzeroPages(flagged);
    EXPECT_EQ(flagged, (std::set<std::uint32_t>{3, 4}));
    EXPECT_EQ(pool.dirtyPageCount(), 0u);
    // Draining dirt never clears the may-be-nonzero map.
    pool.markDirty(pool.base() + 9 * kPage, 1);
    std::set<std::uint32_t> drained;
    pool.drainDirtyPages(drained);
    EXPECT_EQ(drained, (std::set<std::uint32_t>{9}));
    pool.collectMayBeNonzeroPages(flagged);
    EXPECT_EQ(flagged, (std::set<std::uint32_t>{3, 4, 9}));
}

/**
 * Every CowImage operation reads a pristine page as zeros: the same
 * operations on a PmImage reference give the same bytes.
 */
TEST(PristinePages, MatchPmImageReference)
{
    Rng rng(21);
    for (int round = 0; round < 24; round++) {
        SCOPED_TRACE(round);
        // Not a multiple of the page size: the last page is partial.
        PmPool pool((std::size_t{64} << 10) + 64 * rng.below(64));
        trace::TraceBuffer buf;
        trace::PmRuntime rt(pool, buf, trace::Stage::PreFailure);
        for (std::size_t i = 0, n = rng.below(4); i < n; i++) {
            rt.store(*pool.at<std::uint64_t>(8 * rng.below(pool.size() / 8)),
                     std::uint64_t{1 + rng.below(1000)});
        }
        pm::CowImage a(pool);
        pm::CowImage b = a;
        PmImage ra = pool.snapshot();
        PmImage rb = pool.snapshot();
        auto randomSpan = [&](std::size_t maxLen) {
            std::size_t off = rng.below(pool.size());
            std::size_t n = std::min<std::size_t>(1 + rng.below(maxLen),
                                                  pool.size() - off);
            return std::pair{off, n};
        };
        for (int step = 0; step < 24; step++) {
            switch (rng.below(4)) {
              case 0:
              case 1: {
                // applyWrite on either image, zeros or not.
                auto [off, n] = randomSpan(2 * kPage);
                std::vector<std::uint8_t> bytes(n);
                for (auto &x : bytes)
                    x = static_cast<std::uint8_t>(rng.below(3));
                bool onA = rng.below(2);
                (onA ? a : b).applyWrite(pool.base() + off, bytes.data(),
                                         n);
                (onA ? ra : rb).applyWrite(pool.base() + off,
                                           bytes.data(), n);
                break;
              }
              case 2: {
                // Whole pages of b into a.
                std::size_t whole = pool.size() / kPage;
                std::size_t first = rng.below(whole);
                std::size_t off = first * kPage;
                std::size_t n =
                    std::min<std::size_t>(1 + rng.below(3), whole - first) *
                    kPage;
                a.copyFrom(b, pool.base() + off, n);
                std::memcpy(ra.data() + off, rb.data() + off, n);
                break;
              }
              default: {
                // A partial span of b into a.
                auto [off, n] = randomSpan(kPage + kPage / 2);
                a.copyFrom(b, pool.base() + off, n);
                std::memcpy(ra.data() + off, rb.data() + off, n);
                break;
              }
            }
        }
        EXPECT_EQ(a.firstMismatch(ra.data()), SIZE_MAX);
        EXPECT_EQ(b.firstMismatch(rb.data()), SIZE_MAX);

        // copyRange, across pristine and allocated pages.
        for (int i = 0; i < 8; i++) {
            auto [off, n] = randomSpan(3 * kPage);
            std::vector<std::uint8_t> got(n, 0xEE);
            a.copyRange(off, n, got.data());
            ASSERT_EQ(std::memcmp(got.data(), ra.data() + off, n), 0)
                << off << "+" << n;
        }

        // firstMismatch finds a flipped byte wherever it lands.
        std::size_t flip = rng.below(pool.size());
        std::vector<std::uint8_t> other(ra.data(), ra.data() + ra.size());
        other[flip] ^= 0x5A;
        EXPECT_EQ(a.firstMismatch(other.data()), flip);

        for (std::size_t ps : {std::size_t{64}, std::size_t{1024},
                               std::size_t{4096}, std::size_t{16384}}) {
            std::set<std::uint32_t> want;
            for (std::size_t i = 0; i < ra.size(); i++) {
                if (ra.data()[i])
                    want.insert(static_cast<std::uint32_t>(i / ps));
            }
            std::set<std::uint32_t> got;
            a.collectNonZeroPages(ps, got);
            EXPECT_EQ(got, want) << "page " << ps;
        }
    }
}

TEST(LineBaseTest, Alignment)
{
    EXPECT_EQ(xfd::lineBase(0), 0u);
    EXPECT_EQ(xfd::lineBase(63), 0u);
    EXPECT_EQ(xfd::lineBase(64), 64u);
    EXPECT_EQ(xfd::lineBase(130), 128u);
}

} // namespace
