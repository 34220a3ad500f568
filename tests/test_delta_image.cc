/**
 * @file
 * The delta-image engine's correctness contract: every post-failure
 * execution must start on exactly the image the paper's footnote 3
 * prescribes — the initial image plus every write recorded before the
 * failure point — although the driver only ever restores the pages
 * that changed. Verified three ways:
 *
 *  1. unit tests of the moving parts (ImageDeltaStore, the pool's
 *     dirty-page map, restorePages coalescing);
 *  2. sweeps over every registered workload, serial and parallel,
 *     hashing the exec pool at every post-stage entry against an
 *     independent prefix replay of the pre-failure trace, and the
 *     pool left after the campaign against the full replay, under
 *     anchor, --crash-image, sample:8 and --backend batched; the
 *     same campaign on a 4 MiB and a 256 MiB pool; plus the whole
 *     synthetic-bug suite;
 *  3. differential fuzzing against the same prefix replay.
 *
 * The whole binary additionally runs with XFD_DELTA_VALIDATE=1, which
 * makes the driver memcmp the exec pool against the source image
 * after every restore, the campaign-start snapshot against the pool
 * and the pool against the final image at campaign end, and panic on
 * the first diverging byte — so any campaign below doubles as an
 * invariant check. (--crash-image
 * restores are pinned against the oracle's all-zero candidate in
 * test_driver_image.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/failure_planner.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "pm/pool.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

// Before main(): every campaign in this binary runs in paranoia mode.
const int validateEnvSet =
    (setenv("XFD_DELTA_VALIDATE", "1", 1), 0);

/* --------------------------------------------------------------- */
/* Unit tests: ImageDeltaStore                                     */
/* --------------------------------------------------------------- */

constexpr Addr storeBase = 0x1000000;

TEST(ImageDeltaStore, CollectsPagesByHalfOpenSeqInterval)
{
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 20)});
    EXPECT_EQ(s.pageSize(), 4096u);
    EXPECT_EQ(s.pageCount(), 256u);

    s.recordWrite(0, storeBase, 1);
    s.recordWrite(3, storeBase + 5000, 8);
    s.recordWrite(7, storeBase + 9000, 8);

    std::set<std::uint32_t> pages;
    s.collectPages(0, 1, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0}));

    pages.clear();
    s.collectPages(0, 4, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1}));

    // toSeq is exclusive: seq 7 is outside [0, 7).
    pages.clear();
    s.collectPages(0, 7, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1}));

    // fromSeq is inclusive, and out is unioned into, not replaced.
    s.collectPages(3, 8, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1, 2}));

    pages.clear();
    s.collectPages(8, 100, pages);
    EXPECT_TRUE(pages.empty());
}

TEST(ImageDeltaStore, WriteSpanningPagesTouchesAllOfThem)
{
    pm::ImageDeltaStore s(256, {storeBase, storeBase + 4096});
    s.recordWrite(1, storeBase + 250, 520); // pages 0..3
    std::set<std::uint32_t> pages;
    s.collectPages(0, 2, pages);
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0, 1, 2, 3}));
}

TEST(ImageDeltaStore, RepeatedWritesToOnePageAreNotFolded)
{
    // Regression guard: folding consecutive same-page writes onto the
    // earlier seq makes a failure point that lands between them miss
    // the later write. Every recorded write must keep its own span.
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 16)});
    s.recordWrite(2, storeBase + 8, 8);
    s.recordWrite(9, storeBase + 16, 8); // same page, later seq
    EXPECT_EQ(s.spanCount(), 2u);

    std::set<std::uint32_t> pages;
    s.collectPages(3, 100, pages); // interval sees only the second
    EXPECT_EQ(pages, (std::set<std::uint32_t>{0}));
}

TEST(ImageDeltaStore, IgnoresEmptyAndOutOfRangeWrites)
{
    pm::ImageDeltaStore s(4096, {storeBase, storeBase + (1 << 16)});
    s.recordWrite(0, storeBase, 0);
    s.recordWrite(1, storeBase - 4096, 8);
    EXPECT_EQ(s.spanCount(), 0u);
}

/* --------------------------------------------------------------- */
/* Unit tests: PmPool dirty-page tracking                          */
/* --------------------------------------------------------------- */

TEST(DirtyTracking, MarksDrainsAndClears)
{
    constexpr std::size_t page = pm::PmPool::pageSize;
    pm::PmPool pool(16 * page);

    // One write straddling a page boundary dirties both pages.
    pool.markDirty(pool.base() + page - 1, 2);
    pool.markDirty(pool.base() + 7 * page, 1);
    EXPECT_EQ(pool.dirtyPageCount(), 3u);

    std::set<std::uint32_t> out{42}; // drain unions into out
    pool.drainDirtyPages(out);
    EXPECT_EQ(out, (std::set<std::uint32_t>{0, 1, 7, 42}));
    EXPECT_EQ(pool.dirtyPageCount(), 0u); // drain clears

    pool.markDirty(pool.base(), 1);
    EXPECT_EQ(pool.dirtyPageCount(), 1u);
    pool.clearDirtyPages();
    EXPECT_EQ(pool.dirtyPageCount(), 0u);

    // Out-of-range marks are clamped, not fatal.
    pool.markDirty(pool.base() + pool.size() - 1, 4096);
    EXPECT_EQ(pool.dirtyPageCount(), 1u);
}

/* --------------------------------------------------------------- */
/* Unit tests: restorePages                                        */
/* --------------------------------------------------------------- */

TEST(RestorePages, RestoresExactlyTheNamedPages)
{
    pm::PmPool pool(1 << 12);
    for (std::size_t i = 0; i < pool.size(); i++)
        pool.data()[i] = static_cast<std::uint8_t>(i * 7);
    pm::PmImage img = pool.snapshot();

    // Soil everything, then restore pages {2,3,7} of 256 bytes.
    std::memset(pool.data(), 0xAB, pool.size());
    pm::DeltaRestoreStats stats;
    pm::restorePages(img, pool, 256, {2, 3, 7}, stats);

    for (std::size_t i = 0; i < pool.size(); i++) {
        std::size_t page = i / 256;
        std::uint8_t want = (page == 2 || page == 3 || page == 7)
                                ? static_cast<std::uint8_t>(i * 7)
                                : 0xAB;
        ASSERT_EQ(pool.data()[i], want) << "offset " << i;
    }
    EXPECT_EQ(stats.deltaRestores, 1u);
    EXPECT_EQ(stats.pagesRestored, 3u);
    EXPECT_EQ(stats.bytesRestored, 3u * 256);
    EXPECT_EQ(stats.fullCopies, 0u);
    EXPECT_EQ(stats.bytesCopied(), 3u * 256);
}

TEST(RestorePages, ClampsTheFinalPartialPage)
{
    // 1 KiB pool, 256-byte pages, but restore a page set containing
    // the last page of a pool whose size is not page-aligned.
    pm::PmPool pool(1000);
    pm::PmImage img = pool.snapshot();
    std::memset(pool.data(), 0xCD, pool.size());
    pm::DeltaRestoreStats stats;
    pm::restorePages(img, pool, 256, {3}, stats);
    EXPECT_EQ(stats.bytesRestored, 1000u - 3 * 256);
    for (std::size_t i = 3 * 256; i < pool.size(); i++)
        ASSERT_EQ(pool.data()[i], 0);
}

TEST(RestoreFull, AccountsTheWholeImage)
{
    pm::PmPool pool(1 << 12);
    pm::PmImage img = pool.snapshot();
    pm::DeltaRestoreStats stats;
    pm::restoreFull(img, pool, stats);
    EXPECT_EQ(stats.fullCopies, 1u);
    EXPECT_EQ(stats.bytesFullCopy, pool.size());
    EXPECT_EQ(stats.deltaRestores, 0u);
}

/* --------------------------------------------------------------- */
/* Equivalence harness                                             */
/* --------------------------------------------------------------- */

std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Keeps a copy of the campaign's pre-failure trace and the failure
 * points it executed.
 */
struct PreTraceCopy : core::CampaignHooks
{
    trace::TraceBuffer pre;
    std::vector<std::uint32_t> executed;
    std::mutex mu;

    void
    onPreTraceReady(const trace::TraceBuffer &b) override
    {
        pre = b;
    }

    void
    onFailurePoint(std::uint32_t fp, const core::BugSink &) override
    {
        std::lock_guard<std::mutex> lk(mu);
        executed.push_back(fp);
    }
};

/**
 * Run a campaign of @p pre / @p post on an external pool of
 * @p poolBytes, fresh or written by @p seedPool beforehand, and check
 * it against an independent replay of the campaign's own pre-failure
 * trace onto the initial image:
 *
 *  - anchor campaigns (no --crash-image, no --crash-states): on entry
 *    to every post-failure execution, the exec pool holds the initial
 *    image plus every write entry below the failure point. Worker
 *    interleaving makes a threaded campaign's entry order arbitrary,
 *    so it compares as a multiset;
 *  - every campaign: afterwards the pool holds the initial image plus
 *    every write entry of the trace, byte for byte.
 *
 * @return the campaign result.
 */
CampaignResult
expectPrefixImages(const ProgramFn &pre, const ProgramFn &post,
                   std::size_t poolBytes, const DetectorConfig &dcfg,
                   unsigned threads, const std::string &ctx,
                   const ProgramFn &seedPool = {})
{
    pm::PmPool pool(poolBytes);
    if (seedPool) {
        trace::TraceBuffer scratch;
        PmRuntime rt(pool, scratch, trace::Stage::PreFailure);
        seedPool(rt);
    }
    pm::PmImage img = pool.snapshot();
    bool anchor = !dcfg.crashImageMode && !dcfg.crashStatesOn();
    PreTraceCopy cap;
    core::CampaignObserver obs;
    obs.hooks = &cap;
    std::vector<std::uint64_t> seen;
    std::mutex mu;
    CampaignResult res =
        Campaign::forProgram(pre,
                             [&](PmRuntime &rt) {
                                 if (anchor) {
                                     pm::PmPool &p = rt.pool();
                                     std::uint64_t h =
                                         fnv1a(p.data(), p.size());
                                     std::lock_guard<std::mutex> lk(mu);
                                     seen.push_back(h);
                                 }
                                 post(rt);
                             })
            .onPool(pool)
            .config(dcfg)
            .threads(threads)
            .observer(&obs)
            .run();

    // Every planned point executes, or under --backend batched every
    // group's representative.
    std::vector<std::uint32_t> points = cap.executed;
    std::sort(points.begin(), points.end());
    if (!dcfg.batchingOn()) {
        EXPECT_EQ(points, core::planFailurePoints(cap.pre, dcfg).points)
            << ctx;
    }

    std::vector<std::uint64_t> want;
    std::uint32_t cursor = 0;
    auto replayTo = [&](std::uint32_t to) {
        for (; cursor < to; cursor++) {
            const auto &e = cap.pre[cursor];
            if (e.isWrite())
                img.applyWrite(e.addr, e.data.data(), e.data.size());
        }
    };
    if (anchor) {
        for (std::uint32_t fp : points) {
            replayTo(fp);
            want.push_back(fnv1a(img.data(), img.size()));
        }
        if (threads > 1) {
            std::sort(seen.begin(), seen.end());
            std::sort(want.begin(), want.end());
        }
        EXPECT_EQ(seen, want) << ctx;

        // Restores copy pages, not pools: fewer bytes than one full
        // copy per restore (the baseline bench_fig13 prices).
        const auto &r = res.stats.restore;
        EXPECT_EQ(r.deltaRestores, res.stats.postExecutions) << ctx;
        if (r.deltaRestores > 1) {
            EXPECT_LT(r.bytesCopied(), r.deltaRestores * pool.size())
                << ctx;
        }
    }

    // The pool is left holding the final pre-failure image.
    replayTo(static_cast<std::uint32_t>(cap.pre.size()));
    EXPECT_EQ(std::memcmp(pool.data(), img.data(), img.size()), 0)
        << ctx << ": final pool image";
    return res;
}

/**
 * The image-building modes every workload sweep covers: anchor,
 * --crash-image, --crash-states sample:8 and --backend batched.
 */
std::vector<std::pair<std::string, DetectorConfig>>
imageModes()
{
    std::vector<std::pair<std::string, DetectorConfig>> modes;
    modes.emplace_back("anchor", DetectorConfig{});
    DetectorConfig crash_image;
    crash_image.crashImageMode = true;
    modes.emplace_back("crash-image", crash_image);
    DetectorConfig sampled;
    sampled.crashStates = "sample:8";
    modes.emplace_back("sample:8", sampled);
    DetectorConfig batched;
    batched.backend = "batched";
    modes.emplace_back("batched", batched);
    return modes;
}

workloads::WorkloadConfig
sweepConfig()
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 4;
    wcfg.postOps = 2;
    return wcfg;
}

void
expectWorkloadPrefixImages(const std::string &name, unsigned threads)
{
    for (const auto &[mode, dcfg] : imageModes()) {
        auto w = workloads::makeWorkload(name, sweepConfig());
        CampaignResult res = expectPrefixImages(
            [&](PmRuntime &rt) { w->pre(rt); },
            [&](PmRuntime &rt) { w->post(rt); }, 1 << 22, dcfg, threads,
            strprintf("%s %s threads=%u", name.c_str(), mode.c_str(),
                      threads));
        EXPECT_GT(res.stats.failurePoints, 0u) << name << " " << mode;
    }
}

TEST(DeltaEquivalence, EveryWorkloadSerial)
{
    for (const auto &name : workloads::workloadNames())
        expectWorkloadPrefixImages(name, 1);
}

TEST(DeltaEquivalence, EveryWorkloadParallel)
{
    for (const auto &name : workloads::workloadNames())
        expectWorkloadPrefixImages(name, 4);
}

/**
 * A pool that already holds data when the campaign starts: worker
 * replicas start zeroed, so the sync set must carry the snapshot's
 * pages to them, and the serial pool must end holding the data too.
 */
TEST(DeltaEquivalence, PrePopulatedPoolReachesEveryExecPool)
{
    auto seed = [](PmRuntime &rt) {
        pm::PmPool &p = rt.pool();
        std::vector<std::uint8_t> pattern(3 * pm::PmPool::pageSize + 100);
        for (std::size_t i = 0; i < pattern.size(); i++)
            pattern[i] = static_cast<std::uint8_t>(1 + i % 251);
        rt.copyToPm(p.data() + p.size() - pattern.size() - 64,
                    pattern.data(), pattern.size());
    };
    for (const auto &[mode, dcfg] : imageModes()) {
        for (unsigned threads : {1u, 4u}) {
            auto w = workloads::makeWorkload("btree", sweepConfig());
            expectPrefixImages(
                [&](PmRuntime &rt) { w->pre(rt); },
                [&](PmRuntime &rt) { w->post(rt); }, 1 << 22, dcfg,
                threads,
                strprintf("seeded %s threads=%u", mode.c_str(), threads),
                seed);
        }
    }
}

/**
 * A campaign's work follows the pages its program touches, not the
 * pool: on a 4 MiB and a 256 MiB pool the same campaign finds the
 * same things with the same executions and restore volume.
 */
TEST(DeltaEquivalence, PoolSizeDoesNotChangeTheCampaign)
{
    for (const char *name : {"btree", "hashmap_tx"}) {
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(strprintf("%s threads=%u", name, threads));
            auto run = [&](std::size_t poolBytes) {
                auto w = workloads::makeWorkload(name, sweepConfig());
                return Campaign::forProgram(
                           [&](PmRuntime &rt) { w->pre(rt); },
                           [&](PmRuntime &rt) { w->post(rt); })
                    .poolSize(poolBytes)
                    .threads(threads)
                    .run();
            };
            CampaignResult small = run(std::size_t{4} << 20);
            CampaignResult large = run(std::size_t{256} << 20);
            EXPECT_EQ(small.fingerprint(), large.fingerprint());
            EXPECT_EQ(small.stats.postExecutions,
                      large.stats.postExecutions);
            const auto &a = small.stats.restore;
            const auto &b = large.stats.restore;
            EXPECT_EQ(a.fullCopies, b.fullCopies);
            EXPECT_EQ(a.deltaRestores, b.deltaRestores);
            EXPECT_EQ(a.bytesFullCopy, b.bytesFullCopy);
            // A worker's restore volume depends on which items it won,
            // so only the serial volume is a function of the campaign.
            if (threads == 1) {
                EXPECT_EQ(a.pagesRestored, b.pagesRestored);
                EXPECT_EQ(a.bytesRestored, b.bytesRestored);
            }
        }
    }
}

TEST(DeltaEquivalence, EveryBugCaseDetectedUnderValidation)
{
    for (const auto &c : bugsuite::allBugCases()) {
        auto res = bugsuite::runBugCase(c, {});
        EXPECT_TRUE(bugsuite::detected(c, res))
            << c.workload << " " << c.id << "\n"
            << res.summary();
    }
}

/* --------------------------------------------------------------- */
/* Differential fuzzing: the prefix replay is the oracle           */
/* --------------------------------------------------------------- */

constexpr unsigned fuzzSlots = 6;
/** Slot spacing: streaming writes from slot 3 cross a page boundary. */
constexpr std::size_t fuzzSlotStride = 1024;

/**
 * Random {write, flush, fence} programs over separated slots (the
 * test_fuzz_persistence shape), plus an occasional large streaming
 * write so restores see multi-page spans.
 */
void
fuzzProgram(PmRuntime &rt, std::uint64_t seed, unsigned length)
{
    Rng rng(seed);
    trace::RoiScope roi(rt);
    std::uint64_t v = seed * 1000 + 1;
    for (unsigned i = 0; i < length; i++) {
        std::uint64_t pick = rng.below(12);
        unsigned slot = static_cast<unsigned>(rng.below(fuzzSlots));
        auto *host = rt.pool().at<std::uint64_t>(slot * fuzzSlotStride);
        if (pick < 5) {
            rt.store(*host, v++);
        } else if (pick < 8) {
            rt.clwb(host, 8);
        } else if (pick < 10) {
            rt.sfence();
        } else {
            // 1200 bytes run into the next slot and, from slot 3,
            // across the 4096-byte page boundary.
            std::uint8_t buf[1200];
            std::memset(buf, static_cast<int>(v++ & 0xFF), sizeof(buf));
            rt.ntCopyToPm(host, buf, sizeof(buf));
        }
    }
    rt.sfence();
}

void
fuzzPost(PmRuntime &rt)
{
    trace::RoiScope roi(rt);
    std::uint64_t sum = 0;
    for (unsigned s = 0; s < fuzzSlots; s++)
        sum += rt.load(*rt.pool().at<std::uint64_t>(s * fuzzSlotStride));
    // Keep the reads observable.
    auto *out = rt.pool().at<std::uint64_t>(fuzzSlots * fuzzSlotStride);
    rt.store(*out, sum);
    rt.clwb(out, 8);
    rt.sfence();
}

class DeltaFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeltaFuzz, MatchesPrefixReplay)
{
    std::uint64_t seed = GetParam();
    DetectorConfig dcfg;
    dcfg.elideEmptyFailurePoints = false; // every fence tested
    expectPrefixImages([&](PmRuntime &rt) { fuzzProgram(rt, seed, 40); },
                       fuzzPost, 1 << 16, dcfg, 1,
                       strprintf("seed %llu",
                                 static_cast<unsigned long long>(seed)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace
