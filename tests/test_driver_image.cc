/**
 * @file
 * Driver internals: the PM image the post-failure stage sees at
 * failure point F must equal initial-image + every recorded write
 * before F (paper footnote 3: the copy "contains all updates,
 * including those not persisted"). Verified against an independent
 * byte-level reconstruction for every failure point of a real
 * workload run. Under --crash-image the image must instead equal the
 * crash-state oracle's all-zero candidate, byte for byte.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/driver.hh"
#include "core/failure_planner.hh"
#include "oracle/oracle.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

TEST(DriverImage, PostStageSeesPrefixExactImage)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 3;
    cfg.testOps = 4;
    auto w = workloads::makeWorkload("hashmap_tx", cfg);

    pm::PmPool pool(1 << 22);
    pm::PmImage initial = pool.snapshot();

    // Capture what the post-failure stage actually sees, per failure
    // point, by hashing the pool at entry to post().
    std::vector<std::size_t> seen_hashes;
    auto hash_pool = [](pm::PmPool &p) {
        std::size_t h = 1469598103934665603ull;
        const std::uint8_t *b = p.data();
        for (std::size_t i = 0; i < p.size(); i += 7)
            h = (h ^ b[i]) * 1099511628211ull;
        return h;
    };

    trace::TraceBuffer pre_copy;
    core::Driver driver(pool, {});
    auto res = driver.run(
        [&](PmRuntime &rt) {
            w->pre(rt);
            // Keep a copy of the trace for the oracle (same pool, so
            // the driver's own trace is identical by determinism).
        },
        [&](PmRuntime &rt) { seen_hashes.push_back(hash_pool(rt.pool())); });
    ASSERT_EQ(seen_hashes.size(), res.stats.failurePoints);

    // Oracle: re-run the pre stage on a fresh pool to regenerate the
    // identical trace, then reconstruct each prefix image by hand.
    pm::PmPool pool2(1 << 22);
    auto w2 = workloads::makeWorkload("hashmap_tx", cfg);
    trace::TraceBuffer pre;
    {
        PmRuntime rt(pool2, pre, trace::Stage::PreFailure);
        w2->pre(rt);
    }
    auto plan = core::planFailurePoints(pre, {});
    ASSERT_EQ(plan.points.size(), seen_hashes.size());

    pm::PmImage img = initial;
    std::uint32_t cursor = 0;
    for (std::size_t k = 0; k < plan.points.size(); k++) {
        for (; cursor < plan.points[k]; cursor++) {
            const auto &e = pre[cursor];
            if (e.isWrite())
                img.applyWrite(e.addr, e.data.data(), e.data.size());
        }
        pm::PmPool scratch(pool.size(), pool.base());
        img.copyTo(scratch);
        std::size_t expect = hash_pool(scratch);
        EXPECT_EQ(seen_hashes[k], expect) << "failure point " << k;
    }
}

TEST(DriverImage, UnpersistedWritesAreInTheImage)
{
    // Footnote 3 directly: a write with no flush at all must still be
    // visible to the post-failure stage (persistence is tracked by
    // the shadow PM, not by dropping bytes).
    pm::PmPool pool(1 << 20);
    std::vector<std::uint64_t> seen;
    core::Driver driver(pool, {});
    driver.run(
        [&](PmRuntime &rt) {
            auto *a = rt.pool().at<std::uint64_t>(0);
            auto *b = rt.pool().at<std::uint64_t>(64);
            trace::RoiScope roi(rt);
            rt.store(*a, std::uint64_t{0xaaaa}); // never persisted
            rt.store(*b, std::uint64_t{0xbbbb});
            rt.persistBarrier(b, 8);
        },
        [&](PmRuntime &rt) {
            seen.push_back(*rt.pool().at<std::uint64_t>(0));
        });
    ASSERT_FALSE(seen.empty());
    for (std::uint64_t v : seen)
        EXPECT_EQ(v, 0xaaaau);
}

TEST(DriverImage, CrashImageModeDropsUnpersistedWrites)
{
    // The extension's counterpart of footnote 3: in crashImageMode
    // the post-failure stage sees only data that was flushed AND
    // fenced by the failure point.
    pm::PmPool pool(1 << 20);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    core::DetectorConfig dcfg;
    dcfg.crashImageMode = true;
    core::Driver driver(pool, dcfg);
    driver.run(
        [&](PmRuntime &rt) {
            auto *a = rt.pool().at<std::uint64_t>(0);
            auto *b = rt.pool().at<std::uint64_t>(64);
            trace::RoiScope roi(rt);
            rt.store(*a, std::uint64_t{0xaaaa}); // never persisted
            rt.store(*b, std::uint64_t{0xbbbb});
            rt.persistBarrier(b, 8);
            rt.store(*b, std::uint64_t{0xcccc}); // re-dirtied
            rt.clwb(b, 8);
            rt.sfence();
        },
        [&](PmRuntime &rt) {
            seen.emplace_back(*rt.pool().at<std::uint64_t>(0),
                              *rt.pool().at<std::uint64_t>(64));
        });
    ASSERT_GE(seen.size(), 2u);
    // First failure point (before b's first fence): nothing durable.
    EXPECT_EQ(seen[0].first, 0u);
    EXPECT_EQ(seen[0].second, 0u);
    // Second failure point (before b's second fence): a still absent,
    // b holds its first persisted value, not the pending re-dirty.
    EXPECT_EQ(seen[1].first, 0u);
    EXPECT_EQ(seen[1].second, 0xbbbbu);
}

TEST(DriverImage, CleanWorkloadsSurviveRealCrashImages)
{
    // Crash-consistent programs must recover from *realistic* crash
    // images too, not just the keep-everything copy.
    for (const char *name : {"btree", "hashmap_atomic", "redis"}) {
        workloads::WorkloadConfig cfg;
        cfg.initOps = 4;
        cfg.testOps = 5;
        cfg.postOps = 3;
        auto w = workloads::makeWorkload(name, cfg);
        pm::PmPool pool(1 << 22);
        core::DetectorConfig dcfg;
        dcfg.crashImageMode = true;
        core::Driver driver(pool, dcfg);
        auto res =
            driver.run([&](PmRuntime &rt) { w->pre(rt); },
                       [&](PmRuntime &rt) { w->post(rt); });
        EXPECT_EQ(res.count(core::BugType::CrossFailureRace), 0u)
            << name << "\n"
            << res.summary();
        EXPECT_EQ(res.count(core::BugType::RecoveryFailure), 0u)
            << name << "\n"
            << res.summary();
    }
}

TEST(DriverImage, BugStillDetectedInCrashImageMode)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 6;
    cfg.testOps = 8;
    cfg.postOps = 4;
    cfg.bugs.enable("btree.race.leaf_no_add");
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.crashImageMode = true;
    core::Driver driver(pool, dcfg);
    auto res = driver.run([&](PmRuntime &rt) { w->pre(rt); },
                          [&](PmRuntime &rt) { w->post(rt); });
    EXPECT_GE(res.count(core::BugType::CrossFailureRace), 1u)
        << res.summary();
}

TEST(DriverImage, MaxFailurePointsCapsExecutions)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 6;
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.maxFailurePoints = 5;
    core::Driver driver(pool, dcfg);
    auto res =
        driver.run([&](PmRuntime &rt) { w->pre(rt); },
                   [&](PmRuntime &rt) { w->post(rt); });
    EXPECT_EQ(res.stats.failurePoints, 5u);
    EXPECT_EQ(res.stats.postExecutions, 5u);
}

/** FNV-1a over every byte of @p p. */
std::uint64_t
poolHash(const pm::PmPool &p)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < p.size(); i++)
        h = (h ^ p.data()[i]) * 1099511628211ull;
    return h;
}

TEST(DriverImage, CrashImageIsTheOracleAllZeroCandidate)
{
    // --crash-image is the all-zero mask over the cell model, so at
    // every failure point the post-failure stage must see exactly the
    // image the independent oracle materializes for its all-zero
    // candidate: allocator zero-fill durable at once, a store after a
    // flush keeping its cell in flight, freed cells pinned.
    for (const char *name :
         {"ctree", "hashmap_tx", "hashmap_atomic", "ringlog"}) {
        for (const char *backend : {"delta", "full"}) {
            SCOPED_TRACE(std::string(name) + " " + backend);
            workloads::WorkloadConfig wcfg;
            wcfg.initOps = 4;
            wcfg.testOps = 6;
            wcfg.postOps = 2;
            auto w = workloads::makeWorkload(name, wcfg);

            pm::PmPool pool(1 << 22);
            pm::PmImage initial = pool.snapshot();
            core::DetectorConfig dcfg;
            dcfg.backend = backend;
            dcfg.crashImageMode = true;

            struct Capture : core::CampaignHooks
            {
                trace::TraceBuffer pre;
                std::vector<std::uint32_t> fps;
                void
                onPreTraceReady(const trace::TraceBuffer &b) override
                {
                    pre = b;
                }
                void
                onFailurePoint(std::uint32_t fp,
                               const core::BugSink &) override
                {
                    fps.push_back(fp);
                }
            } cap;
            core::CampaignObserver obs;
            obs.hooks = &cap;
            std::vector<std::uint64_t> driver_hashes;
            core::Driver driver(pool, dcfg);
            driver.setObserver(&obs);
            driver.run([&](PmRuntime &rt) { w->pre(rt); },
                       [&](PmRuntime &rt) {
                           driver_hashes.push_back(poolHash(rt.pool()));
                           w->post(rt);
                       });
            ASSERT_EQ(driver_hashes.size(), cap.fps.size());
            ASSERT_FALSE(cap.fps.empty());

            // One all-zero mask per width: runFailurePoint skips the
            // ones whose width is not the point's frontier size.
            std::vector<trace::SubsetMask> zeros;
            for (std::size_t k = 0; k <= 1024; k++)
                zeros.emplace_back(k);
            oracle::OracleConfig ocfg;
            ocfg.exhaustive = false;
            ocfg.sampleCount = 1;
            std::vector<std::uint64_t> oracle_hashes;
            oracle::CrashStateOracle orc(cap.pre, initial, ocfg);
            for (std::size_t i = 0; i < cap.fps.size(); i++) {
                oracle_hashes.clear();
                auto res = orc.runFailurePoint(
                    cap.fps[i],
                    [&](PmRuntime &rt) {
                        oracle_hashes.push_back(poolHash(rt.pool()));
                        w->post(rt);
                    },
                    &zeros);
                ASSERT_EQ(oracle_hashes.size(), res.candidates.size());
                std::size_t c = 0;
                while (c < res.candidates.size() &&
                       !res.candidates[c].mask.none())
                    c++;
                ASSERT_LT(c, res.candidates.size())
                    << "fp " << cap.fps[i] << ": no all-zero candidate";
                EXPECT_EQ(driver_hashes[i], oracle_hashes[c])
                    << "fp " << cap.fps[i] << " (point " << i << ")";
            }
        }
    }
}

} // namespace
