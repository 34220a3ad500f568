/**
 * @file
 * Parallel detection tests — the paper's named future work ("the
 * post-failure executions are independent... and therefore, can be
 * parallelized", §6.2.1). The parallel driver must produce exactly
 * the findings of the serial run, for clean and buggy programs alike.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "harness.hh"

namespace
{

using namespace xfd;
using core::BugType;
using core::CampaignResult;
using core::Driver;
using trace::PmRuntime;
using workloads::makeWorkload;
using workloads::WorkloadConfig;
using xfdtest::fingerprint;

CampaignResult
runWorkload(const std::string &name, const WorkloadConfig &cfg,
            unsigned threads)
{
    xfdtest::RunOptions opt;
    opt.threads = threads;
    return xfdtest::runWorkload(name, cfg, opt);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParallelEquivalence, CleanWorkloadSameFindings)
{
    WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 6;
    cfg.postOps = 3;
    auto serial = runWorkload(GetParam(), cfg, 1);
    auto par = runWorkload(GetParam(), cfg, 4);
    EXPECT_EQ(fingerprint(serial), fingerprint(par));
    EXPECT_EQ(serial.stats.failurePoints, par.stats.failurePoints);
    EXPECT_EQ(serial.stats.postExecutions, par.stats.postExecutions);
    EXPECT_EQ(par.stats.threads, 4u);

    // Accounting must merge exactly across workers: each worker's
    // shadow counts its own chunk's checks, and elision happens once
    // in the shared plan.
    EXPECT_EQ(serial.stats.checksPerformed, par.stats.checksPerformed);
    EXPECT_EQ(serial.stats.checksSkipped, par.stats.checksSkipped);
    EXPECT_EQ(serial.stats.elidedPoints, par.stats.elidedPoints);
    EXPECT_EQ(serial.stats.orderingCandidates,
              par.stats.orderingCandidates);
    EXPECT_EQ(serial.stats.preTraceEntries, par.stats.preTraceEntries);
    EXPECT_EQ(serial.stats.postTraceEntries,
              par.stats.postTraceEntries);
}

INSTANTIATE_TEST_SUITE_P(Micro, ParallelEquivalence,
                         ::testing::Values("btree", "hashmap_tx",
                                           "hashmap_atomic"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n) {
                                 if (c == '_')
                                     c = 'X';
                             }
                             return n;
                         });

TEST(ParallelDriver, BuggyCampaignsMatchSerial)
{
    const char *const ids[] = {
        "btree.race.leaf_no_add",
        "hashmap_atomic.sem.no_recount",
        "hashmap_tx.race.slot_no_add",
    };
    for (const char *id : ids) {
        for (const auto &c : bugsuite::allBugCases()) {
            if (c.id != id)
                continue;
            SCOPED_TRACE(id);
            auto serial = bugsuite::runBugCase(c);

            // Re-run the same campaign through the parallel path.
            workloads::WorkloadConfig wcfg;
            wcfg.initOps = c.initOps;
            wcfg.testOps = c.testOps;
            wcfg.postOps = c.postOps;
            wcfg.roiFromStart = c.roiFromStart;
            wcfg.bugs.enable(c.id);
            auto w = makeWorkload(c.workload, std::move(wcfg));
            xfdtest::RunOptions opt;
            opt.threads = 3;
            auto par = xfdtest::runCampaign(
                [&](PmRuntime &rt) { w->pre(rt); },
                [&](PmRuntime &rt) { w->post(rt); }, opt);
            EXPECT_EQ(fingerprint(serial), fingerprint(par));
            EXPECT_TRUE(bugsuite::detected(c, par));
        }
    }
}

TEST(ParallelDriver, MoreThreadsThanPointsIsFine)
{
    WorkloadConfig cfg;
    cfg.initOps = 0;
    cfg.testOps = 1;
    auto res = runWorkload("btree", cfg, 64);
    EXPECT_EQ(res.stats.postExecutions, res.stats.failurePoints);
}

TEST(ParallelDriver, ZeroThreadsMeansSerial)
{
    WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    auto w = makeWorkload("ctree", cfg);
    xfdtest::RunOptions opt;
    opt.threads = 0;
    auto res = xfdtest::runCampaign(
        [&](PmRuntime &rt) { w->pre(rt); },
        [&](PmRuntime &rt) { w->post(rt); }, opt);
    EXPECT_EQ(res.stats.threads, 1u);
    EXPECT_GT(res.stats.postExecutions, 0u);
}

TEST(ParallelDriver, PoolHoldsFinalStateAfterParallelRun)
{
    WorkloadConfig cfg;
    cfg.initOps = 4;
    cfg.testOps = 4;
    auto w = makeWorkload("rbtree", cfg);
    pm::PmPool pool(1 << 22);
    Driver driver(pool, {});
    (void)driver.runParallel([&](PmRuntime &rt) { w->pre(rt); },
                             [&](PmRuntime &rt) { w->post(rt); }, 4);
    // The pool must hold the final pre-failure contents: verify()
    // checks the structure against the reference model.
    trace::TraceBuffer buf;
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    EXPECT_EQ(w->verify(rt), "");
}

/**
 * A program that wastes persistence work in three places: before its
 * first planned failure point, between its two points and after its
 * last, where only the advance to the end of the trace goes. Each
 * place flushes a line holding nothing modified and adds one object
 * to the undo log twice; the middle place does so twice, so its
 * findings count 2 and 3 occurrences. With @p points off the fences
 * lie outside the region of interest, so no point is planned at all.
 */
void
wastefulPre(PmRuntime &rt, bool points)
{
    auto *v = static_cast<std::uint64_t *>(
        rt.pool().toHost(rt.pool().base(), 4096));
    auto waste = [&](std::uint64_t *p, trace::SrcLoc loc) {
        rt.clwb(p, 8, loc);
        rt.noteTxAdd(rt.pool().toAddr(p), 8, loc);
        rt.noteTxAdd(rt.pool().toAddr(p), 8, loc);
    };
    // Two ordering-point locations: the batched backend folds neither.
    auto persist = [&](std::uint64_t *p, std::uint64_t value,
                       trace::SrcLoc loc) {
        rt.roiEnd(!points, loc);
        rt.store(*p, value, loc);
        rt.persistBarrier(p, 8, loc);
        rt.roiBegin(!points, loc);
    };
    trace::RoiScope roi(rt);
    waste(&v[64], trace::here());
    persist(&v[0], 1, trace::here());
    trace::SrcLoc between = trace::here();
    for (int i = 0; i < 2; i++)
        waste(&v[72], between);
    persist(&v[8], 2, trace::here());
    waste(&v[80], trace::here());
}

TEST(ParallelDriver, PerformanceFindingsMatchAtEverySchedule)
{
    for (bool points : {true, false}) {
        SCOPED_TRACE(points ? "two points" : "no point");
        struct Run
        {
            const char *name;
            unsigned threads;
            const char *backend;
        };
        const Run runs[] = {{"serial", 1, "delta"},
                            {"threads 2", 2, "delta"},
                            {"threads 4", 4, "delta"},
                            {"threads 8", 8, "delta"},
                            {"batched", 1, "batched"}};
        std::string want_report;
        CampaignResult want;
        std::vector<std::uint8_t> want_image;
        for (const Run &r : runs) {
            SCOPED_TRACE(r.name);
            pm::PmPool pool(1 << 20);
            core::DetectorConfig cfg;
            cfg.backend = r.backend;
            Driver driver(pool, cfg);
            CampaignResult res = driver.runParallel(
                [&](PmRuntime &rt) { wastefulPre(rt, points); },
                [](PmRuntime &rt) {
                    auto *v = static_cast<std::uint64_t *>(
                        rt.pool().toHost(rt.pool().base()));
                    trace::RoiScope roi(rt);
                    (void)rt.load(v[0]);
                },
                r.threads);
            std::ostringstream report;
            core::writeReportJson(res, report);
            std::vector<std::uint8_t> image(pool.data(),
                                            pool.data() + 4096);
            EXPECT_EQ(res.stats.failurePoints, points ? 2u : 0u);
            EXPECT_EQ(res.count(BugType::Performance), 6u)
                << res.summary();
            std::size_t occurrences = 0;
            for (const auto &b : res.bugs) {
                if (b.type == BugType::Performance)
                    occurrences += b.occurrences;
            }
            EXPECT_EQ(occurrences, 9u);
            EXPECT_EQ(res.stats.shadowFsm.redundantFlushes, 4u);
            if (want_report.empty()) {
                want_report = report.str();
                want = res;
                want_image = image;
                EXPECT_EQ(image[0], 1u);
                EXPECT_EQ(image[64], 2u);
                continue;
            }
            EXPECT_EQ(report.str(), want_report);
            const core::ShadowFsmCounters &got = res.stats.shadowFsm;
            const core::ShadowFsmCounters &exp = want.stats.shadowFsm;
            for (std::size_t f = 0; f < core::ShadowFsmCounters::numStates;
                 f++) {
                for (std::size_t t = 0;
                     t < core::ShadowFsmCounters::numStates; t++)
                    EXPECT_EQ(got.edge[f][t], exp.edge[f][t]);
            }
            EXPECT_EQ(got.redundantFlushes, exp.redundantFlushes);
            EXPECT_EQ(got.fences, exp.fences);
            EXPECT_EQ(got.orderingFences, exp.orderingFences);
            EXPECT_EQ(res.stats.preOps, want.stats.preOps);
            EXPECT_EQ(image, want_image) << "final pre-failure image";
        }
    }
}

} // namespace
