/**
 * @file
 * Batch-scheduler equivalence suite: `--backend=batched` must be an
 * invisible optimization. Findings (compared as byte-identical
 * fingerprints) must match the serial delta backend over every stock
 * workload and every bug-suite entry, the crash-state oracle must
 * agree 1.0 with a batched campaign, planBatches() must account for
 * every input point exactly once, and weighted progress ticks must
 * cover folded group members. Plus a same-value-elision smoke test
 * (emit-time elision cannot change findings either).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "core/failure_planner.hh"
#include "harness.hh"
#include "oracle/diff.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using bugsuite::allBugCases;
using bugsuite::BugCase;
using core::BatchPlan;
using core::CampaignResult;
using core::DetectorConfig;
using core::FailurePlan;
using core::planBatches;
using core::planFailurePoints;
using core::ProgressUpdate;
using trace::PmRuntime;
using trace::Stage;
using trace::TraceBuffer;

/** Small workload scale so the full cross-product stays fast. */
workloads::WorkloadConfig
smallConfig(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 4;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    return wcfg;
}

xfdtest::RunOptions
withBackend(const std::string &backend)
{
    xfdtest::RunOptions opt;
    opt.detector.backend = backend;
    return opt;
}

/**
 * The batched bookkeeping must add up to the serial plan: in batched
 * mode stats.failurePoints counts executed representatives (the
 * schedule), and representatives + folded members must equal the
 * serial campaign's full failure-point count.
 */
void
expectBatchAccounting(const CampaignResult &serial,
                      const CampaignResult &batched)
{
    const core::CampaignStats &s = serial.statistics();
    const core::CampaignStats &b = batched.statistics();
    EXPECT_EQ(b.failurePoints, b.batchGroups);
    EXPECT_EQ(b.batchGroups + b.lintPrunedPoints, s.failurePoints);
    if (s.failurePoints > 0) {
        EXPECT_GE(b.batchGroups, 1u);
    }
    // Only representatives run post-failure recovery.
    EXPECT_EQ(b.postExecutions, b.batchGroups);
}

class BatchWorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BatchWorkloadTest, FingerprintMatchesSerialDelta)
{
    const std::string &name = GetParam();
    auto wcfg = smallConfig(name);
    CampaignResult serial =
        xfdtest::runWorkload(name, wcfg, withBackend("delta"));
    CampaignResult batched =
        xfdtest::runWorkload(name, wcfg, withBackend("batched"));
    EXPECT_EQ(batched.fingerprint(), serial.fingerprint())
        << "batched findings diverge on " << name;
    EXPECT_EQ(xfdtest::fingerprint(batched), xfdtest::fingerprint(serial));
    expectBatchAccounting(serial, batched);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BatchWorkloadTest,
                         ::testing::ValuesIn(workloads::workloadNames()),
                         [](const auto &info) { return info.param; });

class BatchBugSuiteTest : public ::testing::TestWithParam<BugCase>
{
};

TEST_P(BatchBugSuiteTest, FingerprintMatchesSerialDelta)
{
    const BugCase &c = GetParam();
    CampaignResult serial = bugsuite::runBugCase(c);
    DetectorConfig cfg;
    cfg.backend = "batched";
    CampaignResult batched = bugsuite::runBugCase(c, cfg);
    EXPECT_EQ(batched.fingerprint(), serial.fingerprint())
        << "batched findings diverge on bug case " << c.description;
    EXPECT_TRUE(bugsuite::detected(c, batched)) << batched.summary();
}

INSTANTIATE_TEST_SUITE_P(AllBugs, BatchBugSuiteTest,
                         ::testing::ValuesIn(allBugCases()),
                         [](const auto &info) {
                             std::string n = info.param.id.empty()
                                                 ? info.param.workload
                                                 : info.param.id;
                             for (char &ch : n) {
                                 if (isalnum(static_cast<unsigned char>(
                                         ch)) == 0)
                                     ch = '_';
                             }
                             return n;
                         });

TEST(BatchOracle, BatchedCampaignAgreesWithOracle)
{
    for (const std::string &name : {std::string("btree"),
                                    std::string("hashmap_tx")}) {
        auto wcfg = smallConfig(name);
        wcfg.initOps = 3;
        wcfg.testOps = 3;
        std::shared_ptr<workloads::Workload> w =
            workloads::makeWorkload(name, wcfg);
        pm::PmPool pool(xfdtest::defaultPoolBytes);
        oracle::DiffConfig cfg;
        cfg.detector.backend = "batched";
        oracle::DiffReport rep = oracle::runDifferentialCampaign(
            pool, [w](PmRuntime &rt) { w->pre(rt); },
            [w](PmRuntime &rt) { w->post(rt); }, cfg);
        EXPECT_TRUE(rep.clean()) << name;
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << name;
    }
}

/** Builds traces hands-on, like the failure-planner unit tests. */
struct BatchPlanTest : ::testing::Test
{
    BatchPlanTest() : pool(1 << 20), rt(pool, buf, Stage::PreFailure) {}

    BatchPlan
    planned(unsigned granularity = 1)
    {
        FailurePlan p = planFailurePoints(buf, DetectorConfig{});
        return planBatches(buf, p.points, granularity, false);
    }

    pm::PmPool pool;
    TraceBuffer buf;
    PmRuntime rt;
};

TEST_F(BatchPlanTest, EveryPointInExactlyOneGroup)
{
    rt.roiBegin();
    for (int i = 0; i < 4; i++) {
        // Same site, same value: identical frontier signature.
        rt.store(*pool.at<int>(0), 7);
        rt.persistBarrier(pool.at<int>(0), 4);
    }
    rt.roiEnd();
    for (const char *model : {"clwb", "eadr"}) {
        SCOPED_TRACE(model);
        DetectorConfig cfg;
        cfg.pmModel = model;
        FailurePlan p = planFailurePoints(buf, cfg);
        ASSERT_EQ(p.points.size(), 4u);
        BatchPlan bp = planBatches(buf, p.points, 1, cfg.eadrOn());
        EXPECT_EQ(bp.totalPoints(), p.points.size());

        std::vector<std::uint32_t> covered;
        for (const auto &g : bp.groups) {
            covered.push_back(g.rep);
            EXPECT_EQ(g.weight(), 1 + g.folded.size());
            std::uint32_t prev = g.rep;
            for (std::uint32_t f : g.folded) {
                EXPECT_GT(f, prev); // ascending, excludes rep
                prev = f;
                covered.push_back(f);
            }
        }
        std::sort(covered.begin(), covered.end());
        EXPECT_EQ(covered, p.points); // exactly once, nothing extra
    }
}

TEST_F(BatchPlanTest, IdenticalIterationsFoldToOneGroup)
{
    rt.roiBegin();
    for (int i = 0; i < 4; i++) {
        rt.store(*pool.at<int>(0), 7);
        rt.persistBarrier(pool.at<int>(0), 4);
    }
    rt.roiEnd();
    BatchPlan bp = planned();
    ASSERT_EQ(bp.groups.size(), 1u);
    EXPECT_EQ(bp.groups[0].folded.size(), 3u);
    EXPECT_EQ(bp.foldedPoints(), 3u);
}

TEST_F(BatchPlanTest, DistinctFrontiersStaySeparate)
{
    rt.roiBegin();
    rt.store(*pool.at<int>(0), 1);
    rt.persistBarrier(pool.at<int>(0), 4);
    rt.store(*pool.at<int>(64), 2); // different address and value
    rt.persistBarrier(pool.at<int>(64), 4);
    rt.roiEnd();
    BatchPlan bp = planned();
    EXPECT_EQ(bp.groups.size(), 2u);
    EXPECT_EQ(bp.foldedPoints(), 0u);
    ASSERT_EQ(bp.totalPoints(), 2u);
    EXPECT_LT(bp.groups[0].rep, bp.groups[1].rep);
}

TEST_F(BatchPlanTest, EmptyPointListPlansNothing)
{
    BatchPlan bp = planBatches(buf, {}, 1, false);
    EXPECT_TRUE(bp.groups.empty());
    EXPECT_EQ(bp.totalPoints(), 0u);
}

/** Records every progress tick a campaign fires. */
struct RecordingHooks final : core::CampaignHooks
{
    static_assert(core::CampaignHooks::version == 2);
    std::vector<ProgressUpdate> ticks;

    void
    onProgress(const ProgressUpdate &u) override
    {
        ticks.push_back(u);
    }
};

TEST(BatchProgress, WeightedTicksCoverFoldedMembers)
{
    core::CampaignObserver obsv;
    RecordingHooks hooks;
    obsv.hooks = &hooks;
    xfdtest::RunOptions opt = withBackend("batched");
    opt.observer = &obsv;
    CampaignResult res =
        xfdtest::runWorkload("btree", smallConfig("btree"), opt);

    ASSERT_FALSE(hooks.ticks.empty());
    // Zero anchor first, so rate estimation has a start-of-loop point.
    EXPECT_EQ(hooks.ticks.front().done, 0u);
    // Progress totals are pre-batching: representatives + folded.
    const std::size_t total = res.statistics().failurePoints +
                              res.statistics().lintPrunedPoints;
    EXPECT_EQ(hooks.ticks.front().total, total);
    std::size_t prev = 0;
    for (const ProgressUpdate &u : hooks.ticks) {
        EXPECT_GE(u.done, prev); // monotone
        EXPECT_LE(u.done, u.total);
        EXPECT_EQ(u.total, total);
        prev = u.done;
    }
    // A finished group reports its whole member count: the final tick
    // reaches the pre-batching total even though only representatives
    // executed.
    EXPECT_EQ(hooks.ticks.back().done, total);
    EXPECT_EQ(res.statistics().postExecutions,
              res.statistics().batchGroups);
    EXPECT_LT(res.statistics().postExecutions, total);
}

TEST(BatchRegression, RbtreeRedRootInsertFixupIsClean)
{
    // A red root, left by rbtree's elided removal fixup, once sent the
    // insert fixup to a null grandparent: the pre-failure stage threw
    // pm::BadPmAccess at these seeds, and at --init 3 --test 4 --post 1
    // the same crash surfaced as a recovery failure under the delta
    // backend but not under batched.
    for (std::uint64_t seed : {193u, 355u}) {
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = 5;
        wcfg.testOps = 20;
        wcfg.postOps = 1;
        wcfg.seed = seed;
        CampaignResult res =
            xfdtest::runWorkload("rbtree", wcfg, withBackend("delta"));
        EXPECT_FALSE(res.hasBugs()) << "seed " << seed << "\n"
                                    << res.summary();
    }
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 3;
    wcfg.testOps = 4;
    wcfg.postOps = 1;
    std::string delta =
        xfdtest::runWorkload("rbtree", wcfg, withBackend("delta"))
            .fingerprint();
    EXPECT_EQ(
        xfdtest::runWorkload("rbtree", wcfg, withBackend("batched"))
            .fingerprint(),
        delta);
}

TEST(SameValueElision, ElidedWritesDoNotChangeFindings)
{
    for (const std::string &name : {std::string("btree"),
                                    std::string("rbtree")}) {
        auto wcfg = smallConfig(name);
        CampaignResult plain = xfdtest::runWorkload(name, wcfg);
        xfdtest::RunOptions opt;
        opt.detector.elideSameValueWrites = true;
        CampaignResult elided = xfdtest::runWorkload(name, wcfg, opt);
        EXPECT_EQ(elided.fingerprint(), plain.fingerprint()) << name;
    }
}

/**
 * A redundant same-value store must behave exactly like the
 * non-elided run: the payload is dropped but the entry still dirties
 * its line (no redundant-writeback false positive on the following
 * flush) and still marks the location initialized.
 */
TEST(SameValueElision, RedundantStoreIsCountedAndStillConsistent)
{
    auto program = [](PmRuntime &rt) {
        // Persisted before the RoI so no failure point can observe
        // the slot with its very first write still in flight.
        rt.store(*rt.pool().at<int>(0), 5);
        rt.persistBarrier(rt.pool().at<int>(0), 4);
        rt.roiBegin();
        rt.store(*rt.pool().at<int>(0), 5); // same bytes: elided
        rt.persistBarrier(rt.pool().at<int>(0), 4);
        rt.store(*rt.pool().at<int>(64), 7);
        rt.persistBarrier(rt.pool().at<int>(64), 4);
        rt.roiEnd();
    };
    // Recovery reads nothing the RoI wrote: any such read would be a
    // legitimate race at the failure point before its barrier, in the
    // elided and non-elided runs alike.
    auto recovery = [](PmRuntime &rt) { (void)rt; };

    CampaignResult plain = xfdtest::runCampaign(program, recovery);
    xfdtest::RunOptions opt;
    opt.detector.elideSameValueWrites = true;
    CampaignResult res = xfdtest::runCampaign(program, recovery, opt);

    EXPECT_EQ(res.fingerprint(), plain.fingerprint());
    EXPECT_TRUE(xfdtest::hasNoFindings(res)) << res.summary();
    EXPECT_GE(res.statistics().sameValueElided, 1u);
    EXPECT_EQ(plain.statistics().sameValueElided, 0u);
}

} // namespace
