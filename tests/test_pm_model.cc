/**
 * @file
 * Cross-model conformance matrix for the persistency-model parameter
 * (--pm-model): the default clwb model (explicit writeback + fence)
 * against the flush-free eADR/CXL model, where the persistence domain
 * covers the caches and every store is durable the moment it retires.
 *
 * Pinned contracts:
 *  - parse-time validation of the flag and the config accessors;
 *  - every workload stays finding-free under eADR, with crash-state
 *    oracle agreement 1.0 — the oracle mirrors the model's semantics;
 *  - the full bug suite keeps per-failure-point oracle agreement
 *    under eADR, whatever each case now produces (two cases keep a
 *    known batched fold gap, pinned below);
 *  - under --backend=batched the oracle re-checks every point the
 *    detector folded;
 *  - pure flush-ordering defects (the wal.* mis-ordered-writeback
 *    family) vanish under eADR, while semantic, validation and
 *    batch-atomicity defects persist — the model changes durability,
 *    not recovery logic;
 *  - serial, parallel and both backends produce byte-identical
 *    finding fingerprints under both models, and campaigns stay
 *    deterministic across runs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "core/config_flags.hh"
#include "harness.hh"
#include "oracle/diff.hh"
#include "pmlib/objpool.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using core::BugType;
using core::DetectorConfig;
using core::PersistencyModel;
using trace::PmRuntime;

/** Detector config with --pm-model applied. */
DetectorConfig
modelConfig(const std::string &model)
{
    DetectorConfig cfg;
    cfg.pmModel = model;
    return cfg;
}

/** Run one differential campaign over a stock workload. */
oracle::DiffReport
diffWorkload(const std::string &name, workloads::WorkloadConfig wcfg,
             oracle::DiffConfig cfg)
{
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload(name, std::move(wcfg));
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    return oracle::runDifferentialCampaign(
        pool, [w](PmRuntime &rt) { w->pre(rt); },
        [w](PmRuntime &rt) { w->post(rt); }, cfg);
}

/** Run one differential campaign over a registered case at its size. */
oracle::DiffReport
diffBugCase(const bugsuite::BugCase &c, const oracle::DiffConfig &cfg)
{
    if (c.workload == "pool_create") {
        pm::PmPool pool(xfdtest::defaultPoolBytes);
        return oracle::runDifferentialCampaign(
            pool,
            [](PmRuntime &rt) {
                trace::RoiScope roi(rt);
                pmlib::ObjPool::create(rt, "bug4", 64);
            },
            [](PmRuntime &rt) {
                trace::RoiScope roi(rt);
                pmlib::ObjPool::open(rt, "bug4");
            },
            cfg);
    }
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = c.initOps;
    wcfg.testOps = c.testOps;
    wcfg.postOps = c.postOps;
    wcfg.roiFromStart = c.roiFromStart;
    if (c.workload == "memcached")
        wcfg.memcachedCapacity = 8;
    if (!c.id.empty())
        wcfg.bugs.enable(c.id);
    return diffWorkload(c.workload, std::move(wcfg), cfg);
}

/** Small-scale config: exhaustive oracle tier stays fast. */
workloads::WorkloadConfig
smallConfig(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 3;
    wcfg.testOps = 3;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    return wcfg;
}

/** The registered case for @p id (must exist). */
bugsuite::BugCase
caseById(const std::string &id)
{
    for (const auto &c : bugsuite::allBugCases()) {
        if (c.id == id)
            return c;
    }
    ADD_FAILURE() << "no registered bug case " << id;
    return {};
}

// ------------------------------------------------------------------
// Flag parsing and config accessors
// ------------------------------------------------------------------

TEST(PmModelConfig, DefaultsToClwb)
{
    DetectorConfig cfg;
    EXPECT_EQ(cfg.pmModel, "clwb");
    EXPECT_EQ(cfg.pmModelEnum(), PersistencyModel::Clwb);
    EXPECT_FALSE(cfg.eadrOn());
}

TEST(PmModelConfig, ParseAcceptsBothModelsOnly)
{
    PersistencyModel m = PersistencyModel::Clwb;
    EXPECT_TRUE(DetectorConfig::parsePmModel("clwb", m));
    EXPECT_EQ(m, PersistencyModel::Clwb);
    EXPECT_TRUE(DetectorConfig::parsePmModel("eadr", m));
    EXPECT_EQ(m, PersistencyModel::Eadr);
    // An unset value degrades to the default model.
    EXPECT_TRUE(DetectorConfig::parsePmModel("", m));
    EXPECT_EQ(m, PersistencyModel::Clwb);
    EXPECT_FALSE(DetectorConfig::parsePmModel("eADR", m));
    EXPECT_FALSE(DetectorConfig::parsePmModel("cxl", m));
}

TEST(PmModelConfig, FlagAppliesValidatedValue)
{
    const core::ConfigFlagDesc *d = core::findDetectorFlag("--pm-model");
    ASSERT_NE(d, nullptr);
    DetectorConfig cfg;
    EXPECT_EQ(core::applyDetectorFlag(*d, cfg, "eadr"), "");
    EXPECT_EQ(cfg.pmModel, "eadr");
    EXPECT_EQ(cfg.pmModelEnum(), PersistencyModel::Eadr);
    EXPECT_TRUE(cfg.eadrOn());
}

// ------------------------------------------------------------------
// eADR conformance: workloads and bug suite
// ------------------------------------------------------------------

/**
 * The oracle agrees at every point, and under --backend=batched it
 * re-checks every point the detector folded into a representative.
 */
void
expectOracleAgreement(const oracle::DiffReport &rep)
{
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << rep.summary();
    EXPECT_EQ(rep.prunedRechecked, rep.detector.stats.lintPrunedPoints)
        << rep.summary();
}

TEST(PmModelEadr, AllWorkloadsCleanWithOracleAgreement)
{
    for (const char *backend : {"delta", "batched"}) {
        for (const std::string &name : workloads::workloadNames()) {
            SCOPED_TRACE(name + " " + backend);
            oracle::DiffConfig cfg;
            cfg.detector = modelConfig("eadr");
            cfg.detector.backend = backend;
            oracle::DiffReport rep =
                diffWorkload(name, smallConfig(name), cfg);
            expectOracleAgreement(rep);
            EXPECT_GT(rep.failurePoints, 0u);
            EXPECT_TRUE(xfdtest::hasNoFindings(rep.detector));
        }
    }
}

/**
 * Registry cases where a batched fold is known to drop one finding
 * class at some member: the representative's recovery follows a null
 * persistent pointer ("wild PM access at 0", a recovery failure) that
 * the member's recovery never reaches. The frontier signature does
 * not see the pointer values recovery follows. The member's findings
 * are a subset of the representative's, so no finding is lost, but the
 * oracle's per-point comparison is exact. ctree.race.link_no_add
 * shows the same gap under clwb.
 */
const std::set<std::string> foldRecoveryFailureGap = {
    "ctree.race.link_no_add",
    "hashmap_tx.race.rebuild_bucketsptr_no_add",
};

/**
 * The known fold gap and nothing else: every disagreement is a folded
 * point whose representative's classes are the member's plus a
 * recovery failure the member does not have.
 */
void
expectOnlyFoldRecoveryFailureGap(const oracle::DiffReport &rep)
{
    EXPECT_EQ(rep.prunedRechecked, rep.detector.stats.lintPrunedPoints)
        << rep.summary();
    EXPECT_EQ(rep.extrasUnexplained, 0u) << rep.summary();
    EXPECT_EQ(rep.partialDisagreements, 0u) << rep.summary();
    EXPECT_EQ(rep.crashPrunedDisagreements, 0u) << rep.summary();
    EXPECT_GT(rep.disagreements, 0u)
        << "the fold gap closed: drop the case from the list";
    for (const oracle::FpAgreement &a : rep.perFp) {
        if (a.agree)
            continue;
        SCOPED_TRACE(a.fp);
        std::set<BugType> rep_classes = a.oracleClasses;
        rep_classes.insert(BugType::RecoveryFailure);
        EXPECT_TRUE(a.prunedRecheck);
        EXPECT_EQ(a.oracleClasses.count(BugType::RecoveryFailure), 0u);
        EXPECT_EQ(a.detectorClasses, rep_classes);
    }
}

TEST(PmModelEadr, FullBugsuiteKeepsOracleAgreement)
{
    // Whatever each planted defect produces under the flush-free
    // model (many vanish, see below), detector and oracle must agree
    // on it at every failure point, under either backend.
    for (const std::string backend : {"delta", "batched"}) {
        for (const bugsuite::BugCase &c : bugsuite::allBugCases()) {
            SCOPED_TRACE((c.id.empty() ? c.workload : c.id) + " " +
                         backend);
            oracle::DiffConfig cfg;
            cfg.detector = modelConfig("eadr");
            cfg.detector.backend = backend;
            oracle::DiffReport rep = diffBugCase(c, cfg);
            if (backend == "batched" && foldRecoveryFailureGap.count(c.id))
                expectOnlyFoldRecoveryFailureGap(rep);
            else
                expectOracleAgreement(rep);
        }
    }
}

TEST(PmModelEadr, FlushOrderingBugsVanish)
{
    // Each of these defects mis-orders writeback against the commit
    // point. With the persistence domain covering the caches there is
    // no writeback left to mis-order: every store is durable when it
    // retires, so the planted window closes and the campaign is
    // clean.
    const char *const ids[] = {
        "wal.race.commit_before_payload",
        "wal.race.truncate_before_apply",
        "wal.race.unflushed_log_head",
    };
    for (const char *id : ids) {
        SCOPED_TRACE(id);
        bugsuite::BugCase c = caseById(id);
        auto res = bugsuite::runBugCase(c, modelConfig("eadr"));
        EXPECT_TRUE(xfdtest::hasNoFindings(res)) << res.summary();
        EXPECT_GT(res.stats.failurePoints, 0u);
    }
}

TEST(PmModelEadr, SemanticAndValidationBugsPersist)
{
    // Defects eADR does not mask: reading the dead checkpoint
    // descriptor is wrong under any durability model; a replay that
    // skips CRC validation still consumes never-written log cells;
    // and the eager per-record seal publishes a partially staged
    // batch — instantly durable under eADR — so recovery can reach
    // pages that were allocated but never written. Only the last
    // one's *flush* aspect vanishes; its atomicity aspect stays.
    for (const char *id : {"wal.sem.replay_past_checkpoint",
                           "wal.recovery.missing_crc_check",
                           "wal.race.torn_record_accepted"}) {
        SCOPED_TRACE(id);
        bugsuite::BugCase c = caseById(id);
        auto res = bugsuite::runBugCase(c, modelConfig("eadr"));
        EXPECT_TRUE(bugsuite::detected(c, res)) << res.summary();
    }
}

// ------------------------------------------------------------------
// Cross-backend / cross-run identity under both models
// ------------------------------------------------------------------

TEST(PmModel, BackendsAndThreadsAgreeUnderBothModels)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 6;
    wcfg.postOps = 3;
    for (const char *model : {"clwb", "eadr"}) {
        for (const char *workload : {"btree", "wal_btree"}) {
            SCOPED_TRACE(testing::Message() << workload << " under "
                                            << model);
            auto run = [&](const char *backend, unsigned threads) {
                xfdtest::RunOptions opt;
                opt.detector = modelConfig(model);
                opt.detector.backend = backend;
                opt.threads = threads;
                return xfdtest::fingerprint(
                    xfdtest::runWorkload(workload, wcfg, opt));
            };
            auto serial = run("delta", 1);
            EXPECT_EQ(run("batched", 1), serial);
            EXPECT_EQ(run("delta", 3), serial);
        }
    }
}

TEST(PmModelEadr, CampaignIsDeterministicAcrossRuns)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 6;
    wcfg.postOps = 3;
    xfdtest::RunOptions opt;
    opt.detector = modelConfig("eadr");
    auto a = xfdtest::runWorkload("wal_btree", wcfg, opt);
    auto b = xfdtest::runWorkload("wal_btree", wcfg, opt);
    EXPECT_EQ(xfdtest::fingerprint(a), xfdtest::fingerprint(b));
    EXPECT_EQ(a.stats.failurePoints, b.stats.failurePoints);
}

TEST(PmModelEadr, PlansNoMoreFailurePointsThanClwb)
{
    // eADR drops the flush-driven fence points; the plan can only
    // shrink, never grow, and must not collapse to nothing.
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 6;
    wcfg.postOps = 3;
    xfdtest::RunOptions clwb, eadr;
    eadr.detector = modelConfig("eadr");
    auto resClwb = xfdtest::runWorkload("btree", wcfg, clwb);
    auto resEadr = xfdtest::runWorkload("btree", wcfg, eadr);
    EXPECT_GT(resEadr.stats.failurePoints, 0u);
    EXPECT_LE(resEadr.stats.failurePoints, resClwb.stats.failurePoints);
}

} // namespace
