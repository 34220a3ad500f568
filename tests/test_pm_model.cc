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
 *    under eADR, whatever each case now produces;
 *  - pure flush-ordering defects (the wal.* mis-ordered-writeback
 *    family) vanish under eADR, while semantic, validation and
 *    batch-atomicity defects persist — the model changes durability,
 *    not recovery logic;
 *  - serial, parallel and all three backends produce byte-identical
 *    finding fingerprints under both models, and campaigns stay
 *    deterministic across runs.
 */

#include <gtest/gtest.h>

#include <memory>
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

TEST(PmModelEadr, AllWorkloadsCleanWithOracleAgreement)
{
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        oracle::DiffConfig cfg;
        cfg.detector = modelConfig("eadr");
        oracle::DiffReport rep =
            diffWorkload(name, smallConfig(name), cfg);
        EXPECT_TRUE(rep.clean()) << rep.summary();
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << rep.summary();
        EXPECT_GT(rep.failurePoints, 0u);
        EXPECT_TRUE(xfdtest::hasNoFindings(rep.detector));
    }
}

TEST(PmModelEadr, FullBugsuiteKeepsOracleAgreement)
{
    // Whatever each planted defect produces under the flush-free
    // model (many vanish, see below), detector and oracle must agree
    // on it at every failure point.
    for (const bugsuite::BugCase &c : bugsuite::allBugCases()) {
        SCOPED_TRACE(c.id.empty() ? c.workload : c.id);
        oracle::DiffConfig cfg;
        cfg.detector = modelConfig("eadr");
        oracle::DiffReport rep;
        if (c.workload == "pool_create") {
            pm::PmPool pool(xfdtest::defaultPoolBytes);
            rep = oracle::runDifferentialCampaign(
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
        } else {
            workloads::WorkloadConfig wcfg;
            wcfg.initOps = c.initOps;
            wcfg.testOps = c.testOps;
            wcfg.postOps = c.postOps;
            wcfg.roiFromStart = c.roiFromStart;
            if (c.workload == "memcached")
                wcfg.memcachedCapacity = 8;
            if (!c.id.empty())
                wcfg.bugs.enable(c.id);
            rep = diffWorkload(c.workload, std::move(wcfg), cfg);
        }
        EXPECT_TRUE(rep.clean()) << rep.summary();
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << rep.summary();
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
            auto serial = run("full", 1);
            EXPECT_EQ(run("delta", 1), serial);
            EXPECT_EQ(run("batched", 1), serial);
            EXPECT_EQ(run("full", 3), serial);
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
