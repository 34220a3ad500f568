/**
 * @file
 * Determinism and conformance tier for the --crash-states detection
 * mode: a fixed sampler seed yields byte-identical finding
 * fingerprints serial vs. parallel and across both campaign backends
 * (the sampler stream is keyed by equivalence class, not by
 * schedule); equivalence-class pruning actually skips a substantial
 * share of the enumerated subsets; and the oracle re-runs what the
 * detector pruned, agreeing with the kept representative on every
 * candidate (agreement 1.0).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bugsuite/registry.hh"
#include "harness.hh"
#include "oracle/diff.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;
using xfdtest::RunOptions;

workloads::WorkloadConfig
smallConfig(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 8;
    wcfg.postOps = 3;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    return wcfg;
}

core::CampaignResult
runExplored(const std::string &name, const std::string &backend,
            unsigned threads)
{
    RunOptions opt;
    opt.detector.crashStates = "sample:16";
    opt.detector.backend = backend;
    opt.threads = threads;
    return xfdtest::runWorkload(name, smallConfig(name), opt);
}

TEST(CrashStatesDeterminism, FingerprintStableAcrossSchedules)
{
    for (const std::string name :
         {"btree", "hashmap_atomic", "ringlog"}) {
        SCOPED_TRACE(name);
        core::CampaignResult serial = runExplored(name, "delta", 1);
        auto want = xfdtest::fingerprint(serial);
        EXPECT_EQ(want, xfdtest::fingerprint(
                            runExplored(name, "delta", 4)));
        EXPECT_EQ(want, xfdtest::fingerprint(
                            runExplored(name, "batched", 1)));
        EXPECT_EQ(want, xfdtest::fingerprint(
                            runExplored(name, "batched", 4)));
    }
}

TEST(CrashStatesDeterminism, PlantedBugFingerprintStable)
{
    // The interesting schedules are the ones that actually carry
    // partial-image findings.
    const auto cases = bugsuite::bugCasesFor("ringlog");
    ASSERT_GE(cases.size(), 1u);
    const auto &c = cases.front();
    auto run = [&](const char *backend, unsigned threads) {
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.bugs.enable(c.id);
        RunOptions opt;
        opt.detector.crashStates = c.crashStates;
        opt.detector.backend = backend;
        opt.threads = threads;
        return xfdtest::fingerprint(
            xfdtest::runWorkload(c.workload, wcfg, opt));
    };
    auto want = run("delta", 1);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(want, run("delta", 4));
    EXPECT_EQ(want, run("batched", 1));
}

TEST(CrashStatesPruning, EquivalenceClassesSkipSubstantialShare)
{
    // Workloads whose ordering points repeat with identical frontier
    // signatures (loop bodies over the same fields) must dedupe hard:
    // at least 40% of the enumerated subsets fold into an already-run
    // representative.
    for (const std::string name : {"hashmap_atomic", "ctree"}) {
        SCOPED_TRACE(name);
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = 10;
        wcfg.testOps = 12;
        wcfg.postOps = 6;
        RunOptions opt;
        opt.detector.crashStates = "sample:64";
        core::CampaignResult res =
            xfdtest::runWorkload(name, wcfg, opt);
        const core::CampaignStats &s = res.stats;
        ASSERT_GT(s.crashStatesEnumerated, 0u);
        EXPECT_EQ(s.crashStatesEnumerated,
                  s.crashStatesExplored + s.crashStatesPruned);
        EXPECT_GE(s.crashStatesPruned * 100,
                  s.crashStatesEnumerated * 40)
            << s.crashStatesPruned << " of " << s.crashStatesEnumerated
            << " enumerated subsets pruned";
    }
}

TEST(CrashStatesOracle, PrunedCandidatesRecheckedAtFullAgreement)
{
    // The oracle mirrors the detector's enumeration stream, runs
    // every candidate the detector pruned, and compares its verdict
    // with the kept representative's: agreement must be exact.
    std::shared_ptr<workloads::Workload> w = workloads::makeWorkload(
        "hashmap_atomic", smallConfig("hashmap_atomic"));
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    oracle::DiffConfig cfg;
    cfg.detector.crashStates = "sample:16";
    cfg.sampleCount = 16;
    oracle::DiffReport rep = oracle::runDifferentialCampaign(
        pool, [w](PmRuntime &rt) { w->pre(rt); },
        [w](PmRuntime &rt) { w->post(rt); }, cfg);

    EXPECT_GT(rep.crashPrunedRechecked, 0u) << rep.summary();
    EXPECT_EQ(rep.crashPrunedDisagreements, 0u) << rep.summary();
    EXPECT_EQ(rep.partialDisagreements, 0u) << rep.summary();
    EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0);
    EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(CrashStatesOracle, PartialFindingsConfirmedAtSameMask)
{
    // Every detector finding first exposed on a partial image must be
    // reproduced by the oracle's candidate at the identical mask.
    const auto cases = bugsuite::bugCasesFor("ringlog");
    for (const auto &c : cases) {
        SCOPED_TRACE(c.id);
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.bugs.enable(c.id);
        std::shared_ptr<workloads::Workload> w =
            workloads::makeWorkload("ringlog", std::move(wcfg));
        pm::PmPool pool(xfdtest::defaultPoolBytes);
        oracle::DiffConfig cfg;
        cfg.detector.crashStates = c.crashStates;
        oracle::DiffReport rep = oracle::runDifferentialCampaign(
            pool, [w](PmRuntime &rt) { w->pre(rt); },
            [w](PmRuntime &rt) { w->post(rt); }, cfg);

        EXPECT_GT(rep.detector.partialImageFindings(), 0u)
            << rep.detector.summary();
        EXPECT_GT(rep.partialChecked, 0u) << rep.summary();
        EXPECT_EQ(rep.partialDisagreements, 0u) << rep.summary();
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0);
        EXPECT_TRUE(rep.clean()) << rep.summary();
    }
}

} // namespace
