/**
 * @file
 * Determinism and conformance tier for the --crash-states detection
 * mode: a fixed sampler seed yields byte-identical finding
 * fingerprints serial vs. parallel and across both campaign backends
 * (the sampler stream is the equivalence group's id, not a function of
 * the schedule or of source paths); equivalence-class pruning actually
 * skips a substantial
 * share of the enumerated subsets; read-equivalent candidates (same
 * point, same bytes where recovery looked, same commit writes) reuse
 * an execution, and only those; and the oracle re-runs what the
 * detector pruned or skipped, agreeing with the candidate that ran in
 * its place (agreement 1.0).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

/**
 * A program whose every PM operation names source file @p file: four
 * iterations of six flushed writes to distinct cells and a fence.
 */
core::ProgramFn
sixCellProgram(const char *file)
{
    return [file](PmRuntime &rt) {
        trace::RoiScope roi(rt);
        for (std::uint64_t i = 0; i < 4; i++) {
            for (unsigned c = 0; c < 6; c++) {
                auto *cell = rt.pool().at<std::uint64_t>((i * 6 + c) * 64);
                rt.store(*cell, i + 1, {file, 10 + c, "program"});
                rt.clwb(cell, 8, {file, 20, "program"});
            }
            rt.sfence({file, 30, "program"});
        }
    };
}

TEST(CrashStatesDeterminism, SampledMasksIgnoreTheCheckoutPath)
{
    // One program under two checkout prefixes samples the same masks.
    // Recovery reads nothing, so every admitted partial mask is
    // skipped as read-equivalent, and crashReadEquivalent lists them
    // in order.
    auto admitted = [](const char *file) {
        RunOptions opt;
        opt.detector.crashStates = "sample:4";
        core::CampaignResult res = xfdtest::runCampaign(
            sixCellProgram(file), [](PmRuntime &) {}, opt);
        std::vector<std::pair<std::uint32_t, std::string>> out;
        for (const auto &r : res.stats.crashReadEquivalent)
            out.emplace_back(r.fp, r.mask.toHex());
        return out;
    };
    auto want = admitted("/a/pm_program.cc");
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(want, admitted("/a/much/longer/checkout/pm_program.cc"));
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
                  s.crashStatesExplored + s.crashStatesPruned +
                      s.crashStatesReadEquivalent);
        EXPECT_GE(s.crashStatesPruned * 100,
                  s.crashStatesEnumerated * 40)
            << s.crashStatesPruned << " of " << s.crashStatesEnumerated
            << " enumerated subsets pruned";
    }
}

TEST(CrashStatesReadEquivalence, AccountingIdentityOnEveryWorkload)
{
    // Every enumerated partial candidate is executed, pruned or
    // skipped as read-equivalent, and only executions run recovery.
    for (const std::string &name : workloads::workloadNames()) {
        for (const char *mode : {"sample:16", "exhaustive"}) {
            SCOPED_TRACE(name + " " + mode);
            RunOptions opt;
            opt.detector.crashStates = mode;
            core::CampaignResult res =
                xfdtest::runWorkload(name, smallConfig(name), opt);
            const core::CampaignStats &s = res.stats;
            EXPECT_GT(s.crashStatesEnumerated, 0u);
            EXPECT_EQ(s.crashStatesEnumerated,
                      s.crashStatesExplored + s.crashStatesPruned +
                          s.crashStatesReadEquivalent);
            EXPECT_EQ(s.postExecutions,
                      s.failurePoints + s.crashStatesExplored);
            EXPECT_EQ(s.crashReadEquivalent.size(),
                      s.crashStatesReadEquivalent);
            EXPECT_EQ(s.restore.deltaRestores, s.postExecutions);
        }
    }
}

/**
 * One failure point whose frontier holds two unflushed stores, to x
 * (bit 0) and y (bit 1); recovery reads only x. With @p y_commit, y
 * is a registered commit variable (the hashmap_atomic count-window
 * pattern: a commit write recovery need not read).
 */
core::CampaignResult
twoWritePoint(bool y_commit, core::CampaignObserver *obs)
{
    constexpr std::size_t x_off = 4096;
    constexpr std::size_t y_off = 8192;
    RunOptions opt;
    opt.detector.crashStates = "exhaustive";
    opt.observer = obs;
    return xfdtest::runCampaign(
        [=](PmRuntime &rt) {
            auto *x = rt.pool().at<std::uint64_t>(x_off);
            auto *y = rt.pool().at<std::uint64_t>(y_off);
            if (y_commit)
                rt.addCommitVar(*y);
            trace::RoiScope roi(rt);
            rt.store(*x, std::uint64_t{1});
            rt.store(*y, std::uint64_t{2});
            rt.sfence();
        },
        [=](PmRuntime &rt) {
            auto *x = rt.pool().at<std::uint64_t>(x_off);
            trace::RoiScope roi(rt);
            (void)rt.load(*x);
        },
        opt);
}

/** (rep mask, skipped mask) hex pairs of a campaign's skips. */
std::set<std::pair<std::string, std::string>>
skips(const core::CampaignResult &res)
{
    std::set<std::pair<std::string, std::string>> out;
    for (const auto &r : res.stats.crashReadEquivalent)
        out.emplace(r.repMask.toHex(), r.mask.toHex());
    return out;
}

TEST(CrashStatesReadEquivalence, UnreadWriteReusesReadWriteExecutes)
{
    core::CampaignObserver obs;
    core::CampaignResult res = twoWritePoint(false, &obs);
    const core::CampaignStats &s = res.stats;
    ASSERT_EQ(s.failurePoints, 1u);
    // Partial masks 1 (x only), 2 (y only) and 0. Mask 1 agrees with
    // the anchor (3) on x, the one bit its recovery read. Masks 0 and
    // 2 differ from it on x: the first of them executes, and the
    // other agrees with it on x.
    EXPECT_EQ(s.crashStatesEnumerated, 3u);
    EXPECT_EQ(s.crashStatesExplored, 1u);
    EXPECT_EQ(s.crashStatesReadEquivalent, 2u);
    EXPECT_EQ(s.postExecutions, 2u);
    std::set<std::pair<std::string, std::string>> got = skips(res);
    EXPECT_TRUE(got.count({"3", "1"}));
    EXPECT_TRUE(got.count({"0", "2"}) || got.count({"2", "0"}));

    // The unpersisted x races on every candidate: the skipped ones
    // report it too, under their own persisted mask, exactly as if
    // they had executed.
    ASSERT_EQ(res.bugs.size(), 1u) << res.summary();
    EXPECT_EQ(res.bugs[0].type, core::BugType::CrossFailureRace);
    EXPECT_EQ(res.bugs[0].occurrences, 4u);
    std::multiset<std::string> masks;
    for (const auto &ev : obs.timeline.events()) {
        if (std::string(ev.cat) != "finding")
            continue;
        for (const auto &[k, v] : ev.args) {
            if (k == "persisted_mask")
                masks.insert(v);
        }
    }
    EXPECT_EQ(masks, (std::multiset<std::string>{"0", "1", "2", "3"}));
}

TEST(CrashStatesReadEquivalence, CommitVariableWriteExecutes)
{
    // The same point with y a commit variable: dropping y decides
    // whether commit-window verdicts are sound, so no mask may stand
    // in for one that differs from it on y, read or not.
    core::CampaignResult res = twoWritePoint(true, nullptr);
    const core::CampaignStats &s = res.stats;
    ASSERT_EQ(s.failurePoints, 1u);
    EXPECT_EQ(s.crashStatesEnumerated, 3u);
    EXPECT_EQ(s.crashStatesExplored, 3u);
    EXPECT_EQ(s.crashStatesReadEquivalent, 0u);
    EXPECT_EQ(s.postExecutions, 4u);
}

TEST(CrashStatesReadEquivalence, ThreadsGiveIdenticalFindings)
{
    auto report = [](const core::CampaignResult &res) {
        std::ostringstream os;
        core::writeReportJson(res, os);
        std::string doc = os.str();
        return doc.substr(doc.find("\"findings\""));
    };
    std::vector<std::pair<std::string, workloads::WorkloadConfig>> runs;
    for (const std::string name : {"btree", "hashmap_tx", "ringlog"})
        runs.emplace_back(name, smallConfig(name));
    for (const auto &c : bugsuite::bugCasesFor("ringlog")) {
        if (c.crashStates.empty())
            continue;
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = c.initOps;
        wcfg.testOps = c.testOps;
        wcfg.postOps = c.postOps;
        wcfg.bugs.enable(c.id);
        runs.emplace_back("ringlog", wcfg);
    }
    for (const auto &[name, wcfg] : runs) {
        SCOPED_TRACE(name);
        RunOptions opt;
        opt.detector.crashStates = "sample:16";
        core::CampaignResult serial =
            xfdtest::runWorkload(name, wcfg, opt);
        opt.threads = 4;
        core::CampaignResult threaded =
            xfdtest::runWorkload(name, wcfg, opt);
        EXPECT_EQ(serial.fingerprint(), threaded.fingerprint());
        EXPECT_EQ(report(serial), report(threaded));
        EXPECT_EQ(serial.stats.crashStatesEnumerated,
                  threaded.stats.crashStatesEnumerated);
    }
}

TEST(CrashStatesReadEquivalence, CountsRepeatPerSchedule)
{
    // Serial repeats reproduce every count. Threaded runs agree on the
    // findings and on the counts the schedule cannot move: which
    // point of a group runs a (group, mask) is first-come, and only
    // that point can skip it as read-equivalent, so the executed /
    // read-equivalent split and everything that follows it may vary.
    auto counts = [](const core::CampaignResult &r, bool all) {
        const core::CampaignStats &s = r.stats;
        std::vector<std::size_t> v{
            s.failurePoints, s.preTraceEntries, s.crashStatesEnumerated,
            s.crashStatesPruned,
            s.crashStatesExplored + s.crashStatesReadEquivalent};
        for (obs::Phase p : {obs::Phase::TraceCapture, obs::Phase::Plan,
                             obs::Phase::LintPrune})
            v.push_back(s.phases.count[static_cast<std::size_t>(p)]);
        if (all) {
            v.insert(v.end(),
                     {s.crashStatesExplored, s.crashStatesReadEquivalent,
                      s.postExecutions, s.postTraceEntries,
                      s.checksPerformed, s.checksSkipped,
                      s.restore.deltaRestores, s.restore.pagesRestored});
            for (obs::Phase p : {obs::Phase::Restore,
                                 obs::Phase::RecoveryExec,
                                 obs::Phase::Classify})
                v.push_back(s.phases.count[static_cast<std::size_t>(p)]);
        }
        return v;
    };
    for (const std::string name : {"btree", "rbtree", "ringlog"}) {
        SCOPED_TRACE(name);
        RunOptions opt;
        opt.detector.crashStates = "sample:16";
        core::CampaignResult a =
            xfdtest::runWorkload(name, smallConfig(name), opt);
        core::CampaignResult b =
            xfdtest::runWorkload(name, smallConfig(name), opt);
        EXPECT_EQ(counts(a, true), counts(b, true));
        opt.threads = 4;
        core::CampaignResult c =
            xfdtest::runWorkload(name, smallConfig(name), opt);
        core::CampaignResult d =
            xfdtest::runWorkload(name, smallConfig(name), opt);
        EXPECT_EQ(c.fingerprint(), d.fingerprint());
        EXPECT_EQ(counts(a, false), counts(c, false));
        EXPECT_EQ(counts(c, false), counts(d, false));
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
    EXPECT_GT(rep.readEquivalentRechecked, 0u) << rep.summary();
    EXPECT_EQ(rep.readEquivalentDisagreements, 0u) << rep.summary();
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
