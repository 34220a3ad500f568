/**
 * @file
 * Differential conformance tests: the crash-state oracle (src/oracle)
 * against the FSM-based detector, per failure point. The contract is
 * finding-class equivalence on the all-updates anchor candidate over
 * every workload and every bug-suite entry, attributed-only extras
 * from partial candidates, deterministic sampling, and no artifacts
 * on clean runs. Plus unit coverage for the SubsetMask identity the
 * disagreement artifacts carry and the --oracle mode parser.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bugsuite/registry.hh"
#include "harness.hh"
#include "mutate/campaign.hh"
#include "oracle/diff.hh"
#include "pmlib/objpool.hh"
#include "testutil_json.hh"
#include "trace/subset.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;
using trace::SubsetMask;

/** Run one differential campaign over a stock workload. */
oracle::DiffReport
diffWorkload(const std::string &name, workloads::WorkloadConfig wcfg,
             oracle::DiffConfig cfg = {})
{
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload(name, std::move(wcfg));
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    return oracle::runDifferentialCampaign(
        pool, [w](PmRuntime &rt) { w->pre(rt); },
        [w](PmRuntime &rt) { w->post(rt); }, cfg);
}

/** Small-scale config: exhaustive tier stays fast. */
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

TEST(SubsetMask, SetTestCountAll)
{
    SubsetMask m(70); // cross a word boundary
    EXPECT_EQ(m.size(), 70u);
    EXPECT_TRUE(m.none());
    EXPECT_FALSE(m.all());
    m.set(0);
    m.set(63);
    m.set(69);
    EXPECT_EQ(m.count(), 3u);
    EXPECT_TRUE(m.test(63));
    EXPECT_FALSE(m.test(64));
    m.set(63, false);
    EXPECT_EQ(m.count(), 2u);
    m.setAll();
    EXPECT_TRUE(m.all());
    EXPECT_EQ(m.count(), 70u);
}

TEST(SubsetMask, HexRoundTripIsStable)
{
    for (std::size_t bits : {0u, 1u, 4u, 7u, 64u, 65u, 130u}) {
        SubsetMask m(bits);
        for (std::size_t i = 0; i < bits; i += 3)
            m.set(i);
        std::string hex = m.toHex();
        EXPECT_EQ(hex.size(), (bits + 3) / 4);
        SubsetMask back;
        ASSERT_TRUE(SubsetMask::fromHex(hex, bits, back)) << hex;
        EXPECT_EQ(back, m);
    }
}

TEST(SubsetMask, FromHexRejectsMalformedSpellings)
{
    SubsetMask out;
    EXPECT_FALSE(SubsetMask::fromHex("ff", 4, out)); // too many digits
    EXPECT_FALSE(SubsetMask::fromHex("f", 8, out));  // too few
    EXPECT_FALSE(SubsetMask::fromHex("g", 4, out));  // not hex
    EXPECT_FALSE(SubsetMask::fromHex("8", 3, out));  // bit past size
    EXPECT_TRUE(SubsetMask::fromHex("", 0, out));
    EXPECT_EQ(out.size(), 0u);
}

TEST(SubsetMask, OrdersAsSetKey)
{
    SubsetMask a(8), b(8);
    b.set(0);
    EXPECT_TRUE(a < b || b < a);
    EXPECT_FALSE(a < a);
    std::set<SubsetMask> s{a, b, a};
    EXPECT_EQ(s.size(), 2u);
}

TEST(OracleMode, ParseSpecs)
{
    bool ex = false;
    std::size_t n = 0;
    std::string err;
    EXPECT_TRUE(oracle::parseOracleMode("exhaustive", ex, n, &err));
    EXPECT_TRUE(ex);
    EXPECT_TRUE(oracle::parseOracleMode("sample", ex, n, &err));
    EXPECT_FALSE(ex);
    EXPECT_TRUE(oracle::parseOracleMode("sample:128", ex, n, &err));
    EXPECT_FALSE(ex);
    EXPECT_EQ(n, 128u);
    EXPECT_FALSE(oracle::parseOracleMode("sample:0", ex, n, &err));
    EXPECT_FALSE(oracle::parseOracleMode("sample:x", ex, n, &err));
    EXPECT_FALSE(oracle::parseOracleMode("bogus", ex, n, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(OracleMode, NonCellGranularityIsAnError)
{
    trace::TraceBuffer pre;
    pm::PmImage initial(defaultPoolBase, std::vector<std::uint8_t>(4096));
    oracle::OracleConfig ocfg;
    ocfg.detector.granularity = 3;
    try {
        oracle::CrashStateOracle orc(pre, initial, ocfg);
        FAIL() << "granularity 3 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "oracle granularity must be 1, 2, 4 or 8");
    }
}

TEST(OracleDiff, AllWorkloadsAgreeAtExhaustiveTier)
{
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        oracle::DiffReport rep = diffWorkload(name, smallConfig(name));
        EXPECT_TRUE(rep.clean()) << rep.summary();
        EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << rep.summary();
        EXPECT_GT(rep.failurePoints, 0u);
        EXPECT_GT(rep.statesEnumerated, 0u);
        EXPECT_GE(rep.candidatesRun, rep.failurePoints);
        EXPECT_TRUE(rep.artifacts.empty());
    }
}

TEST(OracleDiff, FullBugsuiteAgreesPerFailurePoint)
{
    for (const bugsuite::BugCase &c : bugsuite::allBugCases()) {
        SCOPED_TRACE(c.id.empty() ? c.workload : c.id);
        oracle::DiffConfig cfg;
        // Cases that live only on partial crash images declare the
        // exploration tier they need (mirrors runBugCase).
        cfg.detector.crashStates = c.crashStates;
        oracle::DiffReport rep;
        if (c.workload == "pool_create") {
            // §6.3.2 bug 4 lives in the library, not in a workload.
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
        // The planted bug must still be caught by the detector side —
        // the oracle comparison must not perturb detection.
        EXPECT_TRUE(bugsuite::detected(c, rep.detector))
            << rep.detector.summary();
    }
}

TEST(OracleDiff, SamplingIsDeterministicPerSeed)
{
    workloads::WorkloadConfig wcfg = smallConfig("ctree");
    wcfg.bugs.enable("ctree.race.link_no_add");

    oracle::DiffConfig cfg;
    cfg.exhaustive = false;
    cfg.sampleCount = 16;
    cfg.seed = 7;
    oracle::DiffReport a = diffWorkload("ctree", wcfg, cfg);
    oracle::DiffReport b = diffWorkload("ctree", wcfg, cfg);

    ASSERT_EQ(a.perFp.size(), b.perFp.size());
    for (std::size_t i = 0; i < a.perFp.size(); i++) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.perFp[i].fp, b.perFp[i].fp);
        EXPECT_EQ(a.perFp[i].frontier, b.perFp[i].frontier);
        EXPECT_EQ(a.perFp[i].candidates, b.perFp[i].candidates);
        EXPECT_EQ(a.perFp[i].sampled, b.perFp[i].sampled);
        EXPECT_EQ(a.perFp[i].oracleClasses, b.perFp[i].oracleClasses);
        EXPECT_EQ(a.perFp[i].extras, b.perFp[i].extras);
    }
    EXPECT_EQ(a.statesEnumerated, b.statesEnumerated);
    EXPECT_EQ(a.subsetsSampled, b.subsetsSampled);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_TRUE(a.clean()) << a.summary();

    // A different seed may pick different subsets, but conformance on
    // the anchor candidate must hold regardless.
    cfg.seed = 1234;
    oracle::DiffReport c = diffWorkload("ctree", wcfg, cfg);
    EXPECT_TRUE(c.clean()) << c.summary();
    EXPECT_DOUBLE_EQ(c.agreementRate(), 1.0);
}

TEST(OracleDiff, CleanRunWritesNoArtifacts)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "xfd-oracle-artifacts-test";
    fs::remove_all(dir);

    oracle::DiffConfig cfg;
    cfg.artifactDir = dir.string();
    oracle::DiffReport rep =
        diffWorkload("btree", smallConfig("btree"), cfg);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_TRUE(rep.artifacts.empty());
    // No disagreement: the harness must not even create the directory.
    EXPECT_FALSE(fs::exists(dir));
}

TEST(OracleDiff, StatsDocumentCarriesTheOracleOnce)
{
    core::CampaignObserver obs;
    oracle::DiffConfig cfg;
    cfg.observer = &obs;
    oracle::DiffReport rep =
        diffWorkload("btree", smallConfig("btree"), cfg);
    ASSERT_TRUE(rep.clean()) << rep.summary();

    core::JsonSection sec = oracle::oracleJsonSection(rep);
    EXPECT_EQ(sec.key, "oracle");
    std::ostringstream os;
    core::writeStatsJson(rep.detector, nullptr, os, {sec});
    xfdtest::Json doc = xfdtest::parseJson(os.str());
    const xfdtest::Json &o = doc.at("oracle");
    EXPECT_EQ(o.at("failure_points").num,
              static_cast<double>(rep.failurePoints));
    EXPECT_EQ(o.at("states_enumerated").num,
              static_cast<double>(rep.statesEnumerated));
    EXPECT_EQ(o.at("candidates_run").num,
              static_cast<double>(rep.candidatesRun));
    EXPECT_EQ(o.at("disagreements").num, 0.0);
    EXPECT_DOUBLE_EQ(o.at("agreement_rate").num, 1.0);

    // The oracle interval is timed once: one oracle phase, and its
    // seconds are the section's oracle_seconds.
    const xfdtest::Json &ph = doc.at("campaign").at("phases");
    EXPECT_EQ(ph.at("oracle").at("count").num, 1.0);
    EXPECT_EQ(ph.at("oracle").at("seconds").num,
              o.at("oracle_seconds").num);
    EXPECT_EQ(doc.find("stats"), nullptr);
}

/**
 * The xfdetect mutation branch runs the oracle on the unmutated
 * workload next to the mutation campaign. Replicate that composition:
 * the quick-operator recall must stay 1.0 with the oracle config set
 * (inner campaigns strip it), and the sample:64 differential pass over
 * the same clean workload must conform.
 */
TEST(OracleDiff, MutationRecallPreservedUnderSampledOracle)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 5;
    wcfg.testOps = 5;
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload("btree", wcfg);

    mutate::MutationConfig mcfg;
    mcfg.pre = [w](PmRuntime &rt) { w->pre(rt); };
    mcfg.post = [w](PmRuntime &rt) { w->post(rt); };
    mcfg.poolBytes = xfdtest::defaultPoolBytes;
    mcfg.detector.oracleMode = "sample:64"; // must not leak inward
    mcfg.ops[static_cast<std::size_t>(mutate::MutationOp::DropFlush)] =
        true;
    mcfg.ops[static_cast<std::size_t>(mutate::MutationOp::DropFence)] =
        true;
    mutate::MutationReport mrep = mutate::runMutationCampaign(mcfg);
    EXPECT_EQ(mrep.baselineFindings, 0u);
    EXPECT_GT(mrep.aggregate.mutants, 0u);
    EXPECT_DOUBLE_EQ(mrep.aggregate.recall(), 1.0)
        << mrep.scoreboard();

    oracle::DiffConfig cfg;
    cfg.exhaustive = false;
    cfg.sampleCount = 64;
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    oracle::DiffReport rep = oracle::runDifferentialCampaign(
        pool, [w](PmRuntime &rt) { w->pre(rt); },
        [w](PmRuntime &rt) { w->post(rt); }, cfg);
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_DOUBLE_EQ(rep.agreementRate(), 1.0) << rep.summary();
}

} // namespace
