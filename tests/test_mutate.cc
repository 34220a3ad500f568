/**
 * @file
 * Mutation-campaign scoring tests: the engine's contract is that a
 * correct workload scores a clean baseline, every planted drop-flush
 * and drop-fence mutant is detected (recall 1.0 — the paper's Table 4
 * claims exactly these misses are caught), and the score is a pure
 * function of the plan — serial and parallel inner campaigns must
 * agree digit for digit.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness.hh"
#include "mutate/campaign.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using mutate::MutationOp;
using mutate::MutationReport;
using mutate::OpScore;
using trace::PmRuntime;

std::size_t
opIdx(MutationOp op)
{
    return static_cast<std::size_t>(op);
}

/** Mutation campaign over the bug-free workload @p name. */
mutate::MutationConfig
workloadConfig(const std::string &name,
               const workloads::WorkloadConfig &wcfg,
               const mutate::PerOp<bool> &ops, unsigned threads = 1)
{
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload(name, wcfg);

    mutate::MutationConfig cfg;
    cfg.pre = [w](PmRuntime &rt) { w->pre(rt); };
    cfg.post = [w](PmRuntime &rt) { w->post(rt); };
    cfg.poolBytes = std::size_t{1} << 22;
    cfg.threads = threads;
    cfg.ops = ops;
    return cfg;
}

/** Mutation campaign over the bug-free btree workload. */
mutate::MutationConfig
btreeConfig(const mutate::PerOp<bool> &ops, unsigned threads = 1)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 5;
    wcfg.testOps = 5;
    return workloadConfig("btree", wcfg, ops, threads);
}

mutate::PerOp<bool>
quickOps()
{
    mutate::PerOp<bool> ops{};
    ops[opIdx(MutationOp::DropFlush)] = true;
    ops[opIdx(MutationOp::DropFence)] = true;
    return ops;
}

TEST(MutationCampaign, QuickOpsPerfectRecallOnBtree)
{
    auto rep = mutate::runMutationCampaign(btreeConfig(quickOps()));

    // The workload is correct: the unmutated run must be clean.
    EXPECT_EQ(rep.baselineFindings, 0u);
    EXPECT_TRUE(xfdtest::hasNoFindings(rep.baseline));

    const OpScore &df = rep.perOp[opIdx(MutationOp::DropFlush)];
    const OpScore &dn = rep.perOp[opIdx(MutationOp::DropFence)];
    EXPECT_GT(df.mutants, 0u);
    EXPECT_GT(dn.mutants, 0u);
    EXPECT_DOUBLE_EQ(df.recall(), 1.0) << rep.scoreboard();
    EXPECT_DOUBLE_EQ(dn.recall(), 1.0) << rep.scoreboard();
    EXPECT_DOUBLE_EQ(rep.aggregate.precision(), 1.0)
        << rep.scoreboard();

    // Every planned mutation must actually fire — an unfired mutant
    // means the occurrence addressing drifted from the real trace.
    for (const auto &o : rep.outcomes)
        EXPECT_TRUE(o.fired) << o.mutant.describe();
}

TEST(MutationCampaign, FullOpSetPlansBroadlyAndIsDetected)
{
    mutate::PerOp<bool> all{};
    for (auto &b : all)
        b = true;
    auto rep = mutate::runMutationCampaign(btreeConfig(all));

    // The acceptance floor: a short btree run already yields a
    // substantial campaign, and the detector catches every mutant.
    EXPECT_GE(rep.aggregate.mutants, 20u) << rep.scoreboard();
    EXPECT_DOUBLE_EQ(rep.aggregate.recall(), 1.0) << rep.scoreboard();
    EXPECT_EQ(rep.baselineFindings, 0u);

    // btree's transactions give the tx-level operators real sites.
    EXPECT_GT(rep.perOp[opIdx(MutationOp::SkipTxAdd)].mutants, 0u);
    EXPECT_GT(rep.perOp[opIdx(MutationOp::CommitBeforeData)].mutants,
              0u);
    EXPECT_GT(rep.perOp[opIdx(MutationOp::StaleBackup)].mutants, 0u);
}

TEST(MutationCampaign, SerialAndParallelScoresAgree)
{
    auto serial = mutate::runMutationCampaign(btreeConfig(quickOps(), 1));
    auto par = mutate::runMutationCampaign(btreeConfig(quickOps(), 4));

    ASSERT_EQ(serial.outcomes.size(), par.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); i++) {
        SCOPED_TRACE(serial.outcomes[i].mutant.describe());
        EXPECT_EQ(serial.outcomes[i].detected, par.outcomes[i].detected);
        EXPECT_EQ(serial.outcomes[i].matchedFindings,
                  par.outcomes[i].matchedFindings);
        EXPECT_EQ(serial.outcomes[i].unmatchedFindings,
                  par.outcomes[i].unmatchedFindings);
    }
    for (std::size_t op = 0; op < mutate::mutationOpCount; op++) {
        EXPECT_EQ(serial.perOp[op].mutants, par.perOp[op].mutants);
        EXPECT_EQ(serial.perOp[op].detected, par.perOp[op].detected);
        EXPECT_EQ(serial.perOp[op].truePositives,
                  par.perOp[op].truePositives);
        EXPECT_EQ(serial.perOp[op].falsePositives,
                  par.perOp[op].falsePositives);
    }
    EXPECT_EQ(serial.baselineFindings, par.baselineFindings);
}

/**
 * Skipped and stale transaction backups leave rbtree crash images
 * whose child pointers form a cycle. Recovery's scan must end such a
 * walk at the post-trace cap, as a recovery failure of that mutant,
 * instead of overflowing the host stack and ending the campaign.
 */
TEST(MutationCampaign, CyclicRbtreeImagesAreScored)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 5;
    wcfg.testOps = 10;
    wcfg.postOps = 1;
    mutate::PerOp<bool> ops{};
    ops[opIdx(MutationOp::SkipTxAdd)] = true;
    ops[opIdx(MutationOp::StaleBackup)] = true;
    auto rep = mutate::runMutationCampaign(
        workloadConfig("rbtree", wcfg, ops));

    EXPECT_EQ(rep.baselineFindings, 0u) << rep.baseline.summary();
    EXPECT_GT(rep.aggregate.mutants, 0u);
    EXPECT_EQ(rep.outcomes.size(), rep.aggregate.mutants);
    EXPECT_DOUBLE_EQ(rep.aggregate.recall(), 1.0) << rep.scoreboard();
}

TEST(MutationCampaign, PerOpCapIsDeterministicAndHonored)
{
    auto cfg = btreeConfig(quickOps());
    cfg.maxPerOp = 2;
    auto a = mutate::runMutationCampaign(cfg);
    auto b = mutate::runMutationCampaign(cfg);

    EXPECT_GT(a.enumerated, a.aggregate.mutants);
    for (std::size_t op = 0; op < mutate::mutationOpCount; op++)
        EXPECT_LE(a.perOp[op].mutants, 2u);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); i++) {
        EXPECT_EQ(a.outcomes[i].mutant.op, b.outcomes[i].mutant.op);
        EXPECT_EQ(a.outcomes[i].mutant.occurrence,
                  b.outcomes[i].mutant.occurrence);
    }
}

/**
 * The stock workloads never use non-temporal stores, so demote_flush
 * needs a synthetic program: a publication protocol whose payload is
 * ntstored, then fenced, then published through a guard flag. The
 * recovery reads the guard under SkipDetectionScope (the standard
 * commit-flag annotation) and the payload only when published, so the
 * baseline is clean. Demoting the ntstore to a cached store leaves
 * the payload unflushed at the publish point — a cross-failure race.
 */
TEST(MutationCampaign, DemoteFlushOnSyntheticNtProgram)
{
    mutate::MutationConfig cfg;
    cfg.pre = [](PmRuntime &rt) {
        trace::RoiScope roi(rt);
        auto *a = rt.pool().at<std::uint64_t>(0);
        auto *valid = rt.pool().at<std::uint64_t>(64);
        rt.ntstore(*a, std::uint64_t{1});
        rt.sfence(); // payload persisted: safe to publish
        rt.store(*valid, std::uint64_t{1});
        rt.persistBarrier(valid, 8);
    };
    cfg.post = [](PmRuntime &rt) {
        trace::RoiScope roi(rt);
        auto *a = rt.pool().at<std::uint64_t>(0);
        auto *valid = rt.pool().at<std::uint64_t>(64);
        std::uint64_t published;
        {
            trace::SkipDetectionScope skip(rt);
            published = rt.load(*valid);
        }
        if (published)
            (void)rt.load(*a);
    };
    cfg.poolBytes = std::size_t{1} << 20;
    cfg.ops = mutate::PerOp<bool>{};
    cfg.ops[opIdx(MutationOp::DemoteFlush)] = true;
    cfg.ops[opIdx(MutationOp::DropFence)] = true;

    auto rep = mutate::runMutationCampaign(cfg);
    EXPECT_EQ(rep.baselineFindings, 0u)
        << rep.baseline.summary();
    const OpScore &dm = rep.perOp[opIdx(MutationOp::DemoteFlush)];
    EXPECT_EQ(dm.mutants, 1u) << rep.scoreboard();
    EXPECT_DOUBLE_EQ(dm.recall(), 1.0) << rep.scoreboard();
    EXPECT_DOUBLE_EQ(rep.aggregate.recall(), 1.0) << rep.scoreboard();
}

TEST(MutationCampaign, ScoreboardNamesOperatorsAndAggregate)
{
    auto cfg = btreeConfig(quickOps());
    cfg.maxPerOp = 2;
    auto rep = mutate::runMutationCampaign(cfg);
    std::string sb = rep.scoreboard();
    EXPECT_NE(sb.find("drop_flush"), std::string::npos) << sb;
    EXPECT_NE(sb.find("drop_fence"), std::string::npos) << sb;
    EXPECT_NE(sb.find("aggregate"), std::string::npos) << sb;
}

TEST(MutationOps, ParseSpecs)
{
    mutate::PerOp<bool> ops{};
    std::string err;

    // "all" covers the fault operators; the repair (insertion)
    // operators are applied by --fix plans, never planted as mutants.
    EXPECT_TRUE(mutate::parseMutationOps("all", ops, &err));
    for (std::size_t i = 0; i < mutate::mutationOpCount; i++)
        EXPECT_EQ(ops[i], i < mutate::faultOpCount) << i;

    EXPECT_TRUE(mutate::parseMutationOps("add_flush", ops, &err));
    EXPECT_TRUE(ops[opIdx(MutationOp::AddFlush)]);

    EXPECT_TRUE(mutate::parseMutationOps("quick", ops, &err));
    EXPECT_TRUE(ops[opIdx(MutationOp::DropFlush)]);
    EXPECT_TRUE(ops[opIdx(MutationOp::DropFence)]);
    EXPECT_FALSE(ops[opIdx(MutationOp::SkipTxAdd)]);

    EXPECT_TRUE(
        mutate::parseMutationOps("skip_tx_add,stale_backup", ops, &err));
    EXPECT_TRUE(ops[opIdx(MutationOp::SkipTxAdd)]);
    EXPECT_TRUE(ops[opIdx(MutationOp::StaleBackup)]);
    EXPECT_FALSE(ops[opIdx(MutationOp::DropFlush)]);

    EXPECT_FALSE(mutate::parseMutationOps("no_such_op", ops, &err));
    EXPECT_NE(err.find("no_such_op"), std::string::npos);
    EXPECT_FALSE(mutate::parseMutationOps("", ops, &err));
}

} // namespace
