/**
 * @file
 * Repair-advisor tests: InsertionMutation hook mechanics, scoreboard
 * golden text/JSON, and the determinism contract — the plan list is a
 * pure function of the program, identical digit for digit whether the
 * inner campaigns run serial or parallel and whichever backend
 * restores the failure points.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/logging.hh"
#include "fix/fix.hh"
#include "harness.hh"
#include "mutate/insert.hh"
#include "obs/json.hh"
#include "testutil_json.hh"
#include "trace/runtime.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

/** Trace @p prog through a fresh pool, with an optional hook. */
trace::TraceBuffer
traceOf(const core::ProgramFn &prog, trace::MutationHook *hook = nullptr)
{
    trace::TraceBuffer buf;
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    PmRuntime rt(pool, buf, trace::Stage::PreFailure);
    if (hook)
        rt.setMutationHook(hook);
    try {
        prog(rt);
    } catch (const trace::StageComplete &) {
    }
    return buf;
}

std::size_t
countOp(const trace::TraceBuffer &buf, trace::Op op)
{
    std::size_t n = 0;
    for (const auto &e : buf) {
        if (e.op == op)
            n++;
    }
    return n;
}

/** A two-cache-line store at one source location, never flushed. */
void
writeTwoLines(PmRuntime &rt)
{
    auto *p = rt.pool().at<unsigned char>(0);
    unsigned char bytes[96] = {1};
    rt.copyToPm(p, bytes, sizeof(bytes));
}

TEST(InsertionMutation, FlushFenceAfterWriteCoversEveryLine)
{
    core::ProgramFn prog = [](PmRuntime &rt) { writeTwoLines(rt); };
    trace::TraceBuffer base = traceOf(prog);
    ASSERT_EQ(countOp(base, trace::Op::Clwb), 0u);

    // Find the write's location from the baseline trace.
    trace::SrcLoc wloc{};
    for (const auto &e : base) {
        if (e.isWrite())
            wloc = e.loc;
    }
    ASSERT_NE(wloc.file[0], '\0');

    mutate::EditScript s;
    s.flushFenceAfterWritesAt = wloc;
    mutate::InsertionMutation hook(s);
    trace::TraceBuffer fixed = traceOf(prog, &hook);

    EXPECT_TRUE(hook.fired());
    // A 96-byte store spans two cache lines: the repair must insert
    // one per-line CLWB each (mirroring PmRuntime::clwb) + one SFENCE.
    EXPECT_EQ(countOp(fixed, trace::Op::Clwb), 2u);
    EXPECT_EQ(countOp(fixed, trace::Op::Sfence),
              countOp(base, trace::Op::Sfence) + 1);
    // Inserted entries are marked: internal, skip-failure, repair.
    std::size_t marked = 0;
    for (const auto &e : fixed) {
        if (e.op == trace::Op::Clwb) {
            EXPECT_TRUE(e.has(trace::flagInternal));
            EXPECT_TRUE(e.has(trace::flagSkipFailure));
            EXPECT_TRUE(e.has(trace::flagRepair));
            marked++;
        }
    }
    EXPECT_EQ(marked, 2u);
}

TEST(InsertionMutation, DropAndSkipFireExactly)
{
    core::ProgramFn prog = [](PmRuntime &rt) {
        auto *p = rt.pool().at<std::uint64_t>(0);
        rt.store(*p, std::uint64_t{7});
        rt.clwb(p, sizeof(*p));
        rt.sfence();
    };
    trace::TraceBuffer base = traceOf(prog);

    std::uint32_t flushSeq = ~0u;
    for (const auto &e : base) {
        if (e.op == trace::Op::Clwb)
            flushSeq = e.seq;
    }
    ASSERT_NE(flushSeq, ~0u);

    mutate::EditScript s;
    s.dropSeqs.push_back(flushSeq);
    mutate::InsertionMutation hook(s);
    trace::TraceBuffer fixed = traceOf(prog, &hook);

    EXPECT_TRUE(hook.fired());
    EXPECT_EQ(countOp(fixed, trace::Op::Clwb),
              countOp(base, trace::Op::Clwb) - 1);

    // A never-reached drop seq must leave fired() false.
    mutate::EditScript dead;
    dead.dropSeqs.push_back(static_cast<std::uint32_t>(base.size()) +
                            100);
    mutate::InsertionMutation deadHook(dead);
    traceOf(prog, &deadHook);
    EXPECT_FALSE(deadHook.fired());
}

/** Fix campaign over one bug-suite case, oracle off for speed. */
fix::FixReport
runFixOn(const std::string &workload, const std::string &bugId,
         unsigned threads = 1, const std::string &backend = "delta",
         bool withOracle = false)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 6;
    wcfg.testOps = 6;
    wcfg.postOps = 2;
    wcfg.bugs.enable(bugId);
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload(workload, wcfg);

    fix::FixConfig cfg;
    cfg.pre = [w](PmRuntime &rt) { w->pre(rt); };
    cfg.post = [w](PmRuntime &rt) { w->post(rt); };
    cfg.poolBytes = xfdtest::defaultPoolBytes;
    cfg.threads = threads;
    cfg.detector.backend = backend;
    cfg.withOracle = withOracle;
    return fix::runFixCampaign(cfg);
}

/** Canonical string form of a report's plan list, for diffing. */
std::string
planSignature(const fix::FixReport &rep)
{
    std::string s;
    for (const auto &o : rep.outcomes) {
        s += o.plan.describe();
        s += "|";
        s += fix::verdictName(o.verdict);
        s += "|";
        s += o.plan.patch;
        s += "\n";
    }
    return s;
}

TEST(FixCampaign, ScoreboardGoldenText)
{
    fix::FixReport rep = runFixOn("btree", "btree.perf.extra_flush");
    ASSERT_GE(rep.plans(), 1u);
    EXPECT_GE(rep.verified, 1u);
    EXPECT_EQ(rep.regressed, 0u);

    std::string board = rep.scoreboard();
    EXPECT_NE(board.find(strprintf(
                  "=== repair scoreboard: %zu plan(s): %zu verified, "
                  "%zu incomplete, %zu regressed ===",
                  rep.plans(), rep.verified, rep.incomplete,
                  rep.regressed)),
              std::string::npos)
        << board;
    // Header row + one row per plan, with stable columns.
    EXPECT_NE(board.find("plan kind"), std::string::npos);
    EXPECT_NE(board.find("R1"), std::string::npos);
    EXPECT_NE(board.find("drop_flush"), std::string::npos);
    EXPECT_NE(board.find("verified"), std::string::npos);
}

TEST(FixCampaign, JsonSchemaAndVerdicts)
{
    fix::FixReport rep = runFixOn("btree", "btree.perf.extra_flush");

    std::ostringstream os;
    obs::JsonWriter w(os);
    rep.writeJson(w);

    xfdtest::Json doc = xfdtest::JsonParser(os.str()).parse();
    EXPECT_EQ(doc.at("schema").str, "xfd-fix-v1");
    EXPECT_EQ(static_cast<std::size_t>(doc.at("plans").num),
              rep.plans());
    EXPECT_EQ(static_cast<std::size_t>(doc.at("verified").num),
              rep.verified);
    EXPECT_EQ(static_cast<std::size_t>(doc.at("regressed").num), 0u);

    const xfdtest::Json &repairs = doc.at("repairs");
    ASSERT_EQ(repairs.arr.size(), rep.plans());
    for (std::size_t i = 0; i < repairs.arr.size(); i++) {
        const xfdtest::Json &r = repairs.arr[i];
        EXPECT_EQ(r.at("id").str, rep.outcomes[i].plan.id);
        EXPECT_EQ(r.at("kind").str,
                  fix::repairKindName(rep.outcomes[i].plan.kind));
        EXPECT_EQ(r.at("verdict").str,
                  fix::verdictName(rep.outcomes[i].verdict));
        EXPECT_EQ(r.at("site").at("file").str,
                  std::string(rep.outcomes[i].plan.site.file));
        EXPECT_FALSE(r.at("patch").str.empty());
    }
    EXPECT_NE(doc.find("unplanned"), nullptr);
}

TEST(FixCampaign, RenderFixForMarksPlans)
{
    fix::FixReport rep = runFixOn("btree", "btree.perf.extra_flush");
    ASSERT_GE(rep.plans(), 1u);
    const fix::RepairPlan &p = rep.outcomes[0].plan;
    ASSERT_FALSE(p.findingId.empty());

    std::string fixLines = rep.renderFixFor(p.findingId);
    EXPECT_NE(fixLines.find("[FIX " + p.id + "]"), std::string::npos)
        << fixLines;
    EXPECT_NE(fixLines.find(fix::repairKindName(p.kind)),
              std::string::npos);
    EXPECT_TRUE(rep.renderFixFor("F999").empty());
}

TEST(FixCampaign, DeterministicSerialVsParallel)
{
    fix::FixReport serial =
        runFixOn("hashmap_atomic",
                 "hashmap_atomic.race.slot_plain_store", 1);
    fix::FixReport parallel =
        runFixOn("hashmap_atomic",
                 "hashmap_atomic.race.slot_plain_store", 4);

    ASSERT_GE(serial.plans(), 1u);
    EXPECT_EQ(planSignature(serial), planSignature(parallel));
    EXPECT_EQ(serial.verified, parallel.verified);
    EXPECT_EQ(serial.incomplete, parallel.incomplete);
    EXPECT_EQ(serial.regressed, parallel.regressed);
}

TEST(FixCampaign, DeterministicAcrossBackends)
{
    fix::FixReport delta = runFixOn(
        "hashmap_atomic", "hashmap_atomic.race.slot_plain_store", 1,
        "delta");
    fix::FixReport batched = runFixOn(
        "hashmap_atomic", "hashmap_atomic.race.slot_plain_store", 1,
        "batched");

    ASSERT_GE(delta.plans(), 1u);
    EXPECT_EQ(planSignature(delta), planSignature(batched));
}

TEST(FixCampaign, TargetSelectionChecksOnlyTheNamedPlan)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 6;
    wcfg.testOps = 6;
    wcfg.postOps = 2;
    wcfg.bugs.enable("btree.perf.extra_flush");
    std::shared_ptr<workloads::Workload> w =
        workloads::makeWorkload("btree", wcfg);

    fix::FixConfig cfg;
    cfg.pre = [w](PmRuntime &rt) { w->pre(rt); };
    cfg.post = [w](PmRuntime &rt) { w->post(rt); };
    cfg.poolBytes = xfdtest::defaultPoolBytes;
    cfg.withOracle = false;
    cfg.targets = "R1";
    fix::FixReport rep = fix::runFixCampaign(cfg);

    ASSERT_GE(rep.plans(), 2u);
    EXPECT_EQ(rep.outcomes[0].verdict, fix::Verdict::Verified);
    // Non-matching plans are synthesized but never machine-checked.
    for (std::size_t i = 1; i < rep.outcomes.size(); i++)
        EXPECT_EQ(rep.outcomes[i].verdict, fix::Verdict::Incomplete);
}

} // namespace
