/**
 * @file
 * Unit coverage for src/lint: every rule (XL01..XL08) on a handcrafted
 * trace with golden text output, rule-list parsing, RoI/internal
 * gating, report-level deduplication, the JSON document, and the
 * prunability verdicts — including the allocation-region tag that
 * keeps aliasing store statements from pruning against each other.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "harness.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "trace/buffer.hh"
#include "trace/runtime.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using lint::Diagnostic;
using lint::LintConfig;
using lint::LintReport;
using lint::Rule;
using trace::Op;
using trace::TraceBuffer;
using trace::TraceEntry;

constexpr Addr base = defaultPoolBase;

/** One in-RoI entry at t.cc:@p line; writes carry @p size bytes. */
TraceEntry
mk(Op op, Addr addr, std::uint32_t size, unsigned line,
   const char *file = "t.cc")
{
    TraceEntry e;
    e.op = op;
    e.addr = addr;
    e.size = size;
    e.loc.file = file;
    e.loc.func = "test";
    e.loc.line = line;
    e.flags = trace::flagInRoi;
    if (e.isWrite())
        e.data.assign(size, 0xab);
    return e;
}

LintReport
lintOf(const TraceBuffer &buf, std::uint32_t rules = lint::allRules)
{
    LintConfig cfg;
    cfg.rules = rules;
    return lint::runLint(buf, cfg);
}

TEST(LintRules, RedundantWritebackXL01)
{
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 10));
    buf.append(mk(Op::Clwb, base, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12));
    std::uint32_t seq = buf.append(mk(Op::Clwb, base, 64, 13));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::RedundantWriteback), 1u);
    const Diagnostic &d = rep.diagnostics.front();
    EXPECT_EQ(d.rule, Rule::RedundantWriteback);
    EXPECT_EQ(d.seq, seq);
    EXPECT_EQ(d.loc.line, 13u);
    EXPECT_EQ(
        d.str(),
        "[XL01 perf] redundant writeback: no modified data in line at "
        "t.cc:13 (test), seq 3, addr 0x10000000000+64");
}

TEST(LintRules, DuplicateTxAddXL02)
{
    TraceBuffer buf;
    std::uint32_t first = buf.append(mk(Op::TxAdd, base, 64, 40));
    std::uint32_t dup = buf.append(mk(Op::TxAdd, base + 8, 8, 41));

    // A transaction boundary closes the open snapshots: the same
    // contained range afterwards is a fresh TX_ADD, not a duplicate.
    TraceEntry commit = mk(Op::LibCall, 0, 0, 42);
    commit.label = trace::labels::txCommit;
    buf.append(std::move(commit));
    buf.append(mk(Op::TxAdd, base + 8, 8, 43));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::DuplicateTxAdd), 1u);
    const Diagnostic &d = rep.diagnostics.front();
    EXPECT_EQ(d.seq, dup);
    EXPECT_EQ(d.relatedSeq, first);
    EXPECT_EQ(d.related.line, 40u);
    EXPECT_EQ(
        d.str(),
        "[XL02 perf] duplicated TX_ADD of the same PM object at "
        "t.cc:41 (test), seq 1, addr 0x10000000008+8; first at t.cc:40, "
        "seq 0");
}

TEST(LintRules, FlushUnmodifiedXL03)
{
    TraceBuffer buf;
    buf.append(mk(Op::Clwb, base + 256, 64, 20));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::FlushUnmodified), 1u);
    EXPECT_EQ(
        rep.diagnostics.front().str(),
        "[XL03 perf] flush of a line with no tracked PM writes at "
        "t.cc:20 (test), seq 0, addr 0x10000000100+64");
}

TEST(LintRules, FenceNoPendingXL04)
{
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 10));
    buf.append(mk(Op::Clwb, base, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12)); // retires: not reported
    std::uint32_t idle = buf.append(mk(Op::Sfence, 0, 0, 13));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::FenceNoPending), 1u);
    EXPECT_EQ(rep.diagnostics.front().seq, idle);
    EXPECT_EQ(
        rep.diagnostics.front().str(),
        "[XL04 note] fence with no pending writebacks to retire at "
        "t.cc:13 (test), seq 3, addr 0+0");
}

TEST(LintRules, UnpersistedAtExitXL05)
{
    // Two writes from the same statement group into one diagnostic;
    // an allocated-but-never-written object is not a lost write.
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 30));
    buf.append(mk(Op::Write, base + 64, 8, 30));
    buf.append(mk(Op::Alloc, base + 4096, 64, 31));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::UnpersistedAtExit), 1u);
    const Diagnostic &d = rep.diagnostics.front();
    EXPECT_EQ(d.loc.line, 30u);
    EXPECT_EQ(d.size, 16u); // 16 one-byte cells across both writes
    EXPECT_EQ(
        d.str(),
        "[XL05 error] 16 cell(s) written here never reach durability "
        "before the trace ends at t.cc:30 (test), seq 0, "
        "addr 0x10000000000+16");
}

TEST(LintRules, CommitFenceMissingXL06)
{
    TraceBuffer buf;
    buf.append(mk(Op::CommitVar, base + 1024, 8, 50));
    buf.append(mk(Op::Write, base, 8, 51));
    std::uint32_t commit =
        buf.append(mk(Op::Write, base + 1024, 8, 52));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::CommitFenceMissing), 1u);
    EXPECT_EQ(rep.diagnostics.front().seq, commit);

    // Fencing the guarded data first silences the rule.
    TraceBuffer ok;
    ok.append(mk(Op::CommitVar, base + 1024, 8, 50));
    ok.append(mk(Op::Write, base, 8, 51));
    ok.append(mk(Op::Clwb, base, 64, 51));
    ok.append(mk(Op::Sfence, 0, 0, 51));
    ok.append(mk(Op::Write, base + 1024, 8, 52));
    EXPECT_EQ(lintOf(ok).count(Rule::CommitFenceMissing), 0u);
}

TEST(LintRules, EpochOrderXL07)
{
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 60));
    buf.append(mk(Op::Clwb, base, 64, 61));
    std::uint32_t second = buf.append(mk(Op::Write, base, 8, 62));

    LintReport rep = lintOf(buf);
    ASSERT_EQ(rep.count(Rule::EpochOrder), 1u);
    EXPECT_EQ(rep.diagnostics.front().seq, second);
}

TEST(LintRules, GatingMirrorsTheDetector)
{
    // The same offending flush, outside the RoI / inside library
    // internals / inside skipDetection: no diagnostics, exactly like
    // the dynamic detector's reporting filter.
    for (std::uint16_t flags :
         {std::uint16_t{0},
          std::uint16_t(trace::flagInRoi | trace::flagInternal),
          std::uint16_t(trace::flagInRoi | trace::flagSkipDetection)}) {
        TraceBuffer buf;
        TraceEntry e = mk(Op::Clwb, base, 64, 20);
        e.flags = flags;
        buf.append(std::move(e));
        EXPECT_EQ(lintOf(buf).diagnostics.size(), 0u) << flags;
    }
}

TEST(LintRules, ImageOnlyWritesAreInvisible)
{
    // Allocator zero-fill is replay-only; it must neither trip XL05
    // nor make a later flush look justified.
    TraceBuffer buf;
    TraceEntry z = mk(Op::Write, base, 64, 70);
    z.flags |= trace::flagImageOnly;
    buf.append(std::move(z));
    buf.append(mk(Op::Clwb, base, 64, 71));

    LintReport rep = lintOf(buf);
    EXPECT_EQ(rep.count(Rule::UnpersistedAtExit), 0u);
    EXPECT_EQ(rep.count(Rule::FlushUnmodified), 1u);
}

TEST(LintRules, RuleMaskFilters)
{
    TraceBuffer buf;
    buf.append(mk(Op::Clwb, base, 64, 20));  // XL03
    buf.append(mk(Op::Sfence, 0, 0, 21));    // XL04

    LintReport rep =
        lintOf(buf, lint::ruleBit(Rule::FenceNoPending));
    EXPECT_EQ(rep.diagnostics.size(), 1u);
    EXPECT_EQ(rep.count(Rule::FenceNoPending), 1u);
    EXPECT_EQ(rep.count(Rule::FlushUnmodified), 0u);
}

TEST(LintRules, DiagnosticsAreDeduplicated)
{
    // Report-level invariant behind the dedup sink: no two
    // diagnostics ever share (rule, addr, seq).
    TraceBuffer buf;
    for (unsigned i = 0; i < 8; i++) {
        buf.append(mk(Op::Write, base + i * 8, 8, 80));
        buf.append(mk(Op::Clwb, base + 256, 64, 81));
        buf.append(mk(Op::Sfence, 0, 0, 82));
    }
    LintReport rep = lintOf(buf);
    EXPECT_FALSE(rep.diagnostics.empty());
    std::set<std::tuple<int, Addr, std::uint32_t>> keys;
    for (const auto &d : rep.diagnostics) {
        EXPECT_TRUE(
            keys.emplace(static_cast<int>(d.rule), d.addr, d.seq)
                .second)
            << d.str();
    }
}

TEST(LintParse, RuleListSpellings)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_TRUE(lint::parseRuleList("all", mask, &err));
    EXPECT_EQ(mask, lint::allRules);
    EXPECT_TRUE(lint::parseRuleList("", mask, &err));
    EXPECT_EQ(mask, lint::allRules);

    EXPECT_TRUE(
        lint::parseRuleList("XL01,duplicate_tx_add", mask, &err));
    EXPECT_EQ(mask, lint::ruleBit(Rule::RedundantWriteback) |
                        lint::ruleBit(Rule::DuplicateTxAdd));

    EXPECT_FALSE(lint::parseRuleList("XL99", mask, &err));
    EXPECT_NE(err.find("XL99"), std::string::npos);
    EXPECT_FALSE(lint::parseRuleList(",", mask, &err));
    EXPECT_EQ(err, "empty lint rule list");
}

TEST(LintParse, UnknownRuleErrorNamesCurrentRange)
{
    // The message derives the upper bound from ruleCount with a
    // zero-padded field: it must track the registry ("XL01..XL08"),
    // not misrender the count ("XL010"-style).
    std::uint32_t mask = 0;
    std::string err;
    ASSERT_FALSE(lint::parseRuleList("bogus_rule", mask, &err));
    EXPECT_NE(err.find("XL01..XL08"), std::string::npos) << err;
    EXPECT_EQ(err.find("XL010"), std::string::npos) << err;
    EXPECT_EQ(std::string(lint::ruleId(Rule::CommitVarInference)),
              "XL08");
}

TEST(LintRender, TextScoreboardGolden)
{
    TraceBuffer buf;
    buf.append(mk(Op::Clwb, base, 64, 20));
    LintReport rep = lintOf(buf);
    EXPECT_EQ(lint::renderText(rep),
              "=== xfd-lint: 1 diagnostic(s) ===\n"
              "[XL03 perf] flush of a line with no tracked PM writes "
              "at t.cc:20 (test), seq 0, addr 0x10000000000+64\n"
              "rule hits: XL03=1\n");
}

TEST(LintRender, JsonGolden)
{
    TraceBuffer buf;
    buf.append(mk(Op::Clwb, base, 64, 20));
    LintReport rep =
        lintOf(buf, lint::ruleBit(Rule::FlushUnmodified));

    std::ostringstream out;
    obs::JsonWriter w(out);
    lint::writeLintJson(rep, w);
    EXPECT_EQ(
        out.str(),
        "{\"schema\":\"xfd-lint-v1\",\"diagnostics\":[{\"rule\":"
        "\"XL03\",\"name\":\"flush_unmodified\",\"severity\":\"perf\","
        "\"addr\":\"0x10000000000\",\"size\":64,\"seq\":0,\"loc\":{"
        "\"file\":\"t.cc\",\"line\":20,\"func\":\"test\"},\"note\":"
        "\"flush of a line with no tracked PM writes\"}],\"hits\":{"
        "\"XL03\":1},\"prune\":{\"points\":0,\"kept\":0,\"pruned\":0,"
        "\"ratio\":0,\"pruned_points\":[]}}");
}

// ---------------------------------------------------------------
// Prunability verdicts.
// ---------------------------------------------------------------

/** Fence seqs of @p buf, the ordering points a plan would inject at. */
std::vector<std::uint32_t>
fenceSeqs(const TraceBuffer &buf)
{
    std::vector<std::uint32_t> out;
    for (const auto &e : buf) {
        if (e.isFence())
            out.push_back(e.seq);
    }
    return out;
}

TEST(LintPrune, IdenticalIterationsPrune)
{
    // Four loop iterations writing distinct addresses from one
    // statement: every fence after the first sees the same frontier
    // signature at the same ordering-point location.
    TraceBuffer buf;
    for (unsigned i = 0; i < 4; i++) {
        buf.append(mk(Op::Write, base + i * 64, 8, 10));
        buf.append(mk(Op::Clwb, base + i * 64, 64, 11));
        buf.append(mk(Op::Sfence, 0, 0, 12));
    }
    std::vector<std::uint32_t> points = fenceSeqs(buf);
    ASSERT_EQ(points.size(), 4u);

    lint::PruneVerdicts v =
        lint::computePruneVerdicts(buf, points, 1);
    ASSERT_EQ(v.kept.size(), 1u);
    EXPECT_EQ(v.kept.front(), points.front());
    ASSERT_EQ(v.pruned.size(), 3u);
    for (const auto &p : v.pruned)
        EXPECT_EQ(p.keptRep, points.front());
    EXPECT_DOUBLE_EQ(v.pruneRatio(), 0.75);
}

TEST(LintPrune, DistinctWriterLinesAreKept)
{
    TraceBuffer buf;
    for (unsigned i = 0; i < 2; i++) {
        buf.append(mk(Op::Write, base + i * 64, 8, 10 + i));
        buf.append(mk(Op::Clwb, base + i * 64, 64, 20));
        buf.append(mk(Op::Sfence, 0, 0, 21));
    }
    lint::PruneVerdicts v =
        lint::computePruneVerdicts(buf, fenceSeqs(buf), 1);
    EXPECT_EQ(v.kept.size(), 2u);
    EXPECT_EQ(v.pruned.size(), 0u);
}

TEST(LintPrune, OrderingPointLocationsFormSeparateGroups)
{
    // Same signature, but the fences sit on different source lines:
    // recovery-failure reports carry the failure point's location, so
    // the points are not interchangeable.
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 10));
    buf.append(mk(Op::Clwb, base, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12));
    buf.append(mk(Op::Write, base + 64, 8, 10));
    buf.append(mk(Op::Clwb, base + 64, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 99));

    lint::PruneVerdicts v =
        lint::computePruneVerdicts(buf, fenceSeqs(buf), 1);
    EXPECT_EQ(v.kept.size(), 2u);
    EXPECT_EQ(v.pruned.size(), 0u);
}

TEST(LintPrune, AllocationRegionsDisambiguateAliasingStores)
{
    // One store statement writing first into root memory, then into a
    // heap allocation: recovery reaches the two targets through
    // different reads, so the region tag must keep both points even
    // though writer location and cell states match (the memcached
    // bucket-head vs. next-field aliasing case).
    TraceBuffer buf;
    buf.append(mk(Op::Write, base, 8, 10));
    buf.append(mk(Op::Clwb, base, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12));
    buf.append(mk(Op::Alloc, base + 4096, 64, 5));
    buf.append(mk(Op::Write, base + 4096, 8, 10));
    buf.append(mk(Op::Clwb, base + 4096, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12));

    lint::PruneVerdicts v =
        lint::computePruneVerdicts(buf, fenceSeqs(buf), 1);
    EXPECT_EQ(v.kept.size(), 2u);
    EXPECT_EQ(v.pruned.size(), 0u);

    // Freeing the region returns the address range to "root": the
    // next identical iteration prunes again.
    buf.append(mk(Op::Free, base + 4096, 64, 6));
    buf.append(mk(Op::Write, base + 128, 8, 10));
    buf.append(mk(Op::Clwb, base + 128, 64, 11));
    buf.append(mk(Op::Sfence, 0, 0, 12));
    v = lint::computePruneVerdicts(buf, fenceSeqs(buf), 1);
    EXPECT_EQ(v.kept.size(), 2u);
    ASSERT_EQ(v.pruned.size(), 1u);
    EXPECT_EQ(v.pruned.front().keptRep, fenceSeqs(buf).front());
}

// ---------------------------------------------------------------
// XL08: WITCHER-style commit-variable inference.
// ---------------------------------------------------------------

/** Pre-failure trace of one stock (bug-free) workload run. */
TraceBuffer
workloadTrace(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 3;
    wcfg.testOps = 3;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    struct Capture : core::CampaignHooks
    {
        TraceBuffer captured;
        void
        onPreTraceReady(const TraceBuffer &b) override
        {
            captured = b;
        }
    } cap;
    core::CampaignObserver obs;
    obs.hooks = &cap;
    xfdtest::RunOptions opt;
    opt.observer = &obs;
    opt.detector.maxFailurePoints = 1;
    xfdtest::runWorkload(name, wcfg, opt);
    return cap.captured;
}

TEST(LintInference, CommitVarSweepAcrossWorkloads)
{
    // The inference invariants must hold on every stock workload:
    // candidates come in address order, the solo-persist count never
    // exceeds (and implies) durable stores, annotations are seen
    // where the workload registers commit variables, and the XL08
    // cross-check stays silent — correct code must not cry wolf.
    unsigned annotatedWorkloads = 0;
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        TraceBuffer buf = workloadTrace(name);
        ASSERT_FALSE(buf.empty());

        lint::LintConfig cfg;
        lint::CommitVarInferenceResult inf =
            lint::inferCommitVars(buf, cfg.granularity);
        Addr prev = 0;
        for (const lint::CommitVarCandidate &c : inf.candidates) {
            EXPECT_GE(c.addr, prev);
            prev = c.addr;
            EXPECT_LE(c.soloPersists, c.stores);
            if (c.soloPersists > 0) {
                EXPECT_TRUE(c.everDurable);
            }
            if (c.looksLikeCommitVar()) {
                EXPECT_GE(c.stores, 2u);
            }
        }
        if (inf.annotationsPresent) {
            annotatedWorkloads++;
            // Agreement: anything exhibiting the atomic-publish
            // signature is covered by an annotation.
            for (const lint::CommitVarCandidate &c : inf.candidates) {
                EXPECT_TRUE(!c.looksLikeCommitVar() || c.annotated)
                    << "unannotated commit-var candidate at "
                    << c.lastStore.str();
            }
        }

        LintReport rep = lintOf(
            buf, lint::ruleBit(Rule::CommitVarInference));
        EXPECT_EQ(rep.diagnostics.size(), 0u)
            << lint::renderText(rep);

        // Flush-free persistency: the signature cannot exist.
        EXPECT_TRUE(lint::inferCommitVars(buf, cfg.granularity, true)
                        .candidates.empty());
    }
    // The commit-variable mechanisms really annotate.
    EXPECT_GE(annotatedWorkloads, 1u);
}

TEST(LintPrune, ReportCarriesVerdictsWhenPlanSupplied)
{
    TraceBuffer buf;
    for (unsigned i = 0; i < 3; i++) {
        buf.append(mk(Op::Write, base + i * 64, 8, 10));
        buf.append(mk(Op::Clwb, base + i * 64, 64, 11));
        buf.append(mk(Op::Sfence, 0, 0, 12));
    }
    std::vector<std::uint32_t> points = fenceSeqs(buf);
    LintConfig cfg;
    LintReport rep = lint::runLint(buf, cfg, &points);
    EXPECT_EQ(rep.pointsConsidered, 3u);
    EXPECT_EQ(rep.prune.kept.size(), 1u);
    EXPECT_EQ(rep.prune.pruned.size(), 2u);
    EXPECT_NE(lint::renderText(rep).find(
                  "prunable failure points: 2/3 (66.7%)"),
              std::string::npos);
}

} // namespace
