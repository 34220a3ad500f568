/**
 * @file
 * Observability layer tests: JSON writer round-trips, stats registry
 * golden output, Chrome-trace/JSONL export structure, progress
 * formatting, and end-to-end campaign export — including that serial
 * and parallel campaigns export identical findings and stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/campaign_json.hh"
#include "core/config_flags.hh"
#include "core/driver.hh"
#include "core/observer.hh"
#include "harness.hh"
#include "mutate/campaign.hh"
#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "testutil_json.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace
{

using namespace xfd;
using xfdtest::Json;
using xfdtest::parseJson;

TEST(JsonWriter, EscapesAndNestingRoundTrip)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("plain", "hello");
    w.field("quoted", "a \"b\"\\\n\tc");
    w.field("int", static_cast<std::int64_t>(-3));
    w.field("big", std::uint64_t{1} << 53);
    w.field("pi", 3.25);
    w.field("flag", true);
    w.key("null").null();
    w.key("list").beginArray().value(1).value(2).endArray();
    w.key("nested").beginObject().field("x", 1).endObject();
    w.endObject();

    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("plain").str, "hello");
    EXPECT_EQ(doc.at("quoted").str, "a \"b\"\\\n\tc");
    EXPECT_EQ(doc.at("int").num, -3);
    EXPECT_EQ(doc.at("big").num,
              static_cast<double>(std::uint64_t{1} << 53));
    EXPECT_EQ(doc.at("pi").num, 3.25);
    EXPECT_TRUE(doc.at("flag").b);
    EXPECT_EQ(doc.at("null").kind, Json::Null);
    ASSERT_EQ(doc.at("list").arr.size(), 2u);
    EXPECT_EQ(doc.at("nested").at("x").num, 1);
}

TEST(JsonWriter, DoubleFormattingRoundTrips)
{
    for (double v : {0.1, 1.0 / 3.0, 1e-9, 6.02e23, -0.0, 12345.6789}) {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.value(v);
        EXPECT_EQ(std::strtod(os.str().c_str(), nullptr), v)
            << os.str();
    }
}

TEST(StatsRegistry, GoldenScalarJson)
{
    obs::StatsRegistry reg;
    obs::Scalar &n = reg.scalar("a.count", "things counted");
    n += 2;
    ++n;
    obs::Scalar &d = reg.scalar("a.total", "things overall");
    d.set(6);

    std::ostringstream os;
    obs::JsonWriter w(os);
    reg.writeJson(w);
    EXPECT_EQ(os.str(),
              "{\"a.count\":{\"type\":\"scalar\","
              "\"desc\":\"things counted\",\"value\":3},"
              "\"a.total\":{\"type\":\"scalar\","
              "\"desc\":\"things overall\",\"value\":6}}");
}

TEST(StatsRegistry, ReRegistrationReturnsExisting)
{
    obs::StatsRegistry reg;
    obs::Scalar &a = reg.scalar("x", "first");
    a.set(7);
    obs::Scalar &b = reg.scalar("x", "second registration ignored");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.value("x"), 7);
    EXPECT_EQ(reg.value("missing"), 0);
    EXPECT_NE(reg.find("x"), nullptr);
    EXPECT_EQ(reg.find("missing"), nullptr);
}

TEST(StatsRegistry, HistogramPowerOfTwoBuckets)
{
    obs::StatsRegistry reg;
    obs::Histogram &h = reg.histogram("lat", "latency");
    for (double v : {0.0, 1.0, 2.0, 3.0, 4.0, 1024.0})
        h.sample(v);

    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucketCount(0), 2u);  // [0, 2)
    EXPECT_EQ(h.bucketCount(1), 2u);  // [2, 4)
    EXPECT_EQ(h.bucketCount(2), 1u);  // [4, 8)
    EXPECT_EQ(h.bucketCount(10), 1u); // [1024, 2048)

    std::ostringstream os;
    obs::JsonWriter w(os);
    reg.writeJson(w);
    Json doc = parseJson(os.str());
    const Json &hist = doc.at("lat");
    EXPECT_EQ(hist.at("type").str, "histogram");
    EXPECT_EQ(hist.at("count").num, 6);
    EXPECT_EQ(hist.at("min").num, 0);
    EXPECT_EQ(hist.at("max").num, 1024);
    // Trailing zero buckets elided: bucket 10 is the last non-zero.
    EXPECT_EQ(hist.at("buckets").arr.size(), 11u);
}

TEST(Timeline, ChromeTraceStructure)
{
    obs::Timeline tl;
    int worker = tl.registerTrack("worker-1");
    tl.recordSpan("pre-failure", "phase", 0, 10, 100);
    tl.recordSpan("fp#3", "fp", worker, 120, 40);
    tl.recordInstant("bug", "fp", worker, 150);

    std::ostringstream os;
    tl.writeChromeTrace(os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
    const auto &evs = doc.at("traceEvents").arr;
    // 2 thread_name metadata events + 3 recorded events.
    ASSERT_EQ(evs.size(), 5u);

    EXPECT_EQ(evs[0].at("ph").str, "M");
    EXPECT_EQ(evs[0].at("name").str, "thread_name");
    EXPECT_EQ(evs[0].at("args").at("name").str, "main");
    EXPECT_EQ(evs[1].at("args").at("name").str, "worker-1");

    const Json &span = evs[2];
    EXPECT_EQ(span.at("ph").str, "X");
    EXPECT_EQ(span.at("name").str, "pre-failure");
    EXPECT_EQ(span.at("cat").str, "phase");
    EXPECT_EQ(span.at("pid").num, 1);
    EXPECT_EQ(span.at("tid").num, 0);
    EXPECT_EQ(span.at("ts").num, 10);
    EXPECT_EQ(span.at("dur").num, 100);

    const Json &instant = evs[4];
    EXPECT_EQ(instant.at("ph").str, "i");
    EXPECT_EQ(instant.at("s").str, "t");
    EXPECT_EQ(instant.find("dur"), nullptr);

    // Non-metadata events come out sorted by timestamp.
    double prev = -1;
    for (std::size_t i = 2; i < evs.size(); i++) {
        EXPECT_GE(evs[i].at("ts").num, prev);
        prev = evs[i].at("ts").num;
    }
}

TEST(Timeline, JsonlOneObjectPerLine)
{
    obs::Timeline tl;
    tl.recordSpan("a", "phase", 0, 5, 10);
    tl.recordInstant("b", "phase", 0, 20);

    std::ostringstream os;
    tl.writeJsonl(os);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        Json doc = parseJson(line);
        EXPECT_EQ(doc.at("cat").str, "phase");
        lines++;
    }
    EXPECT_EQ(lines, 2u);
}

TEST(Timeline, DisabledTimelineRecordsNothing)
{
    obs::Timeline tl;
    tl.setEnabled(false);
    {
        obs::SpanScope span(&tl, "ignored", "phase", 0);
    }
    tl.recordInstant("also ignored", "phase", 0, 1);
    EXPECT_EQ(tl.size(), 0u);

    // Null timeline is equally fine.
    obs::SpanScope span(nullptr, "x", "phase", 0);
}

TEST(Progress, FormatGolden)
{
    EXPECT_EQ(obs::formatProgress("fp", 37, 214, 12, 4.1),
              "[fp 37/214, 12 bugs, ETA 4.1s]");
    EXPECT_EQ(obs::formatProgress("fp", 214, 214, 0, 0),
              "[fp 214/214, 0 bugs, ETA 0.0s]");
}

TEST(Progress, MeterRateLimitsAndAlwaysPrintsFinal)
{
    setVerbose(true);
    obs::ProgressMeter meter("fp", /*min_interval=*/3600);
    meter.update(1, 100, 0);
    meter.update(2, 100, 0);  // inside the interval: suppressed
    meter.update(3, 100, 0);  // suppressed
    EXPECT_EQ(meter.linesPrinted(), 1u);
    meter.update(100, 100, 1); // final: always prints
    EXPECT_EQ(meter.linesPrinted(), 2u);

    obs::ProgressMeter quiet("fp", 0);
    setVerbose(false);
    quiet.update(1, 2, 0);
    EXPECT_EQ(quiet.linesPrinted(), 0u);
    setVerbose(true);
}

core::CampaignResult
runObserved(const std::string &workload, unsigned threads,
            core::CampaignObserver &obs)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    xfdtest::RunOptions opt;
    opt.threads = threads;
    opt.observer = &obs;
    return xfdtest::runWorkload(workload, cfg, opt);
}

TEST(CampaignExport, StatsDocumentMatchesCampaignStats)
{
    if (!obs::statsCompiledIn)
        GTEST_SKIP() << "stats compiled out (XFD_STATS_NOOP)";
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    // The structured section is the one copy of the campaign numbers;
    // the registry holds only what has no structured home.
    std::ostringstream os;
    core::writeStatsJson(res, &obs.stats, os);
    Json doc = parseJson(os.str());
    const Json &camp = doc.at("campaign");
    EXPECT_EQ(camp.at("failure_points").num,
              static_cast<double>(res.stats.failurePoints));
    EXPECT_EQ(camp.at("post_executions").num,
              static_cast<double>(res.stats.postExecutions));
    EXPECT_EQ(camp.at("checks_performed").num,
              static_cast<double>(res.stats.checksPerformed));
    EXPECT_EQ(camp.at("checks_skipped").num,
              static_cast<double>(res.stats.checksSkipped));
    EXPECT_EQ(camp.at("pre_seconds").num, res.stats.preSeconds());
    EXPECT_EQ(camp.at("total_seconds").num, res.stats.totalSeconds());
    for (const auto &kv : doc.at("stats").obj)
        EXPECT_TRUE(xfdtest::isRegistryKey(kv.first)) << kv.first;

    const obs::StatsRegistry &reg = obs.stats;

    // Shadow-FSM edges: a btree campaign writes, flushes and fences.
    EXPECT_GT(reg.value("shadow_fsm.edge.Modified_to_WritebackPending"),
              0);
    EXPECT_GT(reg.value("shadow_fsm.edge.WritebackPending_to_Persisted"),
              0);
    EXPECT_GT(reg.value("shadow_fsm.fences"), 0);

    // Per-op trace volumes cover the whole pre-trace.
    EXPECT_GT(reg.value("trace.pre.WRITE"), 0);
    EXPECT_GT(reg.value("trace.post.READ"), 0);

    // One latency sample per post-failure execution.
    const auto *h = dynamic_cast<const obs::Histogram *>(
        reg.find("campaign.post_exec_latency_us"));
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), res.stats.postExecutions);
}

TEST(CampaignExport, StatsJsonDocumentIsValid)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    std::ostringstream os;
    core::writeStatsJson(res, &obs.stats, os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("schema").str, "xfd-stats-v1");
    const Json &camp = doc.at("campaign");
    EXPECT_EQ(camp.at("failure_points").num,
              static_cast<double>(res.stats.failurePoints));
    EXPECT_EQ(camp.at("checks_performed").num,
              static_cast<double>(res.stats.checksPerformed));
    EXPECT_EQ(camp.at("pre_seconds").num, res.stats.preSeconds());
    EXPECT_EQ(camp.at("post_seconds").num, res.stats.postSeconds());
    EXPECT_EQ(camp.at("backend_seconds").num,
              res.stats.backendSeconds());
    EXPECT_EQ(doc.at("bugs").at("total").num,
              static_cast<double>(res.bugs.size()));
    const Json &restore = doc.at("restore");
    EXPECT_EQ(restore.at("pool_bytes").num,
              static_cast<double>(res.stats.poolBytes));
    EXPECT_EQ(restore.at("delta_restores").num,
              static_cast<double>(res.stats.restore.deltaRestores));
    EXPECT_EQ(restore.at("pages_restored").num,
              static_cast<double>(res.stats.restore.pagesRestored));
    EXPECT_EQ(restore.at("bytes_copied").num,
              static_cast<double>(res.stats.restore.bytesCopied()));
    EXPECT_EQ(restore.obj.size(), 4u);
    if (obs::statsCompiledIn) {
        EXPECT_NE(doc.at("stats").find("campaign.post_exec_latency_us"),
                  nullptr);
    }
}

TEST(CampaignExport, StatsJsonCarriesBatchAndElisionCounts)
{
    // CampaignStats numbers the registry used to print alone now live
    // in the structured sections.
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    xfdtest::RunOptions opt;
    opt.detector.backend = "batched";
    opt.detector.crashStates = "sample:8";
    opt.detector.elideSameValueWrites = true;
    auto res = xfdtest::runWorkload("btree", cfg, opt);
    ASSERT_GT(res.stats.batchGroups, 0u);

    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
    Json doc = parseJson(os.str());
    const Json &camp = doc.at("campaign");
    EXPECT_EQ(camp.at("batch_groups").num,
              static_cast<double>(res.stats.batchGroups));
    EXPECT_EQ(camp.at("same_value_elided").num,
              static_cast<double>(res.stats.sameValueElided));
    EXPECT_EQ(camp.find("backend_attribution"), nullptr);
}

TEST(CampaignExport, StatsJsonEchoesEveryConfigFlag)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    core::DetectorConfig dcfg;
    dcfg.crashImageMode = true;
    dcfg.maxFailurePoints = 256;
    std::ostringstream os;
    core::writeStatsJson(res, &dcfg, &obs.stats, os);
    Json doc = parseJson(os.str());

    const Json &conf = doc.at("config");
    for (const auto &d : core::detectorFlagTable())
        EXPECT_NE(conf.find(d.jsonKey), nullptr) << d.jsonKey;
    EXPECT_EQ(conf.obj.size(), core::detectorFlagTable().size());
    EXPECT_TRUE(conf.at("crash_image_mode").b);
    EXPECT_EQ(conf.at("backend").str, "delta");
    EXPECT_EQ(conf.at("max_failure_points").num, 256);
    EXPECT_EQ(conf.at("granularity").num, 1);
    EXPECT_EQ(conf.find("delta_page_size"), nullptr);
    EXPECT_EQ(conf.find("delta_checkpoint_interval"), nullptr);

    // The three-argument overload omits the echo.
    std::ostringstream os2;
    core::writeStatsJson(res, &obs.stats, os2);
    EXPECT_EQ(parseJson(os2.str()).find("config"), nullptr);
}

TEST(ConfigFlags, TableRowsAreWellFormedAndUnique)
{
    std::set<std::string> flags, keys;
    for (const auto &d : core::detectorFlagTable()) {
        EXPECT_TRUE(flags.insert(d.flag).second) << d.flag;
        EXPECT_TRUE(keys.insert(d.jsonKey).second) << d.jsonKey;
        int typed = (d.boolField != nullptr) +
                    (d.uintField != nullptr) + (d.sizeField != nullptr) +
                    (d.stringField != nullptr);
        EXPECT_EQ(typed, 1) << d.flag;
        // Switches and flags with an implied value consume no
        // separate argv slot; everything else requires one.
        EXPECT_EQ(d.takesValue(),
                  d.boolField == nullptr && d.impliedValue == nullptr)
            << d.flag;
        if (d.impliedValue) {
            EXPECT_NE(d.stringField, nullptr) << d.flag;
        }
        EXPECT_NE(core::findDetectorFlag(d.flag), nullptr) << d.flag;
    }
    EXPECT_EQ(core::findDetectorFlag("--not-a-flag"), nullptr);
    for (const char *gone : {"--no-delta", "--lint-prune", "--delta-page",
                             "--delta-checkpoint"})
        EXPECT_EQ(core::findDetectorFlag(gone), nullptr) << gone;
    EXPECT_FALSE(core::detectorFlagHelp().empty());
}

TEST(ConfigFlags, ApplySetsTheMappedField)
{
    core::DetectorConfig cfg;
    auto apply = [&](const char *flag, const char *value) {
        const auto *d = core::findDetectorFlag(flag);
        ASSERT_NE(d, nullptr) << flag;
        EXPECT_EQ(core::applyDetectorFlag(*d, cfg, value), "") << flag;
    };
    apply("--backend", "batched");
    EXPECT_TRUE(cfg.batchingOn());
    apply("--granularity", "4");
    EXPECT_EQ(cfg.granularity, 4u);
    apply("--strict-persist", nullptr);
    EXPECT_TRUE(cfg.strictPersistCheck);

    // --mutate is a string flag with an implied value: bare use means
    // "all", an attached value is passed through.
    const auto *mut = core::findDetectorFlag("--mutate");
    ASSERT_NE(mut, nullptr);
    EXPECT_FALSE(mut->takesValue());
    apply("--mutate", nullptr);
    EXPECT_EQ(cfg.mutateOps, "all");
    apply("--mutate", "quick");
    EXPECT_EQ(cfg.mutateOps, "quick");
    apply("--mutation-seed", "9");
    EXPECT_EQ(cfg.mutationSeed, 9u);

    // Untouched fields keep their defaults.
    EXPECT_TRUE(cfg.elideEmptyFailurePoints);
    EXPECT_EQ(cfg.maxFailurePoints, 0u);
}

TEST(ConfigFlags, BadValuesAreRejectedAndLeaveTheConfig)
{
    const core::DetectorConfig defaults;
    const std::pair<const char *, const char *> bad[] = {
        {"--granularity", "3"},     {"--granularity", "abc"},
        {"--granularity", "16"},    {"--granularity", "0"},
        {"--granularity", "-1"},    {"--granularity", "4294967297"},
        {"--max-failpoints", "abc"}, {"--max-failpoints", "5x"},
        {"--max-failpoints", " 5"}, {"--max-failpoints", "+5"},
        {"--mutation-seed", "1e3"}, {"--backend", "fast"},
        {"--backend", "full"},      {"--pm-model", "cxl"},
        {"--crash-states", "some"}, {"--crash-states", "sample:"},
    };
    for (const auto &[flag, value] : bad) {
        SCOPED_TRACE(std::string(flag) + " " + value);
        core::DetectorConfig cfg;
        std::string err = core::applyDetectorFlag(
            *core::findDetectorFlag(flag), cfg, value);
        EXPECT_NE(err.find(flag), std::string::npos) << err;
        EXPECT_EQ(cfg.granularity, defaults.granularity);
        EXPECT_EQ(cfg.maxFailurePoints, defaults.maxFailurePoints);
        EXPECT_EQ(cfg.backend, defaults.backend);
        EXPECT_EQ(cfg.pmModel, defaults.pmModel);
        EXPECT_EQ(cfg.crashStates, defaults.crashStates);
    }
    core::DetectorConfig cfg;
    EXPECT_NE(core::applyDetectorFlag(*core::findDetectorFlag("--granularity"),
                                      cfg, nullptr),
              "");
    for (const char *g : {"1", "2", "8"}) {
        EXPECT_EQ(core::applyDetectorFlag(
                      *core::findDetectorFlag("--granularity"), cfg, g),
                  "");
    }
    EXPECT_EQ(cfg.granularity, 8u);
    EXPECT_EQ(core::applyDetectorFlag(
                  *core::findDetectorFlag("--max-failpoints"), cfg, "12"),
              "");
    EXPECT_EQ(cfg.maxFailurePoints, 12u);
}

TEST(ConfigFlags, CampaignRunRejectsWhatTheFlagsReject)
{
    // The library checks its config before the pre-failure stage, with
    // the message xfdetect prints for the same config.
    std::vector<core::DetectorConfig> configs(5);
    configs[0].backend = "full";
    configs[1].backend = "batchd";
    configs[2].pmModel = "eADR";
    configs[3].crashStates = "sample:0";
    configs[4].crashStates = "sample:8";
    configs[4].crashImageMode = true;
    for (const auto &dcfg : configs) {
        std::string want = core::checkDetectorConfig(dcfg);
        ASSERT_NE(want, "");
        bool pre_ran = false;
        try {
            xfd::Campaign::forProgram(
                [&](trace::PmRuntime &) { pre_ran = true; },
                [](trace::PmRuntime &) {})
                .config(dcfg)
                .run();
            ADD_FAILURE() << "accepted: " << want;
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(e.what(), want);
        }
        EXPECT_FALSE(pre_ran) << want;
    }
    EXPECT_EQ(core::checkDetectorConfig({}), "");
}

TEST(MutationExport, JsonObjectGolden)
{
    // A hand-built report exercises the exporter deterministically —
    // no campaign needed, and zero-mutant operators must be omitted.
    mutate::MutationReport rep;
    rep.seed = 7;
    rep.enumerated = 5;
    rep.baselineFindings = 1;
    auto &df = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFlush)];
    df.mutants = 4;
    df.detected = 3;
    df.truePositives = 3;
    df.falsePositives = 1;
    rep.aggregate = df;
    rep.aggregate.falsePositives += rep.baselineFindings;

    std::ostringstream os;
    obs::JsonWriter w(os);
    rep.writeJson(w);
    Json doc = parseJson(os.str());

    EXPECT_EQ(doc.at("seed").num, 7);
    EXPECT_EQ(doc.at("enumerated").num, 5);
    EXPECT_EQ(doc.at("mutants").num, 4);
    EXPECT_EQ(doc.at("baseline_findings").num, 1);

    const Json &per = doc.at("per_operator");
    ASSERT_EQ(per.obj.size(), 1u); // only drop_flush has mutants
    const Json &dfj = per.at("drop_flush");
    EXPECT_EQ(dfj.at("mutants").num, 4);
    EXPECT_EQ(dfj.at("detected").num, 3);
    EXPECT_EQ(dfj.at("true_positives").num, 3);
    EXPECT_EQ(dfj.at("false_positives").num, 1);
    EXPECT_DOUBLE_EQ(dfj.at("recall").num, 0.75);
    EXPECT_DOUBLE_EQ(dfj.at("precision").num, 0.75);

    const Json &agg = doc.at("aggregate");
    EXPECT_EQ(agg.at("false_positives").num, 2);
    EXPECT_DOUBLE_EQ(agg.at("precision").num, 0.6);
}

TEST(MutationExport, StatsJsonCarriesTheScores)
{
    mutate::MutationReport rep;
    rep.enumerated = 3;
    rep.aggregate.mutants = 3;
    rep.aggregate.detected = 2;
    rep.aggregate.truePositives = 2;
    rep.aggregate.falsePositives = 1;

    std::ostringstream os;
    obs::JsonWriter w(os);
    rep.writeJson(w);
    const Json agg = parseJson(os.str()).at("aggregate");
    EXPECT_EQ(agg.at("mutants").num, 3);
    EXPECT_EQ(agg.at("detected").num, 2);
    EXPECT_DOUBLE_EQ(agg.at("recall").num, 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(agg.at("precision").num, 2.0 / 3.0);
}

TEST(MutationExport, ScoreboardTextGolden)
{
    // Same hand-built report style as JsonObjectGolden, but freezing
    // the human-readable table: column layout, per-operator rows,
    // aggregate row, baseline line and MISSED listing.
    mutate::MutationReport rep;
    auto &df = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFlush)];
    df.mutants = 4;
    df.detected = 3;
    df.truePositives = 3;
    df.falsePositives = 1;
    auto &dn = rep.perOp[static_cast<std::size_t>(
        mutate::MutationOp::DropFence)];
    dn.mutants = 2;
    dn.detected = 2;
    dn.truePositives = 2;
    dn.falsePositives = 0;
    rep.baselineFindings = 1;
    rep.aggregate.mutants = 6;
    rep.aggregate.detected = 5;
    rep.aggregate.truePositives = 5;
    rep.aggregate.falsePositives = 2;

    mutate::MutantOutcome missed;
    missed.mutant.op = mutate::MutationOp::DropFlush;
    missed.mutant.occurrence = 3;
    missed.mutant.site = trace::SrcLoc{"btree.cc", 42, "insert"};
    missed.detected = false;
    rep.outcomes.push_back(missed);

    const std::string expected =
        "=== mutation scoreboard: 6 mutant(s), 5 detected ===\n"
        "operator             mutants detected  recall    TP    FP "
        "precision     F1\n"
        "drop_flush                 4        3   0.750     3     1 "
        "    0.750  0.750\n"
        "drop_fence                 2        2   1.000     2     0 "
        "    1.000  1.000\n"
        "aggregate                  6        5   0.833     5     2 "
        "    0.714  0.769\n"
        "baseline findings (counted as false positives): 1\n"
        "  MISSED  drop_flush #3 @ btree.cc:42\n";
    EXPECT_EQ(rep.scoreboard(), expected);
}

TEST(CampaignExport, SerialAndParallelExportIdentically)
{
    core::CampaignObserver serial_obs, par_obs;
    auto serial = runObserved("hashmap_tx", 1, serial_obs);
    auto par = runObserved("hashmap_tx", 4, par_obs);

    // Byte-identical findings documents.
    std::ostringstream serial_report, par_report;
    core::writeReportJson(serial, serial_report);
    core::writeReportJson(par, par_report);
    EXPECT_EQ(serial_report.str(), par_report.str());

    // Identical check accounting and FSM counters.
    EXPECT_EQ(serial.stats.checksPerformed, par.stats.checksPerformed);
    EXPECT_EQ(serial.stats.checksSkipped, par.stats.checksSkipped);
    EXPECT_EQ(serial.stats.postExecutions, par.stats.postExecutions);
    for (const char *key :
         {"shadow_fsm.edge.Unmodified_to_Modified",
          "shadow_fsm.edge.Modified_to_WritebackPending",
          "shadow_fsm.edge.WritebackPending_to_Persisted",
          "shadow_fsm.fences", "trace.pre.WRITE", "trace.post.READ"}) {
        EXPECT_EQ(serial_obs.stats.value(key), par_obs.stats.value(key))
            << key;
    }
}

TEST(CampaignExport, ParallelWorkersGetDistinctTimelineTracks)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 4, obs);
    ASSERT_EQ(res.stats.threads, 4u);

    std::ostringstream os;
    obs.timeline.writeChromeTrace(os);
    Json doc = parseJson(os.str());

    std::set<double> fp_tids;
    std::set<std::string> labels;
    for (const Json &e : doc.at("traceEvents").arr) {
        if (e.at("ph").str == "M")
            labels.insert(e.at("args").at("name").str);
        else if (e.at("cat").str == "fp")
            fp_tids.insert(e.at("tid").num);
    }
    EXPECT_GE(fp_tids.size(), 2u);
    EXPECT_TRUE(labels.count("main"));
    EXPECT_TRUE(labels.count("worker-0"));
    EXPECT_TRUE(labels.count("worker-3"));
}

TEST(CampaignExport, ProgressCallbackCoversEveryFailurePoint)
{
    struct Ticks : core::CampaignHooks
    {
        std::size_t calls = 0;
        std::size_t lastDone = 0, lastTotal = 0;
        void
        onProgress(const core::ProgressUpdate &u) override
        {
            calls++;
            lastDone = std::max(lastDone, u.done);
            lastTotal = u.total;
        }
    } ticks;
    core::CampaignObserver obs;
    obs.hooks = &ticks;
    auto res = runObserved("btree", 2, obs);
    // One tick per executed failure point, plus the zero anchor tick
    // the driver fires before the loop starts.
    EXPECT_EQ(ticks.calls, res.stats.failurePoints + 1);
    EXPECT_EQ(ticks.lastDone, res.stats.failurePoints);
    EXPECT_EQ(ticks.lastTotal, res.stats.failurePoints);
}

TEST(CampaignExport, NoStatsWhenCollectionDisabled)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    auto w = workloads::makeWorkload("btree", cfg);
    pm::PmPool pool(1 << 22);
    core::DetectorConfig dcfg;
    dcfg.collectStats = false;
    core::Driver driver(pool, dcfg);
    core::CampaignObserver obs;
    driver.setObserver(&obs);
    auto res = driver.run([&](trace::PmRuntime &rt) { w->pre(rt); },
                          [&](trace::PmRuntime &rt) { w->post(rt); });
    EXPECT_GT(res.stats.postExecutions, 0u);
    EXPECT_TRUE(obs.stats.empty());

    // The stats document still works without a registry.
    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.find("stats"), nullptr);
    EXPECT_EQ(doc.at("schema").str, "xfd-stats-v1");
}

} // namespace
