/**
 * @file
 * Observability layer tests: JSON writer round-trips, histogram
 * bucketing and merging, Chrome-trace/JSONL export structure, progress
 * formatting, and end-to-end campaign export — including that serial
 * and parallel campaigns export identical findings and stats, and
 * that a stats document describes exactly one campaign.
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
#include "obs/histogram.hh"
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

TEST(Histogram, PowerOfTwoBucketsMergeAndJson)
{
    obs::Histogram a, b;
    for (double v : {0.0, 1.0, 2.0})
        a.sample(v);
    for (double v : {3.0, 4.0, 1024.0})
        b.sample(v);
    obs::Histogram h = a;
    h.merge(b);
    h.merge(obs::Histogram{});

    EXPECT_EQ(h.count, 6u);
    EXPECT_EQ(h.buckets[0], 2u);  // [0, 2)
    EXPECT_EQ(h.buckets[1], 2u);  // [2, 4)
    EXPECT_EQ(h.buckets[2], 1u);  // [4, 8)
    EXPECT_EQ(h.buckets[10], 1u); // [1024, 2048)
    EXPECT_DOUBLE_EQ(h.mean(), 1034.0 / 6);

    // Merging into an empty histogram takes the other's range.
    obs::Histogram c;
    c.merge(b);
    EXPECT_EQ(c.minVal, 3);
    EXPECT_EQ(c.maxVal, 1024);

    // The one bucketing function (LatencyWindow's too): negatives and
    // [0, 2) in bucket 0, everything past the last bucket in it.
    EXPECT_EQ(obs::log2Bucket(-5, 32), 0u);
    EXPECT_EQ(obs::log2Bucket(1.99, 32), 0u);
    EXPECT_EQ(obs::log2Bucket(2, 32), 1u);
    EXPECT_EQ(obs::log2Bucket(1000, 32), 9u);
    EXPECT_EQ(obs::log2Bucket(1e30, 32), 31u);

    std::ostringstream os;
    obs::JsonWriter w(os);
    h.writeJson(w);
    Json hist = parseJson(os.str());
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

/** Sum of the numbers in the JSON object @p o. */
double
sumOf(const Json &o)
{
    double sum = 0;
    for (const auto &kv : o.obj)
        sum += kv.second.num;
    return sum;
}

/**
 * A stats document describes one campaign: one latency sample per
 * post-failure execution, and per-op volumes that add up to the
 * trace entry counts. Every FSM edge and every op is present.
 */
void
expectOneCampaign(const Json &doc)
{
    const Json &camp = doc.at("campaign");
    EXPECT_EQ(camp.at("post_exec_latency_us").at("count").num,
              camp.at("post_executions").num);
    EXPECT_EQ(sumOf(doc.at("trace").at("post")),
              camp.at("post_trace_entries").num);
    EXPECT_EQ(sumOf(doc.at("trace").at("pre")),
              camp.at("pre_trace_entries").num);
    const std::size_t states = core::ShadowFsmCounters::numStates;
    EXPECT_EQ(doc.at("shadow_fsm").at("edge").obj.size(), states * states);
    EXPECT_EQ(doc.at("trace").at("pre").obj.size(), trace::opCount);
    EXPECT_EQ(doc.at("trace").at("post").obj.size(), trace::opCount);
    EXPECT_EQ(doc.find("stats"), nullptr);
}

TEST(CampaignExport, StatsDocumentMatchesCampaignStats)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
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
    expectOneCampaign(doc);

    // Shadow-FSM edges: a btree campaign writes, flushes and fences.
    const Json &fsm = doc.at("shadow_fsm");
    using core::PersistState;
    EXPECT_GT(fsm.at("edge").at("Modified_to_WritebackPending").num, 0);
    EXPECT_GT(fsm.at("edge").at("WritebackPending_to_Persisted").num, 0);
    EXPECT_EQ(fsm.at("edge").at("WritebackPending_to_Persisted").num,
              static_cast<double>(res.stats.shadowFsm.edgeCount(
                  PersistState::WritebackPending,
                  PersistState::Persisted)));
    EXPECT_GT(fsm.at("fences").num, 0);
    EXPECT_EQ(fsm.at("fences").num,
              static_cast<double>(res.stats.shadowFsm.fences));

    // Per-op trace volumes.
    EXPECT_GT(doc.at("trace").at("pre").at("WRITE").num, 0);
    EXPECT_GT(doc.at("trace").at("post").at("READ").num, 0);
    EXPECT_EQ(doc.at("trace").at("post").at("READ").num,
              static_cast<double>(res.stats.postOps[static_cast<std::size_t>(
                  trace::Op::Read)]));
}

TEST(CampaignExport, ReusedObserverDocumentDescribesOneCampaign)
{
    // Two campaigns through one observer: the second result's document
    // counts the second campaign only.
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 1;
    auto w = workloads::makeWorkload("btree", cfg);
    core::CampaignObserver obs;
    auto campaign =
        Campaign::forProgram([&](trace::PmRuntime &rt) { w->pre(rt); },
                             [&](trace::PmRuntime &rt) { w->post(rt); })
            .observer(&obs);
    auto first = campaign.run();
    auto second = campaign.threads(2).run();
    ASSERT_GT(first.stats.postExecutions, 0u);
    EXPECT_EQ(second.stats.postExecutions, first.stats.postExecutions);

    std::ostringstream os;
    core::writeStatsJson(second, nullptr, os);
    expectOneCampaign(parseJson(os.str()));
}

TEST(CampaignExport, EverySectionWithoutAnObserver)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 2;
    cfg.testOps = 2;
    auto res = xfdtest::runWorkload("btree", cfg);
    EXPECT_GT(res.stats.postExecutions, 0u);

    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
    Json doc = parseJson(os.str());
    EXPECT_EQ(doc.at("schema").str, "xfd-stats-v1");
    EXPECT_EQ(doc.find("config"), nullptr);
    expectOneCampaign(doc);
    EXPECT_GT(doc.at("shadow_fsm").at("edge")
                  .at("Modified_to_WritebackPending").num,
              0);
}

TEST(CampaignExport, StatsJsonDocumentIsValid)
{
    core::CampaignObserver obs;
    auto res = runObserved("btree", 1, obs);

    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
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
    EXPECT_EQ(camp.at("post_exec_latency_us").at("count").num,
              static_cast<double>(res.stats.postExecutions));
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
    core::writeStatsJson(res, &dcfg, os);
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

    // A null config omits the echo.
    std::ostringstream os2;
    core::writeStatsJson(res, nullptr, os2);
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
    std::vector<core::DetectorConfig> configs(7);
    configs[0].backend = "full";
    configs[1].backend = "batchd";
    configs[2].pmModel = "eADR";
    configs[3].crashStates = "sample:0";
    configs[4].crashStates = "sample:8";
    configs[4].crashImageMode = true;
    configs[5].granularity = 3;
    configs[6].granularity = 16;
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

    // Identical check accounting, FSM counters, trace volumes and
    // latency sample counts.
    EXPECT_EQ(serial.stats.checksPerformed, par.stats.checksPerformed);
    EXPECT_EQ(serial.stats.checksSkipped, par.stats.checksSkipped);
    EXPECT_EQ(serial.stats.postExecutions, par.stats.postExecutions);
    const core::ShadowFsmCounters &sf = serial.stats.shadowFsm;
    const core::ShadowFsmCounters &pf = par.stats.shadowFsm;
    EXPECT_GT(sf.fences, 0u);
    for (std::size_t f = 0; f < core::ShadowFsmCounters::numStates; f++) {
        for (std::size_t t = 0; t < core::ShadowFsmCounters::numStates;
             t++)
            EXPECT_EQ(sf.edge[f][t], pf.edge[f][t]) << f << "->" << t;
    }
    EXPECT_EQ(sf.redundantFlushes, pf.redundantFlushes);
    EXPECT_EQ(sf.fences, pf.fences);
    EXPECT_EQ(sf.orderingFences, pf.orderingFences);
    EXPECT_EQ(serial.stats.preOps, par.stats.preOps);
    EXPECT_EQ(serial.stats.postOps, par.stats.postOps);
    EXPECT_EQ(serial.stats.postExecLatencyUs.count,
              par.stats.postExecLatencyUs.count);
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

} // namespace
