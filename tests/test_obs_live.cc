/**
 * @file
 * Live-telemetry and phase-profiler tests: sliding-window rate and
 * latency math, deterministic snapshot goldens (test clocks),
 * Prometheus text conformance, the HTTP responder's bodies, JSONL
 * streaming, ETA anchoring, finding-provenance round-trips through
 * the report JSON, and the serial/parallel phase-accounting
 * invariants.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign_json.hh"
#include "core/driver.hh"
#include "core/explain.hh"
#include "core/observer.hh"
#include "harness.hh"
#include "obs/json.hh"
#include "obs/live.hh"
#include "obs/phase_profiler.hh"
#include "obs/progress.hh"
#include "obs/serve.hh"
#include "testutil_json.hh"
#include "trace/runtime.hh"
#include "trace/subset.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using xfdtest::Json;
using xfdtest::parseJson;

TEST(RateWindow, SumAndRateOverExplicitSeconds)
{
    obs::RateWindow w(64);
    w.note(3, 0);
    w.note(2, 0);
    EXPECT_EQ(w.total(), 5u);
    EXPECT_EQ(w.sumLast(1, 0), 5u);

    w.note(4, 1);
    EXPECT_EQ(w.sumLast(1, 1), 4u);
    EXPECT_EQ(w.sumLast(2, 1), 9u);
    EXPECT_DOUBLE_EQ(w.ratePerSec(1, 1), 4.0);
    EXPECT_DOUBLE_EQ(w.ratePerSec(10, 1), 0.9);
    EXPECT_DOUBLE_EQ(w.ratePerSec(0, 1), 0.0);
}

TEST(RateWindow, RollForgetsOldSecondsButNotTheTotal)
{
    obs::RateWindow w(4);
    EXPECT_EQ(w.capacity(), 4u);
    for (std::int64_t s = 0; s < 4; s++)
        w.note(1, s);
    EXPECT_EQ(w.sumLast(4, 3), 4u);

    // Second 4 reuses second 0's ring slot.
    w.note(10, 4);
    EXPECT_EQ(w.sumLast(4, 4), 13u);
    EXPECT_EQ(w.total(), 14u);

    // A gap longer than the ring empties the window entirely.
    EXPECT_EQ(w.sumLast(4, 100), 0u);
    EXPECT_EQ(w.total(), 14u);

    // k beyond the capacity clamps instead of double-counting.
    w.note(2, 100);
    EXPECT_EQ(w.sumLast(1000, 100), 2u);
}

TEST(LatencyWindow, MergeBucketsMatchHistogramSemantics)
{
    obs::LatencyWindow w(64, 32);
    w.note(1.0, 0);
    w.note(3.0, 0);
    w.note(1000.0, 0);

    auto m = w.mergeLast(10, 0);
    EXPECT_EQ(m.count, 3u);
    EXPECT_DOUBLE_EQ(m.sum, 1004.0);
    EXPECT_DOUBLE_EQ(m.maxVal, 1000.0);
    // Same bucketing as obs::Histogram: [0,2), [2,4), ..., [512,1024).
    EXPECT_EQ(m.buckets[0], 1u);
    EXPECT_EQ(m.buckets[1], 1u);
    EXPECT_EQ(m.buckets[9], 1u);

    // Quantiles report the holding bucket's upper bound, clamped by
    // the observed max.
    EXPECT_DOUBLE_EQ(m.quantile(0.50), 4.0);
    EXPECT_DOUBLE_EQ(m.quantile(0.99), 1000.0);
    EXPECT_DOUBLE_EQ(obs::LatencyWindow::Merged{}.quantile(0.5), 0.0);
}

TEST(LatencyWindow, SamplesExpireWithTheirSecond)
{
    obs::LatencyWindow w(4);
    w.note(5.0, 0);
    EXPECT_EQ(w.mergeLast(4, 0).count, 1u);
    EXPECT_EQ(w.mergeLast(4, 10).count, 0u);
    EXPECT_EQ(w.totalCount(), 1u);
}

TEST(LiveMetrics, DisabledFeedsAreDropped)
{
    obs::LiveMetrics lm;
    EXPECT_FALSE(lm.enabled());
    lm.count("fp");
    lm.gauge("g", 1);
    lm.sample("lat", 2);
    auto snap = lm.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.hists.empty());
}

/** One deterministic registry all snapshot/export tests share. */
obs::LiveMetrics &
frozenMetrics()
{
    static obs::LiveMetrics *lm = [] {
        auto *m = new obs::LiveMetrics;
        m->setEnabled(true);
        m->setClockForTest([] { return std::int64_t{5}; });
        m->setWallClockForTest([] { return 1234.5; });
        m->count("fp", 3);
        m->gauge("g", 2.5);
        m->sample("lat", 3.0);
        return m;
    }();
    return *lm;
}

TEST(LiveSnapshot, JsonGoldenWithTestClocks)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    frozenMetrics().snapshot(10).writeJson(w);
    EXPECT_EQ(os.str(),
              "{\"schema\":\"xfd-live-v1\",\"wall_time\":1234.5,"
              "\"uptime_seconds\":5,\"window_seconds\":10,"
              "\"counters\":{\"fp\":{\"total\":3,\"per_sec_1s\":3,"
              "\"per_sec_10s\":0.3,\"per_sec_60s\":0.05}},"
              "\"gauges\":{\"g\":2.5},"
              "\"histograms\":{\"lat\":{\"count\":1,\"sum\":3,"
              "\"max\":3,\"p50\":3,\"p90\":3,\"p99\":3,"
              "\"buckets\":[0,1]}}}");
}

TEST(LiveSnapshot, PrometheusTextConformance)
{
    std::ostringstream os;
    frozenMetrics().snapshot(10).writePrometheus(os);
    const std::string text = os.str();

    // Counters: lifetime _total plus windowed per-second gauges.
    EXPECT_NE(text.find("# TYPE xfd_fp_total counter\n"
                        "xfd_fp_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_fp_per_sec{window=\"1s\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_fp_per_sec{window=\"10s\"} 0.3\n"),
              std::string::npos);

    // Gauges.
    EXPECT_NE(text.find("# TYPE xfd_g gauge\nxfd_g 2.5\n"),
              std::string::npos);

    // Histograms: cumulative buckets, then +Inf == _count, _sum.
    EXPECT_NE(text.find("# TYPE xfd_lat histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_lat_bucket{le=\"2\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_lat_bucket{le=\"4\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_lat_bucket{le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("xfd_lat_sum 3\n"), std::string::npos);
    EXPECT_NE(text.find("xfd_lat_count 1\n"), std::string::npos);

    // Every line is either a comment or an xfd_-prefixed sample.
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_TRUE(line[0] == '#' || line.rfind("xfd_", 0) == 0)
            << line;
    }
}

TEST(LiveSnapshot, PromNameSanitizesToMetricCharset)
{
    EXPECT_EQ(obs::promName("phase.restore_us"),
              "xfd_phase_restore_us");
    EXPECT_EQ(obs::promName("A-b.9"), "xfd_a_b_9");
}

TEST(LiveServer, RenderBodiesWithoutSockets)
{
    obs::LiveServer srv(frozenMetrics());
    EXPECT_EQ(srv.renderBody("/metrics").rfind("# HELP xfd_up", 0), 0u);

    Json snap = parseJson(srv.renderBody("/snapshot"));
    EXPECT_EQ(snap.at("schema").str, "xfd-live-v1");
    EXPECT_EQ(snap.at("counters").at("fp").at("total").num, 3);

    EXPECT_NE(srv.renderBody("/").find("/metrics"), std::string::npos);
    EXPECT_TRUE(srv.renderBody("/nope").empty());
}

TEST(LiveServer, BindsEphemeralPortAndStops)
{
    obs::LiveMetrics lm;
    obs::LiveServer srv(lm);
    std::string err;
    ASSERT_TRUE(srv.start(0, &err)) << err;
    EXPECT_GT(srv.port(), 0);
    EXPECT_TRUE(srv.running());
    srv.stop();
    EXPECT_FALSE(srv.running());
    srv.stop(); // idempotent
}

TEST(LiveSession, StreamsAtLeastOneFinalJsonlLine)
{
    std::string path =
        ::testing::TempDir() + "/xfd_live_stream.jsonl";
    obs::LiveMetrics lm;
    {
        obs::LiveSession::Options opts;
        opts.jsonlPath = path;
        obs::LiveSession session(lm, opts);
        ASSERT_TRUE(session.ok()) << session.error();
        EXPECT_TRUE(lm.enabled());
        lm.count("fp", 7);
    }
    // Teardown disables the registry and flushes a final snapshot.
    EXPECT_FALSE(lm.enabled());
    std::ifstream in(path);
    std::string line, last;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        last = line;
        lines++;
    }
    ASSERT_GE(lines, 1u);
    Json doc = parseJson(last);
    EXPECT_EQ(doc.at("schema").str, "xfd-live-v1");
    EXPECT_EQ(doc.at("counters").at("fp").at("total").num, 7);
}

TEST(Progress, EtaPricesOnlyWorkSinceTheFirstUpdate)
{
    // 10 units in 10 s since the anchor, 50 left: 50 s to go. The
    // anchor excludes trace capture / planning / lint pruning, which
    // used to inflate the rate's denominator.
    EXPECT_DOUBLE_EQ(obs::etaSeconds(10, 60, 50, 110), 50.0);
    EXPECT_DOUBLE_EQ(obs::etaSeconds(5, 20, 10, 30), 5.0);
    // No rate yet, done, or a zero interval: no estimate.
    EXPECT_DOUBLE_EQ(obs::etaSeconds(10, 50, 50, 110), 0.0);
    EXPECT_DOUBLE_EQ(obs::etaSeconds(10, 110, 50, 110), 0.0);
    EXPECT_DOUBLE_EQ(obs::etaSeconds(0, 60, 50, 110), 0.0);
}

/**
 * Minimal cross-failure race: `payload` is written between two
 * fences but never written back, so it is in flight at the second
 * ordering point; recovery reads it. Each field sits on its own
 * cache line so no neighbouring flush persists it by accident.
 */
struct RaceRoot
{
    std::int64_t committed;
    std::uint8_t pad0[56];
    std::int64_t payload;
    std::uint8_t pad1[56];
    std::int64_t seal;
};

core::CampaignResult
runRaceCampaign(core::DetectorConfig cfg = {},
                core::CampaignObserver *obs = nullptr)
{
    auto root = [](trace::PmRuntime &rt) {
        return static_cast<RaceRoot *>(
            rt.pool().toHost(rt.pool().base()));
    };
    xfdtest::RunOptions opt;
    opt.detector = cfg;
    opt.observer = obs;
    return xfdtest::runCampaign(
        [&](trace::PmRuntime &rt) {
            RaceRoot *r = root(rt);
            trace::RoiScope roi(rt);
            rt.store(r->committed, std::int64_t{1});
            rt.persistBarrier(&r->committed, 8);
            rt.store(r->payload, std::int64_t{42});
            rt.store(r->seal, std::int64_t{1});
            rt.persistBarrier(&r->seal, 8);
        },
        [&](trace::PmRuntime &rt) {
            RaceRoot *r = root(rt);
            trace::RoiScope roi(rt);
            (void)rt.load(r->payload);
        },
        opt);
}

TEST(Provenance, RoundTripsThroughReportJsonAndExplain)
{
    auto res = runRaceCampaign();
    ASSERT_FALSE(res.bugs.empty()) << res.summary();

    // Locate a finding that carries a causal chain.
    std::size_t idx = res.bugs.size();
    for (std::size_t i = 0; i < res.bugs.size(); i++) {
        if (!res.bugs[i].frontierSeqs.empty()) {
            idx = i;
            break;
        }
    }
    ASSERT_LT(idx, res.bugs.size()) << res.summary();
    const core::BugReport &bug = res.bugs[idx];

    // Report JSON carries the same chain under "provenance".
    std::ostringstream os;
    core::writeReportJson(res, os);
    Json doc = parseJson(os.str());
    const Json &finding = doc.at("findings").arr[idx];
    EXPECT_EQ(finding.at("id").str,
              "F" + std::to_string(idx + 1));
    const Json &prov = finding.at("provenance");
    const auto &seqs = prov.at("frontier_seqs").arr;
    ASSERT_EQ(seqs.size(), bug.frontierSeqs.size());
    EXPECT_EQ(prov.at("frontier_size").num,
              static_cast<double>(seqs.size()));
    for (std::size_t i = 0; i < seqs.size(); i++)
        EXPECT_EQ(seqs[i].num, bug.frontierSeqs[i]);

    // The mask hex parses back over exactly frontier_size bits; the
    // paper's footnote-3 image keeps every in-flight write.
    trace::SubsetMask mask;
    ASSERT_TRUE(trace::SubsetMask::fromHex(
        prov.at("persisted_mask").str, seqs.size(), mask));
    EXPECT_EQ(mask, bug.persistedMask);
    EXPECT_TRUE(mask.all());

    // --explain renders the same chain, seq by seq.
    std::string err;
    std::string text = core::renderExplain(
        res, "F" + std::to_string(idx + 1), nullptr, &err);
    ASSERT_FALSE(text.empty()) << err;
    EXPECT_NE(text.find("=== F" + std::to_string(idx + 1)),
              std::string::npos);
    for (std::uint32_t seq : bug.frontierSeqs) {
        EXPECT_NE(text.find("seq " + std::to_string(seq)),
                  std::string::npos)
            << text;
    }

    // Bare indices work; bad selectors error without output.
    EXPECT_EQ(core::renderExplain(res, std::to_string(idx + 1),
                                  nullptr, &err),
              text);
    EXPECT_TRUE(
        core::renderExplain(res, "F999", nullptr, &err).empty());
    EXPECT_FALSE(err.empty());
}

TEST(Provenance, CrashImageModeRecordsAnEmptyPersistedMask)
{
    core::DetectorConfig cfg;
    cfg.crashImageMode = true;
    auto res = runRaceCampaign(cfg);
    bool saw = false;
    for (const auto &b : res.bugs) {
        if (b.frontierSeqs.empty())
            continue;
        saw = true;
        EXPECT_EQ(b.persistedMask.size(), b.frontierSeqs.size());
        EXPECT_TRUE(b.persistedMask.none());
    }
    EXPECT_TRUE(saw) << res.summary();
}

core::CampaignResult
runPhased(unsigned threads, core::CampaignObserver &obs)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    xfdtest::RunOptions opt;
    opt.threads = threads;
    opt.observer = &obs;
    return xfdtest::runWorkload("hashmap_tx", cfg, opt);
}

TEST(PhaseProfiler, TimingFieldsAreThePhaseSums)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(strprintf("threads=%u", threads));
        core::CampaignObserver obs;
        auto res = runPhased(threads, obs);
        const obs::PhaseTotals &ph = res.stats.phases;

        auto n = [&](obs::Phase p) {
            return ph.count[static_cast<std::size_t>(p)];
        };
        EXPECT_EQ(n(obs::Phase::TraceCapture), 1u);
        EXPECT_GE(n(obs::Phase::Plan), 1u);
        EXPECT_EQ(n(obs::Phase::Restore), res.stats.failurePoints);
        EXPECT_EQ(n(obs::Phase::RecoveryExec), res.stats.postExecutions);
        EXPECT_GE(n(obs::Phase::Classify), res.stats.failurePoints);
        EXPECT_EQ(n(obs::Phase::Oracle), 0u);

        // Every timed interval is noted once, in the phase totals:
        // backend is restore + classify and post is recovery_exec,
        // serial or threaded (CPU-seconds over the workers).
        auto sec = [&](obs::Phase p) { return ph.secondsOf(p); };
        double backend =
            sec(obs::Phase::Restore) + sec(obs::Phase::Classify);
        EXPECT_NEAR(backend, res.stats.backendSeconds(),
                    1e-9 * backend);
        EXPECT_NEAR(sec(obs::Phase::RecoveryExec),
                    res.stats.postSeconds(),
                    1e-9 * sec(obs::Phase::RecoveryExec));
        EXPECT_GE(ph.total(), res.stats.backendSeconds());
    }
}

TEST(PhaseProfiler, ScopedTimerCountsAreThreadCountInvariant)
{
    core::CampaignObserver serial_obs, par_obs;
    auto serial = runPhased(1, serial_obs);
    auto par = runPhased(4, par_obs);
    EXPECT_EQ(serial.stats.phases.count, par.stats.phases.count);
}

TEST(PhaseProfiler, GroupingPassIsBilledOnce)
{
    // Candidate equivalence is decided once per campaign, before any
    // worker starts, whenever the campaign folds or samples by group:
    // one lint_prune note, whatever the thread count.
    struct Case
    {
        const char *backend;
        const char *crashStates;
        const char *model;
        std::uint64_t notes;
    };
    const Case cases[] = {
        {"delta", "anchor", "clwb", 0},   {"batched", "anchor", "clwb", 1},
        {"delta", "sample:8", "clwb", 1}, {"delta", "sample:8", "eadr", 0},
        {"batched", "sample:8", "eadr", 1},
    };
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    for (const Case &c : cases) {
        std::array<std::uint64_t, obs::phaseCount> counts{};
        for (unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(strprintf("%s %s %s threads=%u", c.backend,
                                   c.crashStates, c.model, threads));
            xfdtest::RunOptions opt;
            opt.threads = threads;
            opt.detector.backend = c.backend;
            opt.detector.crashStates = c.crashStates;
            opt.detector.pmModel = c.model;
            auto res = xfdtest::runWorkload("hashmap_tx", cfg, opt);
            const obs::PhaseTotals &ph = res.stats.phases;
            EXPECT_EQ(ph.count[static_cast<std::size_t>(
                          obs::Phase::LintPrune)],
                      c.notes);
            if (threads == 1)
                counts = ph.count;
            else
                EXPECT_EQ(ph.count, counts);
        }
    }
}

TEST(PhaseProfiler, StatsJsonCarriesTheTotals)
{
    core::CampaignObserver obs;
    auto res = runPhased(1, obs);
    const obs::PhaseTotals &ph = res.stats.phases;

    // The stats document is the one export of the breakdown: per
    // phase under campaign.phases.
    std::ostringstream os;
    core::writeStatsJson(res, nullptr, os);
    Json doc = parseJson(os.str());
    const Json &camp = doc.at("campaign");
    const Json &phases = camp.at("phases");
    EXPECT_EQ(phases.at("restore").at("seconds").num,
              ph.secondsOf(obs::Phase::Restore));
    EXPECT_EQ(phases.at("classify").at("count").num,
              static_cast<double>(ph.count[static_cast<std::size_t>(
                  obs::Phase::Classify)]));
    double total = 0;
    for (const auto &kv : phases.obj)
        total += kv.second.at("seconds").num;
    EXPECT_DOUBLE_EQ(total, ph.total());
    EXPECT_EQ(camp.at("backend_seconds").num,
              phases.at("restore").at("seconds").num +
                  phases.at("classify").at("seconds").num);
    EXPECT_EQ(doc.find("stats"), nullptr);
    EXPECT_NE(phases.find("trace_capture"), nullptr);
    EXPECT_EQ(phases.at("restore").at("count").num,
              static_cast<double>(res.stats.failurePoints));
    EXPECT_EQ(phases.find("oracle"), nullptr);
    EXPECT_EQ(camp.find("backend_attribution"), nullptr);

    // ScopedPhase attributes to its phase; a null sink is a no-op.
    obs::PhaseTotals t;
    {
        obs::ScopedPhase timer(&t, obs::Phase::Plan);
    }
    EXPECT_EQ(t.count[static_cast<std::size_t>(obs::Phase::Plan)], 1u);
    obs::ScopedPhase noop(nullptr, obs::Phase::Plan);
    EXPECT_DOUBLE_EQ(noop.stop(), 0.0);
}

TEST(PhaseProfiler, ScopedPhaseFansOutOnce)
{
    // One interval: its seconds and count land in the totals, its
    // span on the timeline track, and the phase's live metric.
    obs::PhaseTotals t;
    obs::Timeline tl;
    int track = tl.registerTrack("worker-0");
    obs::LiveMetrics live;
    live.setEnabled(true);
    obs::ScopedPhase timer(&t, obs::Phase::RecoveryExec,
                           {&tl, track, &live}, "post-exec", "post");
    timer.setCount(3);
    double sec = timer.stop();
    EXPECT_EQ(timer.stop(), 0.0);
    EXPECT_EQ(t.secondsOf(obs::Phase::RecoveryExec), sec);
    EXPECT_EQ(
        t.count[static_cast<std::size_t>(obs::Phase::RecoveryExec)], 3u);

    auto evs = tl.events();
    ASSERT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].name, "post-exec");
    EXPECT_STREQ(evs[0].cat, "post");
    EXPECT_EQ(evs[0].tid, track);
    EXPECT_GE(evs[0].durUs, 0);

    auto snap = live.snapshot();
    ASSERT_EQ(snap.hists.size(), 1u);
    EXPECT_EQ(snap.hists[0].name, "post_exec_latency_us");
    EXPECT_EQ(snap.hists[0].count, 1u);
}

} // namespace
