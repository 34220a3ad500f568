/**
 * @file
 * Figure 13 reproduction — scalability in pre-failure transactions.
 *
 * For each micro benchmark, scale the number of pre-failure test
 * operations through {1, 10, 20, 30, 40, 50} (post-failure held at
 * one operation, as in §6.2.2) and report detection wall-clock time
 * (the whole campaign run() call) and the number of injected failure
 * points.
 *
 * Expected shape (paper): execution time grows linearly with the
 * number of failure points, which grows linearly with transactions.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_util.hh"

using namespace xfd;
using namespace xfd::bench;

namespace
{

const char *const kMicro[] = {"btree", "wal_btree", "ctree", "rbtree",
                              "hashmap_tx", "hashmap_atomic"};
const unsigned kTxns[] = {1, 10, 20, 30, 40, 50};

workloads::WorkloadConfig
fig13Config(unsigned txns)
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = txns;
    cfg.postOps = 1;
    return cfg;
}

void
printTable()
{
    struct Point
    {
        unsigned txns;
        double ms;
        std::size_t failpoints;
        std::size_t csExplored; // --crash-states=sample:16 run
        std::size_t csPruned;
        pm::DeltaRestoreStats restore;
        std::uint64_t fullCopyBaseline; // bytes a full-copy run moves
        std::array<double, obs::phaseCount> phaseSeconds;
    };
    std::vector<std::pair<std::string, std::vector<Point>>> series;

    // XFD_BENCH_QUICK=1 (CI smoke): smallest two sizes only.
    bool quick = std::getenv("XFD_BENCH_QUICK") != nullptr;
    std::vector<unsigned> txn_set(std::begin(kTxns), std::end(kTxns));
    if (quick)
        txn_set.resize(2);

    std::printf("\n=== Figure 13: execution time vs. #pre-failure "
                "transactions ===\n");
    for (const char *w : kMicro) {
        rule();
        std::printf("%s\n", w);
        std::printf("  %-8s %10s %12s %14s %14s %10s\n", "#txns",
                    "time(ms)", "#failpoints", "ms/failpoint",
                    "restored(KB)", "of full");
        std::vector<Point> points;
        core::DetectorConfig cs_dcfg;
        cs_dcfg.crashStates = "sample:16";
        for (unsigned txns : txn_set) {
            Timing t = timeCampaign(w, fig13Config(txns), {}, 1);
            Timing cs = timeCampaign(w, fig13Config(txns), cs_dcfg, 1);
            const core::CampaignStats &cst = cs.last.statistics();
            double ms = t.meanWallSeconds * 1e3;
            const auto &s = t.last.stats;
            std::size_t fp = s.failurePoints;
            double per = fp ? ms / fp : 0;
            // What the pre-delta driver would have copied: one full
            // image per restore.
            std::uint64_t baseline =
                (s.restore.fullCopies + s.restore.deltaRestores) *
                s.poolBytes;
            double frac = baseline
                              ? static_cast<double>(
                                    s.restore.bytesCopied()) /
                                    static_cast<double>(baseline)
                              : 0;
            std::printf("  %-8u %10.2f %12zu %14.3f %14.1f %9.1f%%\n",
                        txns, ms, fp, per,
                        static_cast<double>(s.restore.bytesCopied()) /
                            1024.0,
                        frac * 100.0);
            points.push_back({txns, ms, fp, cst.crashStatesExplored,
                              cst.crashStatesPruned, s.restore,
                              baseline, t.meanPhaseSeconds});
        }
        series.emplace_back(w, std::move(points));
    }
    rule();
    std::printf("\npaper: time increases linearly as the number of "
                "failure points increases\n(the per-failure-point cost "
                "column should stay roughly flat). The restore columns\n"
                "track the delta-image engine: bytes actually copied "
                "into exec pools and the\nfraction of the "
                "full-copy-per-failure-point baseline they represent.\n\n");

    writeBenchJson("fig13", [&](obs::JsonWriter &w) {
        w.field("quick", quick);
        w.key("workloads").beginArray();
        for (const auto &[name, points] : series) {
            w.beginObject();
            w.field("workload", name);
            w.key("points").beginArray();
            for (const auto &p : points) {
                w.beginObject();
                w.field("txns", p.txns);
                w.field("time_ms", p.ms);
                w.field("failure_points",
                        static_cast<std::uint64_t>(p.failpoints));
                w.field("ms_per_failpoint",
                        p.failpoints ? p.ms / p.failpoints : 0.0);
                w.field("crash_states_explored",
                        static_cast<std::uint64_t>(p.csExplored));
                w.field("candidates_pruned",
                        static_cast<std::uint64_t>(p.csPruned));
                w.key("phases_ms").beginObject();
                for (std::size_t i = 0; i < obs::phaseCount; i++) {
                    if (p.phaseSeconds[i] > 0) {
                        w.field(
                            obs::phaseName(static_cast<obs::Phase>(i)),
                            p.phaseSeconds[i] * 1e3);
                    }
                }
                w.endObject();
                w.key("restore").beginObject();
                w.field("full_copies", p.restore.fullCopies);
                w.field("delta_restores", p.restore.deltaRestores);
                w.field("pages_restored", p.restore.pagesRestored);
                w.field("bytes_copied", p.restore.bytesCopied());
                w.field("bytes_full_copy_baseline", p.fullCopyBaseline);
                w.field("reduction",
                        p.fullCopyBaseline
                            ? 1.0 -
                                  static_cast<double>(
                                      p.restore.bytesCopied()) /
                                      static_cast<double>(
                                          p.fullCopyBaseline)
                            : 0.0);
                w.endObject();
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    });
}

void
BM_Scalability(benchmark::State &state)
{
    unsigned txns = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Timing t = timeCampaign("btree", fig13Config(txns), {}, 1);
        benchmark::DoNotOptimize(t.last.statistics().failurePoints);
    }
    state.counters["failpoints"] = static_cast<double>(
        timeCampaign("btree", fig13Config(txns), {}, 1)
            .last.statistics().failurePoints);
}

BENCHMARK(BM_Scalability)
    ->Arg(1)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    printTable();
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
