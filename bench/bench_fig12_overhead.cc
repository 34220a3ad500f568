/**
 * @file
 * Figure 12 reproduction — detection cost per workload.
 *
 * (a) wall-clock time of one campaign per workload (init 5, one test
 *     operation, as in §6.2.1: "one transaction/query that performs
 *     an insertion, and another one for each failure point"): the
 *     whole run() call, beside its pre-failure, post-failure and
 *     backend phases;
 * (b) slowdown of that wall over a trace-only run ("Pure Pin") and
 *     over the untraced original program.
 *
 * Expected shape (paper): the post-failure executions dominate the
 * campaign, detection >> pure tracing >> original.
 */

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.hh"

using namespace xfd;
using namespace xfd::bench;

namespace
{

const char *const kWorkloads[] = {"btree",          "wal_btree",
                                  "ctree",          "rbtree",
                                  "hashmap_tx",     "hashmap_atomic",
                                  "redis",          "memcached"};

workloads::WorkloadConfig
fig12Config()
{
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 1;
    cfg.postOps = 1;
    return cfg;
}

/**
 * The campaign runs the production backend: the signature-batched
 * scheduler plus same-value write elision (DESIGN.md §12). Findings
 * are byte-identical to the serial unbatched run — enforced by
 * tests/test_batch_sched.cc and the CI batch-smoke job — so only the
 * cost changes.
 */
core::DetectorConfig
fig12Detector()
{
    core::DetectorConfig dcfg;
    dcfg.backend = "batched";
    dcfg.elideSameValueWrites = true;
    return dcfg;
}

void
printTables()
{
    std::printf("\n=== Figure 12a: XFDetector execution time "
                "(per campaign) ===\n");
    rule();
    std::printf("%-16s %10s %10s %10s %10s %8s\n", "workload",
                "wall(ms)", "pre(ms)", "post(ms)", "backend", "#fail");
    rule();

    struct Row
    {
        std::string name;
        Timing t;
        Timing cs; ///< same campaign with --crash-states=sample:16
        double traced;
        double original;
    };
    std::vector<Row> rows;

    core::DetectorConfig cs_dcfg = fig12Detector();
    cs_dcfg.crashStates = "sample:16";

    // Discarded warmup: fault in the allocator arenas and code paths
    // so the first measured workload is not charged for them.
    (void)timeCampaign(kWorkloads[0], fig12Config(), fig12Detector(), 1);

    for (const char *w : kWorkloads) {
        Row row;
        row.name = w;
        row.t = timeCampaign(w, fig12Config(), fig12Detector(), 5);
        row.cs = timeCampaign(w, fig12Config(), cs_dcfg, 1);
        row.traced = timeBaseline(w, fig12Config(), true);
        row.original = timeBaseline(w, fig12Config(), false);
        // failurePoints counts executed representatives in batched
        // mode; the folded members ride along via lintPrunedPoints.
        const core::CampaignStats &st = row.t.last.statistics();
        std::printf("%-16s %10.3f %10.3f %10.3f %10.3f %5zu/%zu\n", w,
                    row.t.meanWallSeconds * 1e3,
                    row.t.meanPreSeconds * 1e3,
                    row.t.meanPostSeconds * 1e3,
                    row.t.meanBackendSeconds * 1e3, st.failurePoints,
                    st.failurePoints + st.lintPrunedPoints);
        rows.push_back(std::move(row));
    }
    rule();

    std::printf("\n=== Figure 12a addendum: phase attribution "
                "(ms per campaign) ===\n");
    rule();
    std::printf("%-16s %9s %7s %9s %9s %9s\n", "workload", "capture",
                "plan", "restore", "recexec", "classify");
    rule();
    for (const auto &row : rows) {
        std::printf("%-16s %9.3f %7.3f %9.3f %9.3f %9.3f\n",
                    row.name.c_str(),
                    row.t.phaseSeconds(obs::Phase::TraceCapture) * 1e3,
                    row.t.phaseSeconds(obs::Phase::Plan) * 1e3,
                    row.t.phaseSeconds(obs::Phase::Restore) * 1e3,
                    row.t.phaseSeconds(obs::Phase::RecoveryExec) * 1e3,
                    row.t.phaseSeconds(obs::Phase::Classify) * 1e3);
    }
    rule();

    std::printf("\n=== Figure 12a addendum: --crash-states=sample:16 "
                "exploration cost ===\n");
    rule();
    std::printf("%-16s %10s %10s %10s %10s\n", "workload", "wall(ms)",
                "explored", "pruned", "prune%");
    rule();
    for (const auto &row : rows) {
        const core::CampaignStats &cst = row.cs.last.statistics();
        std::size_t enumd = cst.crashStatesEnumerated;
        std::printf("%-16s %10.3f %10zu %10zu %9.1f%%\n",
                    row.name.c_str(), row.cs.meanWallSeconds * 1e3,
                    cst.crashStatesExplored, cst.crashStatesPruned,
                    enumd ? 100.0 * cst.crashStatesPruned / enumd : 0.0);
    }
    rule();
    std::printf("partial crash-state exploration multiplies recovery "
                "executions; the pruned\ncolumn counts candidates the "
                "equivalence classes folded into an already-run\n"
                "representative.\n");

    std::printf("\n=== Figure 12b: slowdown over baselines ===\n");
    rule();
    std::printf("%-16s %16s %16s %14s\n", "workload", "vs trace-only",
                "vs original", "post share");
    rule();
    double geo_trace = 1, geo_orig = 1;
    for (const auto &row : rows) {
        double s_trace = row.t.meanWallSeconds /
                         std::max(row.traced, 1e-9);
        double s_orig = row.t.meanWallSeconds /
                        std::max(row.original, 1e-9);
        double post_share =
            (row.t.meanPostSeconds + row.t.meanBackendSeconds) /
            std::max(row.t.meanWallSeconds, 1e-12);
        geo_trace *= s_trace;
        geo_orig *= s_orig;
        std::printf("%-16s %15.1fx %15.1fx %13.0f%%\n",
                    row.name.c_str(), s_trace, s_orig,
                    post_share * 100);
    }
    rule();
    std::printf("%-16s %15.1fx %15.1fx\n", "geomean",
                std::pow(geo_trace, 1.0 / rows.size()),
                std::pow(geo_orig, 1.0 / rows.size()));
    std::printf("\npaper: detection is 12.3x over pure Pin and 400.8x "
                "over the original\nprogram (geomean), with the "
                "post-failure stage the dominant component.\n\n");

    writeBenchJson("fig12", [&](obs::JsonWriter &w) {
        w.key("workloads").beginArray();
        for (const auto &row : rows) {
            w.beginObject();
            w.field("workload", row.name);
            w.field("wall_ms", row.t.meanWallSeconds * 1e3);
            w.field("pre_ms", row.t.meanPreSeconds * 1e3);
            w.field("post_ms", row.t.meanPostSeconds * 1e3);
            w.field("backend_ms", row.t.meanBackendSeconds * 1e3);
            const core::CampaignStats &st = row.t.last.statistics();
            // Pre-batching total, comparable across backend modes.
            w.field("failure_points",
                    static_cast<std::uint64_t>(st.failurePoints +
                                               st.lintPrunedPoints));
            w.field("batch_groups",
                    static_cast<std::uint64_t>(st.batchGroups));
            w.field("same_value_elided",
                    static_cast<std::uint64_t>(st.sameValueElided));
            const core::CampaignStats &cst = row.cs.last.statistics();
            w.field("crash_states_ms",
                    row.cs.meanWallSeconds * 1e3);
            w.field("crash_states_explored",
                    static_cast<std::uint64_t>(cst.crashStatesExplored));
            w.field("candidates_pruned",
                    static_cast<std::uint64_t>(cst.crashStatesPruned));
            writePhaseBreakdownJson(w, row.t);
            w.field("trace_only_ms", row.traced * 1e3);
            w.field("original_ms", row.original * 1e3);
            w.field("slowdown_vs_trace",
                    row.t.meanWallSeconds /
                        std::max(row.traced, 1e-9));
            w.field("slowdown_vs_original",
                    row.t.meanWallSeconds /
                        std::max(row.original, 1e-9));
            w.endObject();
        }
        w.endArray();
        w.field("geomean_slowdown_vs_trace",
                std::pow(geo_trace, 1.0 / rows.size()));
        w.field("geomean_slowdown_vs_original",
                std::pow(geo_orig, 1.0 / rows.size()));
    });
}

/** google-benchmark probe: full campaign on one representative. */
void
BM_DetectionCampaign(benchmark::State &state)
{
    const char *w = kWorkloads[state.range(0)];
    for (auto _ : state) {
        auto t = timeCampaign(w, fig12Config(), fig12Detector(), 1);
        benchmark::DoNotOptimize(t.last.statistics().failurePoints);
    }
    state.SetLabel(w);
}

BENCHMARK(BM_DetectionCampaign)->DenseRange(0, 7)->Unit(
    benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    printTables();
    ::benchmark::Initialize(&argc, argv);
    ::benchmark::RunSpecifiedBenchmarks();
    return 0;
}
