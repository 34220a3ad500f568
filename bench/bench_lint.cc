/**
 * @file
 * Lint pruning payoff. Per workload: the planned failure-point count,
 * the share the static pass proves redundant, the cost of the lint
 * pass itself, and the end-to-end campaign wall-clock with and
 * without signature batching. A wal_btree --test sweep then times
 * batched planning (core::planBatches) per planned point as the
 * trace grows: its 4 KiB page images make it the workload where a
 * signature that walks history would show. Emits BENCH_lint.json for
 * regression tracking; XFD_BENCH_QUICK shrinks the op counts and
 * repetitions for CI.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/failure_planner.hh"
#include "lint/lint.hh"

using namespace xfd;
using namespace xfd::bench;

namespace
{

struct Row
{
    std::string workload;
    std::size_t points = 0;
    std::size_t pruned = 0;
    std::size_t diagnostics = 0;
    double lintSeconds = 0;
    double fullSeconds = 0;
    double prunedSeconds = 0;

    double
    ratio() const
    {
        return points ? static_cast<double>(pruned) /
                            static_cast<double>(points)
                      : 0;
    }

    double
    speedup() const
    {
        return prunedSeconds > 0 ? fullSeconds / prunedSeconds : 0;
    }
};

Row
runOne(const std::string &name, const workloads::WorkloadConfig &wcfg,
       unsigned reps)
{
    Row row;
    row.workload = name;

    // The static pass alone: trace the pre-failure stage once, plan,
    // and time runLint over the trace.
    auto w = workloads::makeWorkload(name, wcfg);
    pm::PmPool pool(benchPoolSize);
    trace::TraceBuffer pre;
    {
        trace::PmRuntime rt(pool, pre, trace::Stage::PreFailure);
        w->pre(rt);
    }
    core::DetectorConfig dcfg;
    core::FailurePlan plan = core::planFailurePoints(pre, dcfg);

    auto t0 = std::chrono::steady_clock::now();
    lint::LintConfig lcfg;
    lint::LintReport lrep = lint::runLint(pre, lcfg, &plan.points);
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;

    row.points = plan.points.size();
    row.pruned = lrep.prune.pruned.size();
    row.diagnostics = lrep.diagnostics.size();
    row.lintSeconds = dt.count();

    // The payoff: the same campaign with and without pruning.
    core::DetectorConfig off;
    row.fullSeconds = timeCampaign(name, wcfg, off, reps)
                          .meanTotalSeconds;
    core::DetectorConfig on;
    on.backend = "batched";
    row.prunedSeconds = timeCampaign(name, wcfg, on, reps)
                            .meanTotalSeconds;
    return row;
}

/** One size of the wal_btree batched-planning sweep. */
struct SweepRow
{
    unsigned testOps = 0;
    std::size_t points = 0;
    std::size_t groups = 0;
    /** Best of the repetitions. */
    double planSeconds = 0;

    double
    usPerPoint() const
    {
        return points ? planSeconds * 1e6 / static_cast<double>(points)
                      : 0;
    }
};

SweepRow
sweepOne(unsigned testOps, unsigned reps)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 5;
    wcfg.testOps = testOps;
    auto w = workloads::makeWorkload("wal_btree", wcfg);
    pm::PmPool pool(benchPoolSize);
    trace::TraceBuffer pre;
    {
        trace::PmRuntime rt(pool, pre, trace::Stage::PreFailure);
        w->pre(rt);
    }
    core::DetectorConfig dcfg;
    dcfg.backend = "batched";
    std::vector<std::uint32_t> points =
        core::planFailurePoints(pre, dcfg).points;

    SweepRow row;
    row.testOps = testOps;
    row.points = points.size();
    for (unsigned i = 0; i < reps; i++) {
        auto t0 = std::chrono::steady_clock::now();
        core::BatchPlan bp = core::planBatches(
            pre, points, dcfg.granularity, dcfg.eadrOn());
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (i == 0 || dt.count() < row.planSeconds)
            row.planSeconds = dt.count();
        row.groups = bp.groups.size();
    }
    return row;
}

} // namespace

int
main()
{
    setVerbose(false);
    const bool quick = std::getenv("XFD_BENCH_QUICK") != nullptr;
    const unsigned reps = quick ? 1 : 3;

    std::vector<Row> rows;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::WorkloadConfig wcfg;
        wcfg.initOps = quick ? 3 : 10;
        wcfg.testOps = quick ? 3 : 10;
        if (name == "memcached")
            wcfg.memcachedCapacity = 64;
        rows.push_back(runOne(name, wcfg, reps));
    }

    std::printf("%-16s %8s %8s %7s %9s %10s %10s %8s\n", "workload",
                "points", "pruned", "ratio", "lint(s)", "full(s)",
                "pruned(s)", "speedup");
    rule();
    for (const Row &r : rows) {
        std::printf("%-16s %8zu %8zu %6.1f%% %9.5f %10.4f %10.4f "
                    "%7.2fx\n",
                    r.workload.c_str(), r.points, r.pruned,
                    100.0 * r.ratio(), r.lintSeconds, r.fullSeconds,
                    r.prunedSeconds, r.speedup());
    }

    std::vector<SweepRow> sweep;
    for (unsigned t : {2u, 4u, 8u, 12u})
        sweep.push_back(sweepOne(t, reps));
    std::printf("\nwal_btree batched planning (init 5, best of %u)\n",
                reps);
    std::printf("%8s %8s %8s %12s %12s\n", "test", "points", "groups",
                "plan(ms)", "us/point");
    rule();
    for (const SweepRow &r : sweep) {
        std::printf("%8u %8zu %8zu %12.3f %12.2f\n", r.testOps, r.points,
                    r.groups, r.planSeconds * 1e3, r.usPerPoint());
    }
    double growth = sweep.front().usPerPoint() > 0
                        ? sweep.back().usPerPoint() /
                              sweep.front().usPerPoint()
                        : 0;
    std::printf("us/point at --test %u vs %u: %.2fx\n",
                sweep.back().testOps, sweep.front().testOps, growth);

    writeBenchJson("lint", [&](obs::JsonWriter &w) {
        w.field("quick", quick);
        w.key("workloads").beginArray();
        for (const Row &r : rows) {
            w.beginObject();
            w.field("workload", r.workload);
            w.field("points", static_cast<std::uint64_t>(r.points));
            w.field("pruned", static_cast<std::uint64_t>(r.pruned));
            w.field("prune_ratio", r.ratio());
            w.field("diagnostics",
                    static_cast<std::uint64_t>(r.diagnostics));
            w.field("lint_seconds", r.lintSeconds);
            w.field("full_seconds", r.fullSeconds);
            w.field("pruned_seconds", r.prunedSeconds);
            w.field("speedup", r.speedup());
            w.endObject();
        }
        w.endArray();
        w.key("wal_btree_sweep").beginArray();
        for (const SweepRow &r : sweep) {
            w.beginObject();
            w.field("test_ops", static_cast<std::uint64_t>(r.testOps));
            w.field("points", static_cast<std::uint64_t>(r.points));
            w.field("groups", static_cast<std::uint64_t>(r.groups));
            w.field("plan_batches_ms", r.planSeconds * 1e3);
            w.field("lint_us_per_point", r.usPerPoint());
            w.endObject();
        }
        w.endArray();
        w.field("sweep_us_per_point_growth", growth);
    });
    return 0;
}
