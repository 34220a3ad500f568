#include "core/failure_planner.hh"

#include "lint/lint.hh"
#include "trace/iter.hh"

namespace xfd::core
{

FailurePlan
planFailurePoints(const trace::TraceBuffer &pre, const DetectorConfig &cfg)
{
    using trace::Op;

    FailurePlan plan;
    // PM operations observed since the previous ordering point; a
    // failure point is useless if nothing could have changed state.
    std::size_t ops_since = 0;
    // Under the flush-free model a writeback changes no persistence
    // state, so an interval holding only flushes is as empty as one
    // holding nothing.
    const bool eadr = cfg.eadrOn();

    for (const auto &e : pre) {
        if (trace::isPmMutation(e)) {
            if (!(eadr && e.isFlush()))
                ops_since++;
            continue;
        }

        if (e.op == Op::FailurePoint) {
            // Explicit user-requested failure point: always honored.
            plan.points.push_back(e.seq);
            plan.candidates++;
            continue;
        }

        if (!e.isFence())
            continue;

        // Every fence is an ordering point for elision accounting,
        // even ones we cannot fail at.
        std::size_t ops_before = ops_since;
        ops_since = 0;

        bool eligible = e.has(trace::flagInRoi) &&
                        !e.has(trace::flagSkipFailure) &&
                        (!e.has(trace::flagInternal) ||
                         cfg.failureAtInternalFences);
        if (!eligible)
            continue;

        plan.candidates++;
        if (cfg.elideEmptyFailurePoints && ops_before == 0) {
            plan.elided++;
            continue;
        }
        plan.points.push_back(e.seq);
        if (cfg.maxFailurePoints &&
            plan.points.size() >= cfg.maxFailurePoints) {
            break;
        }
    }
    return plan;
}

namespace
{

/**
 * The batched schedule of @p v's groups: group g's representative is
 * kept[g], and every other point of the group folds into it. The
 * grouping identity is exactly the lint pass's prunability relation;
 * the equivalence is load-bearing — test_lint_e2e proves kept-only
 * campaigns keep byte-identical findings, which is what lets a
 * representative's run stand in for its members.
 */
BatchPlan
batchesOf(const std::vector<std::uint32_t> &points,
          const lint::PruneVerdicts &v)
{
    BatchPlan plan;
    plan.groups.reserve(v.kept.size());
    for (std::uint32_t rep : v.kept)
        plan.groups.push_back(BatchGroup{rep, {}});
    for (std::size_t i = 0; i < points.size(); i++) {
        BatchGroup &g = plan.groups[v.group[i]];
        if (points[i] != g.rep)
            g.folded.push_back(points[i]);
    }
    return plan;
}

} // namespace

BatchPlan
planBatches(const trace::TraceBuffer &pre,
            const std::vector<std::uint32_t> &points,
            unsigned granularity, bool flushFree)
{
    return batchesOf(points, lint::computePruneVerdicts(
                                 pre, points, granularity, flushFree));
}

bool
groupsFailurePoints(const DetectorConfig &cfg)
{
    return cfg.batchingOn() || (cfg.crashStatesOn() && !cfg.eadrOn());
}

PointGroups
groupFailurePoints(const trace::TraceBuffer &pre,
                   const std::vector<std::uint32_t> &points,
                   const DetectorConfig &cfg)
{
    lint::PruneVerdicts v = lint::computePruneVerdicts(
        pre, points, cfg.granularity, cfg.eadrOn());
    PointGroups g;
    g.batches = batchesOf(points, v);
    g.groupOf = std::move(v.group);
    return g;
}

} // namespace xfd::core
