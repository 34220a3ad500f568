/**
 * @file
 * Failure-point planning over the pre-failure trace.
 *
 * Per §4.2, persistent data can only transition from inconsistent to
 * consistent at an ordering point (an explicit writeback, e.g.
 * CLWB;SFENCE), so XFDetector injects failure points only *before*
 * ordering points, plus wherever the programmer placed an explicit
 * addFailurePoint(). Optimization (2) elides a failure point when no
 * PM operation happened since the previous ordering point.
 */

#ifndef XFD_CORE_FAILURE_PLANNER_HH
#define XFD_CORE_FAILURE_PLANNER_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "trace/buffer.hh"

namespace xfd::core
{

/** The planned set of failure points for one campaign. */
struct FailurePlan
{
    /**
     * Trace positions to fail at: the failure preempts execution just
     * *before* the entry at this seq (the ordering point does not
     * retire).
     */
    std::vector<std::uint32_t> points;

    /** Ordering points considered. */
    std::size_t candidates = 0;

    /** Candidates removed by the empty-interval elision. */
    std::size_t elided = 0;
};

/** Enumerate failure points in @p pre according to @p cfg. */
FailurePlan planFailurePoints(const trace::TraceBuffer &pre,
                              const DetectorConfig &cfg);

/**
 * One scheduling unit of a batched campaign: a representative
 * failure point plus every later point whose frontier signature the
 * lint pass proved identical (same ordering-point source location,
 * same in-flight write set, inconsistency set and commit values).
 * The representative's recovery run stands in for the whole group —
 * its findings are, provably, what every member would rediscover.
 */
struct BatchGroup
{
    /** The failure point actually executed. */
    std::uint32_t rep = 0;
    /** Points folded into this group (ascending, excludes rep). */
    std::vector<std::uint32_t> folded;

    /** Failure points this group accounts for (progress weight). */
    std::size_t weight() const { return 1 + folded.size(); }
};

/**
 * The batched schedule for one campaign: groups ascending by
 * representative seq, pulled dynamically by the worker pool.
 */
struct BatchPlan
{
    std::vector<BatchGroup> groups;

    /** Points folded into representatives (not executed). */
    std::size_t
    foldedPoints() const
    {
        std::size_t n = 0;
        for (const auto &g : groups)
            n += g.folded.size();
        return n;
    }

    /** Total failure points the schedule accounts for. */
    std::size_t
    totalPoints() const
    {
        return groups.size() + foldedPoints();
    }
};

/**
 * Group @p points (ascending, from planFailurePoints) by frontier
 * signature at @p granularity. Every input point appears in exactly
 * one group; a point whose signature matches no earlier point forms
 * a new single-member group. @p flushFree selects the eADR frontier
 * semantics (must match the campaign's persistency model so the
 * grouping relation stays sound).
 */
BatchPlan planBatches(const trace::TraceBuffer &pre,
                      const std::vector<std::uint32_t> &points,
                      unsigned granularity, bool flushFree);

/**
 * A campaign's candidate equivalence, decided once before any point
 * runs: two planned points are equivalent when their ordering points
 * share a source location (file, line, function) and the lint
 * frontier signature before them is equal. The batched backend folds
 * each group into its representative; --crash-states samples and
 * prunes per group, on the sampler stream its group id names.
 */
struct PointGroups
{
    /** Per planned point: its group id, dense in first-seen order. */
    std::vector<std::uint32_t> groupOf;
    /**
     * The batched schedule, indexed by group id; a representative is
     * its group's first point, so the schedule is ascending.
     */
    BatchPlan batches;
};

/**
 * Whether a campaign under @p cfg needs its points grouped: it runs
 * the batched backend, or --crash-states under clwb.
 */
bool groupsFailurePoints(const DetectorConfig &cfg);

/**
 * Group @p points (ascending, from planFailurePoints) under @p cfg's
 * granularity and persistency model: the one source of the groups
 * the detector and the differential oracle use.
 */
PointGroups groupFailurePoints(const trace::TraceBuffer &pre,
                               const std::vector<std::uint32_t> &points,
                               const DetectorConfig &cfg);

} // namespace xfd::core

#endif // XFD_CORE_FAILURE_PLANNER_HH
