/**
 * @file
 * Campaign phase attribution.
 *
 * The campaign driver's wall time divides into a handful of phases —
 * trace capture, failure-point planning, lint pruning, exec-pool
 * restore, recovery execution, post-trace classification, and (in
 * differential campaigns) oracle enumeration. PhaseTotals accumulates
 * seconds and scoped-timer counts per phase; the driver threads one
 * through each worker and merges them like the rest of CampaignStats,
 * so BENCH_fig12's dominant backend_ms column decomposes into named
 * phases instead of one opaque number.
 *
 * ScopedPhase is the campaign's only timer: every timed interval is
 * one scope, which notes the interval in PhaseTotals, records its
 * Chrome-trace span and feeds its phase's live metric, so each
 * interval is measured once and every sink reports the same number.
 * CampaignStats' pre/post/backend seconds are sums over these totals.
 *
 * The accounting is CPU-seconds per phase: a serial campaign's phase
 * totals sum to its wall breakdown, while a parallel campaign's
 * totals exceed wall time because workers overlap. Scoped-timer
 * *counts* are deterministic and identical between serial and
 * parallel runs.
 *
 * All timing uses the steady clock (see DESIGN.md: wall-clock time
 * appears in exactly one exported field, the live snapshot's
 * wall_time).
 */

#ifndef XFD_OBS_PHASE_PROFILER_HH
#define XFD_OBS_PHASE_PROFILER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/json.hh"

namespace xfd::obs
{

class LiveMetrics;
class Timeline;

/** The named phases every campaign millisecond is attributed to. */
enum class Phase : std::uint8_t
{
    /** Pre-failure stage running under tracing. */
    TraceCapture,
    /** Failure-point planning + write-log page indexing. */
    Plan,
    /** Frontier-signature analysis (batch planning). */
    LintPrune,
    /** Shadow/image advance + exec-pool restore (backend half 1). */
    Restore,
    /** Post-failure stage execution on the reconstructed image. */
    RecoveryExec,
    /** Post-trace replay against the shadow + the final perf scan
     *  (backend half 2). */
    Classify,
    /** Crash-state oracle enumeration (differential campaigns only). */
    Oracle,
};

inline constexpr std::size_t phaseCount = 7;

/** Stable identifier of @p p ("trace_capture", ...). */
const char *phaseName(Phase p);

/** Per-phase accumulated seconds and timer counts; mergeable. */
struct PhaseTotals
{
    std::array<double, phaseCount> seconds{};
    std::array<std::uint64_t, phaseCount> count{};

    /**
     * Attribute @p sec measured seconds to @p p, counting @p n timed
     * units (one interval by default).
     */
    void
    note(Phase p, double sec, std::uint64_t n = 1)
    {
        auto i = static_cast<std::size_t>(p);
        seconds[i] += sec;
        count[i] += n;
    }

    /** Seconds attributed to @p p. */
    double
    secondsOf(Phase p) const
    {
        return seconds[static_cast<std::size_t>(p)];
    }

    /** Fold another worker's totals into this one. */
    void merge(const PhaseTotals &o);

    /** Sum of all phase seconds. */
    double total() const;
};

/**
 * Where a timed interval is reported besides PhaseTotals: a span on
 * a timeline track, and the phase's live metric (restore_us,
 * classify_us, post_exec_latency_us, pre_seconds). Null members are
 * skipped.
 */
struct PhaseSinks
{
    Timeline *timeline = nullptr;
    int track = 0;
    LiveMetrics *live = nullptr;
};

/**
 * RAII scoped timer: one interval of one phase, from construction to
 * stop() or destruction (steady clock, read twice). A null totals
 * pointer makes it a no-op with no clock reads.
 */
class ScopedPhase
{
  public:
    /**
     * @param span name of the Chrome-trace span recorded on
     *        sinks.timeline (none when null)
     * @param cat  that span's category
     */
    ScopedPhase(PhaseTotals *t, Phase p, const PhaseSinks &sinks = {},
                const char *span = nullptr, const char *cat = "phase")
        : totals(t), phase(p), out(sinks), spanName(span), category(cat),
          start(t ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{})
    {
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase() { stop(); }

    /**
     * Units this interval counts for (default 1). Planning bills a
     * point's frontier build as 0 units and its crash-state planning
     * as the candidates it enumerated.
     */
    void setCount(std::uint64_t n) { units = n; }

    /** Record now; further stop() calls are no-ops. @return seconds. */
    double stop();

  private:
    PhaseTotals *totals;
    Phase phase;
    PhaseSinks out;
    const char *spanName;
    const char *category;
    std::uint64_t units = 1;
    std::chrono::steady_clock::time_point start;
};

/**
 * Emit `{ "<phase>": {"seconds": s, "count": n}, ... }` for the
 * stats-JSON per-phase breakdown. Phases with a zero count are
 * skipped (an all-zero campaign writes an empty object).
 */
void writePhaseJson(const PhaseTotals &t, JsonWriter &w);

} // namespace xfd::obs

#endif // XFD_OBS_PHASE_PROFILER_HH
