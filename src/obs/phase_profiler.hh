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
 * so BENCH_fig12's dominant backend_ms column finally decomposes into
 * named phases instead of one opaque number.
 *
 * The accounting is CPU-seconds per phase: a serial campaign's phase
 * totals sum to its wall breakdown exactly (restore + classify ==
 * backendSeconds by construction — the driver feeds both from the
 * same measured interval), while a parallel campaign's totals exceed
 * wall time because workers overlap. Scoped-timer *counts* are
 * deterministic and identical between serial and parallel runs.
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
#include "obs/stats.hh"

namespace xfd::obs
{

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

/** One-line description of @p p for stat registration. */
const char *phaseDesc(Phase p);

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

    /** Fold another worker's totals into this one. */
    void merge(const PhaseTotals &o);

    /** Sum of all phase seconds. */
    double total() const;

    /**
     * The share attributed to CampaignStats::backendSeconds: restore
     * plus classify, which wrap exactly the intervals the driver adds
     * to that counter.
     */
    double backendAttributed() const;

    /**
     * backendAttributed() as a fraction of @p backend_seconds. The
     * denominator is clamped up to backendAttributed(): in a parallel
     * campaign the phase totals are CPU-seconds summed across workers
     * while CampaignStats::backendSeconds is not (the driver only
     * accumulates it serially), so a raw quotient would be wildly >1.
     * Serial campaigns are unaffected — there the two sides are equal
     * by construction, and under-attribution still reads as <1.
     */
    double attributionOf(double backend_seconds) const;
};

/**
 * RAII scoped timer: attributes construction-to-destruction (steady
 * clock) to one phase. A null totals pointer makes it a no-op with no
 * clock reads.
 */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseTotals *t, Phase p)
        : totals(t), phase(p),
          start(t ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{})
    {
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    ~ScopedPhase() { stop(); }

    /** Record now; further stop() calls are no-ops. @return seconds. */
    double
    stop()
    {
        if (!totals)
            return 0;
        double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
        totals->note(phase, sec);
        totals = nullptr;
        return sec;
    }

  private:
    PhaseTotals *totals;
    Phase phase;
    std::chrono::steady_clock::time_point start;
};

/**
 * Register campaign.phase.* scalars for @p t into @p reg:
 * per-phase seconds and counts, the phase-seconds total, and
 * campaign.phase.backend_attribution — the fraction of
 * @p backend_seconds the restore/classify phases account for.
 */
void exportPhaseStats(StatsRegistry &reg, const PhaseTotals &t,
                      double backend_seconds);

/**
 * Emit `{ "<phase>": {"seconds": s, "count": n}, ... }` for the
 * stats-JSON per-phase breakdown. Phases with a zero count are
 * skipped (an all-zero campaign writes an empty object).
 */
void writePhaseJson(const PhaseTotals &t, JsonWriter &w);

} // namespace xfd::obs

#endif // XFD_OBS_PHASE_PROFILER_HH
