/**
 * @file
 * Campaign observability context.
 *
 * A CampaignObserver owns the observability channels of one or more
 * detection campaigns (the campaign numbers themselves live in each
 * CampaignResult's stats):
 *
 *  - timeline: per-phase and per-failure-point spans (exportable as
 *              JSONL or Chrome trace_event),
 *  - live:     the per-second sliding-window registry behind
 *              --live-port/--live-jsonl (fed mid-run, disabled by
 *              default),
 *  - hooks:    one versioned CampaignHooks interface for everything
 *              event-shaped — progress ticks, the captured pre-trace,
 *              per-failure-point findings.
 *
 * Attach with Driver::setObserver(); a null observer keeps the
 * driver's hot paths free of observability work.
 */

#ifndef XFD_CORE_OBSERVER_HH
#define XFD_CORE_OBSERVER_HH

#include <cstddef>
#include <cstdint>

#include "core/bug_report.hh"
#include "obs/live.hh"
#include "obs/timeline.hh"
#include "trace/buffer.hh"

namespace xfd::core
{

/** One progress tick of the per-failure-point loop. */
struct ProgressUpdate
{
    /**
     * Failure points accounted for so far. In a batched campaign a
     * finished group contributes its whole member count, so rates
     * and ETAs stay comparable with serial runs.
     */
    std::size_t done = 0;
    /** Total planned failure points (pre-batching). */
    std::size_t total = 0;
    /** Findings reported so far (per-worker dedup). */
    std::size_t bugs = 0;
};

/**
 * The versioned campaign event interface. Subclass and override what
 * you need; every default is a no-op. Delivery contract:
 *
 *  - onPreTraceReady: once per campaign, from the main thread, after
 *    the pre-failure stage ran and before planning. The buffer
 *    reference is valid only for the duration of the call.
 *  - onFailurePoint: after each executed failure point's replay,
 *    with the findings that exact point produced (per-point sink, no
 *    cross-point suppression). Parallel campaigns fire this
 *    concurrently from worker threads — synchronize yourself.
 *  - onProgress: after every executed failure point, serialized
 *    under the driver's progress lock.
 *
 * `version` bumps whenever a method is added, removed or changes
 * meaning, so out-of-tree observers fail loudly at compile time
 * (static_assert on the value they were written against) instead of
 * silently missing events.
 */
class CampaignHooks
{
  public:
    /** Interface version: 2 (v1 was the std::function trio). */
    static constexpr int version = 2;

    virtual ~CampaignHooks() = default;

    /** The captured pre-failure trace, before planning. */
    virtual void onPreTraceReady(const trace::TraceBuffer &) {}

    /** Findings of one executed failure point, pre-dedup. */
    virtual void onFailurePoint(std::uint32_t /*fp*/,
                                const BugSink & /*findings*/)
    {
    }

    /** Periodic progress; see ProgressUpdate for batched semantics. */
    virtual void onProgress(const ProgressUpdate &) {}
};

/** Observability sinks for one (or more) detection campaigns. */
struct CampaignObserver
{
    obs::Timeline timeline;

    /**
     * Live per-second telemetry registry. Disabled by default; the
     * driver feeds it from the per-failure-point loop only while an
     * obs::LiveSession (or a caller) has enabled it, so campaigns
     * without live outputs pay one atomic load per failure point.
     */
    obs::LiveMetrics live;

    /**
     * The campaign event interface (may be null). Not owned; must
     * outlive the campaign.
     */
    CampaignHooks *hooks = nullptr;

    /** Whether any progress consumer is attached. */
    bool wantsProgress() const { return hooks != nullptr; }

    /** Deliver the pre-trace to the attached hooks. */
    void
    notifyPreTrace(const trace::TraceBuffer &pre)
    {
        if (hooks)
            hooks->onPreTraceReady(pre);
    }

    /** Deliver one failure point's findings to the attached hooks. */
    void
    notifyFailurePoint(std::uint32_t fp, const BugSink &findings)
    {
        if (hooks)
            hooks->onFailurePoint(fp, findings);
    }

    /** Deliver a progress tick to the attached hooks. */
    void
    notifyProgress(const ProgressUpdate &u)
    {
        if (hooks)
            hooks->onProgress(u);
    }
};

} // namespace xfd::core

#endif // XFD_CORE_OBSERVER_HH
