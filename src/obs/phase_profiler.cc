#include "obs/phase_profiler.hh"

#include "obs/live.hh"
#include "obs/timeline.hh"

namespace xfd::obs
{

namespace
{

/** Feed @p sec seconds of @p p to the phase's live metric, if any. */
void
feedLive(LiveMetrics &live, Phase p, double sec)
{
    switch (p) {
      case Phase::TraceCapture:
        live.gauge("pre_seconds", sec);
        break;
      case Phase::Restore:
        live.count("restore_us", static_cast<std::uint64_t>(sec * 1e6));
        break;
      case Phase::RecoveryExec:
        live.sample("post_exec_latency_us", sec * 1e6);
        break;
      case Phase::Classify:
        live.count("classify_us", static_cast<std::uint64_t>(sec * 1e6));
        break;
      default:
        break;
    }
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::TraceCapture: return "trace_capture";
      case Phase::Plan: return "plan";
      case Phase::LintPrune: return "lint_prune";
      case Phase::Restore: return "restore";
      case Phase::RecoveryExec: return "recovery_exec";
      case Phase::Classify: return "classify";
      case Phase::Oracle: return "oracle";
    }
    return "?";
}

void
PhaseTotals::merge(const PhaseTotals &o)
{
    for (std::size_t i = 0; i < phaseCount; i++) {
        seconds[i] += o.seconds[i];
        count[i] += o.count[i];
    }
}

double
PhaseTotals::total() const
{
    double sum = 0;
    for (double s : seconds)
        sum += s;
    return sum;
}

double
ScopedPhase::stop()
{
    if (!totals)
        return 0;
    auto end = std::chrono::steady_clock::now();
    double sec = std::chrono::duration<double>(end - start).count();
    totals->note(phase, sec, units);
    totals = nullptr;
    if (out.timeline && spanName) {
        std::int64_t ts = out.timeline->usAt(start);
        out.timeline->recordSpan(spanName, category, out.track, ts,
                                 out.timeline->usAt(end) - ts);
    }
    if (out.live)
        feedLive(*out.live, phase, sec);
    return sec;
}

void
writePhaseJson(const PhaseTotals &t, JsonWriter &w)
{
    w.beginObject();
    for (std::size_t i = 0; i < phaseCount; i++) {
        if (!t.count[i])
            continue;
        w.key(phaseName(static_cast<Phase>(i))).beginObject();
        w.field("seconds", t.seconds[i]);
        w.field("count", t.count[i]);
        w.endObject();
    }
    w.endObject();
}

} // namespace xfd::obs
