/**
 * @file
 * Span/phase timing for detection campaigns.
 *
 * A Timeline collects named spans (begin time + duration, microsecond
 * resolution on the steady clock) and instant events, each attributed
 * to a registered track (thread). Two exporters:
 *
 *  - writeJsonl():       one JSON object per line — grep/jq-friendly;
 *  - writeChromeTrace(): the Chrome trace_event JSON-array format,
 *    loadable in chrome://tracing or https://ui.perfetto.dev, with
 *    thread_name metadata so runParallel workers render as parallel
 *    tracks.
 *
 * Recording is thread-safe (one mutex around the event vector; spans
 * record once at scope exit, so the lock is far off any hot path) and
 * free when disabled: SpanScope on a null/disabled timeline is a pair
 * of branches.
 */

#ifndef XFD_OBS_TIMELINE_HH
#define XFD_OBS_TIMELINE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace xfd::obs
{

/** One recorded span or instant event. */
struct TimelineEvent
{
    std::string name;
    /** Category ("phase", "fp", "finding", ...); a string literal. */
    const char *cat = "";
    /** Track id from Timeline::registerTrack (0 = main). */
    int tid = 0;
    /** Start, microseconds since the timeline epoch. */
    std::int64_t tsUs = 0;
    /** Duration in microseconds; < 0 marks an instant event. */
    std::int64_t durUs = -1;
    /**
     * Annotation key/value pairs, exported as the Chrome trace_event
     * "args" object (and an "args" object in the JSONL export).
     * Finding-provenance instants carry their causal chain here.
     */
    std::vector<std::pair<std::string, std::string>> args;
};

/** Collects spans and instants for one campaign. */
class Timeline
{
  public:
    Timeline();

    /** Track 0 ("main") is pre-registered. */
    int registerTrack(const std::string &label);

    /** Microseconds since the timeline epoch (monotonic). */
    std::int64_t nowUs() const;

    /** Microseconds from the timeline epoch to steady-clock @p t. */
    std::int64_t usAt(std::chrono::steady_clock::time_point t) const;

    /** Record a completed span. */
    void recordSpan(std::string name, const char *cat, int tid,
                    std::int64_t ts_us, std::int64_t dur_us);

    /** Record an instant event, optionally with annotation args. */
    void recordInstant(
        std::string name, const char *cat, int tid, std::int64_t ts_us,
        std::vector<std::pair<std::string, std::string>> args = {});

    /** Disabled timelines record nothing (default: enabled). */
    void setEnabled(bool on) { recording = on; }
    bool enabled() const { return recording; }

    /** Events sorted by (ts, tid); snapshot under the lock. */
    std::vector<TimelineEvent> events() const;

    /** Registered track labels, index = tid. */
    std::vector<std::string> tracks() const;

    std::size_t size() const;
    void clear();

    /** Export every event as one JSON object per line. */
    void writeJsonl(std::ostream &os) const;

    /**
     * Export the Chrome trace_event format: an object with a
     * "traceEvents" array of "X" (complete), "i" (instant) and "M"
     * (thread_name metadata) events.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::chrono::steady_clock::time_point epoch;
    bool recording = true;
    mutable std::mutex lock;
    std::vector<TimelineEvent> evs;
    std::vector<std::string> trackLabels;
};

/**
 * RAII span: measures construction-to-destruction and records it on
 * the timeline. A null timeline (or a disabled one) makes this a
 * no-op.
 */
class SpanScope
{
  public:
    SpanScope(Timeline *tl, std::string name, const char *cat,
              int tid = 0)
        : timeline(tl && tl->enabled() ? tl : nullptr),
          spanName(std::move(name)), category(cat), track(tid),
          startUs(timeline ? timeline->nowUs() : 0)
    {
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    ~SpanScope()
    {
        if (timeline) {
            timeline->recordSpan(std::move(spanName), category, track,
                                 startUs, timeline->nowUs() - startUs);
        }
    }

  private:
    Timeline *timeline;
    std::string spanName;
    const char *category;
    int track;
    std::int64_t startUs;
};

} // namespace xfd::obs

#endif // XFD_OBS_TIMELINE_HH
