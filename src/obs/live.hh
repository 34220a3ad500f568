/**
 * @file
 * Live (per-second, sliding-window) campaign telemetry.
 *
 * The stats document and timeline are end-of-campaign artifacts; the
 * live layer answers "what is the campaign doing *right now*":
 *
 *  - RateWindow     — a ring of per-second counter buckets, queried
 *    as a rate over the last 1/10/60 seconds;
 *  - LatencyWindow  — per-second frames of log2-bucketed samples
 *    (obs::log2Bucket, as obs::Histogram), merged over the window at
 *    snapshot time for count/sum/max and quantile estimates;
 *  - LiveMetrics    — a named registry of both plus gauges, fed from
 *    the driver's per-failure-point loop through the observer, and
 *    snapshottable at any moment without stopping the campaign (one
 *    mutex, taken once per failure point and per snapshot).
 *
 * A LiveSnapshot renders as JSON (`/snapshot`, --live-jsonl) or as
 * the Prometheus text exposition format (`/metrics`); serving lives
 * in obs/serve.hh.
 *
 * Clock discipline: every duration and window position derives from
 * the steady clock. Wall-clock time appears in exactly one field —
 * LiveSnapshot::wallTime, stamped at snapshot time so scrapes can be
 * aligned with external logs.
 *
 * Disabled metrics (the default — campaigns run with telemetry off
 * unless --live-port or --live-jsonl asks for it) cost one
 * relaxed atomic load per feed call.
 */

#ifndef XFD_OBS_LIVE_HH
#define XFD_OBS_LIVE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/json.hh"

namespace xfd::obs
{

/**
 * Sliding window of per-second counter increments. Time is an
 * integer second index supplied by the caller (LiveMetrics uses
 * seconds since its steady-clock epoch; tests pass explicit values).
 * Seconds older than the ring capacity are forgotten; total() is
 * lifetime-accurate regardless.
 */
class RateWindow
{
  public:
    explicit RateWindow(unsigned window_seconds = 64);

    /** Add @p n events at second @p now_sec (monotone non-strict). */
    void note(std::uint64_t n, std::int64_t now_sec);

    /** Lifetime event count. */
    std::uint64_t total() const { return lifetime; }

    /**
     * Events in the @p k seconds ending at @p now_sec inclusive
     * (the current, possibly partial, second counts). @p k is
     * clamped to the ring capacity.
     */
    std::uint64_t sumLast(unsigned k, std::int64_t now_sec);

    /** sumLast(k) / k. */
    double ratePerSec(unsigned k, std::int64_t now_sec);

    unsigned capacity() const
    {
        return static_cast<unsigned>(buckets.size());
    }

  private:
    /** Zero buckets between the last-seen second and @p now_sec. */
    void roll(std::int64_t now_sec);

    std::vector<std::uint64_t> buckets;
    /** Second index buckets are positioned relative to. */
    std::int64_t head = 0;
    std::uint64_t lifetime = 0;
};

/**
 * Sliding window of log2-bucketed samples: one frame per second,
 * merged over the last k seconds at query time. Samples bucket
 * through obs::log2Bucket, as obs::Histogram's do, so live and
 * end-of-campaign histograms of the same quantity agree
 * bucket-for-bucket.
 */
class LatencyWindow
{
  public:
    explicit LatencyWindow(unsigned window_seconds = 64,
                           unsigned buckets = 32);

    void note(double v, std::int64_t now_sec);

    /** Merged view over a window. */
    struct Merged
    {
        std::uint64_t count = 0;
        double sum = 0;
        double maxVal = 0;
        std::vector<std::uint64_t> buckets;

        /**
         * Quantile estimate: the upper bound (2^(i+1)) of the bucket
         * holding the q-th sample — an overestimate by at most one
         * bucket width, which is what log bucketing promises.
         */
        double quantile(double q) const;
    };

    /** Merge the @p k seconds ending at @p now_sec inclusive. */
    Merged mergeLast(unsigned k, std::int64_t now_sec);

    std::uint64_t totalCount() const { return lifetime; }

  private:
    struct Frame
    {
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0;
        double maxVal = 0;
    };

    void roll(std::int64_t now_sec);

    std::vector<Frame> frames;
    unsigned bucketCount;
    std::int64_t head = 0;
    std::uint64_t lifetime = 0;
};

/** One counter in a snapshot. */
struct LiveCounterSnap
{
    std::string name;
    std::uint64_t total = 0;
    double rate1s = 0;
    double rate10s = 0;
    double rate60s = 0;
};

/** One gauge in a snapshot. */
struct LiveGaugeSnap
{
    std::string name;
    double value = 0;
};

/** One latency histogram in a snapshot (window-merged). */
struct LiveHistSnap
{
    std::string name;
    std::uint64_t count = 0;
    double sum = 0;
    double maxVal = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    std::vector<std::uint64_t> buckets;
};

/** Point-in-time view of a LiveMetrics registry. */
struct LiveSnapshot
{
    /**
     * Seconds since the Unix epoch at snapshot time — the single
     * wall-clock field in the observability layer.
     */
    double wallTime = 0;
    /** Steady-clock seconds since the metrics epoch. */
    double uptimeSeconds = 0;
    /** Window the histograms were merged over. */
    unsigned windowSeconds = 10;
    std::vector<LiveCounterSnap> counters;
    std::vector<LiveGaugeSnap> gauges;
    std::vector<LiveHistSnap> hists;

    /** One xfd-live-v1 JSON object (no trailing newline). */
    void writeJson(JsonWriter &w) const;

    /**
     * Prometheus text exposition format: every counter becomes
     * xfd_<name>_total plus xfd_<name>_per_sec{window="..."} gauges,
     * every gauge xfd_<name>, every latency window a cumulative
     * xfd_<name> histogram with le="2^i" buckets. Dots and dashes in
     * names map to underscores.
     */
    void writePrometheus(std::ostream &os) const;
};

/** Sanitized Prometheus metric name ("xfd_" + name, [a-z0-9_]). */
std::string promName(const std::string &name);

/**
 * Named registry of rate counters, gauges and latency windows.
 * Thread-safe; feed calls on a disabled registry are one atomic
 * load. Names are dotted like registry stats ("phase.restore_us").
 */
class LiveMetrics
{
  public:
    LiveMetrics();

    /** Feeds are dropped while disabled (the default). */
    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return on_.load(std::memory_order_relaxed);
    }

    /** Count @p n events on rate counter @p name. */
    void count(const std::string &name, std::uint64_t n = 1);

    /** Record one latency/size sample on window @p name. */
    void sample(const std::string &name, double v);

    /** Set gauge @p name to @p v. */
    void gauge(const std::string &name, double v);

    /**
     * Snapshot every metric, merging histograms over the last
     * @p window_seconds. Safe concurrently with feeds.
     */
    LiveSnapshot snapshot(unsigned window_seconds = 10);

    /**
     * @name Deterministic clocks for tests
     * Replace the second counter (steady epoch) and the wall clock
     * (system_clock) with fixed functions. @{
     */
    void setClockForTest(std::function<std::int64_t()> now_sec);
    void setWallClockForTest(std::function<double()> wall);
    /** @} */

  private:
    std::int64_t nowSec() const;

    std::atomic<bool> on_{false};
    std::chrono::steady_clock::time_point epoch;
    mutable std::mutex lock;
    /** Ordered maps: snapshots list metrics deterministically. */
    std::map<std::string, RateWindow> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, LatencyWindow> hists;
    std::function<std::int64_t()> clockOverride;
    std::function<double()> wallOverride;
};

} // namespace xfd::obs

#endif // XFD_OBS_LIVE_HH
