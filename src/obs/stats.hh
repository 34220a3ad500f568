/**
 * @file
 * gem5-style statistics registry for detection campaigns.
 *
 * The driver registers the campaign numbers that have no structured
 * home in the stats document (shadow-FSM edges, per-op trace volumes,
 * the post-execution latency histogram) into a StatsRegistry:
 *
 *  - Scalar    — a named counter or gauge,
 *  - Histogram — power-of-two-bucketed samples (latencies).
 *
 * Counters on hot paths must stay cheap: incrementing is a plain add,
 * collection is gated by DetectorConfig::collectStats at run time, and
 * the whole layer compiles to no-ops when XFD_STATS_NOOP is defined
 * (CMake option XFD_DISABLE_STATS), so the tracing-path overhead
 * measured by bench_trace_throughput can be driven to zero.
 */

#ifndef XFD_OBS_STATS_HH
#define XFD_OBS_STATS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace xfd::obs
{

/** Whether stat counters are compiled in at all. */
#ifdef XFD_STATS_NOOP
inline constexpr bool statsCompiledIn = false;
#else
inline constexpr bool statsCompiledIn = true;
#endif

/** Base of every registered statistic. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : statName(std::move(name)), statDesc(std::move(desc))
    {
    }

    virtual ~StatBase() = default;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /** Emit this stat as the value of an already-written JSON key. */
    virtual void writeJson(JsonWriter &w) const = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** A named scalar counter/gauge. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator+=(double d) { val += d; return *this; }
    Scalar &operator++() { val += 1; return *this; }
    void set(double v) { val = v; }
    double value() const { return val; }

    void writeJson(JsonWriter &w) const override;

  private:
    double val = 0;
};

/** Sample accounting behind Histogram. */
struct SampleMoments
{
    std::uint64_t count = 0;
    double sum = 0;
    double sqsum = 0;
    double minVal = 0;
    double maxVal = 0;

    void note(double v, std::uint64_t n);
    double mean() const { return count ? sum / count : 0; }
    double variance() const;
};

/**
 * Power-of-two-bucketed histogram of non-negative values; bucket i
 * counts samples in [2^i, 2^(i+1)) (bucket 0 also takes [0, 2)).
 * Suits latencies, whose dynamic range spans decades.
 */
class Histogram : public StatBase
{
  public:
    Histogram(std::string name, std::string desc, unsigned buckets = 32);

    void sample(double v, std::uint64_t n = 1);

    std::uint64_t count() const { return m.count; }
    double mean() const { return m.mean(); }
    double min() const { return m.minVal; }
    double max() const { return m.maxVal; }
    std::uint64_t bucketCount(unsigned i) const { return counts[i]; }

    void writeJson(JsonWriter &w) const override;

  private:
    std::vector<std::uint64_t> counts;
    SampleMoments m;
};

/**
 * The registry: owns stats, preserves registration order, dumps to
 * JSON as one flat object keyed by dotted stat names. Re-registering
 * an existing name returns the existing stat (so components can be
 * instantiated repeatedly within a campaign).
 */
class StatsRegistry
{
  public:
    Scalar &scalar(const std::string &name, const std::string &desc);
    Histogram &histogram(const std::string &name,
                         const std::string &desc,
                         unsigned buckets = 32);

    /** @return the stat named @p name, or nullptr. */
    const StatBase *find(const std::string &name) const;

    /** Scalar value by name (0 when absent — test helper). */
    double value(const std::string &name) const;

    std::size_t size() const { return order.size(); }
    bool empty() const { return order.empty(); }
    void clear();

    /** Emit `{ "<name>": {...}, ... }` in registration order. */
    void writeJson(JsonWriter &w) const;

  private:
    template <typename T, typename... Args>
    T &add(const std::string &name, Args &&...args);

    std::map<std::string, std::unique_ptr<StatBase>> byName;
    std::vector<StatBase *> order;
};

} // namespace xfd::obs

#endif // XFD_OBS_STATS_HH
