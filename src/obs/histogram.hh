/**
 * @file
 * Power-of-two-bucketed histograms.
 *
 * Histogram is a plain value: each campaign worker fills its own and
 * the campaign merges them, like every other CampaignStats number.
 * The live layer's LatencyWindow buckets through the same log2Bucket,
 * so a live histogram and the stats document's histogram of the same
 * quantity agree bucket for bucket.
 */

#ifndef XFD_OBS_HISTOGRAM_HH
#define XFD_OBS_HISTOGRAM_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/json.hh"

namespace xfd::obs
{

/**
 * The bucket of sample @p v among @p buckets power-of-two buckets:
 * bucket i counts [2^i, 2^(i+1)), bucket 0 also takes [0, 2) and
 * negative samples, and the last bucket takes everything above it.
 */
std::size_t log2Bucket(double v, std::size_t buckets);

/**
 * Power-of-two-bucketed histogram of non-negative samples. Suits
 * latencies, whose dynamic range spans decades.
 */
struct Histogram
{
    static constexpr std::size_t bucketCount = 32;

    std::array<std::uint64_t, bucketCount> buckets{};
    std::uint64_t count = 0;
    double sum = 0;
    double sqsum = 0;
    double minVal = 0;
    double maxVal = 0;

    /** Add one sample (negative values count as 0). */
    void sample(double v);

    /** Add every sample of @p o. */
    void merge(const Histogram &o);

    double mean() const { return count ? sum / count : 0; }
    double stddev() const;

    /**
     * Emit `{"count", "min", "max", "mean", "stddev", "buckets"}`;
     * trailing all-zero buckets are elided.
     */
    void writeJson(JsonWriter &w) const;
};

} // namespace xfd::obs

#endif // XFD_OBS_HISTOGRAM_HH
