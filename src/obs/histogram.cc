#include "obs/histogram.hh"

#include <algorithm>
#include <cmath>

namespace xfd::obs
{

std::size_t
log2Bucket(double v, std::size_t buckets)
{
    if (!(v >= 2))
        return 0;
    return std::min(static_cast<std::size_t>(std::log2(v)), buckets - 1);
}

void
Histogram::sample(double v)
{
    v = std::max(v, 0.0);
    if (count == 0) {
        minVal = v;
        maxVal = v;
    } else {
        minVal = std::min(minVal, v);
        maxVal = std::max(maxVal, v);
    }
    count++;
    sum += v;
    sqsum += v * v;
    buckets[log2Bucket(v, bucketCount)]++;
}

void
Histogram::merge(const Histogram &o)
{
    if (!o.count)
        return;
    minVal = count ? std::min(minVal, o.minVal) : o.minVal;
    maxVal = count ? std::max(maxVal, o.maxVal) : o.maxVal;
    count += o.count;
    sum += o.sum;
    sqsum += o.sqsum;
    for (std::size_t i = 0; i < bucketCount; i++)
        buckets[i] += o.buckets[i];
}

double
Histogram::stddev() const
{
    if (count < 2)
        return 0;
    double mu = mean();
    double var = sqsum / count - mu * mu;
    return var > 0 ? std::sqrt(var) : 0;
}

void
Histogram::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("count", count);
    w.field("min", minVal);
    w.field("max", maxVal);
    w.field("mean", mean());
    w.field("stddev", stddev());
    std::size_t last = bucketCount;
    while (last > 1 && buckets[last - 1] == 0)
        last--;
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < last; i++)
        w.value(buckets[i]);
    w.endArray();
    w.endObject();
}

} // namespace xfd::obs
