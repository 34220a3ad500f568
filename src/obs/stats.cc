#include "obs/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xfd::obs
{

void
SampleMoments::note(double v, std::uint64_t n)
{
    if (count == 0) {
        minVal = v;
        maxVal = v;
    } else {
        minVal = std::min(minVal, v);
        maxVal = std::max(maxVal, v);
    }
    count += n;
    sum += v * n;
    sqsum += v * v * n;
}

double
SampleMoments::variance() const
{
    if (count < 2)
        return 0;
    double mu = mean();
    double var = sqsum / count - mu * mu;
    return var > 0 ? var : 0;
}

void
Scalar::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("type", "scalar");
    w.field("desc", desc());
    w.field("value", val);
    w.endObject();
}

Histogram::Histogram(std::string name, std::string desc,
                     unsigned buckets)
    : StatBase(std::move(name), std::move(desc))
{
    if (buckets == 0 || buckets > 64)
        panic("Histogram %s: bad bucket count", this->name().c_str());
    counts.assign(buckets, 0);
}

void
Histogram::sample(double v, std::uint64_t n)
{
    if (v < 0)
        v = 0;
    m.note(v, n);
    std::size_t i = 0;
    if (v >= 2) {
        i = static_cast<std::size_t>(std::log2(v));
        i = std::min(i, counts.size() - 1);
    }
    counts[i] += n;
}

void
Histogram::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("type", "histogram");
    w.field("desc", desc());
    w.field("count", m.count);
    w.field("min", m.count ? m.minVal : 0.0);
    w.field("max", m.count ? m.maxVal : 0.0);
    w.field("mean", m.mean());
    w.field("stddev", std::sqrt(m.variance()));
    // Trailing all-zero buckets are elided; bucket i spans
    // [2^i, 2^(i+1)) with bucket 0 also absorbing [0, 2).
    std::size_t last = counts.size();
    while (last > 1 && counts[last - 1] == 0)
        last--;
    w.key("buckets").beginArray();
    for (std::size_t i = 0; i < last; i++)
        w.value(counts[i]);
    w.endArray();
    w.endObject();
}

template <typename T, typename... Args>
T &
StatsRegistry::add(const std::string &name, Args &&...args)
{
    auto it = byName.find(name);
    if (it != byName.end()) {
        auto *existing = dynamic_cast<T *>(it->second.get());
        if (!existing)
            panic("stat %s re-registered with a different type",
                  name.c_str());
        return *existing;
    }
    auto stat = std::make_unique<T>(name, std::forward<Args>(args)...);
    T &ref = *stat;
    order.push_back(stat.get());
    byName.emplace(name, std::move(stat));
    return ref;
}

Scalar &
StatsRegistry::scalar(const std::string &name, const std::string &desc)
{
    return add<Scalar>(name, desc);
}

Histogram &
StatsRegistry::histogram(const std::string &name,
                         const std::string &desc, unsigned buckets)
{
    return add<Histogram>(name, desc, buckets);
}

const StatBase *
StatsRegistry::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? nullptr : it->second.get();
}

double
StatsRegistry::value(const std::string &name) const
{
    const StatBase *s = find(name);
    if (auto *sc = dynamic_cast<const Scalar *>(s))
        return sc->value();
    return 0;
}

void
StatsRegistry::clear()
{
    order.clear();
    byName.clear();
}

void
StatsRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const StatBase *s : order) {
        w.key(s->name());
        s->writeJson(w);
    }
    w.endObject();
}

} // namespace xfd::obs
