#include "obs/live.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xfd::obs
{

RateWindow::RateWindow(unsigned window_seconds)
    : buckets(std::max(1u, window_seconds), 0)
{
}

void
RateWindow::roll(std::int64_t now_sec)
{
    if (now_sec <= head)
        return;
    auto n = static_cast<std::int64_t>(buckets.size());
    if (now_sec - head >= n) {
        std::fill(buckets.begin(), buckets.end(), 0);
    } else {
        for (std::int64_t s = head + 1; s <= now_sec; s++)
            buckets[static_cast<std::size_t>(s % n)] = 0;
    }
    head = now_sec;
}

void
RateWindow::note(std::uint64_t n, std::int64_t now_sec)
{
    roll(now_sec);
    auto cap = static_cast<std::int64_t>(buckets.size());
    buckets[static_cast<std::size_t>(head % cap)] += n;
    lifetime += n;
}

std::uint64_t
RateWindow::sumLast(unsigned k, std::int64_t now_sec)
{
    roll(now_sec);
    auto cap = static_cast<std::int64_t>(buckets.size());
    k = std::min<unsigned>(k, static_cast<unsigned>(cap));
    std::uint64_t sum = 0;
    for (unsigned j = 0; j < k; j++) {
        std::int64_t s = head - j;
        if (s < 0)
            break;
        sum += buckets[static_cast<std::size_t>(s % cap)];
    }
    return sum;
}

double
RateWindow::ratePerSec(unsigned k, std::int64_t now_sec)
{
    if (k == 0)
        return 0;
    return static_cast<double>(sumLast(k, now_sec)) / k;
}

LatencyWindow::LatencyWindow(unsigned window_seconds, unsigned buckets)
    : frames(std::max(1u, window_seconds)),
      bucketCount(std::max(1u, buckets))
{
    for (auto &f : frames)
        f.buckets.assign(bucketCount, 0);
}

void
LatencyWindow::roll(std::int64_t now_sec)
{
    if (now_sec <= head)
        return;
    auto n = static_cast<std::int64_t>(frames.size());
    auto reset = [&](Frame &f) {
        std::fill(f.buckets.begin(), f.buckets.end(), 0);
        f.count = 0;
        f.sum = 0;
        f.maxVal = 0;
    };
    if (now_sec - head >= n) {
        for (auto &f : frames)
            reset(f);
    } else {
        for (std::int64_t s = head + 1; s <= now_sec; s++)
            reset(frames[static_cast<std::size_t>(s % n)]);
    }
    head = now_sec;
}

void
LatencyWindow::note(double v, std::int64_t now_sec)
{
    roll(now_sec);
    if (v < 0)
        v = 0;
    auto cap = static_cast<std::int64_t>(frames.size());
    Frame &f = frames[static_cast<std::size_t>(head % cap)];
    f.buckets[log2Bucket(v, bucketCount)]++;
    f.count++;
    f.sum += v;
    f.maxVal = std::max(f.maxVal, v);
    lifetime++;
}

double
LatencyWindow::Merged::quantile(double q) const
{
    if (!count)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); i++) {
        seen += buckets[i];
        if (seen >= target) {
            // Bucket upper bound, clamped by the exact observed max.
            return std::min(std::exp2(static_cast<double>(i + 1)),
                            maxVal);
        }
    }
    return maxVal;
}

LatencyWindow::Merged
LatencyWindow::mergeLast(unsigned k, std::int64_t now_sec)
{
    roll(now_sec);
    Merged m;
    m.buckets.assign(bucketCount, 0);
    auto cap = static_cast<std::int64_t>(frames.size());
    k = std::min<unsigned>(k, static_cast<unsigned>(cap));
    for (unsigned j = 0; j < k; j++) {
        std::int64_t s = head - j;
        if (s < 0)
            break;
        const Frame &f = frames[static_cast<std::size_t>(s % cap)];
        if (!f.count)
            continue;
        for (std::size_t i = 0; i < bucketCount; i++)
            m.buckets[i] += f.buckets[i];
        m.count += f.count;
        m.sum += f.sum;
        m.maxVal = std::max(m.maxVal, f.maxVal);
    }
    return m;
}

std::string
promName(const std::string &name)
{
    std::string out = "xfd_";
    for (char c : name) {
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
            c == '_') {
            out += c;
        } else if (c >= 'A' && c <= 'Z') {
            out += static_cast<char>(c - 'A' + 'a');
        } else {
            out += '_';
        }
    }
    return out;
}

namespace
{

/** Shortest %g-style spelling, matching JsonWriter's number style. */
std::string
num(double v)
{
    return strprintf("%g", v);
}

} // namespace

void
LiveSnapshot::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", "xfd-live-v1");
    w.field("wall_time", wallTime);
    w.field("uptime_seconds", uptimeSeconds);
    w.field("window_seconds", windowSeconds);
    w.key("counters").beginObject();
    for (const auto &c : counters) {
        w.key(c.name).beginObject();
        w.field("total", c.total);
        w.field("per_sec_1s", c.rate1s);
        w.field("per_sec_10s", c.rate10s);
        w.field("per_sec_60s", c.rate60s);
        w.endObject();
    }
    w.endObject();
    w.key("gauges").beginObject();
    for (const auto &g : gauges)
        w.field(g.name, g.value);
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &h : hists) {
        w.key(h.name).beginObject();
        w.field("count", h.count);
        w.field("sum", h.sum);
        w.field("max", h.maxVal);
        w.field("p50", h.p50);
        w.field("p90", h.p90);
        w.field("p99", h.p99);
        // Trim trailing zero buckets to keep stream lines compact.
        std::size_t last = h.buckets.size();
        while (last > 0 && h.buckets[last - 1] == 0)
            last--;
        w.key("buckets").beginArray();
        for (std::size_t i = 0; i < last; i++)
            w.value(h.buckets[i]);
        w.endArray();
        w.endObject();
    }
    w.endObject();
    w.endObject();
}

void
LiveSnapshot::writePrometheus(std::ostream &os) const
{
    os << "# HELP xfd_up campaign process is serving live telemetry\n"
       << "# TYPE xfd_up gauge\n"
       << "xfd_up 1\n"
       << "# HELP xfd_uptime_seconds steady-clock seconds since "
          "telemetry start\n"
       << "# TYPE xfd_uptime_seconds gauge\n"
       << "xfd_uptime_seconds " << num(uptimeSeconds) << '\n'
       << "# HELP xfd_wall_time_seconds unix time at scrape\n"
       << "# TYPE xfd_wall_time_seconds gauge\n"
       << "xfd_wall_time_seconds " << num(wallTime) << '\n';

    for (const auto &c : counters) {
        std::string base = promName(c.name);
        os << "# HELP " << base << "_total campaign counter " << c.name
           << '\n'
           << "# TYPE " << base << "_total counter\n"
           << base << "_total " << c.total << '\n'
           << "# HELP " << base
           << "_per_sec sliding-window rate of " << c.name << '\n'
           << "# TYPE " << base << "_per_sec gauge\n"
           << base << "_per_sec{window=\"1s\"} " << num(c.rate1s)
           << '\n'
           << base << "_per_sec{window=\"10s\"} " << num(c.rate10s)
           << '\n'
           << base << "_per_sec{window=\"60s\"} " << num(c.rate60s)
           << '\n';
    }

    for (const auto &g : gauges) {
        std::string base = promName(g.name);
        os << "# HELP " << base << " campaign gauge " << g.name << '\n'
           << "# TYPE " << base << " gauge\n"
           << base << ' ' << num(g.value) << '\n';
    }

    for (const auto &h : hists) {
        std::string base = promName(h.name);
        os << "# HELP " << base << " windowed samples of " << h.name
           << " (last " << windowSeconds << "s)\n"
           << "# TYPE " << base << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < h.buckets.size(); i++) {
            cum += h.buckets[i];
            os << base << "_bucket{le=\""
               << num(std::exp2(static_cast<double>(i + 1))) << "\"} "
               << cum << '\n';
        }
        os << base << "_bucket{le=\"+Inf\"} " << h.count << '\n'
           << base << "_sum " << num(h.sum) << '\n'
           << base << "_count " << h.count << '\n';
    }
}

LiveMetrics::LiveMetrics() : epoch(std::chrono::steady_clock::now())
{
}

std::int64_t
LiveMetrics::nowSec() const
{
    if (clockOverride)
        return clockOverride();
    using namespace std::chrono;
    return duration_cast<seconds>(steady_clock::now() - epoch).count();
}

void
LiveMetrics::count(const std::string &name, std::uint64_t n)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(lock);
    counters.try_emplace(name).first->second.note(n, nowSec());
}

void
LiveMetrics::sample(const std::string &name, double v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(lock);
    hists.try_emplace(name).first->second.note(v, nowSec());
}

void
LiveMetrics::gauge(const std::string &name, double v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> guard(lock);
    gauges[name] = v;
}

LiveSnapshot
LiveMetrics::snapshot(unsigned window_seconds)
{
    std::lock_guard<std::mutex> guard(lock);
    LiveSnapshot snap;
    snap.windowSeconds = std::max(1u, window_seconds);
    if (wallOverride) {
        snap.wallTime = wallOverride();
    } else {
        using namespace std::chrono;
        snap.wallTime =
            duration<double>(
                system_clock::now().time_since_epoch())
                .count();
    }
    std::int64_t now = nowSec();
    if (clockOverride) {
        snap.uptimeSeconds = static_cast<double>(now);
    } else {
        snap.uptimeSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - epoch)
                .count();
    }
    for (auto &[name, win] : counters) {
        LiveCounterSnap c;
        c.name = name;
        c.total = win.total();
        c.rate1s = win.ratePerSec(1, now);
        c.rate10s = win.ratePerSec(10, now);
        c.rate60s = win.ratePerSec(60, now);
        snap.counters.push_back(std::move(c));
    }
    for (const auto &[name, v] : gauges)
        snap.gauges.push_back({name, v});
    for (auto &[name, win] : hists) {
        LatencyWindow::Merged m =
            win.mergeLast(snap.windowSeconds, now);
        LiveHistSnap h;
        h.name = name;
        h.count = m.count;
        h.sum = m.sum;
        h.maxVal = m.maxVal;
        h.p50 = m.quantile(0.50);
        h.p90 = m.quantile(0.90);
        h.p99 = m.quantile(0.99);
        h.buckets = std::move(m.buckets);
        snap.hists.push_back(std::move(h));
    }
    return snap;
}

void
LiveMetrics::setClockForTest(std::function<std::int64_t()> now_sec)
{
    std::lock_guard<std::mutex> guard(lock);
    clockOverride = std::move(now_sec);
}

void
LiveMetrics::setWallClockForTest(std::function<double()> wall)
{
    std::lock_guard<std::mutex> guard(lock);
    wallOverride = std::move(wall);
}

} // namespace xfd::obs
