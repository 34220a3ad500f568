#include "obs/timeline.hh"

#include <algorithm>

#include "obs/json.hh"

namespace xfd::obs
{

Timeline::Timeline() : epoch(std::chrono::steady_clock::now())
{
    trackLabels.push_back("main");
}

int
Timeline::registerTrack(const std::string &label)
{
    std::lock_guard<std::mutex> guard(lock);
    trackLabels.push_back(label);
    return static_cast<int>(trackLabels.size()) - 1;
}

std::int64_t
Timeline::nowUs() const
{
    return usAt(std::chrono::steady_clock::now());
}

std::int64_t
Timeline::usAt(std::chrono::steady_clock::time_point t) const
{
    using namespace std::chrono;
    return duration_cast<microseconds>(t - epoch).count();
}

void
Timeline::recordSpan(std::string name, const char *cat, int tid,
                     std::int64_t ts_us, std::int64_t dur_us)
{
    if (!recording)
        return;
    std::lock_guard<std::mutex> guard(lock);
    evs.push_back({std::move(name), cat, tid, ts_us,
                   dur_us < 0 ? 0 : dur_us, {}});
}

void
Timeline::recordInstant(
    std::string name, const char *cat, int tid, std::int64_t ts_us,
    std::vector<std::pair<std::string, std::string>> args)
{
    if (!recording)
        return;
    std::lock_guard<std::mutex> guard(lock);
    evs.push_back(
        {std::move(name), cat, tid, ts_us, -1, std::move(args)});
}

std::vector<TimelineEvent>
Timeline::events() const
{
    std::vector<TimelineEvent> out;
    {
        std::lock_guard<std::mutex> guard(lock);
        out = evs;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TimelineEvent &a, const TimelineEvent &b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.tid < b.tid;
                     });
    return out;
}

std::vector<std::string>
Timeline::tracks() const
{
    std::lock_guard<std::mutex> guard(lock);
    return trackLabels;
}

std::size_t
Timeline::size() const
{
    std::lock_guard<std::mutex> guard(lock);
    return evs.size();
}

void
Timeline::clear()
{
    std::lock_guard<std::mutex> guard(lock);
    evs.clear();
}

void
Timeline::writeJsonl(std::ostream &os) const
{
    for (const auto &e : events()) {
        JsonWriter w(os);
        w.beginObject();
        w.field("name", e.name);
        w.field("cat", e.cat);
        w.field("tid", e.tid);
        w.field("ts_us", e.tsUs);
        if (e.durUs >= 0)
            w.field("dur_us", e.durUs);
        if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : e.args)
                w.field(k, v);
            w.endObject();
        }
        w.endObject();
        os << '\n';
    }
}

void
Timeline::writeChromeTrace(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("displayTimeUnit", "ms");
    w.key("traceEvents").beginArray();

    // Track labels first, as thread_name metadata events.
    std::vector<std::string> labels = tracks();
    for (std::size_t tid = 0; tid < labels.size(); tid++) {
        w.beginObject();
        w.field("ph", "M");
        w.field("name", "thread_name");
        w.field("pid", 1);
        w.field("tid", static_cast<std::int64_t>(tid));
        w.key("args").beginObject();
        w.field("name", labels[tid]);
        w.endObject();
        w.endObject();
    }

    for (const auto &e : events()) {
        w.beginObject();
        w.field("name", e.name);
        w.field("cat", e.cat);
        w.field("ph", e.durUs >= 0 ? "X" : "i");
        w.field("pid", 1);
        w.field("tid", e.tid);
        w.field("ts", e.tsUs);
        if (e.durUs >= 0)
            w.field("dur", e.durUs);
        else
            w.field("s", "t");
        if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : e.args)
                w.field(k, v);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace xfd::obs
