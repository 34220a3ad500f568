/**
 * @file
 * Shared helpers for the benchmark binaries: campaign runners with
 * repetition, fixed-width table printing that mirrors the paper's
 * tables/figures as console output, and machine-readable
 * BENCH_<name>.json emission for regression tracking.
 */

#ifndef XFD_BENCH_BENCH_UTIL_HH
#define XFD_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/phase_profiler.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace xfd::bench
{

/** Pool size used by all benchmark campaigns. */
constexpr std::size_t benchPoolSize = 1 << 23;

/** Result of repeated campaign timing. */
struct Timing
{
    core::CampaignResult last;
    /** Campaign wall: the whole run() call, pool setup included. */
    double meanWallSeconds = 0;
    double meanPreSeconds = 0;
    double meanPostSeconds = 0;
    double meanBackendSeconds = 0;
    /** Mean seconds attributed to each obs::Phase. */
    std::array<double, obs::phaseCount> meanPhaseSeconds{};

    /** Mean seconds of one phase. */
    double
    phaseSeconds(obs::Phase p) const
    {
        return meanPhaseSeconds[static_cast<std::size_t>(p)];
    }
};

/**
 * Run a detection campaign @p reps times and average the timings: the
 * wall of each run() call, and its phases.
 */
inline Timing
timeCampaign(const std::string &workload,
             workloads::WorkloadConfig cfg,
             core::DetectorConfig dcfg = {}, unsigned reps = 3)
{
    Timing t;
    for (unsigned i = 0; i < reps; i++) {
        auto w = workloads::makeWorkload(workload, cfg);
        auto campaign = Campaign::forProgram(
                            [&](trace::PmRuntime &rt) { w->pre(rt); },
                            [&](trace::PmRuntime &rt) { w->post(rt); })
                            .config(dcfg)
                            .poolSize(benchPoolSize);
        auto t0 = std::chrono::steady_clock::now();
        auto res = campaign.run();
        t.meanWallSeconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
        const core::CampaignStats &st = res.statistics();
        t.meanPreSeconds += st.preSeconds();
        t.meanPostSeconds += st.postSeconds();
        t.meanBackendSeconds += st.backendSeconds();
        for (std::size_t p = 0; p < obs::phaseCount; p++)
            t.meanPhaseSeconds[p] += res.phases().seconds[p];
        t.last = std::move(res);
    }
    t.meanWallSeconds /= reps;
    t.meanPreSeconds /= reps;
    t.meanPostSeconds /= reps;
    t.meanBackendSeconds /= reps;
    for (double &p : t.meanPhaseSeconds)
        p /= reps;
    return t;
}

/**
 * Emit the per-phase breakdown of @p t into the open JSON object:
 * a "phases_ms" object (zero-time phases omitted).
 */
inline void
writePhaseBreakdownJson(obs::JsonWriter &w, const Timing &t)
{
    w.key("phases_ms").beginObject();
    for (std::size_t p = 0; p < obs::phaseCount; p++) {
        if (t.meanPhaseSeconds[p] > 0) {
            w.field(obs::phaseName(static_cast<obs::Phase>(p)),
                    t.meanPhaseSeconds[p] * 1e3);
        }
    }
    w.endObject();
}

/** Time only the pre-failure stage in a baseline mode. */
inline double
timeBaseline(const std::string &workload, workloads::WorkloadConfig cfg,
             bool traced, unsigned reps = 5)
{
    double total = 0;
    for (unsigned i = 0; i < reps; i++) {
        auto w = workloads::makeWorkload(workload, cfg);
        total += Campaign::forProgram(
                     [&](trace::PmRuntime &rt) { w->pre(rt); },
                     [](trace::PmRuntime &) {})
                     .poolSize(benchPoolSize)
                     .baseline(traced);
    }
    return total / reps;
}

/** Print a horizontal rule sized for our tables. */
inline void
rule(int width = 78)
{
    for (int i = 0; i < width; i++)
        std::putchar('-');
    std::putchar('\n');
}

/**
 * Where BENCH_<name>.json lands: $XFD_BENCH_JSON_DIR when set, the
 * current directory otherwise.
 */
inline std::string
benchJsonPath(const std::string &name)
{
    const char *dir = std::getenv("XFD_BENCH_JSON_DIR");
    std::string prefix =
        dir && *dir ? std::string(dir) + "/" : std::string();
    return prefix + "BENCH_" + name + ".json";
}

/**
 * Write BENCH_<name>.json: a "xfd-bench-v1" envelope whose body
 * (everything besides schema/bench) @p body emits into the open
 * top-level object.
 */
inline void
writeBenchJson(const std::string &name,
               const std::function<void(obs::JsonWriter &)> &body)
{
    std::string path = benchJsonPath(name);
    std::ofstream out(path);
    if (!out) {
        warn("cannot write %s", path.c_str());
        return;
    }
    obs::JsonWriter w(out);
    w.beginObject();
    w.field("schema", "xfd-bench-v1");
    w.field("bench", name);
    body(w);
    w.endObject();
    out << '\n';
    std::printf("wrote %s\n", path.c_str());
}

} // namespace xfd::bench

#endif // XFD_BENCH_BENCH_UTIL_HH
