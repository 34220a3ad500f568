/**
 * @file
 * Campaign benchmark: runs a workload's list of detection campaigns
 * closed-loop (the next campaign starts when the previous one
 * returns) through the public xfd::Campaign and bugsuite APIs, checks
 * every verdict, and reports
 *
 *  - end-to-end metrics from untraced passes (--trace 0), and
 *  - per-layer metrics from traced passes (--trace 1), interleaved
 *    with untraced ones so the tracing overhead is measured too.
 *
 * A traced pass records spans from this file only: one root span per
 * campaign carrying the campaign's PhaseTotals and CampaignStats, and
 * child spans around this file's own calls into each layer's public
 * functions on the pre-failure trace captured through
 * CampaignHooks::onPreTraceReady. Spans stay in memory and are written
 * to --spans-out at exit. README.md next to this file lists the
 * workloads, why each was chosen, and which end-to-end metric each
 * per-layer metric should move.
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bugsuite/registry.hh"
#include "common/logging.hh"
#include "core/failure_planner.hh"
#include "obs/json.hh"
#include "pm/cow.hh"
#include "trace/page_index.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

namespace
{

using namespace xfd;
using Clock = std::chrono::steady_clock;

/** Pool capacity of every campaign (the bugsuite registry's size). */
constexpr std::size_t poolBytes = std::size_t{1} << 22;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile @p q (0..1) of @p v. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Seconds one campaign may run before the watchdog fails the run. */
constexpr unsigned watchdogSeconds = 60;

/** splitmix64: derives per-campaign input seeds from --seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
    std::string commit = "unknown";
};

/** One campaign of a workload's list. */
struct Spec
{
    std::string label;
    std::string program;
    /** Registry case, or null for a clean program. */
    const bugsuite::BugCase *bug = nullptr;
    workloads::WorkloadConfig wcfg;
    core::DetectorConfig dcfg;

    bool clean() const { return bug == nullptr; }
};

Spec
cleanSpec(const std::string &program, unsigned test, std::uint64_t seed,
          const std::string &backend, const std::string &crash_states)
{
    Spec s;
    s.program = program;
    s.wcfg.initOps = 5;
    s.wcfg.testOps = test;
    s.wcfg.postOps = 1;
    s.wcfg.seed = seed;
    s.dcfg.backend = backend;
    s.dcfg.crashStates = crash_states;
    s.dcfg.crashStatesSeed = seed;
    s.label = strprintf("%s/test=%u/seed=%llu", program.c_str(), test,
                        static_cast<unsigned long long>(seed));
    return s;
}

Spec
registrySpec(const bugsuite::BugCase &c)
{
    Spec s;
    s.program = c.workload;
    s.bug = &c;
    s.label = "bug:" + (c.id.empty() ? c.workload : c.id);
    return s;
}

/**
 * WorkloadConfig seeds on which btree and wal_btree finish clean at
 * every size, backend and crash-state tier the workloads use. Other
 * seeds can reach the runaway-recovery defect README.md records, so
 * the two B-trees draw their seeds from this list.
 */
constexpr std::uint64_t bTreeSeeds[] = {
    1, 2, 3, 6, 7, 10, 12, 13, 14, 15, 17, 19, 22, 24, 26, 27, 30, 31, 33,
    34, 35, 36, 37, 38, 39, 41, 42, 43, 47, 49, 50, 52, 53, 54, 56, 57, 58,
    59, 63, 64, 66, 67, 70, 71, 73, 76, 81, 87, 89, 91, 92, 93, 97, 100,
    101, 103, 104, 105, 106, 107, 108, 110, 112, 113, 114, 115, 116, 117,
    118, 123,
};

/**
 * Every other program finishes clean on WorkloadConfig seeds
 * 1..cleanSeedCount at every size, backend and crash-state tier the
 * workloads use. Past them, some rbtree inputs reach the insert defect
 * README.md records, so every other program draws from this range.
 */
constexpr std::uint64_t cleanSeedCount = 128;

/** The WorkloadConfig seed of @p program for random draw @p draw. */
std::uint64_t
inputSeed(const std::string &program, std::uint64_t draw)
{
    if (program == "btree" || program == "wal_btree")
        return bTreeSeeds[draw % std::size(bTreeSeeds)];
    return 1 + draw % cleanSeedCount;
}

/**
 * The campaign list of @p workload. Clean campaigns take their
 * WorkloadConfig seed from @p seed; registry cases keep the inputs the
 * registry validates them with. Sizes stay below the two clean-run
 * defects README.md records (btree --test 90 never returns, wal_btree
 * --test >= 100 reports a recovery failure).
 */
std::vector<Spec>
buildSpecs(const std::string &workload, std::uint64_t seed)
{
    std::vector<Spec> specs;
    std::uint64_t n = 0;
    auto clean = [&](const std::string &program, unsigned test,
                     const std::string &backend,
                     const std::string &crash_states) {
        specs.push_back(cleanSpec(program, test,
                                  inputSeed(program, mixSeed(seed, n++)),
                                  backend, crash_states));
    };
    if (workload == "paper_mix") {
        for (const auto &p : workloads::workloadNames())
            for (unsigned test : {20u, 40u, 60u})
                for (int rep = 0; rep < 3; rep++)
                    clean(p, test, "delta", "anchor");
        for (const auto &c : bugsuite::allBugCases())
            if (c.crashStates.empty())
                specs.push_back(registrySpec(c));
    } else if (workload == "signature_heavy") {
        // No wal_btree: its page-image signatures hold ~140 MB, and on
        // a shared host runs of the same inputs then differ by ~12%.
        for (const char *p : {"btree", "ctree", "hashmap_tx", "redis"})
            for (unsigned test : {40u, 80u})
                for (int rep = 0; rep < 3; rep++)
                    clean(p, test, "batched", "anchor");
    } else if (workload == "crash_states") {
        for (const auto &p : workloads::workloadNames()) {
            if (p == "wal_btree")
                continue;
            for (unsigned test : {20u, 40u})
                for (int rep = 0; rep < 3; rep++)
                    clean(p, test, "delta", "sample:16");
        }
        for (const auto &c : bugsuite::allBugCases())
            if (!c.crashStates.empty())
                specs.push_back(registrySpec(c));
    }
    return specs;
}

/*
 * Watchdog: fails the run loudly when one campaign outlives
 * watchdogSeconds. The library has no way to cancel a campaign, so
 * SIGALRM prints the message formatted when the campaign started,
 * naming it, and ends the process without a result.
 */
char watchdogMessage[512];
std::size_t watchdogMessageLen = 0;

void
onWatchdog(int)
{
    // Only async-signal-safe calls here; a failed write changes nothing.
    if (write(STDERR_FILENO, watchdogMessage, watchdogMessageLen) < 0) {
    }
    _exit(3);
}

void
armWatchdog(const std::string &label)
{
    int n = std::snprintf(watchdogMessage, sizeof(watchdogMessage),
                          "perfbench: watchdog: campaign %s still running "
                          "after %u s; failing the run\n",
                          label.c_str(), watchdogSeconds);
    watchdogMessageLen =
        std::min(static_cast<std::size_t>(std::max(n, 0)),
                 sizeof(watchdogMessage) - 1);
    alarm(watchdogSeconds);
}

void
disarmWatchdog()
{
    alarm(0);
}

/**
 * Moves the calling thread to the next CPU this process may use, round
 * robin. On shared hosts some CPUs run this code a third slower than
 * others, and the scheduler keeps a process on one for seconds at a
 * time; rotating per campaign gives every run the same mix of CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }

    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    std::vector<int> cpus;
    std::size_t turn = 0;
};

/** In-memory span store, written out once at exit. */
class SpanLog
{
  public:
    static constexpr std::size_t none =
        std::numeric_limits<std::size_t>::max();

    struct Span
    {
        std::string name;
        std::size_t parent = none;
        /** Root span of the campaign this span belongs to. */
        std::size_t root = none;
        double startUs = 0;
        double durUs = 0;
        std::vector<std::pair<std::string, std::string>> text;
        std::vector<std::pair<std::string, double>> nums;

        double
        num(const std::string &k) const
        {
            for (const auto &[key, v] : nums)
                if (key == k)
                    return v;
            return 0;
        }
    };

    std::size_t
    open(std::string name, std::size_t parent = none)
    {
        Span s;
        s.name = std::move(name);
        s.parent = parent;
        s.root = parent == none ? spans.size() : spans[parent].root;
        s.startUs = sinceEpochUs();
        spans.push_back(std::move(s));
        return spans.size() - 1;
    }

    void
    close(std::size_t id)
    {
        spans[id].durUs = sinceEpochUs() - spans[id].startUs;
    }

    void
    set(std::size_t id, const std::string &k, double v)
    {
        spans[id].nums.emplace_back(k, v);
    }

    void
    set(std::size_t id, const std::string &k, const std::string &v)
    {
        spans[id].text.emplace_back(k, v);
    }

    const std::vector<Span> &all() const { return spans; }

    void
    write(const std::string &path,
          const std::vector<std::pair<std::string, std::string>> &stamp)
        const
    {
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return;
        }
        obs::JsonWriter w(out);
        w.beginObject();
        w.field("schema", "perfbench-spans-v1");
        w.key("stamp").beginObject();
        for (const auto &[k, v] : stamp)
            w.field(k, v);
        w.endObject();
        w.key("spans").beginArray();
        for (std::size_t i = 0; i < spans.size(); i++) {
            const Span &s = spans[i];
            w.beginObject();
            w.field("id", static_cast<std::uint64_t>(i));
            if (s.parent != none)
                w.field("parent", static_cast<std::uint64_t>(s.parent));
            w.field("campaign", static_cast<std::uint64_t>(s.root));
            w.field("name", s.name);
            w.field("start_us", s.startUs);
            w.field("dur_us", s.durUs);
            for (const auto &[k, v] : s.text)
                w.field(k, v);
            for (const auto &[k, v] : s.nums)
                w.field(k, v);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << '\n';
    }

  private:
    double
    sinceEpochUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch)
            .count();
    }

    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
};

/** Keeps a copy of the campaign's pre-failure trace. */
struct CaptureHooks : core::CampaignHooks
{
    trace::TraceBuffer pre;

    void
    onPreTraceReady(const trace::TraceBuffer &buf) override
    {
        pre = buf;
    }
};

/**
 * Describe the exception being handled. Library errors are not all
 * std::exception: a wild pool access throws pm::BadPmAccess.
 */
std::string
inFlight()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (const pm::BadPmAccess &e) {
        return strprintf("wild PM access at %#llx",
                         static_cast<unsigned long long>(e.addr));
    } catch (...) {
        return "unknown exception";
    }
}

/** A campaign's result and the wall of its run() call. */
struct Ran
{
    core::CampaignResult result;
    double wall = 0;
};

Ran
runCampaign(const Spec &s, core::CampaignHooks *hooks)
{
    Ran r;
    if (!s.clean()) {
        auto t0 = Clock::now();
        r.result = bugsuite::runBugCase(*s.bug, s.dcfg);
        r.wall = secondsSince(t0);
        return r;
    }
    auto w = workloads::makeWorkload(s.program, s.wcfg);
    core::CampaignObserver observer;
    observer.timeline.setEnabled(false);
    observer.hooks = hooks;
    auto campaign = Campaign::forProgram(
                        [&](trace::PmRuntime &rt) { w->pre(rt); },
                        [&](trace::PmRuntime &rt) { w->post(rt); })
                        .config(s.dcfg)
                        .poolSize(poolBytes);
    if (hooks)
        campaign.observer(&observer);
    auto t0 = Clock::now();
    r.result = campaign.run();
    r.wall = secondsSince(t0);
    return r;
}

/** Pre-failure stage alone (Fig. 12b baselines). @return seconds. */
double
runBaseline(const Spec &s, bool traced)
{
    auto w = workloads::makeWorkload(s.program, s.wcfg);
    return Campaign::forProgram([&](trace::PmRuntime &rt) { w->pre(rt); },
                                [](trace::PmRuntime &) {})
        .poolSize(poolBytes)
        .baseline(traced);
}

/** Failure points a campaign accounted for (executed + folded). */
std::size_t
pointsOf(const core::CampaignStats &st)
{
    return st.failurePoints + st.lintPrunedPoints;
}

/** Verdict bookkeeping across every campaign the run attempts. */
class Verdicts
{
  public:
    /**
     * Record one attempt of @p s. @p error is non-empty when the
     * campaign threw; @p r is then ignored.
     */
    void
    check(const Spec &s, const core::CampaignResult &r,
          const std::string &error, const char *pass)
    {
        attempted++;
        std::string problem = error;
        if (problem.empty())
            problem = verdictProblem(s, r);
        if (problem.empty()) {
            std::string fp = r.fingerprint();
            auto [it, fresh] = fingerprints.emplace(s.label, fp);
            if (!fresh && it->second != fp)
                problem = "fingerprint differs from the first run";
        }
        if (!problem.empty()) {
            failed++;
            failures.push_back(
                strprintf("%s (%s pass): %s", s.label.c_str(), pass,
                          problem.c_str()));
        }
    }

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;

  private:
    static std::string
    verdictProblem(const Spec &s, const core::CampaignResult &r)
    {
        if (s.clean()) {
            std::string fp = r.fingerprint();
            if (fp.empty())
                return "";
            return "clean program reported findings: " +
                   fp.substr(0, fp.find('\n'));
        }
        if (bugsuite::detected(*s.bug, r))
            return "";
        return strprintf("expected %s finding not reported",
                         bugsuite::expectedName(s.bug->expected));
    }

    std::map<std::string, std::string> fingerprints;
};

/** One untraced campaign's end-to-end sample. */
struct Sample
{
    std::string program;
    bool clean = false;
    double wall = 0;
    std::size_t points = 0;
};

class Bench
{
  public:
    explicit Bench(const Options &o) : opts(o) {}

    /**
     * Set up pass @p pass: build its campaign list and run every clean
     * program's original (untraced, undetected) pre-failure stage, the
     * slowdown denominators. @return this setup's seconds.
     */
    double
    setup(std::uint64_t pass)
    {
        auto t0 = Clock::now();
        specs = buildSpecs(opts.workload, mixSeed(opts.seed, pass));
        for (const Spec &s : specs) {
            if (!s.clean())
                continue;
            cpus.next();
            try {
                baselines[s.program].push_back(runBaseline(s, false));
            } catch (...) {
                verdicts.check(s, {}, "original program threw: " + inFlight(),
                               "setup");
            }
        }
        return secondsSince(t0);
    }

    /** One closed-loop pass over the list with tracing off. */
    void
    untracedPass()
    {
        auto t0 = Clock::now();
        for (const Spec &s : specs) {
            cpus.next();
            if (auto r = attempt(s, nullptr, "untraced")) {
                samples.push_back({s.program, s.clean(), r->wall,
                                   pointsOf(r->result.stats)});
            }
        }
        suiteWalls.push_back(secondsSince(t0));
    }

    /** One closed-loop pass with spans around every layer call. */
    void
    tracedPass()
    {
        auto t0 = Clock::now();
        for (const Spec &s : specs) {
            cpus.next();
            tracedCampaign(s);
        }
        tracedWalls.push_back(secondsSince(t0));
    }

    std::vector<std::pair<std::string, std::string>>
    stamp() const
    {
        std::string compiler =
#ifdef __clang__
            std::string("clang-") + __clang_version__;
#else
            std::string("gcc-") + __VERSION__;
#endif
        std::replace(compiler.begin(), compiler.end(), ' ', '_');
        return {
            {"workload", opts.workload},
            {"seed", std::to_string(opts.seed)},
            {"commit", opts.commit},
            {"build_type", XFD_BENCH_BUILD_TYPE},
            {"compiler", compiler},
            {"nproc", std::to_string(std::thread::hardware_concurrency())},
            {"pool_bytes", std::to_string(poolBytes)},
        };
    }

    /** End-to-end metrics from the untraced passes. */
    void
    endToEnd(std::vector<double> setups)
    {
        std::vector<double> walls;
        double wall_sum = 0, points = 0;
        std::map<std::string, std::vector<double>> by_program;
        for (const Sample &s : samples) {
            walls.push_back(s.wall * 1e3);
            wall_sum += s.wall;
            points += static_cast<double>(s.points);
            if (s.clean)
                by_program[s.program].push_back(s.wall);
        }
        double log_sum = 0;
        std::size_t programs = 0;
        for (const auto &[program, w] : by_program) {
            double base = median(baselines[program]);
            if (base > 0) {
                log_sum += std::log(median(w) / base);
                programs++;
            }
        }
        double slowdown =
            programs ? std::exp(log_sum / static_cast<double>(programs)) : 0;
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);

        std::size_t n = walls.size();
        e2e("suite_s", median(suiteWalls), "s", suiteWalls.size());
        e2e("campaign_ms.p50", percentile(walls, 0.5), "ms", n);
        e2e("campaign_ms.p90", percentile(walls, 0.9), "ms", n);
        e2e("failure_points_per_s", ratio(points, wall_sum), "1/s", n);
        e2e("slowdown_vs_original", slowdown, "x", programs);
        e2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
            "MB", 1);
        std::size_t reps = setups.size();
        e2e("setup_s", median(std::move(setups)), "s", reps);
    }

    /** Per-layer metrics from the traced passes' spans. */
    void
    perLayer()
    {
        // Sums over every traced campaign, keyed by what they feed.
        double emit_delta_s = 0, emit_entries = 0, pre_entries = 0;
        double plan_s = 0, planned = 0, clean_n = 0;
        double snap_s = 0, scan_s = 0, index_s = 0;
        double batch_s = 0, batch_points = 0, batch_n = 0;
        double folded = 0, all_planned = 0;
        double restore_s = 0, pages = 0, bytes = 0, pool_execs = 0;
        double exec_s = 0, execs = 0, post_entries = 0, classify_s = 0;
        double checked = 0, skipped = 0;
        double explored = 0, enumerated = 0, pruned = 0, executed = 0;
        double wall_s = 0, phase_s = 0, campaigns = 0;

        for (const SpanLog::Span &sp : spans.all()) {
            double dur = sp.durUs / 1e6;
            if (sp.name == "campaign") {
                campaigns++;
                pre_entries += sp.num("pre_entries");
                folded += sp.num("folded_points");
                all_planned += sp.num("planned_points");
                restore_s += sp.num("phase.restore_s");
                pages += sp.num("restore_pages");
                bytes += sp.num("restore_bytes");
                pool_execs += sp.num("post_execs") * sp.num("pool_bytes");
                exec_s += sp.num("phase.recovery_exec_s");
                execs += sp.num("post_execs");
                post_entries += sp.num("post_entries");
                classify_s += sp.num("phase.classify_s");
                checked += sp.num("checks_performed");
                skipped += sp.num("checks_skipped");
                explored += sp.num("cs_explored");
                enumerated += sp.num("cs_enumerated");
                pruned += sp.num("cs_pruned");
                executed += sp.num("failure_points");
                wall_s += sp.num("wall_s");
                phase_s += sp.num("phases_total_s");
            } else if (sp.name == "trace.baseline_traced") {
                emit_delta_s += sp.num("stage_s");
                emit_entries += spans.all()[sp.root].num("pre_entries");
            } else if (sp.name == "trace.baseline_original") {
                emit_delta_s -= sp.num("stage_s");
            } else if (sp.name == "planner.plan") {
                plan_s += dur;
                planned += sp.num("points");
                clean_n++;
            } else if (sp.name == "lint.plan_batches") {
                batch_s += dur;
                batch_points += sp.num("points");
                batch_n++;
            } else if (sp.name == "pm.snapshot") {
                snap_s += dur;
            } else if (sp.name == "pm.nonzero_scan") {
                scan_s += dur;
            } else if (sp.name == "index.build") {
                index_s += dur;
            }
        }
        double passes = static_cast<double>(tracedWalls.size());
        layer("trace.emit_ns_per_entry",
              ratio(emit_delta_s * 1e9, emit_entries), "ns", emit_entries);
        layer("trace.pre_entries", ratio(pre_entries, passes), "count",
              campaigns);
        layer("planner.plan_us", ratio(plan_s * 1e6, clean_n), "us",
              clean_n);
        layer("planner.points", ratio(planned, passes), "count", clean_n);
        layer("pm.snapshot_ms", ratio(snap_s * 1e3, clean_n), "ms",
              clean_n);
        layer("pm.nonzero_scan_ms", ratio(scan_s * 1e3, clean_n), "ms",
              clean_n);
        layer("index.build_us", ratio(index_s * 1e6, clean_n), "us",
              clean_n);
        layer("lint.plan_batches_ms", ratio(batch_s * 1e3, batch_n), "ms",
              batch_n);
        layer("lint.us_per_point", ratio(batch_s * 1e6, batch_points),
              "us", batch_n);
        layer("lint.fold_ratio", ratio(folded, all_planned), "ratio",
              campaigns);
        layer("restore.us_per_page", ratio(restore_s * 1e6, pages), "us",
              campaigns);
        layer("restore.pages_per_exec", ratio(pages, execs), "count",
              campaigns);
        layer("restore.bytes_ratio", ratio(bytes, pool_execs), "ratio",
              campaigns);
        layer("recovery.us_per_exec", ratio(exec_s * 1e6, execs), "us",
              campaigns);
        layer("recovery.post_entries_per_exec",
              ratio(post_entries, execs), "count", campaigns);
        layer("shadow.classify_us_per_exec",
              ratio(classify_s * 1e6, execs), "us", campaigns);
        layer("shadow.check_skip_ratio",
              ratio(skipped, checked + skipped), "ratio", campaigns);
        layer("candidates.explored", ratio(explored, passes), "count",
              campaigns);
        layer("candidates.prune_ratio", ratio(pruned, enumerated),
              "ratio", campaigns);
        layer("candidates.execs_per_fp", ratio(execs, executed), "ratio",
              campaigns);
        layer("driver.unattributed_ms",
              ratio((wall_s - phase_s) * 1e3, campaigns), "ms",
              campaigns);
        layer("driver.phase_coverage", ratio(phase_s, wall_s), "ratio",
              campaigns);
        layer("bench.trace_overhead_ratio",
              ratio(median(tracedWalls), median(suiteWalls)), "ratio",
              passes);
    }

    /** Print every row, the failures, the spans and the result line. */
    void
    report()
    {
        auto st = stamp();
        std::string stamp_text;
        for (const auto &[k, v] : st)
            stamp_text += " " + k + "=" + v;
        for (const Row &r : rows) {
            std::printf("row%s metric=%s value=%.6g unit=%s samples=%zu\n",
                        stamp_text.c_str(), r.name.c_str(), r.value,
                        r.unit.c_str(), r.samples);
        }
        std::printf("row%s metric=verdict_fail_ratio value=%.6g "
                    "unit=ratio samples=%zu\n",
                    stamp_text.c_str(),
                    ratio(static_cast<double>(verdicts.failed),
                          static_cast<double>(verdicts.attempted)),
                    verdicts.attempted);
        for (const auto &f : verdicts.failures)
            std::printf("verdict FAIL %s\n", f.c_str());
        if (!opts.spansOut.empty() && opts.trace)
            spans.write(opts.spansOut, st);

        std::ostringstream line;
        obs::JsonWriter w(line);
        w.beginObject();
        w.field("correct", verdicts.failed == 0);
        w.field("attempted", static_cast<std::uint64_t>(verdicts.attempted));
        w.field("failed", static_cast<std::uint64_t>(verdicts.failed));
        w.key("metrics").beginObject();
        for (const Row &r : rows) {
            if (r.perLayer != opts.trace)
                continue;
            w.key(r.name).beginObject();
            w.field("value", r.value);
            w.field("unit", r.unit);
            w.endObject();
        }
        w.endObject();
        w.endObject();
        std::printf("%s\n", line.str().c_str());
    }

    const Options &opts;

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
        std::size_t samples;
        bool perLayer;
    };

    void
    e2e(const char *name, double v, const char *unit, std::size_t n)
    {
        rows.push_back({name, v, unit, n, false});
    }

    void
    layer(const char *name, double v, const char *unit, double n)
    {
        rows.push_back({name, v, unit, static_cast<std::size_t>(n), true});
    }

    /**
     * Run @p s under the watchdog and check its verdict. @return the
     * result, or nothing when the campaign threw.
     */
    std::optional<Ran>
    attempt(const Spec &s, core::CampaignHooks *hooks, const char *pass)
    {
        armWatchdog(s.label);
        std::optional<Ran> r;
        std::string error;
        try {
            r = runCampaign(s, hooks);
        } catch (...) {
            error = "campaign threw: " + inFlight();
        }
        disarmWatchdog();
        verdicts.check(s, r ? r->result : core::CampaignResult{}, error,
                       pass);
        return r;
    }

    /** Call @p fn inside a span named @p name under @p parent. */
    template <typename F>
    std::size_t
    timed(const char *name, std::size_t parent, F &&fn)
    {
        std::size_t id = spans.open(name, parent);
        fn(id);
        spans.close(id);
        return id;
    }

    void
    tracedCampaign(const Spec &s)
    {
        std::size_t root = spans.open("campaign");
        spans.set(root, "label", s.label);
        spans.set(root, "program", s.program);
        spans.set(root, "test", static_cast<double>(s.wcfg.testOps));
        spans.set(root, "seed", std::to_string(s.wcfg.seed));
        if (s.clean()) {
            try {
                timed("trace.baseline_original", root, [&](std::size_t id) {
                    spans.set(id, "stage_s", runBaseline(s, false));
                });
                timed("trace.baseline_traced", root, [&](std::size_t id) {
                    spans.set(id, "stage_s", runBaseline(s, true));
                });
            } catch (...) {
                verdicts.check(s, {}, "original program threw: " + inFlight(),
                               "traced");
                spans.close(root);
                return;
            }
        }

        CaptureHooks hooks;
        std::optional<Ran> r;
        timed("campaign.run", root, [&](std::size_t) {
            r = attempt(s, s.clean() ? &hooks : nullptr, "traced");
        });
        if (r)
            attachStats(root, *r);

        if (s.clean() && r) {
            const trace::TraceBuffer &pre = hooks.pre;
            core::FailurePlan plan;
            timed("planner.plan", root, [&](std::size_t id) {
                plan = core::planFailurePoints(pre, s.dcfg);
                spans.set(id, "points",
                          static_cast<double>(plan.points.size()));
            });
            if (s.dcfg.batchingOn() && !plan.points.empty()) {
                timed("lint.plan_batches", root, [&](std::size_t id) {
                    core::BatchPlan b = core::planBatches(
                        pre, plan.points, s.dcfg.granularity,
                        s.dcfg.eadrOn());
                    spans.set(id, "points",
                              static_cast<double>(b.totalPoints()));
                    spans.set(id, "folded",
                              static_cast<double>(b.foldedPoints()));
                });
            }
            pm::PmPool pool(poolBytes, defaultPoolBase);
            pm::CowImage initial;
            timed("pm.snapshot", root, [&](std::size_t) {
                initial = pm::CowImage(pool.snapshot());
            });
            timed("pm.nonzero_scan", root, [&](std::size_t id) {
                std::set<std::uint32_t> nonzero;
                initial.collectNonZeroPages(s.dcfg.deltaPageSize, nonzero);
                spans.set(id, "pages", static_cast<double>(nonzero.size()));
            });
            timed("index.build", root, [&](std::size_t id) {
                pm::ImageDeltaStore store = trace::buildDeltaStore(
                    pre, s.dcfg.deltaPageSize, pool.range());
                spans.set(id, "spans",
                          static_cast<double>(store.spanCount()));
            });
        }
        spans.close(root);
    }

    /** The driver's PhaseTotals and CampaignStats, on the root span. */
    void
    attachStats(std::size_t root, const Ran &r)
    {
        const core::CampaignStats &st = r.result.statistics();
        auto n = [](std::size_t v) { return static_cast<double>(v); };
        spans.set(root, "wall_s", r.wall);
        spans.set(root, "phases_total_s", st.phases.total());
        for (std::size_t p = 0; p < obs::phaseCount; p++) {
            spans.set(root,
                      std::string("phase.") +
                          obs::phaseName(static_cast<obs::Phase>(p)) +
                          "_s",
                      st.phases.seconds[p]);
        }
        spans.set(root, "pre_entries", n(st.preTraceEntries));
        spans.set(root, "failure_points", n(st.failurePoints));
        spans.set(root, "folded_points", n(st.lintPrunedPoints));
        spans.set(root, "planned_points", n(pointsOf(st)));
        spans.set(root, "post_execs", n(st.postExecutions));
        spans.set(root, "post_entries", n(st.postTraceEntries));
        spans.set(root, "checks_performed", n(st.checksPerformed));
        spans.set(root, "checks_skipped", n(st.checksSkipped));
        spans.set(root, "cs_enumerated", n(st.crashStatesEnumerated));
        spans.set(root, "cs_explored", n(st.crashStatesExplored));
        spans.set(root, "cs_pruned", n(st.crashStatesPruned));
        double page = static_cast<double>(r.result.config().deltaPageSize);
        spans.set(root, "restore_pages",
                  n(st.restore.pagesRestored) +
                      static_cast<double>(st.restore.bytesFullCopy) / page);
        spans.set(root, "restore_bytes",
                  static_cast<double>(st.restore.bytesCopied()));
        spans.set(root, "pool_bytes", n(st.poolBytes));
        spans.set(root, "findings", n(r.result.findings().size()));
    }

    CpuRotation cpus;
    std::vector<Spec> specs;
    std::map<std::string, std::vector<double>> baselines;
    std::vector<Sample> samples;
    std::vector<double> suiteWalls;
    std::vector<double> tracedWalls;
    Verdicts verdicts;
    SpanLog spans;
    std::vector<Row> rows;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench --workload "
                 "paper_mix|signature_heavy|crash_states --seed N "
                 "--seconds S --trace 0|1 [--spans-out PATH] "
                 "[--commit ID]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--spans-out")
            o.spansOut = v;
        else if (a == "--commit")
            o.commit = v;
        else
            usage();
    }
    if (buildSpecs(o.workload, o.seed).empty() || o.seconds <= 0)
        usage();
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    std::signal(SIGALRM, onWatchdog);

    // Closed loop: whole passes until the measuring time is used up.
    // Every pass draws fresh inputs from (--seed, pass number), so one
    // run averages over many key sequences; how much a campaign costs
    // varies with its keys. Traced runs repeat each pass traced, so
    // the overhead ratio compares passes over the same inputs.
    Bench bench(opts);
    std::vector<double> setups;
    auto t0 = Clock::now();
    for (std::uint64_t pass = 0;
         pass == 0 || secondsSince(t0) < opts.seconds; pass++) {
        setups.push_back(bench.setup(pass));
        bench.untracedPass();
        if (opts.trace)
            bench.tracedPass();
    }

    bench.endToEnd(std::move(setups));
    if (opts.trace)
        bench.perLayer();
    bench.report();
    return 0;
}
