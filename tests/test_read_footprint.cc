/**
 * @file
 * Completeness of the post-failure read footprint (core::RecoveryRun).
 *
 * Read-equivalent crash-state skipping (DESIGN.md §14) rests on one
 * claim: recovery is a function of the PM bytes in its footprint —
 * the trace's Read entries plus the untraced reads PmRuntime records
 * (peek() and in-pool copyToPm sources). So a byte outside the
 * footprint can change without changing anything the execution does.
 *
 * At every failure point the anchor image is rebuilt by an
 * independent prefix replay of the pre-failure trace (the method of
 * DriverImage.PostStageSeesPrefixExactImage). Recovery runs on it,
 * then on fresh copies with one unread byte flipped: the first and
 * the last unread byte of every page the footprint or the point's
 * write interval touches, and seeded random pool bytes. The post
 * trace (every field, payloads included) and the outcome must stay
 * identical. Flipping a footprint byte — the pool header's magic —
 * must change them at least once per program, so the comparison can
 * see a difference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "bugsuite/registry.hh"
#include "core/driver.hh"
#include "core/failure_planner.hh"
#include "harness.hh"
#include "pm/delta.hh"
#include "pm/image.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using trace::PmRuntime;

constexpr std::size_t pageBytes = pm::PmPool::pageSize;

struct Program
{
    std::string label;
    std::string workload;
    workloads::WorkloadConfig cfg;
};

/** The 9 workloads small, plus ringlog's crash-tier registry cases. */
std::vector<Program>
programs()
{
    std::vector<Program> out;
    for (const std::string &name : workloads::workloadNames()) {
        workloads::WorkloadConfig cfg;
        cfg.initOps = 4;
        cfg.testOps = 6;
        cfg.postOps = 2;
        out.push_back({name, name, cfg});
    }
    for (const auto &c : bugsuite::bugCasesFor("ringlog")) {
        if (c.crashStates.empty())
            continue;
        workloads::WorkloadConfig cfg;
        cfg.initOps = c.initOps;
        cfg.testOps = c.testOps;
        cfg.postOps = c.postOps;
        cfg.bugs.enable(c.id);
        out.push_back({c.id, c.workload, cfg});
    }
    return out;
}

/** One recovery execution: what it recorded and how it ended. */
struct Outcome
{
    core::RecoveryRun run;
    std::optional<core::BugReport> failure;
};

/** Empty when @p a and @p b did exactly the same, else why not. */
std::string
difference(const Outcome &a, const Outcome &b)
{
    if (a.failure.has_value() != b.failure.has_value())
        return "one execution failed, the other did not";
    if (a.failure && (a.failure->note != b.failure->note ||
                      !(a.failure->reader == b.failure->reader) ||
                      a.failure->addr != b.failure->addr)) {
        return "failure '" + a.failure->note + "' vs '" +
               b.failure->note + "'";
    }
    const auto &x = a.run.trace;
    const auto &y = b.run.trace;
    for (std::size_t i = 0; i < std::min(x.size(), y.size()); i++) {
        if (!trace::sameEntry(x[i], y[i]))
            return "post-trace entry " + std::to_string(i) + " differs";
    }
    if (x.size() != y.size()) {
        return "post-trace length " + std::to_string(x.size()) +
               " vs " + std::to_string(y.size());
    }
    return {};
}

/** Sorted, merged address intervals: one execution's footprint. */
class Footprint
{
  public:
    explicit Footprint(const core::RecoveryRun &run)
    {
        run.forEachRead([&](AddrRange r) { ranges.push_back(r); });
        std::sort(ranges.begin(), ranges.end(),
                  [](const AddrRange &a, const AddrRange &b) {
                      return a.begin < b.begin;
                  });
        std::vector<AddrRange> merged;
        for (const AddrRange &r : ranges) {
            if (!merged.empty() && r.begin <= merged.back().end)
                merged.back().end = std::max(merged.back().end, r.end);
            else
                merged.push_back(r);
        }
        ranges = std::move(merged);
    }

    bool contains(Addr a) const { return covering(a) != nullptr; }

    /** First address of [lo, hi) outside the footprint, if any. */
    std::optional<Addr>
    firstUnread(Addr lo, Addr hi) const
    {
        for (Addr a = lo; a < hi;) {
            const AddrRange *r = covering(a);
            if (!r)
                return a;
            a = r->end;
        }
        return std::nullopt;
    }

    /** Last address of [lo, hi) outside the footprint, if any. */
    std::optional<Addr>
    lastUnread(Addr lo, Addr hi) const
    {
        for (Addr a = hi; a > lo;) {
            const AddrRange *r = covering(a - 1);
            if (!r)
                return a - 1;
            a = r->begin;
        }
        return std::nullopt;
    }

    /** Pages (pool-relative indices) the footprint touches. */
    void
    pages(Addr base, std::set<std::size_t> &out) const
    {
        for (const AddrRange &r : ranges) {
            for (Addr p = (r.begin - base) / pageBytes;
                 p <= (r.end - 1 - base) / pageBytes; p++) {
                out.insert(p);
            }
        }
    }

  private:
    const AddrRange *
    covering(Addr a) const
    {
        auto it = std::upper_bound(
            ranges.begin(), ranges.end(), a,
            [](Addr x, const AddrRange &r) { return x < r.begin; });
        if (it == ranges.begin())
            return nullptr;
        --it;
        return it->contains(a) ? &*it : nullptr;
    }

    std::vector<AddrRange> ranges;
};

TEST(ReadFootprint, UnreadBytesNeverChangeRecovery)
{
    for (const Program &prog : programs()) {
        SCOPED_TRACE(prog.label);
        auto w = workloads::makeWorkload(prog.workload, prog.cfg);
        pm::PmPool pool(xfdtest::defaultPoolBytes);
        pm::PmImage img = pool.snapshot();
        trace::TraceBuffer pre;
        {
            PmRuntime rt(pool, pre, trace::Stage::PreFailure);
            try {
                w->pre(rt);
            } catch (const trace::StageComplete &) {
            }
        }
        core::FailurePlan plan = core::planFailurePoints(pre, {});
        ASSERT_FALSE(plan.points.empty());

        core::ProgramFn post = [&](PmRuntime &rt) { w->post(rt); };
        pm::PmPool exec(pool.size(), pool.base());
        img.copyTo(exec);
        exec.clearDirtyPages();
        // A fresh copy of the image per execution: copy back exactly
        // the pages the previous one soiled.
        auto runOn = [&](std::optional<Addr> flip) {
            std::set<std::uint32_t> soiled;
            exec.drainDirtyPages(soiled);
            pm::DeltaRestoreStats st;
            pm::restorePages(img, exec, pageBytes, soiled, st);
            if (flip) {
                exec.data()[*flip - exec.base()] ^= 0xff;
                exec.markDirty(*flip, 1);
            }
            Outcome o;
            o.failure = core::runRecovery(exec, post, o.run);
            return o;
        };

        std::mt19937_64 rng(0x5eed ^ plan.points.size());
        std::size_t flips = 0;
        std::size_t magicMoves = 0;
        std::uint32_t cursor = 0;
        for (std::uint32_t fp : plan.points) {
            SCOPED_TRACE(testing::Message() << "failure point " << fp);
            std::set<std::size_t> pages;
            for (; cursor < fp; cursor++) {
                const auto &e = pre[cursor];
                if (!e.isWrite() || e.data.empty())
                    continue;
                img.applyWrite(e.addr, e.data.data(), e.data.size());
                exec.markDirty(e.addr, e.data.size());
                for (Addr p = (e.addr - pool.base()) / pageBytes;
                     p <= (e.addr + e.size - 1 - pool.base()) / pageBytes;
                     p++) {
                    pages.insert(p);
                }
            }
            Outcome base = runOn(std::nullopt);
            Footprint foot(base.run);
            foot.pages(pool.base(), pages);

            std::vector<Addr> targets;
            for (std::size_t p : pages) {
                Addr lo = pool.base() + p * pageBytes;
                Addr hi = lo + pageBytes;
                if (auto a = foot.firstUnread(lo, hi))
                    targets.push_back(*a);
                if (auto a = foot.lastUnread(lo, hi))
                    targets.push_back(*a);
            }
            std::uniform_int_distribution<std::size_t> byte(
                0, pool.size() - 1);
            for (int drawn = 0, tries = 0; drawn < 8 && tries < 64;
                 tries++) {
                Addr a = pool.base() + byte(rng);
                if (foot.contains(a))
                    continue;
                targets.push_back(a);
                drawn++;
            }
            for (Addr a : targets) {
                ASSERT_FALSE(foot.contains(a));
                std::string why = difference(base, runOn(a));
                flips++;
                ASSERT_TRUE(why.empty())
                    << "flipping unread pool offset "
                    << (a - pool.base()) << " changed recovery: " << why;
            }

            // Teeth: the header's magic is peeked by every open.
            ASSERT_TRUE(foot.contains(pool.base()));
            if (!difference(base, runOn(pool.base())).empty())
                magicMoves++;
        }
        EXPECT_GT(flips, plan.points.size());
        EXPECT_GT(magicMoves, 0u)
            << "flipping a footprint byte never changed recovery";
    }
}

} // namespace
