/**
 * @file
 * Interned frontier signatures against the per-byte reference.
 *
 * lint::FrontierState stores cells as coalesced ranges and interns its
 * signature; FrontierSignature::str() must still render the canonical
 * string the per-byte walk produced, byte for byte, and the prune
 * verdicts (hence batch groups, folded points and crash-state stream
 * keys) must not move. This file keeps that per-byte walk as the
 * reference and checks it at every planned point of every workload's
 * pre-trace (both persistency models, granularity 1 and 8) and of
 * seeded random traces; the FrontierSigFuzz cases replay one seed via
 * XFD_FUZZ_SEED. Golden campaign counts recorded before the rework pin
 * the end-to-end effect, and the page-set scans in pm/ are checked
 * against byte-wise references.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/failure_planner.hh"
#include "harness.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"
#include "pm/cow.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"
#include "workloads/workload.hh"

namespace
{

using namespace xfd;
using lint::CellState;
using trace::Op;
using trace::TraceBuffer;
using trace::TraceEntry;

/**
 * The per-byte signature walk lint::FrontierState used before range
 * storage: one map node per cell ever written, one formatted string
 * per in-flight cell. Kept verbatim in behaviour as the reference.
 */
class RefFrontier
{
  public:
    RefFrontier(unsigned granularity, bool flushFree)
        : gran(granularity), eadr(flushFree)
    {
    }

    void
    apply(const TraceEntry &e)
    {
        switch (e.op) {
          case Op::Write:
          case Op::NtWrite:
            if (!e.has(trace::flagImageOnly))
                applyWrite(e);
            break;
          case Op::Clwb:
          case Op::ClflushOpt:
          case Op::Clflush:
            if (eadr)
                break;
            for (std::uint64_t i = 0; i < cellCount(e.addr, 64); i++) {
                auto it = cells.find(e.addr / gran + i);
                if (it != cells.end() && it->second.st == CellState::Modified) {
                    it->second.st = CellState::WritebackPending;
                    pendingCells.push_back(e.addr / gran + i);
                }
            }
            break;
          case Op::Sfence:
          case Op::Mfence:
            for (std::uint64_t idx : pendingCells) {
                auto it = cells.find(idx);
                if (it != cells.end() &&
                    it->second.st == CellState::WritebackPending) {
                    it->second.st = CellState::Persisted;
                }
            }
            pendingCells.clear();
            ts++;
            break;
          case Op::Alloc:
            for (std::uint64_t i = 0; i < cellCount(e.addr, e.size); i++) {
                lint::FrontierCell &c = cells[e.addr / gran + i];
                c.st = CellState::Modified;
                c.writer = e.loc;
                c.writerSeq = e.seq;
                c.tlast = ts;
                c.uninit = true;
            }
            if (e.size)
                allocs[e.addr] = {e.addr + e.size, e.loc};
            break;
          case Op::Free:
            for (std::uint64_t i = 0; i < cellCount(e.addr, e.size); i++)
                cells.erase(e.addr / gran + i);
            allocs.erase(e.addr);
            break;
          case Op::CommitVar: {
            AddrRange r{e.addr, e.addr + e.size};
            for (const auto &cv : commitVars) {
                if (cv.var == r)
                    return;
            }
            commitVars.push_back(CommitVar{r, {}, -1, -1, {}});
            break;
          }
          case Op::CommitRange:
            for (auto &cv : commitVars) {
                if (cv.var.contains(e.aux)) {
                    AddrRange r{e.addr, e.addr + e.size};
                    if (std::find(cv.ranges.begin(), cv.ranges.end(), r) ==
                        cv.ranges.end()) {
                        cv.ranges.push_back(r);
                    }
                    return;
                }
            }
            break;
          default:
            break;
        }
    }

    std::string
    signature() const
    {
        std::set<std::string> inflight;
        std::set<std::string> inconsistent;
        for (const auto &[idx, c] : cells) {
            const CommitVar *var = coveringVar(idx * gran);
            if (c.st != CellState::Persisted) {
                char commit = 'n';
                if (var) {
                    commit = var->tprelast <= c.tlast && c.tlast < var->tlast
                                 ? 'c'
                                 : 'i';
                }
                inflight.insert(strprintf(
                    "%s:%u:%c%c@%s", c.writer.file, c.writer.line,
                    c.uninit ? 'u' : '-', commit,
                    regionTag(idx * gran).c_str()));
                continue;
            }
            if (c.uninit || !var ||
                (var->tprelast <= c.tlast && c.tlast < var->tlast)) {
                continue;
            }
            inconsistent.insert(strprintf(
                "%s:%u:%c@%s", c.writer.file, c.writer.line,
                c.tlast < var->tprelast ? 's' : '-',
                regionTag(idx * gran).c_str()));
        }
        std::string sig;
        for (const auto &s : inflight)
            sig += s + ';';
        sig += '|';
        for (const auto &s : inconsistent)
            sig += s + ';';
        for (std::size_t i = 0; i < commitVars.size(); i++) {
            const CommitVar &cv = commitVars[i];
            char st = '-';
            auto it = cells.find(cv.var.begin / gran);
            if (it != cells.end()) {
                st = it->second.st == CellState::Modified           ? 'm'
                     : it->second.st == CellState::WritebackPending ? 'w'
                                                                    : 'p';
            }
            sig += strprintf("#%zu=%s:%c", i, cv.lastVal.c_str(), st);
        }
        return sig;
    }

  private:
    struct CommitVar
    {
        AddrRange var;
        std::vector<AddrRange> ranges;
        std::int32_t tlast;
        std::int32_t tprelast;
        std::string lastVal;
    };

    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        return n == 0 ? 0 : (a + n - 1) / gran - a / gran + 1;
    }

    void
    applyWrite(const TraceEntry &e)
    {
        if (e.size == 0)
            return;
        bool nt = e.op == Op::NtWrite;
        CellState to = eadr  ? CellState::Persisted
                       : nt ? CellState::WritebackPending
                            : CellState::Modified;
        for (std::uint64_t i = 0; i < cellCount(e.addr, e.size); i++) {
            lint::FrontierCell &c = cells[e.addr / gran + i];
            c.st = to;
            c.writer = e.loc;
            c.writerSeq = e.seq;
            c.tlast = ts;
            c.uninit = false;
            if (nt && !eadr)
                pendingCells.push_back(e.addr / gran + i);
        }
        for (auto &cv : commitVars) {
            if (!cv.var.overlaps({e.addr, e.addr + e.size}))
                continue;
            cv.tprelast = cv.tlast;
            cv.tlast = ts;
            cv.lastVal.clear();
            if (e.has(trace::flagSameValue) && e.data.empty())
                cv.lastVal = strprintf("sv#%u", e.seq);
            for (std::size_t i = 0; i < e.data.size() && i < 16; i++)
                cv.lastVal += strprintf("%02x", e.data[i]);
        }
    }

    const CommitVar *
    coveringVar(Addr a) const
    {
        for (const auto &cv : commitVars) {
            for (const auto &r : cv.ranges) {
                if (r.contains(a))
                    return &cv;
            }
        }
        if (commitVars.size() == 1 && commitVars.front().ranges.empty())
            return &commitVars.front();
        return nullptr;
    }

    std::string
    regionTag(Addr a) const
    {
        auto it = allocs.upper_bound(a);
        if (it != allocs.begin()) {
            --it;
            if (a < it->second.first) {
                const trace::SrcLoc &loc = it->second.second;
                return strprintf(
                    "%s:%u+%llu", loc.file, loc.line,
                    static_cast<unsigned long long>(a - it->first));
            }
        }
        return "root";
    }

    unsigned gran;
    bool eadr;
    std::map<std::uint64_t, lint::FrontierCell> cells;
    std::map<Addr, std::pair<Addr, trace::SrcLoc>> allocs;
    std::vector<CommitVar> commitVars;
    std::vector<std::uint64_t> pendingCells;
    std::int32_t ts = 0;
};

/** The string-keyed grouping computePruneVerdicts used to do. */
lint::PruneVerdicts
refVerdicts(const TraceBuffer &pre, const std::vector<std::uint32_t> &points,
            unsigned gran, bool flushFree)
{
    lint::PruneVerdicts v;
    RefFrontier st(gran, flushFree);
    std::map<std::string, std::map<std::string, std::uint32_t>> seen;
    std::size_t next = 0;
    for (const auto &e : pre) {
        if (next < points.size() && e.seq == points[next]) {
            auto [it, fresh] =
                seen[strprintf("%s:%u", e.loc.file, e.loc.line)].emplace(
                    st.signature(), e.seq);
            if (fresh)
                v.kept.push_back(e.seq);
            else
                v.pruned.push_back({e.seq, it->second});
            next++;
        }
        st.apply(e);
    }
    return v;
}

/**
 * At every point of @p points: the interned signature renders the
 * reference string, equal ids mean equal strings (and back), and the
 * prune verdicts match the reference's.
 */
void
expectMatchesReference(const TraceBuffer &pre,
                       const std::vector<std::uint32_t> &points,
                       unsigned gran, bool flushFree,
                       const std::string &what)
{
    SCOPED_TRACE(strprintf("%s gran=%u %s", what.c_str(), gran,
                           flushFree ? "eadr" : "clwb"));
    lint::FrontierState st(gran, flushFree);
    RefFrontier ref(gran, flushFree);
    std::map<std::string, std::uint32_t> idOf;
    std::map<std::uint32_t, std::string> strOf;
    std::size_t next = 0;
    for (const auto &e : pre) {
        if (next < points.size() && e.seq == points[next]) {
            lint::FrontierSignature sig = st.signature();
            std::string want = ref.signature();
            ASSERT_EQ(sig.str(), want) << "at seq " << e.seq;
            auto [i, freshStr] = idOf.emplace(want, sig.id());
            auto [s, freshId] = strOf.emplace(sig.id(), want);
            EXPECT_EQ(freshStr, freshId) << "at seq " << e.seq;
            EXPECT_EQ(i->second, sig.id()) << "at seq " << e.seq;
            EXPECT_EQ(s->second, want) << "at seq " << e.seq;
            next++;
        }
        st.apply(e);
        ref.apply(e);
    }
    ASSERT_EQ(next, points.size());

    lint::PruneVerdicts got =
        lint::computePruneVerdicts(pre, points, gran, flushFree);
    lint::PruneVerdicts want = refVerdicts(pre, points, gran, flushFree);
    EXPECT_EQ(got.kept, want.kept);
    ASSERT_EQ(got.pruned.size(), want.pruned.size());
    for (std::size_t i = 0; i < got.pruned.size(); i++) {
        EXPECT_EQ(got.pruned[i].fp, want.pruned[i].fp);
        EXPECT_EQ(got.pruned[i].keptRep, want.pruned[i].keptRep);
    }
}

workloads::WorkloadConfig
smallConfig(const std::string &name)
{
    workloads::WorkloadConfig wcfg;
    wcfg.initOps = 4;
    wcfg.testOps = 4;
    if (name == "memcached")
        wcfg.memcachedCapacity = 8;
    return wcfg;
}

/** The pre-failure trace a campaign captures for @p name. */
TraceBuffer
preTrace(const std::string &name, bool elideSameValue)
{
    auto w = workloads::makeWorkload(name, smallConfig(name));
    pm::PmPool pool(xfdtest::defaultPoolBytes);
    TraceBuffer pre;
    trace::PmRuntime rt(pool, pre, trace::Stage::PreFailure);
    rt.setBatching(true);
    rt.setSameValueElision(elideSameValue);
    try {
        w->pre(rt);
    } catch (const trace::StageComplete &) {
    }
    rt.setBatching(false);
    return pre;
}

TEST(FrontierSig, MatchesReferenceOnEveryWorkload)
{
    for (const std::string &name : workloads::workloadNames()) {
        for (bool elide : {false, true}) {
            TraceBuffer pre = preTrace(name, elide);
            for (const char *model : {"clwb", "eadr"}) {
                core::DetectorConfig dcfg;
                dcfg.pmModel = model;
                std::vector<std::uint32_t> points =
                    core::planFailurePoints(pre, dcfg).points;
                ASSERT_FALSE(points.empty()) << name;
                for (unsigned gran : {1u, 8u}) {
                    expectMatchesReference(
                        pre, points, gran, dcfg.eadrOn(),
                        name + (elide ? " elided" : ""));
                }
            }
        }
    }
}

/** A hand-built trace over a scratch pool. */
struct TraceBuilder
{
    TraceBuffer buf;

    static TraceEntry
    make(Op op, Addr a, std::uint32_t n, trace::SrcLoc loc,
         std::vector<std::uint8_t> data = {})
    {
        TraceEntry e;
        e.op = op;
        e.addr = a;
        e.size = n;
        e.loc = loc;
        e.flags = trace::flagInRoi;
        e.data = std::move(data);
        return e;
    }

    std::uint32_t
    add(Op op, Addr a, std::uint32_t n, trace::SrcLoc loc,
        std::vector<std::uint8_t> data = {})
    {
        return buf.append(make(op, a, n, loc, std::move(data)));
    }
};

TEST(FrontierSig, AdjacentEqualCellsSignAlike)
{
    // One 8-byte store and two 4-byte stores from the same statement
    // leave the same cell set behind: equal values, one interned id.
    trace::SrcLoc site{"alloc.cc", 10, "f"};
    trace::SrcLoc store{"store.cc", 20, "f"};
    TraceBuilder t;
    t.add(Op::Alloc, 0x1000, 16, site);
    t.add(Op::Write, 0x1000, 8, store, std::vector<std::uint8_t>(8, 1));
    std::uint32_t first = t.add(Op::Sfence, 0, 0, store);
    t.add(Op::Alloc, 0x2000, 16, site);
    t.add(Op::Write, 0x2000, 4, store, std::vector<std::uint8_t>(4, 1));
    t.add(Op::Write, 0x2004, 4, store, std::vector<std::uint8_t>(4, 1));
    std::uint32_t second = t.add(Op::Sfence, 0, 0, store);

    lint::FrontierState st(1);
    std::vector<lint::FrontierSignature> sigs;
    for (const auto &e : t.buf) {
        if (e.seq == first || e.seq == second)
            sigs.push_back(st.signature());
        st.apply(e);
    }
    ASSERT_EQ(sigs.size(), 2u);
    EXPECT_EQ(sigs[0].id(), sigs[1].id());
    EXPECT_TRUE(sigs[0] == sigs[1]);
    EXPECT_EQ(&sigs[0].str(), &sigs[1].str()) << "rendered once";
    expectMatchesReference(t.buf, {first, second}, 1, false, "adjacent");
}

TEST(FrontierSig, FileNamesInternByContent)
{
    // Two distinct pointers to one file name are one source file.
    static const char literal[] = "same.cc";
    const std::string copy = literal;
    TraceBuilder t;
    t.add(Op::Write, 0x1000, 4, {literal, 7, "f"},
          std::vector<std::uint8_t>(4, 2));
    std::uint32_t first = t.add(Op::Clwb, 0x1000, 64, {literal, 8, "f"});
    t.add(Op::Sfence, 0, 0, {literal, 9, "f"});
    t.add(Op::Write, 0x1000, 4, {copy.c_str(), 7, "f"},
          std::vector<std::uint8_t>(4, 2));
    std::uint32_t second = t.add(Op::Clwb, 0x1000, 64, {literal, 8, "f"});

    lint::FrontierState st(1);
    std::vector<std::uint32_t> ids;
    for (const auto &e : t.buf) {
        if (e.seq == first || e.seq == second)
            ids.push_back(st.signature().id());
        st.apply(e);
    }
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], ids[1]);
}

/**
 * Golden campaign counts, recorded before range storage and interned
 * signatures (WorkloadConfig init 4, test 4; batched for the first
 * pair, delta with --crash-states sample:8 for the rest).
 */
struct Golden
{
    const char *workload;
    std::size_t batchGroups;
    std::size_t lintPruned;
    std::size_t enumerated;
    std::size_t explored;
    std::size_t pruned;
};

const Golden golden[] = {
    {"btree", 10, 14, 80, 54, 26},
    {"wal_btree", 6, 2, 14, 12, 2},
    {"ctree", 18, 20, 124, 105, 19},
    {"rbtree", 17, 16, 117, 102, 15},
    {"hashmap_tx", 16, 15, 99, 84, 15},
    {"hashmap_atomic", 7, 8, 21, 13, 8},
    {"redis", 16, 15, 99, 84, 15},
    {"memcached", 5, 4, 15, 11, 4},
    {"ringlog", 12, 0, 26, 26, 0},
};

TEST(FrontierSig, GoldenCampaignCounts)
{
    EXPECT_EQ(std::size(golden), workloads::workloadNames().size());
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.workload);
        xfdtest::RunOptions batched;
        batched.detector.backend = "batched";
        core::CampaignResult b =
            xfdtest::runWorkload(g.workload, smallConfig(g.workload), batched);
        EXPECT_EQ(b.stats.batchGroups, g.batchGroups);
        EXPECT_EQ(b.stats.lintPrunedPoints, g.lintPruned);
        EXPECT_TRUE(xfdtest::hasNoFindings(b));

        xfdtest::RunOptions cs;
        cs.detector.crashStates = "sample:8";
        core::CampaignResult c =
            xfdtest::runWorkload(g.workload, smallConfig(g.workload), cs);
        EXPECT_EQ(c.stats.crashStatesEnumerated, g.enumerated);
        EXPECT_EQ(c.stats.crashStatesExplored, g.explored);
        EXPECT_EQ(c.stats.crashStatesPruned, g.pruned);
        EXPECT_TRUE(xfdtest::hasNoFindings(c));
    }
}

/** A pool with a few random nonzero bytes (sometimes none). */
void
scatter(Rng &rng, pm::PmPool &pool)
{
    std::size_t n = rng.below(12);
    for (std::size_t i = 0; i < n; i++)
        pool.data()[rng.below(pool.size())] =
            static_cast<std::uint8_t>(1 + rng.below(255));
}

TEST(FrontierSigPm, NonZeroPagesMatchByteScan)
{
    Rng rng(11);
    for (int round = 0; round < 24; round++) {
        SCOPED_TRACE(round);
        // Pool sizes that are not a multiple of every page size.
        pm::PmPool pool((std::size_t{1} << 16) + 64 * rng.below(64));
        scatter(rng, pool);
        for (std::size_t cowPage : {std::size_t{256}, std::size_t{4096}}) {
            pm::CowImage img(pool.snapshot(), cowPage);
            for (std::size_t ps : {std::size_t{64}, std::size_t{1024},
                                   std::size_t{4096}, std::size_t{16384}}) {
                std::set<std::uint32_t> want;
                for (std::size_t i = 0; i < pool.size(); i++) {
                    if (pool.data()[i])
                        want.insert(static_cast<std::uint32_t>(i / ps));
                }
                std::set<std::uint32_t> got;
                img.collectNonZeroPages(ps, got);
                EXPECT_EQ(got, want) << "cow " << cowPage << " page " << ps;
            }
        }
    }
}

TEST(FrontierSigPm, DrainDirtyPagesMatchesMarkedSet)
{
    Rng rng(12);
    for (int round = 0; round < 24; round++) {
        SCOPED_TRACE(round);
        pm::PmPool pool(std::size_t{1} << 16);
        std::size_t ps = std::size_t{64} << rng.below(8);
        pool.enableDirtyTracking(ps);
        std::set<std::uint32_t> want{0xffffffffu};
        std::size_t marks = rng.below(10);
        for (std::size_t i = 0; i < marks; i++) {
            std::size_t off = rng.below(pool.size());
            std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                      3 * ps, pool.size() - off));
            pool.markDirty(pool.base() + off, len);
            for (std::size_t b = off; b < off + len; b++)
                want.insert(static_cast<std::uint32_t>(b / ps));
        }
        // Drains union into what the caller already holds.
        std::set<std::uint32_t> got{0xffffffffu};
        pool.drainDirtyPages(got);
        EXPECT_EQ(got, want) << "page " << ps;
        EXPECT_EQ(pool.dirtyPageCount(), 0u);
        std::set<std::uint32_t> again;
        pool.drainDirtyPages(again);
        EXPECT_TRUE(again.empty());
    }
}

/**
 * A random trace over a 512-byte window: writes (payload-carrying,
 * payload-elided same-value and image-only), non-temporal stores,
 * flushes, fences, allocations and frees, commit variables and
 * commit ranges, from a handful of source locations (one file name
 * reachable through two pointers). Returns the trace and the planned
 * points, a random ascending subset of its seqs.
 */
std::pair<TraceBuffer, std::vector<std::uint32_t>>
randomTrace(Rng &rng, const std::string &dupFile)
{
    const char *files[] = {"a.cc", "b.cc", dupFile.c_str()};
    auto loc = [&] {
        return trace::SrcLoc{files[rng.below(3)],
                             static_cast<unsigned>(1 + rng.below(4)), "f"};
    };
    const Addr base = 0x10000;
    auto addr = [&] { return base + rng.below(512); };
    TraceBuilder t;
    std::vector<std::pair<Addr, std::uint32_t>> live;
    std::vector<AddrRange> vars;
    std::size_t n = 40 + rng.below(160);
    for (std::size_t i = 0; i < n; i++) {
        std::uint64_t pick = rng.below(100);
        if (pick < 30) {
            std::uint32_t len = 1 + rng.below(24);
            std::vector<std::uint8_t> data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.below(3));
            bool nt = rng.below(6) == 0;
            Addr a = !vars.empty() && rng.below(4) == 0
                         ? vars[rng.below(vars.size())].begin
                         : addr();
            TraceEntry e = TraceBuilder::make(
                nt ? Op::NtWrite : Op::Write, a, len, loc(), data);
            std::uint64_t kind = rng.below(8);
            if (kind == 0) {
                e.flags |= trace::flagSameValue;
                e.data.clear();
            } else if (kind == 1) {
                e.flags |= trace::flagImageOnly;
            }
            t.buf.append(std::move(e));
        } else if (pick < 50) {
            t.add(Op::Clwb, rng.below(3) ? (addr() & ~Addr{63}) : addr(),
                  64, loc());
        } else if (pick < 66) {
            t.add(rng.below(2) ? Op::Sfence : Op::Mfence, 0, 0, loc());
        } else if (pick < 76) {
            Addr a = addr();
            std::uint32_t len = static_cast<std::uint32_t>(rng.below(96));
            t.add(Op::Alloc, a, len, loc());
            live.emplace_back(a, len);
        } else if (pick < 84) {
            if (!live.empty() && rng.below(4) != 0) {
                std::size_t k = rng.below(live.size());
                t.add(Op::Free, live[k].first, live[k].second, loc());
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            } else {
                t.add(Op::Free, addr(),
                      static_cast<std::uint32_t>(rng.below(32)), loc());
            }
        } else if (pick < 92) {
            Addr a = !vars.empty() && rng.below(3) == 0
                         ? vars[rng.below(vars.size())].begin
                         : addr();
            std::uint32_t len = 1 + rng.below(8);
            t.add(Op::CommitVar, a, len, loc());
            vars.push_back({a, a + len});
        } else if (!vars.empty()) {
            TraceEntry e = TraceBuilder::make(
                Op::CommitRange, addr(),
                static_cast<std::uint32_t>(rng.below(80)), loc());
            const AddrRange &v = vars[rng.below(vars.size())];
            e.aux = v.begin + rng.below(v.size());
            t.buf.append(std::move(e));
        }
    }
    std::vector<std::uint32_t> points;
    for (std::uint32_t s = 0; s < t.buf.size(); s++) {
        if (rng.below(3) == 0)
            points.push_back(s);
    }
    return {std::move(t.buf), std::move(points)};
}

void
fuzzOne(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "XFD_FUZZ_SEED=" << seed);
    Rng rng(seed);
    const std::string dup = "a.cc";
    auto [buf, points] = randomTrace(rng, dup);
    for (unsigned gran : {1u, 2u, 8u}) {
        for (bool flushFree : {false, true})
            expectMatchesReference(buf, points, gran, flushFree, "random");
    }
}

TEST(FrontierSigFuzz, MatchesReferenceOnRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 300; seed++)
        fuzzOne(seed * 0x9e3779b97f4a7c15ull);
}

TEST(FrontierSigFuzz, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP() << "set XFD_FUZZ_SEED=<seed from a failure message> "
                        "to replay a single random trace";
    fuzzOne(s);
}

} // namespace
