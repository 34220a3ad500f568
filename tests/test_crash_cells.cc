/**
 * @file
 * core::CrashCells — the --crash-states cell model (chunked state
 * table + ordered open-cell map) — against the per-cell std::map model
 * it replaced, kept here as the reference: one node and one write tail
 * per cell ever written, and a set of open cells.
 *
 * After every entry of every trace the two must agree on cell states,
 * open cells, tails, the frontier (seqs, per-cell chains, event ->
 * cell index) and the cells each entry reports persisted. The
 * CrashCellsFuzz cases run seeded random traces (Write, NtWrite, all
 * three flushes, both fences, Alloc, Free, CommitVar, image-only and
 * payload-elided same-value writes) at granularity 1, 2 and 8;
 * XFD_FUZZ_SEED replays one of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "core/crash_cells.hh"
#include "harness.hh"
#include "trace/entry.hh"

namespace
{

using namespace xfd;
using core::CellFrontier;
using core::CrashCells;
using trace::Op;
using trace::TraceEntry;

/** The per-cell std::map model, verbatim in its semantics. */
struct RefCells
{
    struct Cell
    {
        CrashCells::St state = CrashCells::St::Modified;
        /** Write seqs applied since the last guaranteed persist. */
        std::vector<std::uint32_t> tail;
    };

    explicit RefCells(unsigned g) : gran(g) {}

    unsigned gran;
    std::map<std::uint64_t, Cell> cells;
    /** Cells with a non-empty tail. */
    std::set<std::uint64_t> open;
    std::vector<std::uint64_t> pending;
    std::vector<AddrRange> commitVars;

    std::uint64_t cellIndex(Addr a) const { return a / gran; }
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        return (a + n - 1) / gran - a / gran + 1;
    }

    CrashCells::St
    state(std::uint64_t idx) const
    {
        auto it = cells.find(idx);
        return it == cells.end() ? CrashCells::St::Untracked
                                 : it->second.state;
    }

    void
    apply(const TraceEntry &e, std::vector<std::uint64_t> &persisted)
    {
        using St = CrashCells::St;
        if (e.isWrite()) {
            if (e.has(trace::flagImageOnly) || e.size == 0)
                return;
            bool nt = e.op == Op::NtWrite;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, e.size);
            for (std::uint64_t c = 0; c < n; c++) {
                auto &cell = cells[first + c];
                cell.state = nt ? St::Pending : St::Modified;
                cell.tail.push_back(e.seq);
                open.insert(first + c);
                if (nt)
                    pending.push_back(first + c);
            }
        } else if (e.isFlush()) {
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, cacheLineSize);
            for (std::uint64_t c = 0; c < n; c++) {
                auto it = cells.find(first + c);
                if (it == cells.end() || it->second.state != St::Modified)
                    continue;
                it->second.state = St::Pending;
                pending.push_back(first + c);
            }
        } else if (e.isFence()) {
            for (std::uint64_t idx : pending) {
                auto it = cells.find(idx);
                if (it == cells.end() || it->second.state != St::Pending)
                    continue;
                it->second.state = St::Persisted;
                persisted.push_back(idx);
                it->second.tail.clear();
                open.erase(idx);
            }
            pending.clear();
        } else if (e.op == Op::Alloc) {
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, e.size);
            for (std::uint64_t c = 0; c < n; c++)
                cells[first + c].state = St::Modified;
        } else if (e.op == Op::Free) {
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, e.size);
            for (std::uint64_t c = 0; c < n; c++) {
                auto it = cells.find(first + c);
                if (it == cells.end())
                    continue;
                if (!it->second.tail.empty()) {
                    persisted.push_back(first + c);
                    open.erase(first + c);
                }
                cells.erase(it);
            }
        } else if (e.op == Op::CommitVar) {
            AddrRange r{e.addr, e.addr + e.size};
            bool known = false;
            for (const auto &cv : commitVars)
                known = known || cv == r;
            if (!known)
                commitVars.push_back(r);
        }
    }

    /** The frontier as the driver used to derive it. */
    CellFrontier
    frontier(const std::vector<TraceEntry> &trace) const
    {
        CellFrontier f;
        std::set<std::uint32_t> seqs;
        for (std::uint64_t idx : open) {
            const auto &tail = cells.at(idx).tail;
            seqs.insert(tail.begin(), tail.end());
        }
        f.seqs.assign(seqs.begin(), seqs.end());
        std::map<std::uint32_t, std::size_t> bitOf;
        for (std::size_t b = 0; b < f.seqs.size(); b++)
            bitOf[f.seqs[b]] = b;
        // One chain per open cell, minus single-write tails and
        // repeats of the previous cell's tail.
        const std::vector<std::uint32_t> *prev = nullptr;
        for (std::uint64_t idx : open) {
            const auto &tail = cells.at(idx).tail;
            if (tail.size() > 1 && (!prev || *prev != tail)) {
                std::vector<std::size_t> chain;
                for (std::uint32_t s : tail)
                    chain.push_back(bitOf.at(s));
                f.chains.push_back(std::move(chain));
            }
            prev = &tail;
        }
        // Per event: the cells of its extent still carrying it, as
        // runs of adjacent cells.
        for (std::uint32_t s : f.seqs) {
            const TraceEntry &e = trace[s];
            std::vector<core::CellRun> runs;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, e.size);
            for (std::uint64_t c = 0; c < n; c++) {
                auto it = cells.find(first + c);
                if (it == cells.end())
                    continue;
                const auto &tail = it->second.tail;
                if (std::find(tail.begin(), tail.end(), s) == tail.end())
                    continue;
                if (!runs.empty() && runs.back().end == first + c)
                    runs.back().end++;
                else
                    runs.push_back({first + c, first + c + 1});
            }
            f.runsOf.push_back(std::move(runs));
        }
        return f;
    }
};

const Addr poolBase = defaultPoolBase;
const AddrRange poolRange{poolBase, poolBase + 64 * 1024};

/**
 * Feed @p trace to both models, comparing after every entry. States
 * are compared over @p watch (byte offsets into the pool).
 */
void
expectModelsAgree(const std::vector<TraceEntry> &trace, unsigned gran,
                  const std::vector<AddrRange> &watch)
{
    SCOPED_TRACE(testing::Message() << "gran " << gran);
    CrashCells model(poolRange, gran);
    RefCells ref(gran);
    std::vector<std::uint64_t> got, want;
    for (const TraceEntry &e : trace) {
        SCOPED_TRACE(testing::Message()
                     << "entry " << e.seq << " " << trace::opName(e.op)
                     << " @" << std::hex << e.addr << std::dec << "+"
                     << e.size);
        got.clear();
        want.clear();
        model.apply(e, got);
        ref.apply(e, want);
        ASSERT_EQ(got, want) << "persisted-cell report";

        ASSERT_EQ(model.open().size(), ref.open.size());
        auto it = model.open().begin();
        for (std::uint64_t idx : ref.open) {
            ASSERT_EQ(it->first, idx) << "open cell";
            ASSERT_EQ(it->second, ref.cells.at(idx).tail) << "tail";
            ++it;
        }
        for (const AddrRange &w : watch) {
            for (Addr a = poolBase + w.begin; a < poolBase + w.end;
                 a += gran) {
                ASSERT_EQ(model.state(model.cellIndex(a)),
                          ref.state(ref.cellIndex(a)))
                    << "state of cell @" << std::hex << a;
            }
        }
        ASSERT_EQ(model.commitVars(), ref.commitVars);

        CellFrontier f = model.frontier();
        CellFrontier rf = ref.frontier(trace);
        ASSERT_EQ(f.seqs, rf.seqs) << "frontier seqs";
        ASSERT_EQ(f.chains, rf.chains) << "chains";
        ASSERT_EQ(f.runsOf, rf.runsOf) << "event -> cell index";
    }
}

TraceEntry
entry(Op op, Addr off, std::uint32_t size,
      std::vector<std::uint8_t> data = {})
{
    TraceEntry e;
    e.op = op;
    e.addr = poolBase + off;
    e.size = size;
    e.flags = trace::flagInRoi;
    e.data = std::move(data);
    return e;
}

/** Number the entries' seqs by position. */
std::vector<TraceEntry>
numbered(std::vector<TraceEntry> t)
{
    for (std::size_t i = 0; i < t.size(); i++)
        t[i].seq = static_cast<std::uint32_t>(i);
    return t;
}

const std::vector<AddrRange> lowWatch{{0, 512}};

TEST(CrashCells, WriteFlushFenceRetiresInOrder)
{
    std::vector<std::uint8_t> eight(8, 7);
    auto t = numbered({
        entry(Op::Write, 0, 8, eight),
        entry(Op::Write, 4, 8, eight),
        entry(Op::Clwb, 0, 64),
        entry(Op::Write, 2, 1, {1}), // re-dirties cell 2 after the flush
        entry(Op::Sfence, 0, 0),
        entry(Op::NtWrite, 64, 8, eight),
        entry(Op::Mfence, 0, 0),
    });
    for (unsigned gran : {1u, 2u, 8u})
        expectModelsAgree(t, gran, lowWatch);

    CrashCells m(poolRange, 1);
    std::vector<std::uint64_t> persisted;
    for (std::size_t i = 0; i < 5; i++)
        m.apply(t[i], persisted);
    // Cell 2 stays in flight with both writes that reached it.
    ASSERT_EQ(m.open().size(), 1u);
    EXPECT_EQ(m.open().begin()->first, m.cellIndex(poolBase + 2));
    EXPECT_EQ(m.open().begin()->second,
              (std::vector<std::uint32_t>{0, 3}));
    EXPECT_EQ(persisted.size(), 11u);
}

TEST(CrashCells, FreeRetiresOpenCellsAndAllocatedCellsPersistEmpty)
{
    std::vector<std::uint8_t> four(4, 3);
    auto t = numbered({
        entry(Op::Alloc, 128, 16),
        entry(Op::Write, 130, 4, four),
        entry(Op::Clflush, 128, 64),
        entry(Op::Sfence, 0, 0), // persists all 16 allocated cells
        entry(Op::Write, 136, 4, four),
        entry(Op::Free, 128, 16), // pins the in-flight cells
        entry(Op::ClflushOpt, 128, 64),
        entry(Op::Sfence, 0, 0),
    });
    for (unsigned gran : {1u, 2u, 8u})
        expectModelsAgree(t, gran, lowWatch);
}

TEST(CrashCells, ImageOnlyAndElidedWrites)
{
    auto imageOnly = entry(Op::Write, 0, 4, {1, 2, 3, 4});
    imageOnly.flags |= trace::flagImageOnly;
    auto elided = entry(Op::Write, 8, 4);
    elided.flags |= trace::flagSameValue;
    auto t = numbered({imageOnly, elided, entry(Op::CommitVar, 8, 4),
                       entry(Op::CommitVar, 8, 4)});
    for (unsigned gran : {1u, 2u, 8u})
        expectModelsAgree(t, gran, lowWatch);

    CrashCells m(poolRange, 1);
    std::vector<std::uint64_t> persisted;
    for (const auto &e : t)
        m.apply(e, persisted);
    // Image-only data never joins a frontier; an elided write does.
    EXPECT_EQ(m.frontier().seqs, std::vector<std::uint32_t>{1});
    EXPECT_EQ(m.commitVars().size(), 1u);
}

TEST(CrashCells, ExtentsClampToTheRange)
{
    CrashCells m(poolRange, 1);
    std::vector<std::uint64_t> persisted;
    m.apply(entry(Op::Write, 0, 2, {1, 2}), persisted);
    // A hostile extent far past the pool end stops at the range.
    TraceEntry wild = entry(Op::Free, 0, 0);
    wild.size = 0xffffffffu;
    m.apply(wild, persisted);
    EXPECT_TRUE(m.open().empty());
    EXPECT_EQ(persisted.size(), 2u);
    m.apply(entry(Op::Alloc, 64 * 1024, 64), persisted);
    EXPECT_EQ(m.state(m.cellIndex(poolBase + 64 * 1024)),
              CrashCells::St::Untracked);
}

/**
 * A random trace over two hot windows: one around the 4 KiB mark
 * (a table-chunk boundary at granularity 1) and one around 32 KiB
 * (the boundary at granularity 8).
 */
std::vector<TraceEntry>
randomTrace(Rng &rng)
{
    auto addr = [&] {
        Addr hot = rng.below(2) ? 4096 - 160 : 32768 - 160;
        return hot + rng.below(320);
    };
    std::vector<TraceEntry> t;
    std::vector<std::pair<Addr, std::uint32_t>> live;
    std::vector<Addr> vars;
    std::size_t n = 20 + rng.below(180);
    for (std::size_t i = 0; i < n; i++) {
        std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            std::uint32_t len = 1 + static_cast<std::uint32_t>(
                                        rng.below(rng.below(4) ? 16 : 80));
            std::vector<std::uint8_t> data(len);
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.below(256));
            Addr a = !vars.empty() && rng.below(4) == 0
                         ? vars[rng.below(vars.size())]
                         : addr();
            TraceEntry e = entry(rng.below(5) ? Op::Write : Op::NtWrite, a,
                                 len, std::move(data));
            std::uint64_t kind = rng.below(8);
            if (kind == 0) {
                e.flags |= trace::flagSameValue;
                e.data.clear();
            } else if (kind == 1) {
                e.flags |= trace::flagImageOnly;
            }
            t.push_back(std::move(e));
        } else if (pick < 60) {
            const Op flushes[] = {Op::Clwb, Op::ClflushOpt, Op::Clflush};
            Addr a = addr();
            t.push_back(entry(flushes[rng.below(3)],
                              rng.below(4) ? a & ~Addr{63} : a, 64));
        } else if (pick < 74) {
            t.push_back(entry(rng.below(2) ? Op::Sfence : Op::Mfence, 0, 0));
        } else if (pick < 82) {
            Addr a = addr();
            auto len = static_cast<std::uint32_t>(rng.below(96));
            t.push_back(entry(Op::Alloc, a, len));
            live.emplace_back(a, len);
        } else if (pick < 92) {
            if (!live.empty() && rng.below(4) != 0) {
                std::size_t k = rng.below(live.size());
                t.push_back(entry(Op::Free, live[k].first, live[k].second));
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            } else {
                t.push_back(entry(Op::Free, addr(),
                                  static_cast<std::uint32_t>(
                                      1 + rng.below(48))));
            }
        } else {
            Addr a = !vars.empty() && rng.below(3) == 0
                         ? vars[rng.below(vars.size())]
                         : addr();
            t.push_back(entry(Op::CommitVar, a,
                              1 + static_cast<std::uint32_t>(rng.below(8))));
            vars.push_back(a);
        }
    }
    return numbered(std::move(t));
}

void
fuzzOne(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "XFD_FUZZ_SEED=" << seed);
    Rng rng(seed);
    std::vector<TraceEntry> t = randomTrace(rng);
    const std::vector<AddrRange> watch{{4096 - 192, 4096 + 256},
                                       {32768 - 192, 32768 + 256}};
    for (unsigned gran : {1u, 2u, 8u})
        expectModelsAgree(t, gran, watch);
}

TEST(CrashCellsFuzz, MatchesMapModelOnRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 300; seed++)
        fuzzOne(seed * 0x9e3779b97f4a7c15ull);
}

TEST(CrashCellsFuzz, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP() << "set XFD_FUZZ_SEED=<seed from a failure message> "
                        "to replay a single random trace";
    fuzzOne(s);
}

} // namespace
