/**
 * @file
 * The cell model inside core::ShadowPM (run-length write tails over
 * the shadow's own Fig. 9 FSM) against the per-cell std::map model the
 * detector's crash-state tier started from, kept here as the
 * reference: one node and one write tail per cell ever written, and a
 * set of open cells.
 *
 * After every entry of every trace the two must agree on cell states,
 * open cells, tails, the frontier (seqs, per-cell chains, event ->
 * cell index), commit variables and the cells each entry reports
 * decided (retired by a fence, pinned by a free). The CrashCellsFuzz
 * cases run seeded random traces (Write, NtWrite, all three flushes,
 * both fences, Alloc, Free, CommitVar, image-only and payload-elided
 * same-value writes) at granularity 1, 2 and 8; XFD_FUZZ_SEED replays
 * one of them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "core/shadow_pm.hh"
#include "harness.hh"
#include "trace/entry.hh"

namespace
{

using namespace xfd;
using core::CellFrontier;
using core::CellRun;
using core::PersistState;
using core::ShadowPM;
using trace::Op;
using trace::TraceEntry;

const Addr poolBase = defaultPoolBase;
const AddrRange poolRange{poolBase, poolBase + 64 * 1024};

/** The per-cell std::map model, verbatim in its semantics. */
struct RefCells
{
    struct Cell
    {
        PersistState state = PersistState::Modified;
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

    /** Cells are indexed from the pool base, like the shadow's. */
    std::uint64_t cellIndex(Addr a) const { return (a - poolBase) / gran; }
    /**
     * An empty extent covers no cell, wherever it starts. This is the
     * shadow FSM's rule, and here the reference departs from the
     * per-cell model it was copied from and from the oracle's
     * cellCount (oracle/oracle.cc): both count one cell for an empty
     * Alloc or Free that starts off a cell boundary. No real trace
     * carries one, since palloc rejects zero-size allocations; the
     * random traces below do.
     */
    std::uint64_t
    cellCount(Addr a, std::size_t n) const
    {
        return n ? cellIndex(a + n - 1) - cellIndex(a) + 1 : 0;
    }

    PersistState
    state(std::uint64_t idx) const
    {
        auto it = cells.find(idx);
        return it == cells.end() ? PersistState::Unmodified
                                 : it->second.state;
    }

    void
    apply(const TraceEntry &e, std::vector<std::uint64_t> &persisted)
    {
        using St = PersistState;
        if (e.isWrite()) {
            if (e.has(trace::flagImageOnly) || e.size == 0)
                return;
            bool nt = e.op == Op::NtWrite;
            std::uint64_t first = cellIndex(e.addr);
            std::uint64_t n = cellCount(e.addr, e.size);
            for (std::uint64_t c = 0; c < n; c++) {
                auto &cell = cells[first + c];
                cell.state = nt ? St::WritebackPending : St::Modified;
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
                it->second.state = St::WritebackPending;
                pending.push_back(first + c);
            }
        } else if (e.isFence()) {
            for (std::uint64_t idx : pending) {
                auto it = cells.find(idx);
                if (it == cells.end() ||
                    it->second.state != St::WritebackPending)
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

/** Feed @p e to the shadow the way the driver's cursor does. */
void
applyTo(ShadowPM &m, const TraceEntry &e)
{
    switch (e.op) {
      case Op::Write:
      case Op::NtWrite:
        if (!e.has(trace::flagImageOnly))
            m.preWrite(e.addr, e.size, e.seq, e.op == Op::NtWrite);
        break;
      case Op::Clwb:
      case Op::ClflushOpt:
      case Op::Clflush:
        m.preFlush(e.addr, e.seq);
        break;
      case Op::Sfence:
      case Op::Mfence:
        m.preFence();
        break;
      case Op::Alloc:
        m.preAlloc(e.addr, e.size, e.seq);
        break;
      case Op::Free:
        m.preFree(e.addr, e.size);
        break;
      case Op::CommitVar:
        m.registerCommitVar(e.addr, e.size);
        break;
      default:
        break;
    }
}

/** Decided-cell runs as the cell list they cover, in order. */
std::vector<std::uint64_t>
cellsOf(const std::vector<CellRun> &runs)
{
    std::vector<std::uint64_t> cells;
    for (const CellRun &r : runs) {
        for (std::uint64_t c = r.first; c < r.end; c++)
            cells.push_back(c);
    }
    return cells;
}

core::DetectorConfig
withGranularity(unsigned gran)
{
    core::DetectorConfig cfg;
    cfg.granularity = gran;
    return cfg;
}

/** A shadow with tails on, reporting decided cells into @p decided. */
struct Model
{
    Model(unsigned gran, std::vector<CellRun> &decided)
        : cfg(withGranularity(gran)), shadow(poolRange, cfg, true)
    {
        shadow.reportDecided(&decided);
    }

    core::DetectorConfig cfg;
    ShadowPM shadow;
};

/**
 * Feed @p trace to both models, comparing after every entry. States
 * are compared over @p watch (byte offsets into the pool).
 */
void
expectModelsAgree(const std::vector<TraceEntry> &trace, unsigned gran,
                  const std::vector<AddrRange> &watch)
{
    SCOPED_TRACE(testing::Message() << "gran " << gran);
    std::vector<CellRun> decided;
    Model m(gran, decided);
    const ShadowPM &model = m.shadow;
    RefCells ref(gran);
    std::vector<std::uint64_t> want;
    for (const TraceEntry &e : trace) {
        SCOPED_TRACE(testing::Message()
                     << "entry " << e.seq << " " << trace::opName(e.op)
                     << " @" << std::hex << e.addr << std::dec << "+"
                     << e.size);
        decided.clear();
        want.clear();
        applyTo(m.shadow, e);
        ref.apply(e, want);
        ASSERT_EQ(cellsOf(decided), want) << "decided-cell report";

        // Open runs, expanded to cells, are exactly the open cells.
        auto it = ref.open.begin();
        for (const auto &[first, run] : model.openRuns()) {
            ASSERT_LT(first, run.end) << "empty run";
            for (std::uint64_t idx = first; idx < run.end; idx++) {
                ASSERT_NE(it, ref.open.end()) << "extra open cell";
                ASSERT_EQ(idx, *it) << "open cell";
                ASSERT_EQ(run.tail, ref.cells.at(idx).tail) << "tail";
                ++it;
            }
        }
        ASSERT_EQ(it, ref.open.end()) << "missing open cell";
        for (const AddrRange &w : watch) {
            for (Addr a = poolBase + w.begin; a < poolBase + w.end;
                 a += gran) {
                ASSERT_EQ(model.persistStateOf(a),
                          ref.state(ref.cellIndex(a)))
                    << "state of cell @" << std::hex << a;
            }
        }
        ASSERT_EQ(model.commitVarRanges(), ref.commitVars);
        // The candidate executor's dropped-commit-write test.
        AddrRange extent{e.addr, e.addr + e.size};
        bool overlaps = false;
        for (const AddrRange &cv : ref.commitVars)
            overlaps = overlaps || cv.overlaps(extent);
        ASSERT_EQ(model.overlapsCommitVar(extent), overlaps);

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

    std::vector<CellRun> decided;
    Model m(1, decided);
    for (std::size_t i = 0; i < 5; i++)
        applyTo(m.shadow, t[i]);
    // Cell 2 stays in flight with both writes that reached it.
    const auto &open = m.shadow.openRuns();
    ASSERT_EQ(open.size(), 1u);
    EXPECT_EQ(open.begin()->first, m.shadow.cellIndex(poolBase + 2));
    EXPECT_EQ(open.begin()->second.end, open.begin()->first + 1);
    EXPECT_EQ(open.begin()->second.tail,
              (std::vector<std::uint32_t>{0, 3}));
    EXPECT_EQ(cellsOf(decided).size(), 11u);
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

    std::vector<CellRun> decided;
    Model m(1, decided);
    for (const auto &e : t)
        applyTo(m.shadow, e);
    // Image-only data never joins a frontier; an elided write does.
    EXPECT_EQ(m.shadow.frontier().seqs, std::vector<std::uint32_t>{1});
    EXPECT_EQ(m.shadow.commitVarCount(), 1u);
}

TEST(CrashCells, ExtentsClampToTheRange)
{
    std::vector<CellRun> decided;
    Model m(1, decided);
    applyTo(m.shadow, entry(Op::Write, 0, 2, {1, 2}));
    // A hostile extent far past the pool end stops at the range.
    TraceEntry wild = entry(Op::Free, 0, 0);
    wild.size = 0xffffffffu;
    applyTo(m.shadow, wild);
    EXPECT_TRUE(m.shadow.openRuns().empty());
    EXPECT_EQ(cellsOf(decided).size(), 2u);
    applyTo(m.shadow, entry(Op::Alloc, 64 * 1024, 64));
    EXPECT_EQ(m.shadow.persistStateOf(poolBase + 64 * 1024),
              PersistState::Unmodified);
    // An extent that wraps the address space is clamped, not looped.
    applyTo(m.shadow, entry(Op::Alloc, 64, 0));
    TraceEntry wrap = entry(Op::Write, 60, 0, {});
    wrap.addr = ~Addr{0} - 3;
    wrap.size = 64;
    applyTo(m.shadow, wrap);
    EXPECT_TRUE(m.shadow.openRuns().empty());
}

TEST(CrashCells, EadrWritesOpenNoTail)
{
    // Flush-free persistency: a write is durable on arrival, so no
    // frontier ever forms and no cell is ever reported decided.
    core::DetectorConfig cfg;
    cfg.pmModel = "eadr";
    std::vector<CellRun> decided;
    ShadowPM m(poolRange, cfg, true);
    m.reportDecided(&decided);
    applyTo(m, entry(Op::Write, 8, 8, std::vector<std::uint8_t>(8, 1)));
    applyTo(m, entry(Op::Sfence, 0, 0));
    EXPECT_TRUE(m.openRuns().empty());
    EXPECT_TRUE(m.frontier().seqs.empty());
    EXPECT_TRUE(decided.empty());
    EXPECT_EQ(m.persistStateOf(poolBase + 8), PersistState::Persisted);
}

/**
 * A random trace over two hot windows: one around the 4 KiB mark
 * (a table-page boundary at granularity 1) and one around 32 KiB
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
