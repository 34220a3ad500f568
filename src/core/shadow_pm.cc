#include "core/shadow_pm.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/logging.hh"

namespace xfd::core
{

namespace
{

/** Bits [lo, hi) of a word, 0 <= lo < hi <= 64. */
constexpr std::uint64_t
bitRange(std::uint64_t lo, std::uint64_t hi)
{
    return (hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1) &
           (~std::uint64_t{0} << lo);
}

/** Set (or clear) bits [first, first + n) of @p words. */
void
assignBits(std::uint64_t *words, std::uint64_t first, std::uint64_t n,
           bool on)
{
    for (std::uint64_t i = first, end = first + n; i < end;) {
        std::uint64_t w = i / 64;
        std::uint64_t hi = std::min(end, w * 64 + 64);
        std::uint64_t m = bitRange(i % 64, hi - w * 64);
        words[w] = on ? words[w] | m : words[w] & ~m;
        i = hi;
    }
}

} // namespace

const char *
persistStateName(PersistState s)
{
    switch (s) {
      case PersistState::Unmodified: return "Unmodified";
      case PersistState::Modified: return "Modified";
      case PersistState::WritebackPending: return "WritebackPending";
      case PersistState::Persisted: return "Persisted";
    }
    return "?";
}

ShadowPM::ShadowPM(AddrRange pool, const DetectorConfig &c, bool t)
    : poolRange(pool), cfg(c), gran(c.granularity), eadr(c.eadrOn()),
      tails(t)
{
    if (!isCellSize(gran))
        throw std::invalid_argument("shadow granularity must be 1, 2, 4 or 8");
    cellTotal = (pool.size() + gran - 1) / gran;
    pages.resize((cellTotal + cellsPerPage - 1) / cellsPerPage);
    postPages.resize(pages.size());
}

std::pair<std::uint64_t, std::uint64_t>
ShadowPM::cellSpan(Addr a, std::size_t n) const
{
    // Clamped in address space, so the extent can neither run past
    // the pool nor wrap.
    Addr lo = std::max(a, poolRange.begin);
    Addr hi = a + n < a ? poolRange.end
                        : std::min<Addr>(a + n, poolRange.end);
    if (lo >= hi)
        return {0, 0};
    return {cellIndex(lo), cellIndex(hi - 1) + 1};
}

ShadowPM::Page &
ShadowPM::pageAt(std::uint64_t idx)
{
    auto &page = pages[idx / cellsPerPage];
    if (!page)
        page = std::make_unique<Page>();
    return *page;
}

ShadowPM::Page *
ShadowPM::findPage(std::uint64_t idx) const
{
    std::uint64_t p = idx / cellsPerPage;
    return p < pages.size() ? pages[p].get() : nullptr;
}

const ShadowPM::Cell *
ShadowPM::findCell(std::uint64_t idx) const
{
    const Page *pg = findPage(idx);
    return pg ? &pg->cells[idx % cellsPerPage] : nullptr;
}

ShadowPM::PostPage &
ShadowPM::postPageAt(std::uint64_t idx)
{
    auto &page = postPages[idx / cellsPerPage];
    if (!page)
        page = std::make_unique<PostPage>();
    if (page->epoch != postEpoch) {
        page->epoch = postEpoch;
        page->overwritten.fill(0);
        page->checked.fill(0);
    }
    return *page;
}

void
ShadowPM::preWrite(Addr a, std::size_t n, std::uint32_t seq,
                   bool non_temporal)
{
    auto [idx, end] = cellSpan(a, n);
    if (idx == end)
        return;
    std::uint64_t first = idx;
    // Under eADR the persistence domain covers the caches: every
    // store is durable the moment it lands, so the Modified and
    // WritebackPending states are skipped entirely.
    PersistState to = eadr ? PersistState::Persisted
                     : non_temporal ? PersistState::WritebackPending
                                    : PersistState::Modified;
    // Page-chunked: one table lookup per page run, not per cell.
    while (idx < end) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        Page &pg = pageAt(idx);
        for (std::uint64_t i = 0; i < run; i++) {
            Cell &c = pg.cells[off + i];
            noteEdge(c.ps, to);
            c.ps = to;
            c.flags &= static_cast<std::uint8_t>(~cellUninit);
            c.tlast = ts;
            c.lastWriterSeq = seq;
            if (non_temporal && !eadr)
                pendingCells.push_back(idx + i);
        }
        assignBits(pg.clean.data(), off, run, to == PersistState::Persisted);
        idx += run;
    }
    // Under eADR the write is durable on arrival: no tail opens.
    if (tails && !eadr)
        openTails(first, end, seq);
    // A write that overlaps a commit variable is a commit write Cx:
    // it versions the consistency of the variable's address set.
    for (auto &cv : commitVars) {
        if (cv.var.overlaps({a, a + n})) {
            cv.tprelast = cv.tlast;
            cv.tlast = ts;
        }
    }
}

bool
ShadowPM::preFlush(Addr line, std::uint32_t seq, bool repair)
{
    (void)seq;
    auto repairClean = [&] {
        return std::find(repairCleanLines.begin(), repairCleanLines.end(),
                         line);
    };
    // Flush-free model: a writeback neither persists anything new nor
    // counts as redundant — the instruction is simply dead weight the
    // program carries for clwb portability, not a performance bug.
    if (eadr)
        return false;
    auto [first, end] = cellSpan(line, cacheLineSize);
    // Page-chunked in both passes: a line's cells live in at most two
    // pages, so the scan costs two table lookups instead of one per
    // cell. Cells in absent pages are Unmodified by construction.
    bool any_modified = false;
    for (std::uint64_t idx = first; idx < end && !any_modified;) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        if (const Page *pg = findPage(idx)) {
            for (std::uint64_t i = 0; i < run; i++) {
                if (pg->cells[off + i].ps == PersistState::Modified) {
                    any_modified = true;
                    break;
                }
            }
        }
        idx += run;
    }
    if (!any_modified) {
        if (!repair) {
            auto it = repairClean();
            if (it != repairCleanLines.end()) {
                // The line was cleaned by a repair-inserted flush just
                // ahead of this program flush; the program flush was
                // not redundant in the unrepaired execution.
                repairCleanLines.erase(it);
                return false;
            }
        }
        // Fig. 9 yellow edges: flushing a line with nothing modified
        // (clean, already pending, or already persisted) is redundant.
        fsm.redundantFlushes++;
        return true;
    }
    for (std::uint64_t idx = first; idx < end;) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        if (Page *pg = findPage(idx)) {
            for (std::uint64_t i = 0; i < run; i++) {
                Cell &c = pg->cells[off + i];
                if (c.ps == PersistState::Modified) {
                    noteEdge(PersistState::Modified,
                             PersistState::WritebackPending);
                    c.ps = PersistState::WritebackPending;
                    pendingCells.push_back(idx + i);
                }
            }
        }
        idx += run;
    }
    if (repair) {
        if (repairClean() == repairCleanLines.end())
            repairCleanLines.push_back(line);
    } else {
        auto it = repairClean();
        if (it != repairCleanLines.end())
            repairCleanLines.erase(it);
    }
    return false;
}

void
ShadowPM::preFence()
{
    bool retired = false;
    // pendingCells runs are mostly consecutive (whole lines): cache
    // the page across iterations, and gather retired cells into
    // spans of adjacent cells that close their tails at once.
    std::uint64_t cached_pg = ~std::uint64_t{0};
    Page *pg = nullptr;
    CellRun span;
    for (std::uint64_t idx : pendingCells) {
        if (idx / cellsPerPage != cached_pg) {
            cached_pg = idx / cellsPerPage;
            pg = &pageAt(idx);
        }
        std::uint64_t off = idx % cellsPerPage;
        Cell &c = pg->cells[off];
        if (c.ps != PersistState::WritebackPending)
            continue;
        noteEdge(PersistState::WritebackPending, PersistState::Persisted);
        c.ps = PersistState::Persisted;
        assignBits(pg->clean.data(), off, 1, !(c.flags & cellUninit));
        retired = true;
        if (!tails)
            continue;
        if (span.end == idx) {
            span.end++;
        } else {
            closeTails(span.first, span.end, false);
            noteDecided(span.first, span.end);
            span = {idx, idx + 1};
        }
    }
    if (tails) {
        closeTails(span.first, span.end, false);
        noteDecided(span.first, span.end);
    }
    pendingCells.clear();
    fsm.fences++;
    if (retired)
        fsm.orderingFences++;
    // The global timestamp increments after each ordering point (§5.4).
    ts++;
}

void
ShadowPM::preAlloc(Addr a, std::size_t n, std::uint32_t seq)
{
    auto [idx, end] = cellSpan(a, n);
    while (idx < end) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        Page &pg = pageAt(idx);
        assignBits(pg.clean.data(), off, run, false);
        for (std::uint64_t i = 0; i < run; i++) {
            Cell &c = pg.cells[off + i];
            // Freshly allocated cells hold no guaranteed contents: the
            // pre-failure program "creates an unmodified PM location
            // that is read by the post-failure execution" (§6.3.2
            // bug 2).
            noteEdge(c.ps, PersistState::Modified);
            c.ps = PersistState::Modified;
            c.flags |= cellUninit;
            c.tlast = ts;
            c.lastWriterSeq = seq;
        }
        idx += run;
    }
}

void
ShadowPM::preFree(Addr a, std::size_t n)
{
    auto [idx, end] = cellSpan(a, n);
    // Freed cells leave the frontier; their bytes are pinned at the
    // last written value so the anchor stays byte-identical to the
    // footnote-3 image.
    if (tails)
        closeTails(idx, end, true);
    while (idx < end) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        // Absent pages are already all-Unmodified; skip them rather
        // than materializing a page just to reset it.
        if (Page *pg = findPage(idx)) {
            for (std::uint64_t i = 0; i < run; i++) {
                Cell &c = pg->cells[off + i];
                noteEdge(c.ps, PersistState::Unmodified);
                c = Cell{};
            }
            assignBits(pg->clean.data(), off, run, true);
        }
        idx += run;
    }
}

ShadowPM::OpenRuns::iterator
ShadowPM::splitRunAt(std::uint64_t at)
{
    auto it = runs.lower_bound(at);
    if (it != runs.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > at) {
            OpenRun back{prev->second.end, prev->second.tail};
            prev->second.end = at;
            it = runs.emplace_hint(it, at, std::move(back));
        }
    }
    return it;
}

void
ShadowPM::openTails(std::uint64_t first, std::uint64_t end,
                    std::uint32_t seq)
{
    auto it = splitRunAt(first);
    splitRunAt(end);
    // Runs inside the span take the write; the gaps between them
    // become runs of their own.
    for (std::uint64_t at = first; at < end;) {
        if (it != runs.end() && it->first == at) {
            it->second.tail.push_back(seq);
            at = it->second.end;
            ++it;
            continue;
        }
        std::uint64_t gap_end =
            it == runs.end() ? end : std::min(it->first, end);
        runs.emplace_hint(it, at, OpenRun{gap_end, {seq}});
        at = gap_end;
    }
}

void
ShadowPM::closeTails(std::uint64_t first, std::uint64_t end, bool pin)
{
    if (runs.empty() || first == end)
        return;
    auto it = splitRunAt(first);
    splitRunAt(end);
    while (it != runs.end() && it->first < end) {
        if (pin)
            noteDecided(it->first, it->second.end);
        it = runs.erase(it);
    }
}

void
ShadowPM::noteDecided(std::uint64_t first, std::uint64_t end)
{
    if (!decided || first == end)
        return;
    if (!decided->empty() && decided->back().end == first)
        decided->back().end = end;
    else
        decided->push_back({first, end});
}

CellFrontier
ShadowPM::frontier() const
{
    // Neighbouring runs mostly carry distinct tails, but a tail equal
    // to the previous run's reuses its bit indices.
    CellFrontier f;
    const std::vector<std::uint32_t> *prev = nullptr;
    for (const auto &[first, run] : runs) {
        if (!prev || *prev != run.tail)
            f.seqs.insert(f.seqs.end(), run.tail.begin(), run.tail.end());
        prev = &run.tail;
    }
    std::sort(f.seqs.begin(), f.seqs.end());
    f.seqs.erase(std::unique(f.seqs.begin(), f.seqs.end()),
                 f.seqs.end());
    f.runsOf.resize(f.seqs.size());
    std::vector<std::size_t> bits;
    prev = nullptr;
    for (const auto &[first, run] : runs) {
        if (!prev || *prev != run.tail) {
            bits.clear();
            for (std::uint32_t s : run.tail) {
                bits.push_back(static_cast<std::size_t>(
                    std::lower_bound(f.seqs.begin(), f.seqs.end(), s) -
                    f.seqs.begin()));
            }
            if (bits.size() > 1)
                f.chains.push_back(bits);
            prev = &run.tail;
        }
        for (std::size_t b : bits) {
            std::vector<CellRun> &cells = f.runsOf[b];
            if (!cells.empty() && cells.back().end == first)
                cells.back().end = run.end;
            else
                cells.push_back({first, run.end});
        }
    }
    return f;
}

void
ShadowPM::registerCommitVar(Addr a, std::size_t n)
{
    AddrRange r{a, a + n};
    for (const auto &cv : commitVars) {
        if (cv.var == r)
            return;
    }
    commitVars.push_back(CommitVar{r, {}, -1, -1});
}

void
ShadowPM::registerCommitRange(Addr cv_addr, Addr a, std::size_t n)
{
    for (auto &cv : commitVars) {
        if (cv.var.contains(cv_addr)) {
            AddrRange r{a, a + n};
            for (const auto &existing : cv.ranges) {
                if (existing == r)
                    return;
            }
            // Condition (2): address sets of distinct commit variables
            // must be disjoint.
            for (const auto &other : commitVars) {
                if (&other != &cv) {
                    for (const auto &orng : other.ranges) {
                        if (orng.overlaps(r))
                            warn("commit ranges of two commit variables "
                                 "overlap; behaviour is undefined");
                    }
                }
            }
            cv.ranges.push_back(r);
            return;
        }
    }
    warn("addCommitRange: no commit variable registered at %#llx",
         static_cast<unsigned long long>(cv_addr));
}

bool
ShadowPM::overlapsCommitVar(AddrRange r) const
{
    for (const auto &cv : commitVars) {
        if (cv.var.overlaps(r))
            return true;
    }
    return false;
}

const ShadowPM::CommitVar *
ShadowPM::coveringVar(Addr a) const
{
    for (const auto &cv : commitVars) {
        for (const auto &r : cv.ranges) {
            if (r.contains(a))
                return &cv;
        }
    }
    // "By default, if there is only one commit variable and no object
    // is specified, it covers all PM locations" (§5.2).
    if (commitVars.size() == 1 && commitVars.front().ranges.empty())
        return &commitVars.front();
    return nullptr;
}

std::uint64_t
ShadowPM::cellsIn(AddrRange r, std::uint64_t w) const
{
    // Cell i lies in r iff its address does: i is in [up(r.begin),
    // up(r.end)), with up() rounding an address up to a cell index.
    auto up = [&](Addr x) -> std::uint64_t {
        Addr off = x <= poolRange.begin ? 0 : x - poolRange.begin;
        return off / gran + (off % gran != 0);
    };
    std::uint64_t lo = std::max(up(r.begin), w * 64);
    std::uint64_t hi = std::min(up(r.end), w * 64 + 64);
    return lo < hi ? bitRange(lo - w * 64, hi - w * 64) : 0;
}

std::uint64_t
ShadowPM::commitVarCells(std::uint64_t w) const
{
    std::uint64_t m = 0;
    for (const auto &cv : commitVars)
        m |= cellsIn(cv.var, w);
    return m;
}

std::uint64_t
ShadowPM::governedCells(std::uint64_t w) const
{
    // The default cover of coveringVar().
    if (commitVars.size() == 1 && commitVars.front().ranges.empty())
        return ~std::uint64_t{0};
    std::uint64_t m = 0;
    for (const auto &cv : commitVars) {
        for (const auto &r : cv.ranges)
            m |= cellsIn(r, w);
    }
    return m;
}

bool
ShadowPM::consistentUnder(const Cell &c, const CommitVar &var) const
{
    // Paper condition (3): consistent iff the location was last
    // modified between the last two commit writes.
    return var.tprelast <= c.tlast && c.tlast < var.tlast;
}

void
ShadowPM::beginPostReplay()
{
    postEpoch++;
    savedCommitVars = commitVars;
    inPostReplay = true;
}

void
ShadowPM::endPostReplay()
{
    if (!inPostReplay)
        return;
    commitVars = std::move(savedCommitVars);
    savedCommitVars.clear();
    inPostReplay = false;
}

void
ShadowPM::postWrite(Addr a, std::size_t n)
{
    auto [idx, end] = cellSpan(a, n);
    while (idx < end) {
        std::uint64_t off = idx % cellsPerPage;
        std::uint64_t run = std::min(end - idx, cellsPerPage - off);
        assignBits(postPageAt(idx).overwritten.data(), off, run, true);
        idx += run;
    }
}

bool
ShadowPM::offends(const Cell &c, Addr addr, ReadCheckResult &res) const
{
    // Untouched pre-failure: initial data, consistent.
    if (c.ps == PersistState::Unmodified)
        return false;
    const CommitVar *var = coveringVar(addr);
    bool persisted = c.ps == PersistState::Persisted;
    if (c.flags & cellUninit) {
        // Allocated but never explicitly written by the program:
        // implicit allocator zeroing (even persisted) is not
        // initialization the program may rely on (§6.3.2 bug 2).
        res.uninitialized = true;
        res.verdict = ReadCheck::Race;
    } else if (var && consistentUnder(c, *var) &&
               !(cfg.strictPersistCheck && !persisted)) {
        // Check consistency first: "reading a consistent location is
        // certainly bug-free" (§5.4) — unless the strict extension is
        // enabled, which additionally requires persistence.
        return false;
    } else if (!persisted) {
        res.verdict = ReadCheck::Race;
    } else if (var) {
        // Stale: last modified before even the pre-last commit
        // write; uncommitted: modified at/after the last one.
        res.stale = c.tlast < var->tprelast;
        res.verdict = ReadCheck::SemanticBug;
    } else {
        // Persisted and not governed by any commit variable: fine.
        return false;
    }
    res.addr = addr;
    res.writerSeq = c.lastWriterSeq;
    return true;
}

ReadCheckResult
ShadowPM::checkPostRead(Addr a, std::size_t n)
{
    ReadCheckResult res;
    auto [first, end] = cellSpan(a, n);
    bool benign_seen = false;
    bool offended = false;
    // One 64-cell word at a time. Reading a commit variable is a
    // benign cross-failure race; cells overwritten post-failure are
    // fine; under first-read-only a cell is checked once per replay.
    // Every other cell counts as checked, but only the candidates —
    // cells that are not clean, or that a commit variable governs —
    // can offend, so only they go through the per-cell rule, in
    // address order, up to the first offender.
    for (std::uint64_t w = first / 64; w * 64 < end; w++) {
        std::uint64_t lo = w * 64;
        std::uint64_t span = bitRange(std::max(first, lo) - lo,
                                      std::min(end, lo + 64) - lo);
        std::uint64_t cv = span & commitVarCells(w);
        benign_seen = benign_seen || cv;
        PostPage &post = postPageAt(lo);
        std::uint64_t &checked = post.checked[w % wordsPerPage];
        std::uint64_t live = span & ~cv & ~post.overwritten[w % wordsPerPage];
        std::uint64_t skip = cfg.firstReadOnly ? live & checked : 0;
        std::uint64_t todo = live & ~skip;
        nChecks += static_cast<std::size_t>(std::popcount(todo));
        nSkipped += static_cast<std::size_t>(std::popcount(skip));
        checked |= todo;
        const Page *pre = findPage(lo);
        if (offended || !todo || !pre)
            continue;
        std::uint64_t cand =
            todo & (~pre->clean[w % wordsPerPage] | governedCells(w));
        for (; cand && !offended; cand &= cand - 1) {
            std::uint64_t idx = lo + std::countr_zero(cand);
            offended =
                offends(pre->cells[idx % cellsPerPage], cellAddr(idx), res);
        }
    }
    if (benign_seen && res.verdict == ReadCheck::Ok)
        res.verdict = ReadCheck::Benign;
    return res;
}

PersistState
ShadowPM::persistStateOf(Addr a) const
{
    const Cell *c = findCell(cellIndex(a));
    return c ? c->ps : PersistState::Unmodified;
}

std::int32_t
ShadowPM::tlastOf(Addr a) const
{
    const Cell *c = findCell(cellIndex(a));
    return c ? c->tlast : -1;
}

} // namespace xfd::core
