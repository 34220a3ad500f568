#include "lint/frontier.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/logging.hh"

namespace xfd::lint
{

namespace
{

/**
 * One canonical signature element: an interned prefix plus the
 * allocation offsets [lo, hi) it covers, stepping by the granularity
 * (lo == hi == 0 for a "root" prefix, which takes none).
 */
struct Elem
{
    std::uint32_t prefix;
    std::uint64_t lo;
    std::uint64_t hi;
};

struct WordsHash
{
    std::size_t
    operator()(const std::vector<std::uint64_t> &w) const
    {
        std::uint64_t h = w.size();
        for (std::uint64_t x : w) {
            h = (h ^ x) * 0x9e3779b97f4a7c15ull;
            h ^= h >> 29;
        }
        return h;
    }
};

/**
 * A prefix as its source locations point to it: file-name pointers,
 * lines and class characters (null site file = "root").
 */
struct PrefixPtr
{
    const char *writerFile;
    const char *siteFile;
    std::uint32_t writerLine;
    std::uint32_t siteLine;
    std::uint32_t flags;

    bool operator==(const PrefixPtr &) const = default;
};

struct PrefixPtrHash
{
    std::size_t
    operator()(const PrefixPtr &k) const
    {
        std::uint64_t h =
            reinterpret_cast<std::uintptr_t>(k.writerFile) *
                0x9e3779b97f4a7c15ull ^
            reinterpret_cast<std::uintptr_t>(k.siteFile);
        h = (h ^ (std::uint64_t{k.writerLine} << 32 | k.siteLine)) *
            0xff51afd7ed558ccdull;
        h = (h ^ k.flags) * 0xc4ceb9fe1a85ec53ull;
        return h ^ (h >> 32);
    }
};

/** Split the span of @p m straddling cell @p at, if any. */
template <typename Map>
void
split(Map &m, std::uint64_t at)
{
    auto it = m.upper_bound(at);
    if (it == m.begin())
        return;
    auto p = std::prev(it);
    if (p->first < at && at < p->second.end) {
        auto tail = p->second;
        p->second.end = at;
        m.emplace_hint(it, at, tail);
    }
}

/** Remove cells [lo, hi) from @p m. */
template <typename Map>
void
carve(Map &m, std::uint64_t lo, std::uint64_t hi)
{
    split(m, lo);
    split(m, hi);
    auto it = m.lower_bound(lo);
    while (it != m.end() && it->first < hi)
        it = m.erase(it);
}

bool
sameCell(const FrontierCell &a, const FrontierCell &b)
{
    return a.st == b.st && a.writer.file == b.writer.file &&
           a.writer.line == b.writer.line &&
           a.writer.func == b.writer.func && a.writerSeq == b.writerSeq &&
           a.tlast == b.tlast && a.uninit == b.uninit;
}

/** Insert cells [lo, hi) (absent from @p m), coalescing equal neighbours. */
template <typename Map>
void
place(Map &m, std::uint64_t lo, std::uint64_t hi, const FrontierCell &c)
{
    auto next = m.lower_bound(lo);
    bool joinNext = next != m.end() && next->first == hi &&
                    sameCell(next->second.cell, c);
    if (next != m.begin()) {
        auto p = std::prev(next);
        if (p->second.end == lo && sameCell(p->second.cell, c)) {
            p->second.end = joinNext ? next->second.end : hi;
            if (joinNext)
                m.erase(next);
            return;
        }
    }
    std::uint64_t end = hi;
    if (joinNext) {
        end = next->second.end;
        next = m.erase(next);
    }
    m.emplace_hint(next, lo, typename Map::mapped_type{end, c});
}

/** Does any span of @p m intersect cells [lo, hi)? */
template <typename Map>
bool
overlaps(const Map &m, std::uint64_t lo, std::uint64_t hi)
{
    if (lo >= hi)
        return false;
    auto it = m.upper_bound(lo);
    if (it != m.begin() && std::prev(it)->second.end > lo)
        return true;
    return it != m.end() && it->first < hi;
}

const char hexDigits[] = "0123456789abcdef";

} // namespace

struct FrontierState::Interner
{
    unsigned gran = 1;
    /**
     * Prefix ids by rendered text, plus a by-pointer cache of lookups:
     * applied entries' file names outlive the state (its cells keep
     * the pointers), so a pointer tuple names one text.
     */
    std::unordered_map<PrefixPtr, std::uint32_t, PrefixPtrHash> prefixByPtr;
    std::unordered_map<std::string, std::uint32_t> prefixByText;
    std::unordered_map<std::string, std::uint32_t> valueByText;
    /**
     * Signature ids by canonical words: in-flight count then (prefix,
     * lo, hi) per element, the same for the inconsistent set, then
     * the commit variable count and (value id << 8 | state char) per
     * variable.
     */
    std::unordered_map<std::vector<std::uint64_t>, std::uint32_t,
                       WordsHash>
        sigIds;
    /** Scratch reused by every signature() call. */
    std::vector<Elem> elems;
    std::vector<std::uint64_t> words;

    std::uint32_t
    value(std::string v)
    {
        auto id = static_cast<std::uint32_t>(valueByText.size());
        return valueByText.try_emplace(std::move(v), id).first->second;
    }

    /**
     * Prefix id of "writer:line:<f1><f2>@" + region, where the region
     * is "site:line+" (an offset follows) or "root". Ids are keyed by
     * the rendered text, so equal ids mean equal strings.
     */
    std::uint32_t
    prefix(const trace::SrcLoc &writer, char f1, char f2,
           const trace::SrcLoc *site)
    {
        PrefixPtr key{writer.file, site ? site->file : nullptr,
                      writer.line, site ? site->line : 0,
                      static_cast<std::uint32_t>(
                          static_cast<unsigned char>(f1) << 8 |
                          static_cast<unsigned char>(f2))};
        auto it = prefixByPtr.find(key);
        if (it != prefixByPtr.end())
            return it->second;
        std::string text = strprintf("%s:%u:", writer.file, writer.line);
        text += f1;
        if (f2)
            text += f2;
        text += '@';
        text += site ? strprintf("%s:%u+", site->file, site->line)
                     : std::string("root");
        auto id = static_cast<std::uint32_t>(prefixByText.size());
        id = prefixByText.try_emplace(std::move(text), id).first->second;
        prefixByPtr.emplace(key, id);
        return id;
    }

    /** Append the canonical form of elems to words, then clear elems. */
    void
    flushElems()
    {
        const std::uint64_t phase = gran - 1;
        std::sort(elems.begin(), elems.end(),
                  [phase](const Elem &a, const Elem &b) {
                      if (a.prefix != b.prefix)
                          return a.prefix < b.prefix;
                      if ((a.lo & phase) != (b.lo & phase))
                          return (a.lo & phase) < (b.lo & phase);
                      return a.lo < b.lo;
                  });
        std::size_t at = words.size();
        words.push_back(0);
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < elems.size();) {
            Elem cur = elems[i++];
            // Offsets of one prefix form a set; merge overlapping or
            // abutting progressions so every set has one encoding.
            while (i < elems.size() && elems[i].prefix == cur.prefix &&
                   (elems[i].lo & phase) == (cur.lo & phase) &&
                   elems[i].lo <= cur.hi) {
                cur.hi = std::max(cur.hi, elems[i].hi);
                i++;
            }
            words.push_back(cur.prefix);
            words.push_back(cur.lo);
            words.push_back(cur.hi);
            n++;
        }
        words[at] = n;
        elems.clear();
    }

    std::uint32_t
    intern()
    {
        auto id = static_cast<std::uint32_t>(sigIds.size());
        return sigIds.try_emplace(words, id).first->second;
    }
};

FrontierState::FrontierState(unsigned granularity, bool flushFree,
                             bool persistedHistory)
    : gran(granularity), eadr(flushFree), history(persistedHistory),
      interner(std::make_shared<Interner>())
{
    if (!isCellSize(gran))
        throw std::invalid_argument("lint granularity must be 1, 2, 4 or 8");
    interner->gran = gran;
    interner->value(""); // id 0: no commit write yet
}

FrontierState::SpanMap &
FrontierState::spansIn(CellState st)
{
    switch (st) {
      case CellState::Modified: return modified;
      case CellState::WritebackPending: return pending;
      case CellState::Persisted: break;
    }
    return persisted;
}

const FrontierState::SpanMap &
FrontierState::spansIn(CellState st) const
{
    return const_cast<FrontierState *>(this)->spansIn(st);
}

void
FrontierState::forget(std::uint64_t lo, std::uint64_t hi)
{
    carve(modified, lo, hi);
    carve(pending, lo, hi);
    if (history)
        carve(persisted, lo, hi);
}

void
FrontierState::assign(std::uint64_t lo, std::uint64_t hi, FrontierCell c)
{
    forget(lo, hi);
    // No query reads a persisted cell's writer seq; dropping it lets
    // neighbouring writes of one statement coalesce.
    if (c.st == CellState::Persisted) {
        if (!history)
            return;
        c.writerSeq = 0;
    }
    place(spansIn(c.st), lo, hi, c);
}

void
FrontierState::rebuildCoverage()
{
    coverage.clear();
    for (std::size_t v = 0; v < commitVars.size(); v++) {
        for (const AddrRange &r : commitVars[v].ranges) {
            // A cell belongs to the range holding its first byte;
            // earlier registrations win, as in a linear scan.
            std::uint64_t lo = cellCeil(r.begin);
            std::uint64_t hi = cellCeil(r.end);
            while (lo < hi) {
                auto it = coverage.upper_bound(lo);
                if (it != coverage.begin() &&
                    std::prev(it)->second.first > lo) {
                    lo = std::prev(it)->second.first;
                    continue;
                }
                std::uint64_t end = hi;
                if (it != coverage.end() && it->first < end)
                    end = it->first;
                coverage.emplace(lo, std::make_pair(end, v));
                lo = end;
            }
        }
    }
}

template <typename Fn>
void
FrontierState::forEachCover(std::uint64_t lo, std::uint64_t hi,
                            Fn &&fn) const
{
    if (commitVars.size() == 1 && commitVars.front().ranges.empty()) {
        fn(lo, hi, &commitVars.front());
        return;
    }
    auto it = coverage.upper_bound(lo);
    if (it != coverage.begin())
        --it;
    while (lo < hi) {
        while (it != coverage.end() && it->second.first <= lo)
            ++it;
        if (it == coverage.end() || it->first >= hi) {
            fn(lo, hi, static_cast<const CommitVar *>(nullptr));
            return;
        }
        if (it->first > lo) {
            fn(lo, it->first, static_cast<const CommitVar *>(nullptr));
            lo = it->first;
        }
        std::uint64_t end = std::min(hi, it->second.first);
        fn(lo, end, &commitVars[it->second.second]);
        lo = end;
    }
}

template <typename Fn>
void
FrontierState::forEachRegion(std::uint64_t lo, std::uint64_t hi,
                             Fn &&fn) const
{
    // A cell's region is the allocation with the greatest begin at or
    // below its first byte, if that allocation still contains it.
    constexpr Addr noBound = std::numeric_limits<Addr>::max();
    auto next = allocs.upper_bound(lo * gran);
    while (lo < hi) {
        Addr a = lo * gran;
        while (next != allocs.end() && next->first <= a)
            ++next;
        const std::pair<const Addr, std::pair<Addr, trace::SrcLoc>> *in =
            nullptr;
        Addr bound = next != allocs.end() ? next->first : noBound;
        if (next != allocs.begin()) {
            auto p = std::prev(next);
            if (a < p->second.first) {
                in = &*p;
                bound = std::min(bound, p->second.first);
            }
        }
        std::uint64_t end =
            bound == noBound ? hi : std::min(hi, cellCeil(bound));
        fn(lo, end, in);
        lo = end;
    }
}

void
FrontierState::applyWrite(const trace::TraceEntry &e)
{
    if (e.size == 0)
        return;
    bool non_temporal = e.op == trace::Op::NtWrite;
    std::uint64_t first = cellIndex(e.addr);
    // Flush-free model: every store is durable on arrival, mirroring
    // ShadowPM::preWrite under eADR.
    CellState to = eadr            ? CellState::Persisted
                   : non_temporal ? CellState::WritebackPending
                                  : CellState::Modified;
    assign(first, first + cellCount(e.addr, e.size),
           FrontierCell{to, e.loc, e.seq, ts, false});
    // A write overlapping a commit variable is a commit write: it
    // versions the consistency window of the variable's address set.
    // The written value is recorded too — recovery branches on it
    // (that is what a commit variable is for), so points whose
    // commit variables hold different values must never prune
    // against each other.
    for (auto &cv : commitVars) {
        if (cv.var.overlaps({e.addr, e.addr + e.size})) {
            cv.tprelast = cv.tlast;
            cv.tlast = ts;
            std::string val;
            if (e.has(trace::flagSameValue) && e.data.empty()) {
                // Payload-elided write: the actual value is whatever
                // the image held, which the signature cannot see.
                // Seed with the entry seq so two points only match
                // when they share this exact commit write (then the
                // value is trivially the same) — conservative, never
                // folds points whose commit values could differ.
                val = strprintf("sv#%u", e.seq);
            }
            for (std::size_t i = 0; i < e.data.size() && i < 16; i++) {
                val += hexDigits[e.data[i] >> 4];
                val += hexDigits[e.data[i] & 0xf];
            }
            cv.lastVal = interner->value(std::move(val));
        }
    }
}

void
FrontierState::applyFlush(Addr line)
{
    // Flush-free model: a writeback changes no persistence state.
    if (eadr)
        return;
    std::uint64_t lo = cellIndex(line);
    std::uint64_t hi = lo + cellCount(line, cacheLineSize);
    split(modified, lo);
    split(modified, hi);
    for (auto it = modified.lower_bound(lo);
         it != modified.end() && it->first < hi;) {
        FrontierCell c = it->second.cell;
        c.st = CellState::WritebackPending;
        place(pending, it->first, it->second.end, c);
        it = modified.erase(it);
    }
}

void
FrontierState::applyFence()
{
    if (history) {
        for (const auto &[lo, s] : pending) {
            FrontierCell c = s.cell;
            c.st = CellState::Persisted;
            c.writerSeq = 0;
            place(persisted, lo, s.end, c);
        }
    }
    pending.clear();
    ts++;
}

void
FrontierState::apply(const trace::TraceEntry &e)
{
    using trace::Op;

    switch (e.op) {
      case Op::Write:
      case Op::NtWrite:
        if (!e.has(trace::flagImageOnly))
            applyWrite(e);
        break;
      case Op::Clwb:
      case Op::ClflushOpt:
      case Op::Clflush:
        applyFlush(e.addr);
        break;
      case Op::Sfence:
      case Op::Mfence:
        applyFence();
        break;
      case Op::Alloc: {
        std::uint64_t first = cellIndex(e.addr);
        std::uint64_t count = cellCount(e.addr, e.size);
        if (count) {
            assign(first, first + count,
                   FrontierCell{CellState::Modified, e.loc, e.seq, ts,
                                true});
        }
        if (e.size)
            allocs[e.addr] = {e.addr + e.size, e.loc};
        break;
      }
      case Op::Free: {
        std::uint64_t first = cellIndex(e.addr);
        std::uint64_t count = cellCount(e.addr, e.size);
        if (count)
            forget(first, first + count);
        allocs.erase(e.addr);
        break;
      }
      case Op::CommitVar: {
        if (!history) {
            throw std::logic_error(
                "lint frontier: commit variable without persisted history");
        }
        AddrRange r{e.addr, e.addr + e.size};
        for (const auto &cv : commitVars) {
            if (cv.var == r)
                return;
        }
        commitVars.push_back(CommitVar{r, {}, -1, -1, 0});
        break;
      }
      case Op::CommitRange:
        for (auto &cv : commitVars) {
            if (cv.var.contains(e.aux)) {
                AddrRange r{e.addr, e.addr + e.size};
                if (std::find(cv.ranges.begin(), cv.ranges.end(), r) ==
                    cv.ranges.end()) {
                    cv.ranges.push_back(r);
                    rebuildCoverage();
                }
                return;
            }
        }
        break;
      default:
        break;
    }
}

bool
FrontierState::lineHasState(Addr line, CellState st) const
{
    std::uint64_t lo = cellIndex(line);
    return overlaps(spansIn(st), lo, lo + cellCount(line, cacheLineSize));
}

bool
FrontierState::lineTracked(Addr line) const
{
    std::uint64_t lo = cellIndex(line);
    std::uint64_t hi = lo + cellCount(line, cacheLineSize);
    return overlaps(modified, lo, hi) || overlaps(pending, lo, hi) ||
           overlaps(persisted, lo, hi);
}

bool
FrontierState::fenceWouldRetire() const
{
    return !pending.empty();
}

bool
FrontierState::dataInFlight() const
{
    for (const SpanMap *m : {&modified, &pending}) {
        for (const auto &[lo, s] : *m) {
            // Stops at the first cell outside every commit variable,
            // so a span costs at most the variables' size.
            for (std::uint64_t idx = lo; idx < s.end; idx++) {
                if (!isCommitVarAddr(idx * gran))
                    return true;
            }
        }
    }
    return false;
}

bool
FrontierState::rangePending(Addr a, std::uint32_t n) const
{
    std::uint64_t lo = cellIndex(a);
    return overlaps(pending, lo, lo + cellCount(a, n));
}

bool
FrontierState::isCommitVarAddr(Addr a) const
{
    for (const auto &cv : commitVars) {
        if (cv.var.contains(a))
            return true;
    }
    return false;
}

FrontierSignature
FrontierState::signature() const
{
    // Cells contribute their writer's source location and allocation
    // region, not their address, so loop iterations that touch
    // *different* addresses through the *same* code sign alike. Each
    // range becomes a few (prefix, offset run) elements, canonicalized
    // and interned, so no per-cell string is ever built.
    Interner &in = *interner;
    in.words.clear();
    using AllocEntry =
        std::pair<const Addr, std::pair<Addr, trace::SrcLoc>>;
    auto addElem = [&](const trace::SrcLoc &writer, char f1, char f2,
                       std::uint64_t lo, std::uint64_t hi,
                       const AllocEntry *alloc) {
        if (!alloc) {
            in.elems.push_back(Elem{in.prefix(writer, f1, f2, nullptr),
                                    0, 0});
            return;
        }
        // Alloc site plus field offset: instances of one object type
        // collapse, but distinct fields of it do not (a ctree node's
        // child[0] vs child[1] are read back by different recovery
        // statements).
        in.elems.push_back(
            Elem{in.prefix(writer, f1, f2, &alloc->second.second),
                 lo * gran - alloc->first, hi * gran - alloc->first});
    };

    for (const SpanMap *m : {&modified, &pending}) {
        for (const auto &[lo, s] : *m) {
            const FrontierCell &c = s.cell;
            forEachCover(lo, s.end, [&](std::uint64_t a, std::uint64_t b,
                                        const CommitVar *var) {
                // The read check passes an in-flight cell only when
                // its commit window covers it consistently, so that
                // class — uncovered, covered-consistent,
                // covered-inconsistent — is part of its identity.
                char commit = 'n';
                if (var) {
                    commit = var->tprelast <= c.tlast &&
                                     c.tlast < var->tlast
                                 ? 'c'
                                 : 'i';
                }
                forEachRegion(a, b, [&](std::uint64_t x, std::uint64_t y,
                                        const AllocEntry *alloc) {
                    addElem(c.writer, c.uninit ? 'u' : '-', commit, x, y,
                            alloc);
                });
            });
        }
    }
    in.flushElems();

    // Persisted, initialized, commit-covered cells outside their
    // variable's consistency window.
    auto inconsistent = [&](std::uint64_t a, std::uint64_t b,
                            const FrontierCell &c, const CommitVar &var) {
        if (c.uninit ||
            (var.tprelast <= c.tlast && c.tlast < var.tlast)) {
            return;
        }
        char stale = c.tlast < var.tprelast ? 's' : '-';
        forEachRegion(a, b, [&](std::uint64_t x, std::uint64_t y,
                                const AllocEntry *alloc) {
            addElem(c.writer, stale, 0, x, y, alloc);
        });
    };
    if (commitVars.size() == 1 && commitVars.front().ranges.empty()) {
        for (const auto &[lo, s] : persisted)
            inconsistent(lo, s.end, s.cell, commitVars.front());
    } else {
        for (const auto &[clo, cov] : coverage) {
            std::uint64_t chi = cov.first;
            const CommitVar &var = commitVars[cov.second];
            auto it = persisted.upper_bound(clo);
            if (it != persisted.begin() &&
                std::prev(it)->second.end > clo) {
                --it;
            }
            for (; it != persisted.end() && it->first < chi; ++it) {
                inconsistent(std::max(it->first, clo),
                             std::min(it->second.end, chi),
                             it->second.cell, var);
            }
        }
    }
    in.flushElems();

    // Commit-variable values: recovery branches on them, so the
    // current value (plus the persistency state of the variable's
    // first cell, which decides what a realistic crash image holds)
    // is part of the failure point's identity.
    in.words.push_back(commitVars.size());
    for (const CommitVar &cv : commitVars) {
        std::uint64_t idx = cellIndex(cv.var.begin);
        char st = overlaps(modified, idx, idx + 1)    ? 'm'
                  : overlaps(pending, idx, idx + 1)   ? 'w'
                  : overlaps(persisted, idx, idx + 1) ? 'p'
                                                      : '-';
        in.words.push_back(std::uint64_t{cv.lastVal} << 8 |
                           static_cast<unsigned char>(st));
    }

    return FrontierSignature(in.intern());
}

void
FrontierState::forEachInFlight(
    const std::function<void(Addr, const FrontierCell &)> &fn) const
{
    auto m = modified.begin();
    auto p = pending.begin();
    while (m != modified.end() || p != pending.end()) {
        bool fromModified =
            p == pending.end() ||
            (m != modified.end() && m->first < p->first);
        auto &it = fromModified ? m : p;
        for (std::uint64_t idx = it->first; idx < it->second.end; idx++)
            fn(idx * gran, it->second.cell);
        ++it;
    }
}

} // namespace xfd::lint
