#include "core/crash_cells.hh"

#include <algorithm>

namespace xfd::core
{

CrashCells::CrashCells(AddrRange range, unsigned g)
    : gran(g), firstCell(range.begin / g),
      cellTotal(range.size() ? (range.end - 1) / g - firstCell + 1 : 0)
{
    chunks.resize((cellTotal + chunkCells - 1) / chunkCells);
}

CrashCells::St *
CrashCells::slot(std::uint64_t idx, bool create)
{
    std::uint64_t rel = idx - firstCell;
    if (idx < firstCell || rel >= cellTotal)
        return nullptr;
    auto &chunk = chunks[rel / chunkCells];
    if (!chunk) {
        if (!create)
            return nullptr;
        chunk = std::make_unique<St[]>(chunkCells); // all Untracked
    }
    return &chunk[rel % chunkCells];
}

CrashCells::St
CrashCells::state(std::uint64_t idx) const
{
    std::uint64_t rel = idx - firstCell;
    if (idx < firstCell || rel >= cellTotal || !chunks[rel / chunkCells])
        return St::Untracked;
    return chunks[rel / chunkCells][rel % chunkCells];
}

std::pair<std::uint64_t, std::uint64_t>
CrashCells::cellSpan(Addr a, std::size_t n) const
{
    // Clamped to the table, so a hostile extent cannot run away.
    std::uint64_t first = std::max(cellIndex(a), firstCell);
    std::uint64_t last = std::min(cellIndex(a) + cellCount(a, n),
                                  firstCell + cellTotal);
    return {first, std::max(first, last)};
}

void
CrashCells::apply(const trace::TraceEntry &e,
                  std::vector<std::uint64_t> &persisted)
{
    using trace::Op;

    if (e.isWrite()) {
        if (e.has(trace::flagImageOnly) || e.size == 0)
            return;
        bool nt = e.op == Op::NtWrite;
        auto [first, last] = cellSpan(e.addr, e.size);
        // Cells ascend, so each insertion lands right at the hint.
        auto hint = openCells.lower_bound(first);
        for (std::uint64_t idx = first; idx < last; idx++) {
            *slot(idx, true) = nt ? St::Pending : St::Modified;
            hint = openCells.try_emplace(hint, idx);
            hint->second.push_back(e.seq);
            ++hint;
            if (nt)
                pending.push_back(idx);
        }
        return;
    }
    if (e.isFlush()) {
        // Writeback starts for every modified cell in the line;
        // durability lands at the next fence.
        auto [first, last] = cellSpan(e.addr, cacheLineSize);
        for (std::uint64_t idx = first; idx < last; idx++) {
            St *s = slot(idx, false);
            if (s && *s == St::Modified) {
                *s = St::Pending;
                pending.push_back(idx);
            }
        }
        return;
    }
    if (e.isFence()) {
        // The fence retires cells still pending (a cached write after
        // the flush keeps the cell in flight).
        for (std::uint64_t idx : pending) {
            St *s = slot(idx, false);
            if (!s || *s != St::Pending)
                continue;
            *s = St::Persisted;
            persisted.push_back(idx);
            openCells.erase(idx);
        }
        pending.clear();
        return;
    }
    switch (e.op) {
      case Op::Alloc: {
        auto [first, last] = cellSpan(e.addr, e.size);
        for (std::uint64_t idx = first; idx < last; idx++)
            *slot(idx, true) = St::Modified;
        break;
      }
      case Op::Free: {
        // Freed cells leave the frontier; their bytes are pinned at
        // the last written value so the anchor stays byte-identical
        // to the footnote-3 image.
        auto [first, last] = cellSpan(e.addr, e.size);
        auto it = openCells.lower_bound(first);
        while (it != openCells.end() && it->first < last) {
            persisted.push_back(it->first);
            it = openCells.erase(it);
        }
        for (std::uint64_t idx = first; idx < last; idx++) {
            if (St *s = slot(idx, false))
                *s = St::Untracked;
        }
        break;
      }
      case Op::CommitVar: {
        AddrRange r{e.addr, e.addr + e.size};
        if (std::find(commitRanges.begin(), commitRanges.end(), r) ==
            commitRanges.end()) {
            commitRanges.push_back(r);
        }
        break;
      }
      default:
        break;
    }
}

CellFrontier
CrashCells::frontier() const
{
    // Neighbouring cells mostly share a tail (one multi-byte store),
    // so a tail equal to the previous cell's reuses its bit indices.
    CellFrontier f;
    const std::vector<std::uint32_t> *prev = nullptr;
    for (const auto &[idx, tail] : openCells) {
        if (!prev || *prev != tail)
            f.seqs.insert(f.seqs.end(), tail.begin(), tail.end());
        prev = &tail;
    }
    std::sort(f.seqs.begin(), f.seqs.end());
    f.seqs.erase(std::unique(f.seqs.begin(), f.seqs.end()),
                 f.seqs.end());
    f.runsOf.resize(f.seqs.size());
    std::vector<std::size_t> bits;
    prev = nullptr;
    for (const auto &[idx, tail] : openCells) {
        if (!prev || *prev != tail) {
            bits.clear();
            for (std::uint32_t s : tail) {
                bits.push_back(static_cast<std::size_t>(
                    std::lower_bound(f.seqs.begin(), f.seqs.end(), s) -
                    f.seqs.begin()));
            }
            if (bits.size() > 1)
                f.chains.push_back(bits);
            prev = &tail;
        }
        for (std::size_t b : bits) {
            std::vector<CellRun> &runs = f.runsOf[b];
            if (!runs.empty() && runs.back().end == idx)
                runs.back().end++;
            else
                runs.push_back({idx, idx + 1});
        }
    }
    return f;
}

} // namespace xfd::core
