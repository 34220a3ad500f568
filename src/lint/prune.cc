/**
 * @file
 * Failure-point prunability — the loop-iteration equivalence pass.
 *
 * Adjacent-frontier subset rules prune nothing in practice: the epoch
 * idiom (write; flush; fence) puts writes in every inter-point
 * interval, and elision already removed the no-op fences. What *is*
 * redundant is repetition across loop iterations: the Nth insert
 * fails at the same ordering point, with the same in-flight write
 * sites and the same commit-consistency picture, as the first insert
 * did. Findings deduplicate by source location (core::BugSink keys on
 * reader/writer lines, and recovery failures carry the failure
 * point's own location, equal within a group), so an equal signature
 * at an equal ordering-point location can only reproduce the kept
 * representative's findings.
 */

#include <stdexcept>
#include <unordered_map>

#include "common/logging.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"

namespace xfd::lint
{

namespace
{

/** An ordering-point location as the trace points to it. */
struct LocPtr
{
    const char *file;
    const char *func;
    unsigned line;

    bool operator==(const LocPtr &) const = default;
};

struct LocPtrHash
{
    std::size_t
    operator()(const LocPtr &k) const
    {
        std::uint64_t h =
            reinterpret_cast<std::uintptr_t>(k.file) * 0x9e3779b97f4a7c15ull ^
            reinterpret_cast<std::uintptr_t>(k.func);
        h = (h ^ k.line) * 0xff51afd7ed558ccdull;
        return h ^ (h >> 32);
    }
};

} // namespace

PruneVerdicts
computePruneVerdicts(const trace::TraceBuffer &pre,
                     const std::vector<std::uint32_t> &points,
                     unsigned granularity, bool flushFree)
{
    PruneVerdicts v;
    if (points.empty())
        return v;

    // Persisted spans reach a signature only through a commit variable,
    // so without one before the last point the walk keeps none.
    bool history = false;
    for (const auto &e : pre) {
        if (e.seq == points.back())
            break;
        if (e.op == trace::Op::CommitVar) {
            history = true;
            break;
        }
    }
    FrontierState st(granularity, flushFree, history);

    // Location ids by rendered text (SrcLoc::str(), rendered once per
    // pointer tuple), and (location id, interned signature id) -> group.
    std::unordered_map<std::string, std::uint32_t> locByText;
    std::unordered_map<LocPtr, std::uint32_t, LocPtrHash> locByPtr;
    std::unordered_map<std::uint64_t, std::uint32_t> seen;
    v.group.reserve(points.size());

    std::size_t next = 0;
    for (const auto &e : pre) {
        if (e.seq == points[next]) {
            auto [lit, freshPtr] = locByPtr.try_emplace(
                LocPtr{e.loc.file, e.loc.func, e.loc.line}, 0);
            if (freshPtr) {
                auto id = static_cast<std::uint32_t>(locByText.size());
                lit->second = locByText.try_emplace(e.loc.str(), id)
                                  .first->second;
            }
            // The failure preempts this entry, so the signature is
            // the state *before* it applies.
            auto [it, fresh] = seen.try_emplace(
                std::uint64_t{lit->second} << 32 | st.signature().id(),
                static_cast<std::uint32_t>(v.kept.size()));
            if (fresh) {
                v.kept.push_back(e.seq);
            } else {
                v.pruned.push_back(
                    PruneVerdicts::Pruned{e.seq, v.kept[it->second]});
            }
            v.group.push_back(it->second);
            if (++next == points.size())
                return v;
        }
        st.apply(e);
    }
    throw std::invalid_argument(strprintf(
        "lint prune: %zu planned point(s) not found in the trace (first "
        "missing seq %u)",
        points.size() - next, points[next]));
}

} // namespace xfd::lint
