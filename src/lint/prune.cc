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

#include <map>
#include <unordered_map>

#include "common/logging.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"

namespace xfd::lint
{

PruneVerdicts
computePruneVerdicts(const trace::TraceBuffer &pre,
                     const std::vector<std::uint32_t> &points,
                     unsigned granularity, bool flushFree, bool renderKeys)
{
    PruneVerdicts v;
    if (points.empty())
        return v;

    FrontierState st(granularity, flushFree);
    // Ordering-point location -> interned signature id -> group id.
    std::map<std::string, std::unordered_map<std::uint32_t, std::uint32_t>>
        seen;
    v.group.reserve(points.size());

    std::size_t next = 0;
    for (const auto &e : pre) {
        if (next < points.size() && e.seq == points[next]) {
            // The failure preempts this entry, so the signature is
            // the state *before* it applies.
            std::string where = e.loc.str();
            FrontierSignature sig = st.signature();
            auto [it, fresh] = seen[where].try_emplace(
                sig.id(), static_cast<std::uint32_t>(v.kept.size()));
            if (fresh) {
                v.kept.push_back(e.seq);
                if (renderKeys)
                    v.keys.push_back(where + '|' + sig.str());
            } else {
                v.pruned.push_back(
                    PruneVerdicts::Pruned{e.seq, v.kept[it->second]});
            }
            v.group.push_back(it->second);
            next++;
        }
        st.apply(e);
        if (next >= points.size())
            break;
    }
    if (next < points.size()) {
        fatal("lint prune: %zu planned point(s) not found in the "
              "trace (first missing seq %u)",
              points.size() - next, points[next]);
    }
    return v;
}

} // namespace xfd::lint
