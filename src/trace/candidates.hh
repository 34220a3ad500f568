/**
 * @file
 * Crash-state candidate enumeration over a write frontier.
 *
 * At a failure point, the writes still in flight form the *frontier*;
 * every legal crash image corresponds to a downward-closed subset of
 * it (per cell, the applied events must form a prefix of that cell's
 * write tail — stores to one location persist in store order). The
 * crash-state oracle (oracle/oracle.cc) introduced this model as a
 * conformance checker; the driver's --crash-states detection mode
 * executes recovery on the same candidates. Both build a CandidateSet
 * from their own per-cell tail models, so the legality rule, the
 * repair fixpoint and the enumeration order (anchor first, then the
 * exhaustive sweep or the seeded sampler) are one implementation —
 * candidate-for-candidate identical between detector and oracle by
 * construction, which is what the conformance tier asserts.
 */

#ifndef XFD_TRACE_CANDIDATES_HH
#define XFD_TRACE_CANDIDATES_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "trace/subset.hh"

namespace xfd::trace
{

/** One in-flight write event at a failure point. */
struct FrontierEvent
{
    /** Pre-trace seq of the write. */
    std::uint32_t seq = 0;
    Addr addr = 0;
    std::uint32_t size = 0;
};

/**
 * The legal crash states of one failure point: the frontier events
 * (mask bit i = i-th event, ascending by seq) plus the per-cell
 * prefix chains that constrain which subsets are reachable.
 */
class CandidateSet
{
  public:
    CandidateSet() = default;

    /**
     * @param frontier in-flight write events, ascending by seq
     * @param chains   per-cell tails as bit indices into @p frontier,
     *                 each ascending (a cell's applied events must be
     *                 a prefix of its chain)
     *
     * Only adjacent pairs of a chain constrain (a prefix is exactly
     * a set closed under "predecessor applied"), so the set keeps
     * each distinct pair once: chains of length <= 1 add nothing and
     * duplicate chains collapse. Legality, repair and enumeration
     * depend on nothing but these pairs.
     */
    CandidateSet(std::vector<FrontierEvent> frontier,
                 const std::vector<std::vector<std::size_t>> &chains);

    /** Frontier size = mask width. */
    std::size_t bits() const { return events.size(); }

    const std::vector<FrontierEvent> &
    frontier() const
    {
        return events;
    }

    /** Is the per-cell prefix rule satisfied by @p mask? */
    bool legal(const SubsetMask &mask) const;

    /** Clear mask bits until every cell's applied set is a prefix. */
    void repair(SubsetMask &mask) const;

    /** Enumeration knobs (see oracle::OracleConfig for semantics). */
    struct EnumerateOptions
    {
        /** Enumerate every legal subset (<= frontierLimit bits). */
        bool exhaustive = true;
        /** Above this frontier size, sample even in exhaustive mode. */
        std::size_t frontierLimit = 8;
        /** Distinct candidates wanted per failure point (sampling). */
        std::size_t sampleCount = 64;
        /** Base seed; the stream id perturbs it. */
        std::uint64_t seed = 42;
        /**
         * Sampler stream identity. The oracle keys it by failure
         * point; the driver's --crash-states mode keys it by the
         * candidate equivalence class (ordering-point location +
         * frontier signature), so equivalent failure points sample
         * identical mask sequences and batched/pruned schedules stay
         * fingerprint-identical to the full one.
         */
        std::uint64_t stream = 0;
    };

    /** The enumerated candidates of one failure point. */
    struct Enumeration
    {
        /** Legal subsets; [0] is always the all-ones anchor. */
        std::vector<SubsetMask> masks;
        /** True when the space was sampled rather than enumerated. */
        bool sampled = false;
    };

    /**
     * Enumerate the legal subsets: the all-updates anchor first, then
     * either every other legal mask (exhaustive, frontier within the
     * limit) or up to sampleCount distinct repaired random masks (the
     * all-zero mask is always included). Deterministic for a fixed
     * (seed, stream) pair regardless of caller threading. The sampler
     * stops as soon as every legal mask is in, so a legal space
     * smaller than the sample costs its size, not the attempt bound.
     */
    Enumeration enumerate(const EnumerateOptions &opt) const;

    /**
     * Number of legal masks, counted up to @p cap (the walk stops
     * there, so the cost is O(cap * bits)).
     */
    std::size_t legalCount(std::size_t cap) const;

  private:
    std::vector<FrontierEvent> events;
    /**
     * Distinct chain-adjacent pairs by successor: event b may persist
     * only if every event in preds[predBegin[b] .. predBegin[b + 1])
     * does. Predecessors precede b, since chains ascend.
     */
    std::vector<std::size_t> predBegin;
    std::vector<std::size_t> preds;
};

} // namespace xfd::trace

#endif // XFD_TRACE_CANDIDATES_HH
