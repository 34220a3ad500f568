#include "trace/candidates.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "common/rng.hh"

namespace xfd::trace
{

CandidateSet::CandidateSet(
    std::vector<FrontierEvent> frontier,
    const std::vector<std::vector<std::size_t>> &chains)
    : events(std::move(frontier))
{
    // (successor, predecessor) pairs, each kept once.
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (const auto &chain : chains) {
        for (std::size_t i = 1; i < chain.size(); i++)
            pairs.emplace_back(chain[i], chain[i - 1]);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    predBegin.assign(events.size() + 1, 0);
    for (const auto &[succ, pred] : pairs)
        predBegin[succ + 1]++;
    for (std::size_t b = 0; b < events.size(); b++)
        predBegin[b + 1] += predBegin[b];
    preds.reserve(pairs.size());
    for (const auto &[succ, pred] : pairs)
        preds.push_back(pred);
}

bool
CandidateSet::legal(const SubsetMask &mask) const
{
    for (std::size_t b = 0; b < bits(); b++) {
        if (!mask.test(b))
            continue;
        for (std::size_t i = predBegin[b]; i < predBegin[b + 1]; i++) {
            if (!mask.test(preds[i]))
                return false;
        }
    }
    return true;
}

void
CandidateSet::repair(SubsetMask &mask) const
{
    // Predecessors precede their successors, so one ascending pass
    // reaches the fixpoint: when bit b is visited, every predecessor
    // already holds its final value.
    for (std::size_t b = 0; b < bits(); b++) {
        if (!mask.test(b))
            continue;
        for (std::size_t i = predBegin[b]; i < predBegin[b + 1]; i++) {
            if (!mask.test(preds[i])) {
                mask.set(b, false);
                break;
            }
        }
    }
}

std::size_t
CandidateSet::legalCount(std::size_t cap) const
{
    // Depth first over the bits in ascending order. A bit may be set
    // only when its predecessors (all lower) are, and clearing every
    // remaining bit always completes a legal mask, so each branch
    // ends in a distinct legal mask: at most cap * (bits + 1) nodes.
    std::size_t k = bits();
    std::vector<char> on(k, 0);
    std::size_t n = 0;
    auto walk = [&](auto &self, std::size_t b) -> void {
        if (n >= cap)
            return;
        if (b == k) {
            n++;
            return;
        }
        self(self, b + 1);
        for (std::size_t i = predBegin[b]; i < predBegin[b + 1]; i++) {
            if (!on[preds[i]])
                return;
        }
        on[b] = 1;
        self(self, b + 1);
        on[b] = 0;
    };
    walk(walk, 0);
    return n;
}

CandidateSet::Enumeration
CandidateSet::enumerate(const EnumerateOptions &opt) const
{
    Enumeration out;
    std::size_t k = bits();

    // The all-updates anchor goes first: its image byte-reproduces
    // the detector's footnote-3 image, so its classes are the
    // conformance baseline.
    SubsetMask full(k);
    full.setAll();
    out.masks.push_back(full);

    bool exhaustiveHere =
        opt.exhaustive && k <= std::min<std::size_t>(opt.frontierLimit,
                                                     20);
    out.sampled = !exhaustiveHere;
    if (exhaustiveHere) {
        std::uint64_t space = std::uint64_t{1} << k;
        // All values except all-ones, which is already at masks[0].
        for (std::uint64_t m = 0; m + 1 < space; m++) {
            SubsetMask cand(k);
            for (std::size_t b = 0; b < k; b++) {
                if (m & (std::uint64_t{1} << b))
                    cand.set(b);
            }
            if (legal(cand))
                out.masks.push_back(std::move(cand));
        }
    } else {
        std::set<SubsetMask> seen;
        seen.insert(full);
        SubsetMask none(k);
        if (seen.insert(none).second)
            out.masks.push_back(std::move(none));
        Rng rng(opt.seed ^ (opt.stream * 0x9e3779b97f4a7c15ull));
        std::size_t want = std::max<std::size_t>(opt.sampleCount, 2);
        // k events admit at least k + 1 legal masks (the prefixes of
        // ascending order), so only a frontier narrower than the
        // sample can run out of masks: count that space and stop once
        // every legal mask is in. Later attempts could only draw
        // duplicates, so the masks and their order do not change.
        std::size_t target = k + 1 < want ? legalCount(want) : want;
        // Random bits repaired to downward closure; duplicates are
        // discarded, so bound the attempts for tiny legal spaces.
        for (std::size_t tries = 0;
             out.masks.size() < target && tries < want * 8; tries++) {
            SubsetMask cand(k);
            for (std::size_t b = 0; b < k; b++) {
                if (rng.next() & 1)
                    cand.set(b);
            }
            repair(cand);
            if (seen.insert(cand).second)
                out.masks.push_back(std::move(cand));
        }
    }
    return out;
}

} // namespace xfd::trace
