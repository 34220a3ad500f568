/**
 * @file
 * Property tests pinning the crash-state candidate enumeration the
 * --crash-states mode and the oracle share (trace::CandidateSet):
 * every generated mask satisfies the per-cell prefix closure, the
 * all-updates anchor leads the enumeration, masks never repeat (so
 * the driver's equivalence-class pruning can key on mask identity),
 * a fixed (seed, stream) pair reproduces the sequence exactly, and
 * the enumeration equals a chain-walking reference enumerator (kept
 * below) on chain sets with singleton, duplicate and shared-event
 * chains. Randomized frontiers are seeded; XFD_FUZZ_SEED replays one
 * case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "harness.hh"
#include "trace/candidates.hh"

namespace
{

using namespace xfd;
using trace::CandidateSet;
using trace::FrontierEvent;
using trace::SubsetMask;

/**
 * A random frontier of @p k events spread over a random number of
 * cells. Indices are assigned to cells in ascending order, so each
 * chain is ascending as the CandidateSet contract requires.
 */
CandidateSet
randomSet(Rng &rng, std::size_t k)
{
    std::vector<FrontierEvent> frontier;
    for (std::size_t i = 0; i < k; i++) {
        frontier.push_back({static_cast<std::uint32_t>(i * 3 + 1),
                            0x1000 + i, 1});
    }
    std::size_t cells = k ? 1 + rng.below(k) : 0;
    std::vector<std::vector<std::size_t>> chains(cells);
    for (std::size_t i = 0; i < k; i++)
        chains[rng.below(cells)].push_back(i);
    return CandidateSet(std::move(frontier), std::move(chains));
}

CandidateSet::EnumerateOptions
randomOptions(Rng &rng)
{
    CandidateSet::EnumerateOptions opt;
    opt.exhaustive = rng.below(2) == 0;
    opt.frontierLimit = 4 + rng.below(6);
    opt.sampleCount = 2 + rng.below(40);
    opt.seed = rng.next();
    opt.stream = rng.next();
    return opt;
}

void
fuzzOne(std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t k = rng.below(13);
    CandidateSet set = randomSet(rng, k);
    CandidateSet::EnumerateOptions opt = randomOptions(rng);

    CandidateSet::Enumeration en = set.enumerate(opt);
    ASSERT_FALSE(en.masks.empty()) << "XFD_FUZZ_SEED=" << seed;

    // The anchor (all updates applied) always leads.
    EXPECT_EQ(en.masks[0].size(), set.bits());
    EXPECT_TRUE(en.masks[0].all()) << "XFD_FUZZ_SEED=" << seed;

    std::set<SubsetMask> seen;
    for (const SubsetMask &m : en.masks) {
        EXPECT_EQ(m.size(), set.bits());
        // Prefix closure: per cell, the applied events form a prefix
        // of the cell's write tail.
        EXPECT_TRUE(set.legal(m))
            << "illegal mask " << m.toHex() << " XFD_FUZZ_SEED=" << seed;
        // Legal masks are fixed points of repair().
        SubsetMask repaired = m;
        set.repair(repaired);
        EXPECT_EQ(repaired, m) << "XFD_FUZZ_SEED=" << seed;
        // No duplicates: the driver's equivalence pruning keys
        // candidates by mask identity, so a repeat would silently
        // halve coverage.
        EXPECT_TRUE(seen.insert(m).second)
            << "duplicate mask " << m.toHex()
            << " XFD_FUZZ_SEED=" << seed;
    }

    // Sampling promises the empty image too (nothing persisted).
    if (k > 0 && !opt.exhaustive) {
        SubsetMask none(set.bits());
        EXPECT_TRUE(seen.count(none)) << "XFD_FUZZ_SEED=" << seed;
    }

    // Determinism: the same (seed, stream) reproduces the sequence
    // mask-for-mask — what keeps serial, parallel and batched
    // campaigns fingerprint-identical.
    CandidateSet::Enumeration again = set.enumerate(opt);
    EXPECT_EQ(again.masks, en.masks) << "XFD_FUZZ_SEED=" << seed;

    // repair() always lands on a legal mask, from any starting point.
    for (int i = 0; i < 8; i++) {
        SubsetMask m(set.bits());
        for (std::size_t b = 0; b < set.bits(); b++) {
            if (rng.below(2))
                m.set(b);
        }
        set.repair(m);
        EXPECT_TRUE(set.legal(m)) << "XFD_FUZZ_SEED=" << seed;
    }
}

TEST(CrashStatesProp, EnumerationInvariantsHoldOnRandomFrontiers)
{
    for (std::uint64_t seed = 1; seed <= 200; seed++) {
        SCOPED_TRACE(seed);
        fuzzOne(seed);
    }
}

TEST(CrashStatesProp, ExhaustiveSweepCoversEveryLegalMask)
{
    // Small frontiers enumerate completely: cross-check the sweep
    // against a brute-force scan of all 2^k subsets.
    Rng rng(7);
    for (int round = 0; round < 20; round++) {
        SCOPED_TRACE(round);
        CandidateSet set = randomSet(rng, 1 + rng.below(8));
        CandidateSet::EnumerateOptions opt;
        opt.exhaustive = true;
        opt.frontierLimit = 8;
        CandidateSet::Enumeration en = set.enumerate(opt);
        EXPECT_FALSE(en.sampled);

        std::size_t legal = 0;
        for (std::uint64_t bitsv = 0;
             bitsv < (std::uint64_t{1} << set.bits()); bitsv++) {
            SubsetMask m(set.bits());
            for (std::size_t b = 0; b < set.bits(); b++) {
                if (bitsv & (std::uint64_t{1} << b))
                    m.set(b);
            }
            if (set.legal(m))
                legal++;
        }
        EXPECT_EQ(en.masks.size(), legal);
        // The sampler's exhaustion stop rests on this count.
        EXPECT_EQ(set.legalCount(std::size_t{1} << 20), legal);
        EXPECT_EQ(set.legalCount(3), std::min<std::size_t>(legal, 3));
    }
}

/**
 * The enumerator as it stood before CandidateSet kept only distinct
 * chain-adjacent pairs and stopped sampling on an exhausted space:
 * chain-walking legality, fixpoint repair and every sampler attempt
 * spent. enumerate() must reproduce it mask for mask.
 */
struct RefEnumerator
{
    std::size_t k;
    std::vector<std::vector<std::size_t>> chains;

    bool
    legal(const SubsetMask &mask) const
    {
        for (const auto &chain : chains) {
            bool unset = false;
            for (std::size_t b : chain) {
                bool applied = mask.test(b);
                if (applied && unset)
                    return false;
                if (!applied)
                    unset = true;
            }
        }
        return true;
    }

    void
    repair(SubsetMask &mask) const
    {
        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &chain : chains) {
                bool unset = false;
                for (std::size_t b : chain) {
                    if (!mask.test(b)) {
                        unset = true;
                    } else if (unset) {
                        mask.set(b, false);
                        changed = true;
                    }
                }
            }
        }
    }

    CandidateSet::Enumeration
    enumerate(const CandidateSet::EnumerateOptions &opt) const
    {
        CandidateSet::Enumeration out;
        SubsetMask full(k);
        full.setAll();
        out.masks.push_back(full);
        bool exhaustiveHere =
            opt.exhaustive &&
            k <= std::min<std::size_t>(opt.frontierLimit, 20);
        out.sampled = !exhaustiveHere;
        if (exhaustiveHere) {
            std::uint64_t space = std::uint64_t{1} << k;
            for (std::uint64_t m = 0; m + 1 < space; m++) {
                SubsetMask cand(k);
                for (std::size_t b = 0; b < k; b++) {
                    if (m & (std::uint64_t{1} << b))
                        cand.set(b);
                }
                if (legal(cand))
                    out.masks.push_back(std::move(cand));
            }
            return out;
        }
        std::set<SubsetMask> seen;
        seen.insert(full);
        SubsetMask none(k);
        if (seen.insert(none).second)
            out.masks.push_back(std::move(none));
        Rng rng(opt.seed ^ (opt.stream * 0x9e3779b97f4a7c15ull));
        std::size_t want = std::max<std::size_t>(opt.sampleCount, 2);
        for (std::size_t tries = 0;
             out.masks.size() < want && tries < want * 8; tries++) {
            SubsetMask cand(k);
            for (std::size_t b = 0; b < k; b++) {
                if (rng.next() & 1)
                    cand.set(b);
            }
            repair(cand);
            if (seen.insert(cand).second)
                out.masks.push_back(std::move(cand));
        }
        return out;
    }
};

/**
 * Random chains over @p k events: mostly short ascending runs of a
 * few events (so events are shared between chains), plus singletons
 * and verbatim duplicates of earlier chains.
 */
std::vector<std::vector<std::size_t>>
randomChains(Rng &rng, std::size_t k)
{
    std::vector<std::vector<std::size_t>> chains;
    if (k == 0)
        return chains;
    std::size_t n = rng.below(2 * k + 2);
    for (std::size_t c = 0; c < n; c++) {
        std::uint64_t kind = rng.below(6);
        if (kind == 0 && !chains.empty()) {
            chains.push_back(chains[rng.below(chains.size())]);
        } else if (kind == 1) {
            chains.push_back({rng.below(k)});
        } else {
            std::set<std::size_t> picked;
            std::size_t len = 2 + rng.below(4);
            for (std::size_t i = 0; i < len; i++)
                picked.insert(rng.below(k));
            chains.emplace_back(picked.begin(), picked.end());
        }
    }
    return chains;
}

void
matchOne(std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << "XFD_FUZZ_SEED=" << seed);
    Rng rng(seed);
    std::size_t k = rng.below(25);
    std::vector<FrontierEvent> frontier;
    for (std::size_t i = 0; i < k; i++) {
        frontier.push_back(
            {static_cast<std::uint32_t>(i * 5 + 2), 0x2000 + 8 * i, 8});
    }
    RefEnumerator ref{k, randomChains(rng, k)};
    CandidateSet set(frontier, ref.chains);
    CandidateSet::EnumerateOptions opt;
    opt.frontierLimit = 6 + rng.below(7);
    opt.seed = rng.next();
    opt.stream = rng.next();
    for (std::size_t count : {2u, 8u, 16u, 64u}) {
        for (bool exhaustive : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "sample " << count << " exhaustive "
                         << exhaustive);
            opt.sampleCount = count;
            opt.exhaustive = exhaustive;
            CandidateSet::Enumeration got = set.enumerate(opt);
            CandidateSet::Enumeration want = ref.enumerate(opt);
            ASSERT_EQ(got.masks, want.masks);
            EXPECT_EQ(got.sampled, want.sampled);
        }
    }
    // legalCount() agrees with a brute-force scan where one is cheap.
    if (k <= 12) {
        std::size_t legal = 0;
        for (std::uint64_t v = 0; v < (std::uint64_t{1} << k); v++) {
            SubsetMask m(k);
            for (std::size_t b = 0; b < k; b++) {
                if (v & (std::uint64_t{1} << b))
                    m.set(b);
            }
            legal += ref.legal(m);
        }
        EXPECT_EQ(set.legalCount(std::size_t{1} << 20), legal);
        EXPECT_EQ(set.legalCount(5), std::min<std::size_t>(legal, 5));
    }
    // legal() and repair() agree with the chain walk on any mask.
    for (int i = 0; i < 16; i++) {
        SubsetMask m(k);
        for (std::size_t b = 0; b < k; b++) {
            if (rng.below(3))
                m.set(b);
        }
        EXPECT_EQ(set.legal(m), ref.legal(m)) << m.toHex();
        SubsetMask a = m, b = m;
        set.repair(a);
        ref.repair(b);
        EXPECT_EQ(a, b) << m.toHex();
    }
}

TEST(CrashStatesProp, EnumerationMatchesChainWalkReference)
{
    for (std::uint64_t seed = 1; seed <= 300; seed++)
        matchOne(seed * 0x9e3779b97f4a7c15ull);
}

TEST(CrashStatesPropReplay, ReplayFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP()
            << "set XFD_FUZZ_SEED=<seed from a failure message> to "
               "replay a single enumeration case";
    fuzzOne(s);
}

TEST(CrashStatesPropReplay, ReplayReferenceMatchFromEnv)
{
    std::uint64_t s = 0;
    if (!xfdtest::fuzzSeedFromEnv(s))
        GTEST_SKIP() << "set XFD_FUZZ_SEED=<seed from a failure message> "
                        "to replay a single reference-match case";
    matchOne(s);
}

} // namespace
