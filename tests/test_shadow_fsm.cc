/**
 * @file
 * Shadow-PM state machine tests: the persistence FSM of paper Fig. 9,
 * the consistency/timestamp rules of Fig. 10 and condition (3), and
 * the post-failure read-check rules of §5.4 — including parameterized
 * sweeps across cell granularities.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/shadow_pm.hh"

namespace
{

using namespace xfd;
using core::DetectorConfig;
using core::PersistState;
using core::ReadCheck;
using core::ShadowPM;

constexpr Addr base = defaultPoolBase;

DetectorConfig
cfgWithGran(unsigned g)
{
    DetectorConfig cfg;
    cfg.granularity = g;
    return cfg;
}

struct ShadowTest : ::testing::Test
{
    ShadowTest() : cfg(), shadow({base, base + (1 << 20)}, cfg) {}

    DetectorConfig cfg;
    ShadowPM shadow;
};

TEST(ShadowConfig, NonCellGranularityIsAnError)
{
    try {
        ShadowPM shadow({base, base + 4096}, cfgWithGran(3));
        FAIL() << "granularity 3 was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "shadow granularity must be 1, 2, 4 or 8");
    }
}

// ---------------------------------------------------------------
// Persistence FSM (Fig. 9)
// ---------------------------------------------------------------

TEST_F(ShadowTest, InitiallyUnmodified)
{
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Unmodified);
}

TEST_F(ShadowTest, WriteMakesModified)
{
    shadow.preWrite(base, 8, 0, false);
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Modified);
    EXPECT_EQ(shadow.persistStateOf(base + 7), PersistState::Modified);
    EXPECT_EQ(shadow.persistStateOf(base + 8), PersistState::Unmodified);
}

TEST_F(ShadowTest, FlushMakesWritebackPending)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    EXPECT_EQ(shadow.persistStateOf(base),
              PersistState::WritebackPending);
}

TEST_F(ShadowTest, FenceMakesPersisted)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.preFence();
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Persisted);
}

TEST_F(ShadowTest, FenceWithoutFlushLeavesModified)
{
    // M --SFENCE--> M: a fence alone does not write anything back.
    shadow.preWrite(base, 8, 0, false);
    shadow.preFence();
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Modified);
}

TEST_F(ShadowTest, WriteAfterPersistRedirties)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.preFence();
    shadow.preWrite(base, 8, 2, false);
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Modified);
}

TEST_F(ShadowTest, WriteWhilePendingRedirties)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.preWrite(base, 8, 2, false);
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Modified);
    shadow.preFence();
    // The re-dirtied write was never flushed again.
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Modified);
}

TEST_F(ShadowTest, NtWriteIsPendingThenPersists)
{
    shadow.preWrite(base, 8, 0, true);
    EXPECT_EQ(shadow.persistStateOf(base),
              PersistState::WritebackPending);
    shadow.preFence();
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Persisted);
}

TEST_F(ShadowTest, RedundantFlushOfCleanLineFlagged)
{
    EXPECT_TRUE(shadow.preFlush(base, 0));
}

TEST_F(ShadowTest, RedundantFlushOfPersistedLineFlagged)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.preFence();
    EXPECT_TRUE(shadow.preFlush(base, 2));
}

TEST_F(ShadowTest, DoubleFlushBeforeFenceFlagged)
{
    shadow.preWrite(base, 8, 0, false);
    EXPECT_FALSE(shadow.preFlush(base, 1));
    EXPECT_TRUE(shadow.preFlush(base, 2));
}

TEST_F(ShadowTest, FlushOfPartiallyModifiedLineNotRedundant)
{
    shadow.preWrite(base + 32, 4, 0, false);
    EXPECT_FALSE(shadow.preFlush(base, 1));
}

TEST_F(ShadowTest, FreeResetsState)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFree(base, 8);
    EXPECT_EQ(shadow.persistStateOf(base), PersistState::Unmodified);
}

TEST_F(ShadowTest, AllocMarksUninitialized)
{
    shadow.preAlloc(base + 64, 16, 3);
    EXPECT_EQ(shadow.persistStateOf(base + 64), PersistState::Modified);
    shadow.beginPostReplay();
    auto res = shadow.checkPostRead(base + 64, 4);
    EXPECT_EQ(res.verdict, ReadCheck::Race);
    EXPECT_TRUE(res.uninitialized);
    EXPECT_EQ(res.writerSeq, 3u);
}

// ---------------------------------------------------------------
// Post-failure read checks (cross-failure race, §3.1)
// ---------------------------------------------------------------

TEST_F(ShadowTest, ReadOfUntouchedIsOk)
{
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 64).verdict, ReadCheck::Ok);
}

TEST_F(ShadowTest, ReadOfModifiedIsRace)
{
    shadow.preWrite(base, 8, 7, false);
    shadow.beginPostReplay();
    auto res = shadow.checkPostRead(base, 8);
    EXPECT_EQ(res.verdict, ReadCheck::Race);
    EXPECT_EQ(res.writerSeq, 7u);
    EXPECT_EQ(res.addr, base);
}

TEST_F(ShadowTest, ReadOfWritebackPendingIsStillRace)
{
    // CLWB without SFENCE does not guarantee persistence.
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Race);
}

TEST_F(ShadowTest, ReadOfPersistedIsOk)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.preFlush(base, 1);
    shadow.preFence();
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Ok);
}

TEST_F(ShadowTest, PostOverwriteSuppressesRace)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.beginPostReplay();
    shadow.postWrite(base, 8);
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Ok);
}

TEST_F(ShadowTest, PostOverlayResetsPerFailurePoint)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.beginPostReplay();
    shadow.postWrite(base, 8);
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Ok);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Race);
}

TEST_F(ShadowTest, SecondReplaySeesNoFlagOfTheFirst)
{
    // Overwritten and checked cells of one replay, on two pages, are
    // plain cells again in the next.
    shadow.preWrite(base, 8, 0, false);
    shadow.preWrite(base + 8192, 8, 1, false);
    shadow.beginPostReplay();
    shadow.postWrite(base, 8);
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Ok);
    EXPECT_EQ(shadow.checkPostRead(base + 8192, 8).verdict,
              ReadCheck::Race);
    shadow.endPostReplay();
    EXPECT_EQ(shadow.checksPerformed(), 8u);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Race);
    EXPECT_EQ(shadow.checkPostRead(base + 8192, 8).verdict,
              ReadCheck::Race);
    EXPECT_EQ(shadow.checksPerformed(), 24u);
    EXPECT_EQ(shadow.checksSkipped(), 0u);
}

TEST_F(ShadowTest, PostAccessOutsideThePoolIsClampedAway)
{
    // The pool is [base, base + 1 MiB): what lies outside it has no
    // cells, so a read there checks and counts nothing, and a write
    // there overwrites nothing.
    const Addr end = base + (1 << 20);
    shadow.preWrite(end - 8, 8, 0, false);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base - 64, 64).verdict, ReadCheck::Ok);
    EXPECT_EQ(shadow.checkPostRead(end, 64).verdict, ReadCheck::Ok);
    EXPECT_EQ(shadow.checkPostRead(~Addr{0} - 3, 64).verdict,
              ReadCheck::Ok);
    shadow.postWrite(end, 4096);
    shadow.postWrite(base - 4096, 4096);
    EXPECT_EQ(shadow.checksPerformed(), 0u);
    EXPECT_EQ(shadow.checksSkipped(), 0u);
    // A read across the end checks its in-pool cells only.
    auto res = shadow.checkPostRead(end - 8, 64);
    EXPECT_EQ(res.verdict, ReadCheck::Race);
    EXPECT_EQ(res.addr, end - 8);
    EXPECT_EQ(shadow.checksPerformed(), 8u);
}

TEST_F(ShadowTest, PartialOverwriteStillRaces)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.beginPostReplay();
    shadow.postWrite(base, 4);
    auto res = shadow.checkPostRead(base, 8);
    EXPECT_EQ(res.verdict, ReadCheck::Race);
    EXPECT_EQ(res.addr, base + 4);
}

TEST_F(ShadowTest, FirstReadOnlySkipsSecondRead)
{
    shadow.preWrite(base, 8, 0, false);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Race);
    // Optimization (1): the second read is not re-checked.
    EXPECT_EQ(shadow.checkPostRead(base, 8).verdict, ReadCheck::Ok);
    EXPECT_GT(shadow.checksSkipped(), 0u);
}

// ---------------------------------------------------------------
// Commit variables & semantic consistency (Fig. 10, condition (3))
// ---------------------------------------------------------------

struct CommitVarTest : ShadowTest
{
    static constexpr Addr valid = base;        // commit variable
    static constexpr Addr backup = base + 64;  // protected data
    static constexpr Addr arr = base + 128;    // protected data

    void
    SetUp() override
    {
        shadow.registerCommitVar(valid, 1);
        shadow.registerCommitRange(valid, backup, 16);
        shadow.registerCommitRange(valid, arr, 16);
    }

    /** Write [a,a+n) and persist it, advancing the timestamp. */
    void
    persistedWrite(Addr a, std::size_t n, std::uint32_t seq)
    {
        shadow.preWrite(a, n, seq, false);
        shadow.preFlush(lineBase(a), seq);
        shadow.preFence();
    }
};

TEST_F(CommitVarTest, ReadingCommitVarIsBenign)
{
    shadow.preWrite(valid, 1, 0, false);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(valid, 1).verdict, ReadCheck::Benign);
}

TEST_F(CommitVarTest, UncommittedPersistedDataIsSemanticBug)
{
    // Data persisted, but no commit write followed: uncommitted.
    persistedWrite(backup, 16, 0);
    shadow.beginPostReplay();
    auto res = shadow.checkPostRead(backup, 16);
    EXPECT_EQ(res.verdict, ReadCheck::SemanticBug);
    EXPECT_FALSE(res.stale);
}

TEST_F(CommitVarTest, CommittedDataIsConsistent)
{
    persistedWrite(backup, 16, 0);   // write at ts 0
    persistedWrite(valid, 1, 1);     // commit write at ts 1
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(backup, 16).verdict, ReadCheck::Ok);
}

TEST_F(CommitVarTest, StaleDataIsSemanticBug)
{
    persistedWrite(backup, 16, 0); // ts 0
    persistedWrite(valid, 1, 1);   // commit @ ts 1 -> backup consistent
    persistedWrite(arr, 16, 2);    // ts 2
    persistedWrite(valid, 1, 3);   // commit @ ts 3 -> arr consistent
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(arr, 16).verdict, ReadCheck::Ok);
    auto res = shadow.checkPostRead(backup, 16);
    // backup was last modified before the pre-last commit write.
    EXPECT_EQ(res.verdict, ReadCheck::SemanticBug);
    EXPECT_TRUE(res.stale);
}

TEST_F(CommitVarTest, SameEpochCommitDoesNotCover)
{
    // Fig. 11 / F2: backup and the commit write land in the same
    // epoch — the backup is not ordered before the commit, so it is
    // not covered by it.
    shadow.preWrite(backup, 16, 0, false);
    shadow.preWrite(valid, 1, 1, false); // commit, same ts
    shadow.preFlush(lineBase(backup), 2);
    shadow.preFlush(lineBase(valid), 2);
    shadow.preFence();
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(backup, 16).verdict,
              ReadCheck::SemanticBug);
}

TEST_F(CommitVarTest, RaceTakesPriorityWhenNotPersisted)
{
    // Fig. 11 / F1: backup modified but not yet written back -> the
    // read is reported as a race, not a semantic bug.
    shadow.preWrite(backup, 16, 0, false);
    shadow.preWrite(valid, 1, 1, false);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(backup, 16).verdict, ReadCheck::Race);
}

TEST_F(CommitVarTest, UncoveredAddressHasNoSemanticCheck)
{
    Addr elsewhere = base + 4096;
    persistedWrite(elsewhere, 8, 0);
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(elsewhere, 8).verdict, ReadCheck::Ok);
}

TEST_F(CommitVarTest, RegistrationIsIdempotent)
{
    shadow.registerCommitVar(valid, 1);
    shadow.registerCommitRange(valid, backup, 16);
    EXPECT_EQ(shadow.commitVarCount(), 1u);
}

TEST_F(ShadowTest, SingleCommitVarWithoutRangesCoversAll)
{
    shadow.registerCommitVar(base, 1);
    // Persist data with no commit write afterwards: uncommitted.
    shadow.preWrite(base + 512, 8, 0, false);
    shadow.preFlush(base + 512, 1);
    shadow.preFence();
    shadow.beginPostReplay();
    EXPECT_EQ(shadow.checkPostRead(base + 512, 8).verdict,
              ReadCheck::SemanticBug);
}

TEST_F(ShadowTest, StrictPersistCheckCatchesUnflushedCommitted)
{
    DetectorConfig strict;
    strict.strictPersistCheck = true;
    ShadowPM s({base, base + (1 << 20)}, strict);
    s.registerCommitVar(base, 1);
    s.registerCommitRange(base, base + 64, 8);
    s.preWrite(base + 64, 8, 0, false); // modified, never flushed
    s.preFence();                       // ts 1
    s.preWrite(base, 1, 1, false);      // commit write
    s.preFlush(base, 2);
    s.preFence();
    s.beginPostReplay();
    // Paper-faithful mode would call this consistent; strict mode
    // notices it was never persisted.
    EXPECT_EQ(s.checkPostRead(base + 64, 8).verdict, ReadCheck::Race);
}

// ---------------------------------------------------------------
// Granularity sweeps (TEST_P)
// ---------------------------------------------------------------

class GranularityTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GranularityTest, FsmHoldsAtEveryGranularity)
{
    DetectorConfig cfg = cfgWithGran(GetParam());
    ShadowPM s({base, base + (1 << 20)}, cfg);
    s.preWrite(base + 8, 8, 0, false);
    EXPECT_EQ(s.persistStateOf(base + 8), PersistState::Modified);
    s.preFlush(base, 1);
    s.preFence();
    EXPECT_EQ(s.persistStateOf(base + 8), PersistState::Persisted);
    s.beginPostReplay();
    EXPECT_EQ(s.checkPostRead(base + 8, 8).verdict, ReadCheck::Ok);
}

TEST_P(GranularityTest, RaceDetectedAtEveryGranularity)
{
    DetectorConfig cfg = cfgWithGran(GetParam());
    ShadowPM s({base, base + (1 << 20)}, cfg);
    s.preWrite(base + 16, 4, 0, false);
    s.beginPostReplay();
    EXPECT_EQ(s.checkPostRead(base + 16, 4).verdict, ReadCheck::Race);
}

TEST_P(GranularityTest, CoarseCellsMayFalseShareWithinCell)
{
    unsigned g = GetParam();
    DetectorConfig cfg = cfgWithGran(g);
    ShadowPM s({base, base + (1 << 20)}, cfg);
    // Write the first byte only; read the byte g bytes away.
    s.preWrite(base, 1, 0, false);
    s.beginPostReplay();
    auto far_res = s.checkPostRead(base + g, 1);
    // One cell away is always clean, whatever the granularity.
    EXPECT_EQ(far_res.verdict, ReadCheck::Ok);
}

INSTANTIATE_TEST_SUITE_P(Granularities, GranularityTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ---------------------------------------------------------------
// Property sweep: any (write, flush?, fence?) prefix must yield a
// race verdict unless both flush and fence happened.
// ---------------------------------------------------------------

struct PersistSequenceCase
{
    bool flush;
    bool fence;
};

class PersistSequenceTest
    : public ::testing::TestWithParam<PersistSequenceCase>
{
};

TEST_P(PersistSequenceTest, RaceUnlessFlushedAndFenced)
{
    auto [flush, fence] = GetParam();
    DetectorConfig cfg;
    ShadowPM s({base, base + (1 << 20)}, cfg);
    s.preWrite(base, 8, 0, false);
    if (flush)
        s.preFlush(base, 1);
    if (fence)
        s.preFence();
    s.beginPostReplay();
    auto verdict = s.checkPostRead(base, 8).verdict;
    if (flush && fence)
        EXPECT_EQ(verdict, ReadCheck::Ok);
    else
        EXPECT_EQ(verdict, ReadCheck::Race);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefixes, PersistSequenceTest,
    ::testing::Values(PersistSequenceCase{false, false},
                      PersistSequenceCase{true, false},
                      PersistSequenceCase{false, true},
                      PersistSequenceCase{true, true}));

} // namespace
