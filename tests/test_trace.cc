/**
 * @file
 * Unit tests for the tracing frontend: entry emission, flags, RoI and
 * skip regions, line-granular flushes, termination.
 */

#include <gtest/gtest.h>

#include "pm/pool.hh"
#include "trace/runtime.hh"

namespace
{

using namespace xfd;
using trace::Op;
using trace::PmRuntime;
using trace::Stage;
using trace::TraceBuffer;

struct TraceTest : ::testing::Test
{
    TraceTest() : pool(1 << 20), rt(pool, buf, Stage::PreFailure) {}

    pm::PmPool pool;
    TraceBuffer buf;
    PmRuntime rt;
};

TEST_F(TraceTest, StorePerformsWriteAndTraces)
{
    auto *v = pool.at<std::uint64_t>(0);
    rt.store(*v, std::uint64_t{0x1122334455667788ull});
    EXPECT_EQ(*v, 0x1122334455667788ull);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].op, Op::Write);
    EXPECT_EQ(buf[0].addr, pool.base());
    EXPECT_EQ(buf[0].size, 8u);
    ASSERT_EQ(buf[0].data.size(), 8u);
    EXPECT_EQ(buf[0].data[0], 0x88u);
    EXPECT_EQ(buf[0].data[7], 0x11u);
}

TEST_F(TraceTest, LoadReturnsValueAndTraces)
{
    auto *v = pool.at<std::uint32_t>(16);
    *v = 77;
    EXPECT_EQ(rt.load(*v), 77u);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].op, Op::Read);
    EXPECT_EQ(buf[0].addr, pool.base() + 16);
    EXPECT_EQ(buf[0].size, 4u);
}

TEST_F(TraceTest, SourceLocationCaptured)
{
    auto *v = pool.at<int>(0);
    rt.store(*v, 1);
    EXPECT_GT(buf[0].loc.line, 0u);
    EXPECT_NE(std::string(buf[0].loc.file).find("test_trace"),
              std::string::npos);
}

TEST_F(TraceTest, ClwbEmitsPerLine)
{
    // 100 bytes starting at offset 60 spans lines 0, 64 and 128.
    rt.clwb(pool.at<char>(60), 100);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].addr, pool.base());
    EXPECT_EQ(buf[1].addr, pool.base() + 64);
    EXPECT_EQ(buf[2].addr, pool.base() + 128);
    for (std::size_t i = 0; i < 3; i++) {
        EXPECT_EQ(buf[i].op, Op::Clwb);
        EXPECT_EQ(buf[i].size, cacheLineSize);
    }
}

TEST_F(TraceTest, PersistBarrierIsClwbThenSfence)
{
    rt.persistBarrier(pool.at<char>(0), 8);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0].op, Op::Clwb);
    EXPECT_EQ(buf[1].op, Op::Sfence);
}

TEST_F(TraceTest, NtStoreTraced)
{
    auto *v = pool.at<std::uint64_t>(8);
    rt.ntstore(*v, std::uint64_t{5});
    EXPECT_EQ(*v, 5u);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].op, Op::NtWrite);
}

TEST_F(TraceTest, CopyToPmCarriesData)
{
    const char msg[] = "hello";
    rt.copyToPm(pool.at<char>(100), msg, sizeof(msg));
    EXPECT_STREQ(pool.at<char>(100), "hello");
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].data.size(), sizeof(msg));
}

TEST_F(TraceTest, SetPmFills)
{
    rt.setPm(pool.at<char>(0), 0xab, 32);
    EXPECT_EQ(static_cast<unsigned char>(*pool.at<char>(31)), 0xabu);
    EXPECT_EQ(buf[0].data[0], 0xabu);
}

TEST_F(TraceTest, ReadPmCopiesOut)
{
    *pool.at<std::uint32_t>(4) = 9;
    std::uint32_t out = 0;
    rt.readPm(&out, pool.at<std::uint32_t>(4), 4);
    EXPECT_EQ(out, 9u);
    EXPECT_EQ(buf[0].op, Op::Read);
}

TEST_F(TraceTest, RoiFlagsApplied)
{
    auto *v = pool.at<int>(0);
    rt.store(*v, 1);
    rt.roiBegin();
    rt.store(*v, 2);
    rt.roiEnd();
    rt.store(*v, 3);
    // entries: write, RoiBegin, write, RoiEnd, write
    ASSERT_EQ(buf.size(), 5u);
    EXPECT_FALSE(buf[0].has(trace::flagInRoi));
    EXPECT_TRUE(buf[2].has(trace::flagInRoi));
    EXPECT_FALSE(buf[4].has(trace::flagInRoi));
}

TEST_F(TraceTest, ConditionFalseIsNoOp)
{
    rt.roiBegin(false);
    auto *v = pool.at<int>(0);
    rt.store(*v, 1);
    EXPECT_FALSE(buf[buf.size() - 1].has(trace::flagInRoi));
}

TEST_F(TraceTest, SkipRegionsFlagEntries)
{
    auto *v = pool.at<int>(0);
    rt.skipDetectionBegin();
    rt.store(*v, 1);
    rt.skipDetectionEnd();
    rt.skipFailureBegin();
    rt.sfence();
    rt.skipFailureEnd();
    EXPECT_TRUE(buf[0].has(trace::flagSkipDetection));
    EXPECT_TRUE(buf[1].has(trace::flagSkipFailure));
    EXPECT_FALSE(buf[1].has(trace::flagSkipDetection));
}

TEST_F(TraceTest, LibScopeMarksInternal)
{
    auto *v = pool.at<int>(0);
    {
        trace::LibScope lib(rt, "testlib");
        rt.store(*v, 1);
    }
    rt.store(*v, 2);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[0].op, Op::LibCall);
    EXPECT_STREQ(buf[0].label, "testlib");
    EXPECT_TRUE(buf[1].has(trace::flagInternal));
    EXPECT_FALSE(buf[2].has(trace::flagInternal));
}

TEST_F(TraceTest, NestedLibScopes)
{
    auto *v = pool.at<int>(0);
    {
        trace::LibScope a(rt, "outer");
        {
            trace::LibScope b(rt, "inner");
            rt.store(*v, 1);
        }
        rt.store(*v, 2);
    }
    EXPECT_TRUE(rt.inLib() == false);
    EXPECT_TRUE(buf[2].has(trace::flagInternal));
    EXPECT_TRUE(buf[3].has(trace::flagInternal));
}

TEST_F(TraceTest, CompleteDetectionThrowsAndStopsTracing)
{
    auto *v = pool.at<int>(0);
    EXPECT_THROW(rt.completeDetection(), trace::StageComplete);
    EXPECT_TRUE(rt.completed());
    std::size_t before = buf.size();
    rt.store(*v, 1); // must not trace any more
    EXPECT_EQ(buf.size(), before);
    EXPECT_EQ(*v, 1); // but data still flows
}

TEST_F(TraceTest, TracingDisabledStillMovesData)
{
    rt.setTracing(false);
    auto *v = pool.at<int>(0);
    rt.store(*v, 42);
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(buf.size(), 0u);
}

TEST_F(TraceTest, ZeroFillIsImageOnly)
{
    auto *v = pool.at<std::uint64_t>(0);
    *v = 123;
    rt.zeroFill(v, 8);
    EXPECT_EQ(*v, 0u);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_TRUE(buf[0].has(trace::flagImageOnly));
}

TEST_F(TraceTest, CommitVarAnnotation)
{
    auto *v = pool.at<std::uint8_t>(32);
    rt.addCommitVar(*v);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].op, Op::CommitVar);
    EXPECT_EQ(buf[0].addr, pool.base() + 32);
    EXPECT_EQ(buf[0].size, 1u);
}

TEST_F(TraceTest, CommitRangeAnnotation)
{
    auto *cv = pool.at<std::uint8_t>(32);
    rt.addCommitRange(*cv, pool.at<char>(64), 16);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].op, Op::CommitRange);
    EXPECT_EQ(buf[0].aux, pool.base() + 32);
    EXPECT_EQ(buf[0].addr, pool.base() + 64);
}

TEST_F(TraceTest, PayloadBytesAccumulated)
{
    auto *v = pool.at<std::uint64_t>(0);
    rt.store(*v, std::uint64_t{1});
    rt.store(*v, std::uint64_t{2});
    EXPECT_EQ(buf.payloadBytes(), 16u);
}

TEST(TraceLimit, PreFailureOverrunThrowsInsteadOfExiting)
{
    // A runaway pre-failure stage comes back to the host as an error,
    // on the ring-buffered path and the locked one alike.
    for (bool batched : {false, true}) {
        SCOPED_TRACE(batched ? "batched" : "unbatched");
        pm::PmPool pool(1 << 20);
        TraceBuffer buf;
        PmRuntime rt(pool, buf, Stage::PreFailure);
        rt.setEntryCap(4);
        rt.setBatching(batched);
        auto *v = pool.at<std::uint64_t>(0);
        for (std::uint64_t i = 0; i < 4; i++)
            rt.store(*v, i);
        try {
            rt.store(*v, std::uint64_t{4});
            FAIL() << "the fifth traced op was accepted";
        } catch (const trace::TraceLimitExceeded &e) {
            EXPECT_STREQ(e.what(), "pre-failure trace exceeded 4 entries");
        }
        rt.setBatching(false);
        EXPECT_EQ(buf.size(), 4u);
        // Later ops trace nothing and throw nothing.
        rt.store(*v, std::uint64_t{5});
        EXPECT_EQ(buf.size(), 4u);
    }
}

TEST_F(TraceTest, StageRecorded)
{
    EXPECT_EQ(rt.stage(), Stage::PreFailure);
    TraceBuffer b2;
    PmRuntime rt2(pool, b2, Stage::PostFailure);
    EXPECT_EQ(rt2.stage(), Stage::PostFailure);
}

} // namespace
