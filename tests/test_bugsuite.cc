/**
 * @file
 * Table 5 validation: every registered synthetic bug must be detected
 * with its expected finding class, and no case may trip the detector
 * when its flag is off (covered by the workload no-false-positive
 * tests). Parameterized over the whole registry. Each anchor-tier
 * case's per-point provenance is checked on the same run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bugsuite/registry.hh"
#include "harness.hh"

namespace
{

using namespace xfd;
using bugsuite::allBugCases;
using bugsuite::BugCase;
using bugsuite::detected;
using bugsuite::Expected;
using bugsuite::Origin;
using bugsuite::runBugCase;

class BugSuiteTest : public ::testing::TestWithParam<BugCase>
{
};

/**
 * Check an anchor-tier run's per-point provenance: a frontier names
 * program writes only (never allocator zero-fill, which is durable
 * at once), and a race on a written cell has its writer in flight.
 */
void
expectAnchorProvenance(const xfdtest::PointFindings &cap)
{
    std::size_t image_only = 0;
    std::size_t writer_missing = 0;
    std::string first;
    for (const auto &[fp, bugs] : cap.points) {
        for (const auto &b : bugs) {
            bool names_image_only = std::any_of(
                b.frontierSeqs.begin(), b.frontierSeqs.end(),
                [&](std::uint32_t s) {
                    return cap.pre[s].has(trace::flagImageOnly);
                });
            // A read of allocated-but-never-written memory carries a
            // note and has no program writer.
            bool lacks_writer = b.type == core::BugType::CrossFailureRace &&
                                b.note.empty() &&
                                !xfdtest::frontierHoldsWriter(cap.pre, b);
            image_only += names_image_only;
            writer_missing += lacks_writer;
            if ((names_image_only || lacks_writer) && first.empty())
                first = "fp " + std::to_string(fp) + ": " + b.str();
        }
    }
    EXPECT_EQ(image_only, 0u)
        << "findings whose frontier names an image-only write; first: "
        << first;
    EXPECT_EQ(writer_missing, 0u)
        << "races whose writer is not in flight; first: " << first;
}

TEST_P(BugSuiteTest, DetectedWithExpectedClass)
{
    const BugCase &c = GetParam();
    bool anchor_tier = c.crashStates.empty();
    xfdtest::PointFindings cap;
    core::CampaignObserver obs;
    obs.hooks = &cap;
    auto res = runBugCase(c, {}, anchor_tier ? &obs : nullptr);
    EXPECT_TRUE(detected(c, res))
        << c.id << " (" << c.description << ") expected "
        << bugsuite::expectedName(c.expected) << "\n"
        << res.summary();
    if (anchor_tier)
        expectAnchorProvenance(cap);
}

INSTANTIATE_TEST_SUITE_P(
    Table5, BugSuiteTest, ::testing::ValuesIn(allBugCases()),
    [](const ::testing::TestParamInfo<BugCase> &info) {
        std::string n = info.param.id.empty() ? info.param.workload
                                              : info.param.id;
        for (auto &ch : n) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return n;
    });

TEST(BugSuiteRegistry, MatchesTable5Counts)
{
    // Table 5 row sums (R: PMTest suite + additional, S, P).
    struct Row
    {
        const char *workload;
        std::size_t races;
        std::size_t semantics;
        std::size_t perfs;
    };
    const Row rows[] = {
        {"btree", 8 + 4, 0, 2},   {"ctree", 5 + 1, 0, 1},
        {"rbtree", 7 + 1, 0, 1},  {"hashmap_tx", 6 + 3, 0, 1},
        {"hashmap_atomic", 10 + 3, 4, 2},
    };
    for (const auto &row : rows) {
        std::size_t r = 0, s = 0, p = 0;
        for (const auto &c : bugsuite::bugCasesFor(row.workload)) {
            if (c.origin == Origin::Extra)
                continue;
            if (c.origin == Origin::NewBug &&
                std::string(row.workload) != "hashmap_atomic") {
                continue;
            }
            switch (c.expected) {
              case Expected::Race: r++; break;
              case Expected::Semantic: s++; break;
              case Expected::Performance: p++; break;
              default: break;
            }
        }
        EXPECT_EQ(r, row.races) << row.workload;
        EXPECT_EQ(s, row.semantics) << row.workload;
        EXPECT_EQ(p, row.perfs) << row.workload;
    }
}

TEST(BugSuiteRegistry, HasAllFourNewBugs)
{
    std::size_t new_bugs = 0;
    for (const auto &c : allBugCases()) {
        if (c.origin == Origin::NewBug)
            new_bugs++;
    }
    EXPECT_EQ(new_bugs, 4u);
}

} // namespace
