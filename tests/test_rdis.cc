/**
 * @file
 * Unit and property tests for the RDIS reconstruction.
 */

#include <gtest/gtest.h>

#include "pcm/fail_cache.h"
#include "scheme/rdis.h"
#include "util/error.h"
#include "util/rng.h"

namespace aegis::scheme {
namespace {

/** Check marks against the W/R contract at cell granularity. */
void
expectSeparates(const RdisSolver &solver, const RdisMarks &marks,
                const std::vector<std::uint32_t> &wrong,
                const std::vector<std::uint32_t> &right)
{
    for (std::uint32_t w : wrong)
        EXPECT_TRUE(solver.inverted(marks, w)) << "W fault " << w;
    for (std::uint32_t r : right)
        EXPECT_FALSE(solver.inverted(marks, r)) << "R fault " << r;
}

TEST(RdisSolver, NoFaultsMeansNoInversion)
{
    RdisSolver solver(16, 16, 3);
    RdisMarks marks;
    ASSERT_TRUE(solver.solve({}, {}, marks));
    EXPECT_TRUE(solver.inversionMask(marks, 256).none());
}

TEST(RdisSolver, SingleWrongFault)
{
    RdisSolver solver(16, 16, 3);
    RdisMarks marks;
    ASSERT_TRUE(solver.solve({37}, {}, marks));
    EXPECT_TRUE(solver.inverted(marks, 37));
    // Level-1 product of one fault is exactly its own cell.
    EXPECT_EQ(solver.inversionMask(marks, 256).popcount(), 1u);
}

TEST(RdisSolver, TrappedRightFaultEscapesViaLevel2)
{
    // W at (0,0) and (1,1), R at (0,1): the R fault sits on a marked
    // row AND column, the level-2 exclusion must rescue it.
    RdisSolver solver(4, 4, 3);
    RdisMarks marks;
    const std::vector<std::uint32_t> wrong{0, 5};    // (0,0), (1,1)
    const std::vector<std::uint32_t> right{1};       // (0,1)
    ASSERT_TRUE(solver.solve(wrong, right, marks));
    expectSeparates(solver, marks, wrong, right);
}

TEST(RdisSolver, ClassicUnsolvableRectangle)
{
    // W at (0,0),(1,1) and R at (0,1),(1,0): every level flips the
    // full 2x2 product, so depth 3 (two stored levels) must fail.
    RdisSolver solver(4, 4, 3);
    RdisMarks marks;
    EXPECT_FALSE(solver.solve({0, 5}, {1, 4}, marks));
}

TEST(RdisSolver, HardFtc3PropertyRandomized)
{
    // Any <= 3 faults under any W/R labeling must be recoverable —
    // the paper's stated guarantee for RDIS-3.
    RdisSolver solver(16, 32, 3);
    Rng rng(7);
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<std::uint32_t> wrong, right;
        std::vector<std::uint32_t> used;
        const std::size_t f = 1 + rng.nextBounded(3);
        for (std::size_t i = 0; i < f; ++i) {
            std::uint32_t pos;
            bool dup;
            do {
                pos = static_cast<std::uint32_t>(rng.nextBounded(512));
                dup = false;
                for (std::uint32_t u : used)
                    dup |= u == pos;
            } while (dup);
            used.push_back(pos);
            (rng.nextBool() ? wrong : right).push_back(pos);
        }
        RdisMarks marks;
        ASSERT_TRUE(solver.solve(wrong, right, marks))
            << "trial " << trial;
        expectSeparates(solver, marks, wrong, right);
    }
}

TEST(RdisSolver, SolvedLabelingsAlwaysSeparate)
{
    // Soundness: whenever solve() claims success the produced marks
    // must actually separate, for any fault count.
    RdisSolver solver(16, 32, 3);
    Rng rng(9);
    int solved = 0;
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::uint32_t> wrong, right, used;
        const std::size_t f = 4 + rng.nextBounded(20);
        for (std::size_t i = 0; i < f; ++i) {
            std::uint32_t pos;
            bool dup;
            do {
                pos = static_cast<std::uint32_t>(rng.nextBounded(512));
                dup = false;
                for (std::uint32_t u : used)
                    dup |= u == pos;
            } while (dup);
            used.push_back(pos);
            (rng.nextBool() ? wrong : right).push_back(pos);
        }
        RdisMarks marks;
        if (solver.solve(wrong, right, marks)) {
            ++solved;
            expectSeparates(solver, marks, wrong, right);
        }
    }
    EXPECT_GT(solved, 0);
}

TEST(RdisSolver, DeeperRecursionSolvesMore)
{
    RdisSolver d3(4, 4, 3);
    RdisSolver d4(4, 4, 4);
    // The 2x2 alternating rectangle defeats depth 3...
    RdisMarks marks;
    EXPECT_FALSE(d3.solve({0, 5}, {1, 4}, marks));
    // ...and depth 4 as well (it re-captures both W faults forever),
    // but depth 4 must solve everything depth 3 solves.
    Rng rng(11);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::uint32_t> wrong, right, used;
        const std::size_t f = 1 + rng.nextBounded(6);
        for (std::size_t i = 0; i < f; ++i) {
            std::uint32_t pos;
            bool dup;
            do {
                pos = static_cast<std::uint32_t>(rng.nextBounded(16));
                dup = false;
                for (std::uint32_t u : used)
                    dup |= u == pos;
            } while (dup);
            used.push_back(pos);
            (rng.nextBool() ? wrong : right).push_back(pos);
        }
        RdisMarks m3, m4;
        if (d3.solve(wrong, right, m3)) {
            EXPECT_TRUE(d4.solve(wrong, right, m4)) << "trial " << trial;
        }
    }
}

TEST(Rdis, MetadataBasics)
{
    RdisScheme rdis(512);
    EXPECT_EQ(rdis.name(), "rdis3");
    EXPECT_EQ(rdis.overheadBits(), 97u);
    EXPECT_EQ(rdis.hardFtc(), 3u);
    EXPECT_TRUE(rdis.requiresDirectory());
    EXPECT_EQ(rdis.getSolver().rows(), 16u);
    EXPECT_EQ(rdis.getSolver().cols(), 32u);
}

TEST(Rdis, RoundTripWithFaults)
{
    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    RdisScheme rdis(256);
    rdis.attachDirectory(dir.get(), 0);
    pcm::CellArray cells(256);
    Rng rng(13);

    for (int f = 0; f < 3; ++f) {
        std::uint32_t pos;
        do {
            pos = static_cast<std::uint32_t>(rng.nextBounded(256));
        } while (cells.isStuck(pos));
        cells.injectFault(pos, rng.nextBool());
        for (int w = 0; w < 8; ++w) {
            const BitVector data = BitVector::random(256, rng);
            ASSERT_TRUE(rdis.write(cells, data).ok);
            ASSERT_EQ(rdis.read(cells), data);
        }
    }
}

TEST(Rdis, UnknownFaultsGetRecordedThenHandled)
{
    auto dir = std::make_shared<pcm::OracleFaultDirectory>();
    RdisScheme rdis(256);
    rdis.attachDirectory(dir.get(), 42);
    pcm::CellArray cells(256);

    cells.injectFault(100, true);
    const BitVector zeros(256);
    const WriteOutcome outcome = rdis.write(cells, zeros);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.newFaults, 1u);
    EXPECT_EQ(dir->lookup(42).size(), 1u);
    EXPECT_EQ(rdis.read(cells), zeros);
}

TEST(Rdis, WriteWithoutDirectoryRejected)
{
    RdisScheme rdis(256);
    pcm::CellArray cells(256);
    EXPECT_THROW(rdis.write(cells, BitVector(256)), ConfigError);
}

TEST(Rdis, TrackerIsZeroRiskUnderHardFtc)
{
    RdisScheme rdis(512);
    auto tracker = rdis.makeTracker({256});
    Rng rng(17);
    for (std::uint32_t f = 0; f < 3; ++f) {
        EXPECT_EQ(tracker->onFault({f * 67 + 1, true}),
                  FaultVerdict::Alive);
        EXPECT_EQ(tracker->writeFailureProbability(rng), 0.0);
    }
}

TEST(Rdis, TrackerSeesRiskFromDenseFaults)
{
    // Cram faults into a 2-row/2-column rectangle pattern plus
    // friends; the failure probability must become positive.
    RdisScheme rdis(512);
    auto tracker = rdis.makeTracker({512});
    Rng rng(19);
    // (0,0), (0,1), (1,0), (1,1) in grid coordinates (cols = 32).
    tracker->onFault({0, true});
    tracker->onFault({1, true});
    tracker->onFault({32, true});
    tracker->onFault({33, true});
    const double p = tracker->writeFailureProbability(rng);
    // Exactly the alternating labelings (2 of 16) are unsolvable:
    // true p = 1/8.
    EXPECT_NEAR(p, 0.125, 0.05);
}

} // namespace
} // namespace aegis::scheme
